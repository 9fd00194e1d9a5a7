//! Crash-safe persistence for the tuning daemon: append-only journals
//! with length+checksum framing, torn-write recovery and atomic snapshot
//! compaction.
//!
//! # Journal format
//!
//! A journal file is an 8-byte header followed by zero or more frames:
//!
//! ```text
//! header: b"YSKJ" | version u8 | kind u8 | reserved u8 ×2
//! frame:  len u32 LE | crc32 u32 LE | payload (len bytes)
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. A reader accepts the
//! longest clean prefix: the first frame whose length is implausible,
//! whose checksum mismatches, or which extends past end-of-file ends the
//! parse, and everything after it is dropped (`torn-write recovery`).
//! Appends never rewrite existing bytes, so a crash mid-append can only
//! damage the tail — exactly what prefix recovery repairs.
//!
//! # What is persisted
//!
//! Two journals per state directory:
//!
//! * `predictions.journal` — compact [`PredictionRecord`]s: the full
//!   [`PredictKey`] (solution signature, tuning point, cores, resident
//!   override) plus the bit patterns of the predicted MLUP/s and
//!   seconds-per-sweep. On restart the daemon *re-derives* each persisted
//!   key through the live analytic model and verifies the bits match the
//!   record ([`PersistentStore::warm_solution`]); a mismatch marks the
//!   record stale and distrusts it. The disk is an index plus an
//!   integrity check — the model stays the authority, which is what makes
//!   persistence on/off bitwise-identical by construction (and doubles as
//!   model-drift detection across versions).
//! * `drift.journal` — the daemon's long-lived [`DriftRecord`] history,
//!   the genuinely irreplaceable asset (measurements cannot be
//!   recomputed).
//!
//! # Recovery and degradation
//!
//! [`PersistentStore::open`] loads both journals, truncates each at its
//! first corrupt record, rewrites the clean prefix atomically
//! (tmp+rename) and emits a `persist.recovered` telemetry event per
//! damaged file. A journal whose append fails (torn write, out of space)
//! poisons itself — later appends are refused so a readable prefix is
//! never buried under unreadable bytes — and the daemon keeps serving
//! from memory; [`PersistentStore::compact`] heals poisoned journals by
//! snapshotting the in-memory state.
//!
//! Injectable I/O faults ([`FaultyMedium`], driven by the
//! [`FaultPlan`] `io_*` probabilities) make all of this property-testable
//! without touching a real disk.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use yasksite_grid::Fold;
use yasksite_telemetry::{Level, Telemetry};

use crate::cache::{PredictKey, PredictionCache};
use crate::drift::DriftRecord;
use crate::predict::PredictedPerf;
use crate::solution::Solution;
use crate::trial::{FaultPlan, TrialRng};

use yasksite_engine::TuningParams;

/// Version byte of the journal header. Readers reject other versions
/// (dropping the whole file to an empty clean prefix).
pub const JOURNAL_VERSION: u8 = 1;

/// Magic prefix of every journal file.
const MAGIC: [u8; 4] = *b"YSKJ";

/// Upper bound on a single record's payload; a length field beyond this
/// is treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// Which journal a file holds; encoded in the header so a predictions
/// file pointed at the drift loader (or vice versa) is rejected instead
/// of misparsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalKind {
    /// Persisted prediction-cache records.
    Predictions,
    /// Persisted drift-ledger records.
    Drift,
}

impl JournalKind {
    fn byte(self) -> u8 {
        match self {
            JournalKind::Predictions => 1,
            JournalKind::Drift => 2,
        }
    }

    /// Canonical file name inside a state directory.
    #[must_use]
    pub fn file_name(self) -> &'static str {
        match self {
            JournalKind::Predictions => "predictions.journal",
            JournalKind::Drift => "drift.journal",
        }
    }
}

/// CRC-32 (IEEE, reflected) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes` (the checksum in every journal frame).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// The 8-byte header opening every journal of `kind`.
#[must_use]
pub fn journal_header(kind: JournalKind) -> [u8; 8] {
    [
        MAGIC[0],
        MAGIC[1],
        MAGIC[2],
        MAGIC[3],
        JOURNAL_VERSION,
        kind.byte(),
        0,
        0,
    ]
}

/// Frames `payload` as `[len u32 LE][crc32 u32 LE][payload]`.
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What a journal load found: how many records survived and what, if
/// anything, was dropped from the tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frames in the clean prefix.
    pub records: usize,
    /// Bytes after the clean prefix that were discarded.
    pub dropped_bytes: usize,
    /// Why the parse stopped early, when it did.
    pub reason: Option<String>,
}

impl RecoveryReport {
    /// Whether the whole file parsed (nothing was dropped).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.dropped_bytes == 0 && self.reason.is_none()
    }
}

/// Parses `bytes` as a journal of `kind`, returning the longest clean
/// prefix of frame payloads plus a [`RecoveryReport`] describing anything
/// dropped. Never fails: arbitrary garbage decodes to zero records with
/// every byte reported dropped. An empty byte string (a journal that was
/// never created) is clean and empty.
#[must_use]
pub fn decode_journal(bytes: &[u8], kind: JournalKind) -> (Vec<Vec<u8>>, RecoveryReport) {
    let mut report = RecoveryReport::default();
    if bytes.is_empty() {
        return (Vec::new(), report);
    }
    if bytes.len() < 8 {
        report.dropped_bytes = bytes.len();
        report.reason = Some("truncated header".into());
        return (Vec::new(), report);
    }
    if bytes[0..4] != MAGIC || bytes[4] != JOURNAL_VERSION || bytes[5] != kind.byte() {
        report.dropped_bytes = bytes.len();
        report.reason = Some("bad header".into());
        return (Vec::new(), report);
    }
    let mut frames = Vec::new();
    let mut pos = 8usize;
    while pos < bytes.len() {
        let remaining = bytes.len() - pos;
        if remaining < 8 {
            report.reason = Some(format!("torn frame header at byte {pos}"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_RECORD_BYTES {
            report.reason = Some(format!("implausible record length {len} at byte {pos}"));
            break;
        }
        if remaining < 8 + len {
            report.reason = Some(format!("torn record at byte {pos}"));
            break;
        }
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            report.reason = Some(format!("checksum mismatch at byte {pos}"));
            break;
        }
        frames.push(payload.to_vec());
        pos += 8 + len;
    }
    report.records = frames.len();
    report.dropped_bytes = bytes.len() - pos;
    (frames, report)
}

/// Where journal appends go. The production medium is a file opened in
/// append mode; tests use an in-memory buffer, optionally wrapped in
/// [`FaultyMedium`] to inject I/O faults.
pub trait JournalMedium: Send {
    /// Appends `bytes` at the end of the medium. Partial writes followed
    /// by an error model a torn write.
    ///
    /// # Errors
    /// Whatever the underlying storage reports.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Flushes buffered bytes to the medium.
    ///
    /// # Errors
    /// Whatever the underlying storage reports.
    fn flush(&mut self) -> io::Result<()>;
}

/// A file opened in append mode.
pub struct FileMedium {
    file: fs::File,
}

impl FileMedium {
    /// Opens (creating if missing) `path` for appending.
    ///
    /// # Errors
    /// Propagates the open error.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(FileMedium { file })
    }
}

impl JournalMedium for FileMedium {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// An in-memory medium whose contents tests can inspect; cloning shares
/// the buffer, so keep a clone and hand the other to the journal.
#[derive(Debug, Clone, Default)]
pub struct MemMedium {
    data: Arc<Mutex<Vec<u8>>>,
}

impl MemMedium {
    /// An empty shared buffer.
    #[must_use]
    pub fn new() -> Self {
        MemMedium::default()
    }

    /// A copy of everything appended so far.
    #[must_use]
    pub fn contents(&self) -> Vec<u8> {
        self.data.lock().expect("medium poisoned").clone()
    }
}

impl JournalMedium for MemMedium {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.data
            .lock()
            .expect("medium poisoned")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Wraps a medium and injects seeded I/O faults per append, driven by the
/// `io_*` probabilities of a [`FaultPlan`]: a *short write* appends only
/// a prefix and errors, *corruption* silently flips one bit (caught later
/// by the checksum), *ENOSPC* errors writing nothing. Exactly two RNG
/// draws are consumed per append, so the fault pattern depends only on
/// the seed and the append index.
pub struct FaultyMedium<M> {
    inner: M,
    plan: FaultPlan,
    rng: TrialRng,
}

impl<M> FaultyMedium<M> {
    /// Wraps `inner` under `plan`.
    #[must_use]
    pub fn new(inner: M, plan: FaultPlan) -> Self {
        FaultyMedium {
            inner,
            plan,
            rng: TrialRng::new(plan.seed),
        }
    }
}

impl<M: JournalMedium> JournalMedium for FaultyMedium<M> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let category = self.rng.next_f64();
        let detail = self.rng.next_u64();
        let p = &self.plan;
        if bytes.is_empty() {
            return self.inner.append(bytes);
        }
        if category < p.io_short_prob {
            let cut = (detail as usize) % bytes.len();
            self.inner.append(&bytes[..cut])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write",
            ));
        }
        if category < p.io_short_prob + p.io_corrupt_prob {
            let mut copy = bytes.to_vec();
            let at = (detail as usize) % copy.len();
            copy[at] ^= 0x40;
            return self.inner.append(&copy);
        }
        if category < p.io_short_prob + p.io_corrupt_prob + p.io_enospc_prob {
            return Err(io::Error::other("injected ENOSPC: no space left on device"));
        }
        self.inner.append(bytes)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// An append-only journal writer over any [`JournalMedium`]. After the
/// first failed append the journal is *poisoned*: further appends are
/// refused, because bytes after a torn tail would be unreadable anyway.
/// [`PersistentStore::compact`] heals a poisoned journal by rewriting it
/// from memory.
pub struct Journal {
    medium: Box<dyn JournalMedium>,
    failed: Option<String>,
}

impl Journal {
    /// A journal whose header is already on the medium (resuming an
    /// existing file).
    #[must_use]
    pub fn resume(medium: Box<dyn JournalMedium>) -> Self {
        Journal {
            medium,
            failed: None,
        }
    }

    /// A journal on a fresh medium: appends the `kind` header first. If
    /// even the header fails to write the journal starts poisoned.
    #[must_use]
    pub fn create(mut medium: Box<dyn JournalMedium>, kind: JournalKind) -> Self {
        let failed = match medium
            .append(&journal_header(kind))
            .and_then(|()| medium.flush())
        {
            Ok(()) => None,
            Err(e) => Some(e.to_string()),
        };
        Journal { medium, failed }
    }

    /// Whether appends are still accepted.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.failed.is_none()
    }

    /// Frames and appends `payload`, flushing the medium.
    ///
    /// # Errors
    /// The append error; the journal is poisoned from the first one.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        if let Some(why) = &self.failed {
            return Err(io::Error::other(format!(
                "journal poisoned by earlier failure: {why}"
            )));
        }
        let res = self
            .medium
            .append(&frame(payload))
            .and_then(|()| self.medium.flush());
        if let Err(e) = &res {
            self.failed = Some(e.to_string());
        }
        res
    }
}

/// One persisted prediction: the full cache key plus the bit patterns of
/// the model's answer. See the module docs for why values are verified
/// against the live model rather than trusted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionRecord {
    /// The cache key (solution signature, tuning point, cores, resident
    /// override).
    pub key: PredictKey,
    /// `f64::to_bits` of the predicted MLUP/s.
    pub mlups_bits: u64,
    /// `f64::to_bits` of the predicted seconds per sweep.
    pub seconds_bits: u64,
    /// Whether the wavefront adjustment was in effect.
    pub wavefront_effective: bool,
}

impl PredictionRecord {
    /// The record that persists the model's answer `perf` for `key`.
    #[must_use]
    pub fn new(key: PredictKey, perf: &PredictedPerf) -> Self {
        PredictionRecord {
            key,
            mlups_bits: perf.mlups.to_bits(),
            seconds_bits: perf.seconds_per_sweep.to_bits(),
            wavefront_effective: perf.wavefront_effective,
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Cursor-style reader for record payloads.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| "record too short".to_string())?;
        self.pos += 1;
        Ok(b)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let end = self.pos + 8;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "record too short".to_string())?;
        self.pos = end;
        Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
    }

    fn usize(&mut self) -> Result<usize, String> {
        usize::try_from(self.u64()?).map_err(|_| "value exceeds usize".to_string())
    }

    fn str(&mut self) -> Result<String, String> {
        let len = u32::from_le_bytes(
            self.bytes
                .get(self.pos..self.pos + 4)
                .ok_or_else(|| "record too short".to_string())?
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        self.pos += 4;
        let end = self.pos + len;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| "record too short".to_string())?;
        self.pos = end;
        String::from_utf8(slice.to_vec()).map_err(|_| "invalid utf-8 in record".to_string())
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err("trailing bytes in record".to_string())
        }
    }
}

/// Encodes a [`PredictionRecord`] payload (before framing).
#[must_use]
pub fn encode_prediction(rec: &PredictionRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(96);
    let p = &rec.key.params;
    put_u64(&mut out, rec.key.solution);
    for b in p.block {
        put_u64(&mut out, b as u64);
    }
    match p.sub_block {
        Some(sb) => {
            out.push(1);
            for b in sb {
                put_u64(&mut out, b as u64);
            }
        }
        None => out.push(0),
    }
    put_u64(&mut out, p.fold.x as u64);
    put_u64(&mut out, p.fold.y as u64);
    put_u64(&mut out, p.fold.z as u64);
    put_u64(&mut out, p.threads as u64);
    put_u64(&mut out, p.wavefront as u64);
    out.push(u8::from(p.streaming_stores));
    put_u64(&mut out, rec.key.cores as u64);
    match rec.key.resident_bits {
        Some(bits) => {
            out.push(1);
            put_u64(&mut out, bits);
        }
        None => out.push(0),
    }
    put_u64(&mut out, rec.mlups_bits);
    put_u64(&mut out, rec.seconds_bits);
    out.push(u8::from(rec.wavefront_effective));
    out
}

/// Decodes a [`PredictionRecord`] payload.
///
/// # Errors
/// A message when the payload is short, overlong, or semantically invalid
/// (e.g. a zero fold lane). Checksummed frames make this unreachable in
/// practice, but the loader treats it as corruption all the same.
pub fn decode_prediction(payload: &[u8]) -> Result<PredictionRecord, String> {
    let mut d = Dec::new(payload);
    let solution = d.u64()?;
    let block = [d.usize()?, d.usize()?, d.usize()?];
    let sub_block = if d.u8()? != 0 {
        Some([d.usize()?, d.usize()?, d.usize()?])
    } else {
        None
    };
    let (fx, fy, fz) = (d.usize()?, d.usize()?, d.usize()?);
    if fx == 0 || fy == 0 || fz == 0 {
        return Err("zero fold lane".into());
    }
    let threads = d.usize()?;
    let wavefront = d.usize()?;
    let streaming_stores = d.u8()? != 0;
    let cores = d.usize()?;
    let resident_bits = if d.u8()? != 0 { Some(d.u64()?) } else { None };
    let mlups_bits = d.u64()?;
    let seconds_bits = d.u64()?;
    let wavefront_effective = d.u8()? != 0;
    d.finish()?;
    Ok(PredictionRecord {
        key: PredictKey {
            solution,
            params: TuningParams {
                block,
                sub_block,
                fold: Fold::new(fx, fy, fz),
                threads,
                wavefront,
                streaming_stores,
            },
            cores,
            resident_bits,
        },
        mlups_bits,
        seconds_bits,
        wavefront_effective,
    })
}

/// Encodes a [`DriftRecord`] payload (before framing).
#[must_use]
pub fn encode_drift(rec: &DriftRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + rec.stencil.len() + rec.params.len());
    put_str(&mut out, &rec.stencil);
    put_str(&mut out, &rec.params);
    put_u64(&mut out, rec.cores as u64);
    put_u64(&mut out, rec.predicted_mlups.to_bits());
    put_u64(&mut out, rec.measured_mlups.to_bits());
    put_str(&mut out, &rec.tier);
    out
}

/// Decodes a [`DriftRecord`] payload.
///
/// The tier string is a trailing, optional field: journals written
/// before tier attribution end after the measured bits and decode with
/// tier `"?"`.
///
/// # Errors
/// A message when the payload is malformed (see [`decode_prediction`]).
pub fn decode_drift(payload: &[u8]) -> Result<DriftRecord, String> {
    let mut d = Dec::new(payload);
    let stencil = d.str()?;
    let params = d.str()?;
    let cores = d.usize()?;
    let predicted_mlups = f64::from_bits(d.u64()?);
    let measured_mlups = f64::from_bits(d.u64()?);
    let tier = if d.at_end() {
        "?".to_string()
    } else {
        d.str()?
    };
    d.finish()?;
    Ok(DriftRecord {
        stencil,
        params,
        cores,
        tier,
        predicted_mlups,
        measured_mlups,
    })
}

/// One damaged-file repair performed by [`PersistentStore::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// File name inside the state directory.
    pub file: String,
    /// Records in the clean prefix that was kept.
    pub kept_records: usize,
    /// Bytes dropped after the clean prefix.
    pub dropped_bytes: usize,
    /// Why the parse stopped.
    pub reason: String,
}

/// Warm-start outcome of [`PersistentStore::warm_solution`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// Persisted records the live model reproduced bit-for-bit (now hot
    /// in the cache).
    pub loaded: usize,
    /// Persisted records the live model disagreed with (distrusted —
    /// the model's answer is cached, the record is ignored).
    pub stale: usize,
}

/// Disk-backed store for the prediction cache and the drift ledger. See
/// the module docs for the format and the recovery rules.
pub struct PersistentStore {
    dir: Option<PathBuf>,
    predictions: HashMap<PredictKey, PredictionRecord>,
    pred_order: Vec<PredictKey>,
    drift: Vec<DriftRecord>,
    pred_journal: Journal,
    drift_journal: Journal,
    recoveries: Vec<RecoveryEvent>,
}

/// Loads one journal file: clean-prefix decode, semantic parse, atomic
/// rewrite when anything was dropped. Returns the parsed payloads and an
/// optional recovery event.
fn load_journal_file(
    dir: &Path,
    kind: JournalKind,
    mut accept: impl FnMut(&[u8]) -> Result<(), String>,
) -> io::Result<(Journal, Option<RecoveryEvent>)> {
    let path = dir.join(kind.file_name());
    let bytes = match fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let (frames, mut report) = decode_journal(&bytes, kind);
    let mut clean: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    for f in frames {
        match accept(&f) {
            Ok(()) => clean.push(f),
            Err(e) => {
                report.reason.get_or_insert(e);
                report.dropped_bytes += 8 + f.len();
                break;
            }
        }
    }
    report.records = clean.len();
    let event = if report.is_clean() && !bytes.is_empty() {
        None
    } else {
        // Missing or damaged: rewrite the clean prefix atomically. A
        // fresh file (no damage) gets just its header and no event.
        let mut rebuilt = Vec::with_capacity(8 + clean.iter().map(|f| 8 + f.len()).sum::<usize>());
        rebuilt.extend_from_slice(&journal_header(kind));
        for f in &clean {
            rebuilt.extend_from_slice(&frame(f));
        }
        write_atomic(&path, &rebuilt)?;
        report.reason.as_ref().map(|reason| RecoveryEvent {
            file: kind.file_name().to_string(),
            kept_records: report.records,
            dropped_bytes: report.dropped_bytes,
            reason: reason.clone(),
        })
    };
    let journal = Journal::resume(Box::new(FileMedium::append_to(&path)?));
    Ok((journal, event))
}

/// Writes `bytes` to `path` atomically: tmp file in the same directory,
/// fsync, rename over the target.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}.{seq}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

impl PersistentStore {
    /// Opens (creating as needed) the store under `dir`, recovering each
    /// journal to its longest clean prefix. Every repaired file emits a
    /// `persist.recovered` telemetry event and bumps the
    /// `persist.recovered` counter.
    ///
    /// # Errors
    /// Propagates directory-creation and file I/O errors (not corruption,
    /// which is recovered, and not missing files, which are created).
    pub fn open(dir: &Path, tel: &Telemetry) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut predictions = HashMap::new();
        let mut pred_order = Vec::new();
        let (pred_journal, pred_event) =
            load_journal_file(dir, JournalKind::Predictions, |payload| {
                let rec = decode_prediction(payload)?;
                if predictions.insert(rec.key.clone(), rec.clone()).is_none() {
                    pred_order.push(rec.key);
                }
                Ok(())
            })?;
        let mut drift = Vec::new();
        let (drift_journal, drift_event) = load_journal_file(dir, JournalKind::Drift, |payload| {
            drift.push(decode_drift(payload)?);
            Ok(())
        })?;
        let recoveries: Vec<RecoveryEvent> =
            [pred_event, drift_event].into_iter().flatten().collect();
        for r in &recoveries {
            tel.inc("persist.recovered");
            tel.event(
                Level::Info,
                "persist.recovered",
                0,
                &[
                    ("file", r.file.as_str().into()),
                    ("kept_records", r.kept_records.into()),
                    ("dropped_bytes", r.dropped_bytes.into()),
                    ("reason", r.reason.as_str().into()),
                ],
            );
        }
        Ok(PersistentStore {
            dir: Some(dir.to_path_buf()),
            predictions,
            pred_order,
            drift,
            pred_journal,
            drift_journal,
            recoveries,
        })
    }

    /// A store with no backing directory, journaling into the given
    /// media — the fault-injection entry point for tests.
    /// [`PersistentStore::compact`] is a no-op without a directory.
    #[must_use]
    pub fn with_media(pred: Box<dyn JournalMedium>, drift_medium: Box<dyn JournalMedium>) -> Self {
        PersistentStore {
            dir: None,
            predictions: HashMap::new(),
            pred_order: Vec::new(),
            drift: Vec::new(),
            pred_journal: Journal::create(pred, JournalKind::Predictions),
            drift_journal: Journal::create(drift_medium, JournalKind::Drift),
            recoveries: Vec::new(),
        }
    }

    /// Repairs performed when this store was opened.
    #[must_use]
    pub fn recoveries(&self) -> &[RecoveryEvent] {
        &self.recoveries
    }

    /// Persisted prediction records.
    #[must_use]
    pub fn prediction_count(&self) -> usize {
        self.predictions.len()
    }

    /// Persisted drift records.
    #[must_use]
    pub fn drift_count(&self) -> usize {
        self.drift.len()
    }

    /// The persisted drift history, in journal order.
    #[must_use]
    pub fn drift_records(&self) -> &[DriftRecord] {
        &self.drift
    }

    /// Whether both journals still accept appends.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.pred_journal.healthy() && self.drift_journal.healthy()
    }

    /// Whether `key` is already persisted.
    #[must_use]
    pub fn has_prediction(&self, key: &PredictKey) -> bool {
        self.predictions.contains_key(key)
    }

    /// Journals one prediction. Returns `Ok(false)` when an identical
    /// record is already persisted (nothing written). The in-memory copy
    /// is kept even when the journal append fails, so the daemon keeps
    /// its knowledge and [`PersistentStore::compact`] can heal the file.
    ///
    /// # Errors
    /// The journal append error.
    pub fn record_prediction(&mut self, rec: PredictionRecord) -> io::Result<bool> {
        if self.predictions.get(&rec.key) == Some(&rec) {
            return Ok(false);
        }
        if self
            .predictions
            .insert(rec.key.clone(), rec.clone())
            .is_none()
        {
            self.pred_order.push(rec.key.clone());
        }
        self.pred_journal.append(&encode_prediction(&rec))?;
        Ok(true)
    }

    /// Journals one drift record (kept in memory regardless of the
    /// append outcome, like [`PersistentStore::record_prediction`]).
    ///
    /// # Errors
    /// The journal append error.
    pub fn record_drift(&mut self, rec: &DriftRecord) -> io::Result<()> {
        self.drift.push(rec.clone());
        self.drift_journal.append(&encode_drift(rec))
    }

    /// Verified warm start: for every persisted record of `sol`,
    /// recomputes the prediction through `cache` with the *live* model
    /// (so the authentic full prediction enters the cache) and checks the
    /// persisted bits match. Matching records count as `loaded`;
    /// mismatches (a changed model, a hash collision) count as `stale`
    /// and are distrusted — the model's answer wins.
    pub fn warm_solution(&self, sol: &Solution, cache: &PredictionCache) -> WarmStats {
        let signature = sol.signature();
        let mut stats = WarmStats::default();
        for key in &self.pred_order {
            if key.solution != signature {
                continue;
            }
            let Some(rec) = self.predictions.get(key) else {
                continue;
            };
            let (perf, _hit) = cache.predict_keyed(key.clone(), || match key.resident_bits {
                Some(bits) => {
                    sol.predict_with_resident(&key.params, key.cores, f64::from_bits(bits))
                }
                None => sol.predict(&key.params, key.cores),
            });
            if PredictionRecord::new(key.clone(), &perf) == *rec {
                stats.loaded += 1;
            } else {
                stats.stale += 1;
            }
        }
        stats
    }

    /// Snapshot compaction: atomically rewrites both journals from the
    /// in-memory state (tmp + fsync + rename), deduplicated and in a
    /// stable order, then resumes appending to the new files. Heals
    /// poisoned journals. A media-backed store (no directory) is a no-op.
    ///
    /// # Errors
    /// Propagates snapshot-write errors; the existing files are untouched
    /// when the snapshot fails.
    pub fn compact(&mut self) -> io::Result<()> {
        let Some(dir) = self.dir.clone() else {
            return Ok(());
        };
        let mut pred_bytes = Vec::new();
        pred_bytes.extend_from_slice(&journal_header(JournalKind::Predictions));
        for key in &self.pred_order {
            if let Some(rec) = self.predictions.get(key) {
                pred_bytes.extend_from_slice(&frame(&encode_prediction(rec)));
            }
        }
        let mut drift_bytes = Vec::new();
        drift_bytes.extend_from_slice(&journal_header(JournalKind::Drift));
        for rec in &self.drift {
            drift_bytes.extend_from_slice(&frame(&encode_drift(rec)));
        }
        let pred_path = dir.join(JournalKind::Predictions.file_name());
        let drift_path = dir.join(JournalKind::Drift.file_name());
        write_atomic(&pred_path, &pred_bytes)?;
        write_atomic(&drift_path, &drift_bytes)?;
        self.pred_journal = Journal::resume(Box::new(FileMedium::append_to(&pred_path)?));
        self.drift_journal = Journal::resume(Box::new(FileMedium::append_to(&drift_path)?));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use yasksite_arch::Machine;
    use yasksite_stencil::builders::heat3d;

    fn tmp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let d = std::env::temp_dir().join(format!(
            "yasksite-persist-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn sample_pred(i: u64) -> PredictionRecord {
        let params = TuningParams::new([32 + i as usize, 8, 8], Fold::new(8, 1, 1))
            .threads(2)
            .wavefront(1 + (i as usize % 3));
        PredictionRecord {
            key: PredictKey::new(0xABCD_0000 + i, &params, 4),
            mlups_bits: ((1000 + i) as f64).to_bits(),
            seconds_bits: (0.5 + i as f64).to_bits(),
            wavefront_effective: i.is_multiple_of(2),
        }
    }

    fn sample_drift(i: u64) -> DriftRecord {
        DriftRecord {
            stencil: format!("heat-3d-r{i}"),
            params: "b=32x8x8 fold=8x1x1 t=2 wf=1".to_string(),
            cores: 4,
            tier: "folded".to_string(),
            predicted_mlups: 1000.0 + i as f64,
            measured_mlups: 990.0 + i as f64,
        }
    }

    #[test]
    fn drift_records_without_tier_bytes_decode_with_unknown_tier() {
        // A pre-tier-attribution journal payload ends after the measured
        // bits; it must decode (tier "?"), not be dropped as corrupt.
        let rec = sample_drift(3);
        let mut legacy = Vec::new();
        put_str(&mut legacy, &rec.stencil);
        put_str(&mut legacy, &rec.params);
        put_u64(&mut legacy, rec.cores as u64);
        put_u64(&mut legacy, rec.predicted_mlups.to_bits());
        put_u64(&mut legacy, rec.measured_mlups.to_bits());
        let decoded = decode_drift(&legacy).expect("legacy payload decodes");
        assert_eq!(decoded.tier, "?");
        assert_eq!(decoded.stencil, rec.stencil);
        assert_eq!(
            decoded.measured_mlups.to_bits(),
            rec.measured_mlups.to_bits()
        );
        // And the modern round trip preserves the tier exactly.
        let modern = decode_drift(&encode_drift(&rec)).unwrap();
        assert_eq!(modern, rec);
    }

    #[test]
    fn frames_round_trip() {
        let mut bytes = journal_header(JournalKind::Drift).to_vec();
        let payloads: Vec<Vec<u8>> = (0..5).map(|i| encode_drift(&sample_drift(i))).collect();
        for p in &payloads {
            bytes.extend_from_slice(&frame(p));
        }
        let (frames, report) = decode_journal(&bytes, JournalKind::Drift);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(frames, payloads);
    }

    #[test]
    fn torn_tail_truncates_to_prefix() {
        let mut bytes = journal_header(JournalKind::Drift).to_vec();
        for i in 0..4 {
            bytes.extend_from_slice(&frame(&encode_drift(&sample_drift(i))));
        }
        let full = bytes.len();
        bytes.truncate(full - 5); // tear the last frame
        let (frames, report) = decode_journal(&bytes, JournalKind::Drift);
        assert_eq!(frames.len(), 3);
        assert!(!report.is_clean());
        assert!(report.reason.as_deref().unwrap().contains("torn"));
    }

    #[test]
    fn checksum_mismatch_truncates() {
        let mut bytes = journal_header(JournalKind::Drift).to_vec();
        let first_end;
        {
            let f = frame(&encode_drift(&sample_drift(0)));
            bytes.extend_from_slice(&f);
            first_end = bytes.len();
            bytes.extend_from_slice(&frame(&encode_drift(&sample_drift(1))));
            bytes.extend_from_slice(&frame(&encode_drift(&sample_drift(2))));
        }
        bytes[first_end + 12] ^= 0x40; // flip a payload byte of record 2
        let (frames, report) = decode_journal(&bytes, JournalKind::Drift);
        assert_eq!(frames.len(), 1, "only the record before the flip survives");
        assert!(report.reason.as_deref().unwrap().contains("checksum"));
    }

    #[test]
    fn wrong_kind_or_garbage_drops_everything() {
        let mut bytes = journal_header(JournalKind::Predictions).to_vec();
        bytes.extend_from_slice(&frame(b"x"));
        let (frames, report) = decode_journal(&bytes, JournalKind::Drift);
        assert!(frames.is_empty());
        assert_eq!(report.reason.as_deref(), Some("bad header"));
        let (frames, report) = decode_journal(b"not a journal at all", JournalKind::Drift);
        assert!(frames.is_empty());
        assert!(!report.is_clean());
        let (frames, report) = decode_journal(b"", JournalKind::Drift);
        assert!(frames.is_empty());
        assert!(report.is_clean(), "a never-created journal is clean");
    }

    #[test]
    fn prediction_codec_round_trips() {
        for i in 0..6 {
            let mut rec = sample_pred(i);
            if i % 2 == 0 {
                rec.key.resident_bits = Some(123_456 + i);
            }
            if i % 3 == 0 {
                rec.key.params.sub_block = Some([16, 4, 4]);
            }
            let decoded = decode_prediction(&encode_prediction(&rec)).unwrap();
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn drift_codec_round_trips() {
        let rec = sample_drift(3);
        assert_eq!(decode_drift(&encode_drift(&rec)).unwrap(), rec);
    }

    #[test]
    fn decoder_rejects_malformed_payloads() {
        assert!(decode_prediction(b"").is_err());
        assert!(decode_drift(&[0xFF; 4]).is_err());
        let mut good = encode_prediction(&sample_pred(0));
        good.push(0); // trailing byte
        assert!(decode_prediction(&good).is_err());
    }

    #[test]
    fn store_persists_and_reloads() {
        let dir = tmp_dir("roundtrip");
        let tel = Telemetry::disabled();
        {
            let mut store = PersistentStore::open(&dir, &tel).unwrap();
            assert!(store.recoveries().is_empty());
            for i in 0..3 {
                assert!(store.record_prediction(sample_pred(i)).unwrap());
            }
            assert!(
                !store.record_prediction(sample_pred(1)).unwrap(),
                "identical record is deduplicated"
            );
            store.record_drift(&sample_drift(0)).unwrap();
        }
        let store = PersistentStore::open(&dir, &tel).unwrap();
        assert!(store.recoveries().is_empty());
        assert_eq!(store.prediction_count(), 3);
        assert_eq!(store.drift_count(), 1);
        assert!(store.has_prediction(&sample_pred(2).key));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_file_recovers_with_event_and_appends_continue() {
        let dir = tmp_dir("recover");
        let (tel, sink) = Telemetry::recording(Level::Info);
        {
            let mut store = PersistentStore::open(&dir, &tel).unwrap();
            for i in 0..3 {
                store.record_drift(&sample_drift(i)).unwrap();
            }
        }
        // Simulate a crash mid-append: chop bytes off the tail.
        let path = dir.join(JournalKind::Drift.file_name());
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        fs::write(&path, &bytes).unwrap();

        let mut store = PersistentStore::open(&dir, &tel).unwrap();
        assert_eq!(store.drift_count(), 2, "clean prefix only");
        assert_eq!(store.recoveries().len(), 1);
        assert_eq!(tel.counter("persist.recovered"), 1);
        assert!(
            sink.lines().iter().any(|l| l.contains("persist.recovered")),
            "recovery event is on the trace"
        );
        // The rewritten file is clean and appendable.
        store.record_drift(&sample_drift(9)).unwrap();
        drop(store);
        let store = PersistentStore::open(&dir, &tel).unwrap();
        assert_eq!(store.drift_count(), 3);
        assert_eq!(store.recoveries().len(), 0, "no damage on the second load");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_heals_and_preserves_state() {
        let dir = tmp_dir("compact");
        let tel = Telemetry::disabled();
        let mut store = PersistentStore::open(&dir, &tel).unwrap();
        for i in 0..4 {
            store.record_prediction(sample_pred(i)).unwrap();
            store.record_drift(&sample_drift(i)).unwrap();
        }
        store.compact().unwrap();
        assert!(store.healthy());
        store.record_prediction(sample_pred(9)).unwrap();
        drop(store);
        let store = PersistentStore::open(&dir, &tel).unwrap();
        assert!(store.recoveries().is_empty(), "compacted files are clean");
        assert_eq!(store.prediction_count(), 5);
        assert_eq!(store.drift_count(), 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_medium_is_deterministic_and_poisons_journals() {
        let plan = FaultPlan::io_faults(42, 0.0, 0.0, 1.0); // always ENOSPC
        let mem = MemMedium::new();
        let mut store = PersistentStore::with_media(
            Box::new(FaultyMedium::new(mem.clone(), plan)),
            Box::new(MemMedium::new()),
        );
        assert!(!store.healthy(), "even the header append failed");
        assert!(store.record_prediction(sample_pred(0)).is_err());
        assert_eq!(
            store.prediction_count(),
            1,
            "memory keeps serving although the journal is poisoned"
        );
        assert!(mem.contents().is_empty(), "ENOSPC writes nothing");

        // Deterministic: the same plan reproduces the same byte stream.
        let run = |seed: u64| {
            let mem = MemMedium::new();
            let mut j = Journal::create(
                Box::new(FaultyMedium::new(
                    mem.clone(),
                    FaultPlan::io_faults(seed, 0.3, 0.3, 0.1),
                )),
                JournalKind::Drift,
            );
            for i in 0..10 {
                let _ = j.append(&encode_drift(&sample_drift(i)));
            }
            mem.contents()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn warm_solution_verifies_against_the_live_model() {
        let sol = Solution::new(heat3d(1), [32, 16, 16], Machine::cascade_lake());
        let params = TuningParams::new([32, 8, 8], Fold::new(8, 1, 1)).threads(2);
        let perf = sol.predict(&params, 2);
        let good = PredictionRecord::new(PredictKey::new(sol.signature(), &params, 2), &perf);
        let mut stale = good.clone();
        stale.key.params = params.clone().wavefront(2);
        stale.mlups_bits ^= 1; // a record the model no longer agrees with
        let mut store =
            PersistentStore::with_media(Box::new(MemMedium::new()), Box::new(MemMedium::new()));
        store.record_prediction(good.clone()).unwrap();
        store.record_prediction(stale).unwrap();

        let cache = PredictionCache::new();
        let stats = store.warm_solution(&sol, &cache);
        assert_eq!(
            stats,
            WarmStats {
                loaded: 1,
                stale: 1
            }
        );
        assert_eq!(cache.len(), 2, "both keys are now hot with model answers");
        // The warmed entry serves hits that are bitwise the model's.
        let (cached, hit) = cache.predict(&sol, &params, 2);
        assert!(hit);
        assert_eq!(cached.mlups.to_bits(), good.mlups_bits);
    }
}
