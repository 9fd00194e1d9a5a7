//! `serve-mix`: the daemon path. An in-process `serve_unix` on a socket in
//! the scratch directory, with a state directory, driven by one
//! closed-loop client (the next request leaves only after the reply).
//!
//! One round: prefill a fresh state directory, reopen it (the timed warm
//! start), play the seeded request mix, shut down, reopen once more and
//! check the tuner still names the same winner.

use std::collections::HashSet;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use yasksite::cli::stencil_by_name;
use yasksite::{
    serve_unix, PersistentStore, PredictKey, PredictionRecord, ServeConfig, ServeState, ServeStats,
    Solution, TrialRng,
};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_telemetry::json::{parse, Json};
use yasksite_telemetry::{Level, Telemetry};

use super::Ctx;
use crate::stats::{fnv1a, median, shuffle, tail};
use crate::trace::Tracer;

/// Requests per round: 80 % predict (half on one of `REPEAT_KEYS` keys
/// the daemon has seen, half on keys it has not), 15 % tune, 5 % status.
const REQUESTS: usize = 4000;
const REPEAT_KEYS: usize = 400;
const PREDICT_DOMAIN: usize = 128;
const PREDICT_COMBOS: [(&str, &str); 4] = [
    ("heat-3d-r1", "clx"),
    ("star-3d-r2", "rome"),
    ("heat-3d-r1", "rome"),
    ("star-3d-r2", "clx"),
];
const PREDICT_CORES: [usize; 4] = [1, 2, 4, 8];
/// The analytic tune requests cycle over these problems: the first of
/// each is cold, the rest find their candidates in the daemon's cache.
const TUNE_PROBLEMS: [(&str, usize, &str, usize); 4] = [
    ("heat-3d-r1", 64, "clx", 2),
    ("star-3d-r2", 64, "rome", 4),
    ("heat-3d-vc", 96, "clx", 1),
    ("heat-3d-r1", 96, "rome", 8),
];
const WARM_STARTS: usize = 5;
/// The clock moves in seconds; 64 requests are about 40 ms.
const REQUESTS_PER_CLOCK_READING: usize = 64;
const TYPICAL_ROUNDS: usize = 3;
/// The server never sees this flag raised; it stops on a `shutdown` request.
static NEVER: AtomicBool = AtomicBool::new(false);

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    PredictNew,
    PredictRepeat,
    Tune,
    Status,
}

struct Request {
    kind: Kind,
    line: String,
    /// For predicts: the combo index, parameters and cores to check the
    /// reply against an in-process `Solution::predict`.
    expect: Option<(usize, TuningParams, usize)>,
}

struct Inputs {
    prefill: Vec<Request>,
    mix: Vec<Request>,
    solutions: Vec<Solution>,
    hash: u64,
}

fn predict_request(
    id: usize,
    rng: &mut TrialRng,
    seen: &mut HashSet<String>,
    kind: Kind,
) -> Request {
    loop {
        let combo = id % PREDICT_COMBOS.len();
        let (stencil, machine) = PREDICT_COMBOS[combo];
        let cores = PREDICT_CORES[(rng.next_u64() % 4) as usize];
        let by = 4 + rng.next_u64() % 125;
        let bz = 4 + rng.next_u64() % 125;
        let n = PREDICT_DOMAIN;
        let key = format!("{combo} {cores} {by} {bz}");
        if !seen.insert(key) {
            continue;
        }
        let lanes = Machine::by_short_name(machine)
            .expect("built-in machine")
            .lanes();
        let params =
            TuningParams::new([n, by as usize, bz as usize], Fold::new(lanes, 1, 1)).threads(cores);
        return Request {
            kind,
            line: format!(
                r#"{{"id":"p{id}","op":"predict","stencil":"{stencil}","domain":"{n}x{n}x{n}","machine":"{machine}","cores":{cores},"block":"{n}x{by}x{bz}"}}"#
            ),
            expect: Some((combo, params, cores)),
        };
    }
}

fn tune_request(id: usize, problem: usize) -> Request {
    let (stencil, n, machine, cores) = TUNE_PROBLEMS[problem];
    Request {
        kind: Kind::Tune,
        line: format!(
            r#"{{"id":"t{id}","op":"tune","stencil":"{stencil}","domain":"{n}x{n}x{n}","machine":"{machine}","cores":{cores},"strategy":"analytic","jobs":1,"tenant":"bench"}}"#
        ),
        expect: None,
    }
}

/// The request sequence for `seed`: exact shares of each kind, in a
/// seeded order, on seeded keys. The cost of the mix does not depend on
/// the seed (every combination gets the same number of keys), so results
/// compare across seeds.
fn generate(seed: u64) -> Inputs {
    let mut rng = TrialRng::new(seed);
    let mut seen = HashSet::new();
    let repeat: Vec<Request> = (0..REPEAT_KEYS)
        .map(|i| predict_request(i, &mut rng, &mut seen, Kind::PredictRepeat))
        .collect();
    let predicts = REQUESTS * 8 / 10;
    let tunes = REQUESTS * 15 / 100;
    let statuses = REQUESTS - predicts - tunes;
    let mut mix = Vec::with_capacity(REQUESTS);
    for i in 0..predicts / 2 {
        mix.push(predict_request(
            REPEAT_KEYS + i,
            &mut rng,
            &mut seen,
            Kind::PredictNew,
        ));
        let again = &repeat[(rng.next_u64() % REPEAT_KEYS as u64) as usize];
        mix.push(Request {
            kind: Kind::PredictRepeat,
            line: again.line.clone(),
            expect: again.expect.clone(),
        });
    }
    for i in 0..tunes {
        mix.push(tune_request(i, i % TUNE_PROBLEMS.len()));
    }
    for i in 0..statuses {
        mix.push(Request {
            kind: Kind::Status,
            line: format!(r#"{{"id":"s{i}","op":"status"}}"#),
            expect: None,
        });
    }
    shuffle(&mut mix, &mut rng);
    let solutions = PREDICT_COMBOS
        .iter()
        .map(|&(stencil, machine)| {
            Solution::new(
                stencil_by_name(stencil).expect("the benchmark names stencils the CLI knows"),
                [PREDICT_DOMAIN; 3],
                Machine::by_short_name(machine).expect("built-in machine"),
            )
        })
        .collect();
    let listing: Vec<&str> = repeat.iter().chain(&mix).map(|r| r.line.as_str()).collect();
    Inputs {
        hash: fnv1a(&listing.join("\n")),
        prefill: repeat,
        mix,
        solutions,
    }
}

/// Whether a predict reply carries exactly the bits of the in-process
/// model's answer.
fn predict_matches(reply: &str, solution: &Solution, params: &TuningParams, cores: usize) -> bool {
    let Ok(doc) = parse(reply) else {
        return false;
    };
    let expected = solution.predict(params, cores);
    let bits = |key: &str| doc.get(key).and_then(Json::as_f64).map(f64::to_bits);
    bits("mlups") == Some(expected.mlups.to_bits())
        && bits("seconds_per_sweep") == Some(expected.seconds_per_sweep.to_bits())
}

fn reply_ok(reply: &str) -> bool {
    reply.contains("\"ok\":true")
}

/// Client-side round trips.
#[derive(Default)]
struct Latencies {
    /// Per reply: the request's kind, the round trip in wall seconds, and
    /// the clock reading in force (see [`crate::clock`]).
    replies: Vec<(Kind, f64, f64)>,
    /// Sum of the round trips (the benchmark's own checking left out).
    wall: f64,
    /// Replies that were missing or not `ok`.
    refused: usize,
    /// Predict replies whose bits differ from the in-process model's.
    mismatched: usize,
}

const PREDICTS: [Kind; 2] = [Kind::PredictNew, Kind::PredictRepeat];

impl Latencies {
    fn of<'a>(&'a self, kinds: &'a [Kind]) -> impl Iterator<Item = &'a (Kind, f64, f64)> {
        self.replies.iter().filter(move |(k, ..)| kinds.contains(k))
    }

    /// Wall seconds of the round trips of `kinds`.
    fn wall_of(&self, kinds: &[Kind]) -> Vec<f64> {
        self.of(kinds).map(|(_, secs, _)| *secs).collect()
    }

    /// Median round trip of `kind` at the reference clock, in milliseconds.
    fn gated_ms(&self, kind: Kind) -> f64 {
        let scaled: Vec<f64> = self.of(&[kind]).map(|(_, s, k)| s * k).collect();
        median(&scaled) * 1e3
    }
}

/// Plays `requests` through `send`, one at a time; every reply must be
/// `ok`, every predict reply must match the in-process model.
fn play(
    requests: &[Request],
    solutions: &[Solution],
    send: &mut dyn FnMut(&str) -> io::Result<String>,
    ctx: &mut Ctx,
    span: &'static str,
    lat: &mut Latencies,
) {
    let mut scale = 1.0;
    for (i, r) in requests.iter().enumerate() {
        if i % REQUESTS_PER_CLOCK_READING == 0 {
            scale = ctx.clock_scale();
        }
        ctx.tr.next_op();
        let t0 = Instant::now();
        let reply = ctx.tr.in_span(span, || send(&r.line));
        let secs = t0.elapsed().as_secs_f64();
        lat.wall += secs;
        let Ok(reply) = reply else {
            ctx.out.op(false);
            lat.refused += 1;
            continue;
        };
        lat.replies.push((r.kind, secs, scale));
        let ok = reply_ok(&reply);
        let matches = r.expect.as_ref().is_none_or(|(combo, params, cores)| {
            ctx.tr.in_span("bench:verify", || {
                predict_matches(&reply, &solutions[*combo], params, *cores)
            })
        });
        lat.refused += usize::from(!ok);
        lat.mismatched += usize::from(ok && !matches);
        ctx.out.op(ok && matches);
    }
}

fn persistent(state_dir: &Path, telemetry: Telemetry) -> ServeConfig {
    ServeConfig {
        state_dir: Some(state_dir.to_path_buf()),
        telemetry,
        ..ServeConfig::default()
    }
}

/// A daemon on its own thread plus the client's end of the socket.
struct Daemon {
    server: JoinHandle<io::Result<ServeStats>>,
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Daemon {
    /// Starts `serve_unix` on `state_dir` and connects as soon as the
    /// socket accepts.
    fn start(state_dir: &Path, socket: &Path) -> io::Result<Daemon> {
        let config = persistent(state_dir, Telemetry::disabled());
        let path = socket.to_path_buf();
        let server = std::thread::spawn(move || serve_unix(config, &path, &NEVER));
        let deadline = Instant::now() + Duration::from_secs(10);
        let stream = loop {
            match UnixStream::connect(socket) {
                Ok(s) => break s,
                Err(e) if server.is_finished() || Instant::now() > deadline => {
                    // The server could not bind (or never came up): reap it.
                    let bind_error = server.join().ok().and_then(Result::err);
                    return Err(bind_error.unwrap_or(e));
                }
                Err(_) => std::thread::yield_now(),
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Daemon {
            server,
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn request(&mut self, line: &str) -> io::Result<String> {
        let mut message = String::with_capacity(line.len() + 1);
        message.push_str(line);
        message.push('\n');
        self.writer.write_all(message.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }

    /// Asks the daemon to stop and waits for its thread; `true` when it
    /// drained and compacted without a persistence error.
    fn shutdown(mut self) -> bool {
        let acknowledged = self
            .request(r#"{"id":"x","op":"shutdown"}"#)
            .is_ok_and(|r| reply_ok(&r));
        drop(self.writer);
        drop(self.reader);
        let stats = self.server.join();
        acknowledged && matches!(stats, Ok(Ok(s)) if s.persist_errors == 0)
    }
}

fn winner(reply: &str) -> Option<String> {
    let doc = parse(reply).ok()?;
    Some(doc.get("best")?.as_str()?.to_string())
}

/// Opens `state_dir` in-process and answers `line`: seconds from open to
/// reply, and the reply.
fn reopen(state_dir: &Path, line: &str, tr: &Tracer) -> (f64, Option<String>) {
    tr.next_op();
    let config = persistent(state_dir, Telemetry::disabled());
    let t0 = Instant::now();
    let mut state = tr.in_span("core.persist:open", || ServeState::new(config));
    let reply = tr.in_span("core.serve:handle_line", || state.handle_line(line));
    (t0.elapsed().as_secs_f64(), reply)
}

/// What one round measured besides the request latencies.
struct Round {
    /// Wall seconds of each warm start, and the clock read before them.
    warm_starts: Vec<f64>,
    warm_scale: f64,
    restart_s: f64,
}

fn round(dir: &Path, inputs: &Inputs, ctx: &mut Ctx, lat: &mut Latencies) -> io::Result<Round> {
    let tr = ctx.tr;
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    let (state, socket) = (dir.join("state"), dir.join("d.sock"));

    // Prefill: the repeat keys and the tune problems enter the journals.
    {
        let _span = tr.span("core.serve:prefill");
        let mut daemon = Daemon::start(&state, &socket)?;
        let mut scratch = Latencies::default();
        let mut send = |line: &str| daemon.request(line);
        play(
            &inputs.prefill,
            &inputs.solutions,
            &mut send,
            ctx,
            "socket:roundtrip",
            &mut scratch,
        );
        for p in 0..TUNE_PROBLEMS.len() {
            ctx.out.op(daemon
                .request(&tune_request(p, p).line)
                .is_ok_and(|r| reply_ok(&r)));
        }
        ctx.out.op(daemon.shutdown());
    }

    // Warm start: reopen the populated state directory and answer one
    // request. Timed in-process (`ServeState::new` + `handle_line`):
    // through the socket, `serve_unix` polls for connections every 50 ms,
    // and where in that interval a client lands is chance, not cost.
    let first = &inputs.prefill[0];
    let warm_scale = ctx.clock_scale();
    let warm_starts: Vec<f64> = (0..WARM_STARTS)
        .map(|_| {
            let (secs, reply) = reopen(&state, &first.line, tr);
            ctx.out.op(reply.is_some_and(|r| reply_ok(&r)));
            secs
        })
        .collect();

    let mut daemon = tr.in_span("core.serve:daemon_start", || Daemon::start(&state, &socket))?;
    let mut send = |line: &str| daemon.request(line);
    play(
        &inputs.mix,
        &inputs.solutions,
        &mut send,
        ctx,
        "socket:roundtrip",
        lat,
    );

    // The winner before and after a restart must be the same.
    let probe = tune_request(0, 0);
    let before = daemon.request(&probe.line).ok().and_then(|r| winner(&r));
    ctx.out
        .op(tr.in_span("core.persist:shutdown_compact", || daemon.shutdown()));
    let (restart_s, after) = reopen(&state, &probe.line, tr);
    let after = after.and_then(|r| winner(&r));
    ctx.out.check(
        "serve.winner_survives_restart",
        before.is_some() && before == after,
        format!(
            "{} / {}",
            before.as_deref().unwrap_or("none"),
            after.as_deref().unwrap_or("none")
        ),
    );
    Ok(Round {
        warm_starts,
        warm_scale,
        restart_s,
    })
}

pub fn run(ctx: &mut Ctx) {
    let inputs = ctx.tr.in_span("bench:generate", || generate(ctx.seed));
    ctx.out.note("input_hash", format!("{:016x}", inputs.hash));
    ctx.out.note("requests_per_round", inputs.mix.len());
    ctx.out.note("threads", "1 client + 1 serve_unix");
    let dir: PathBuf = ctx.tmp.join("serve");

    let mut lat = Latencies::default();
    let (mut warm_starts, mut setups, mut restarts) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while ctx.budget.keep_going(start, rounds, 1, TYPICAL_ROUNDS) {
        match round(&dir, &inputs, ctx, &mut lat) {
            Ok(r) => {
                setups.extend(r.warm_starts.iter().map(|s| s * r.warm_scale));
                warm_starts.extend(r.warm_starts);
                restarts.push(r.restart_s);
            }
            Err(e) => {
                ctx.out
                    .check("serve.daemon_reachable", false, e.to_string());
                break;
            }
        }
        rounds += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    ctx.out.note("rounds", rounds);
    let requests = rounds * inputs.mix.len();
    ctx.out.check(
        "serve.every_reply_ok",
        lat.refused == 0,
        format!("{} of {requests} replies missing or not ok", lat.refused),
    );
    ctx.out.check(
        "serve.predict_equals_in_process",
        lat.mismatched == 0,
        format!(
            "{} predict replies differ in bits from Solution::predict",
            lat.mismatched
        ),
    );

    let predicts = lat.wall_of(&PREDICTS);
    let (p, p_tail) = tail(&predicts, 30);
    let out = &mut *ctx.out;
    out.metric("bench.loop_wall_s", "s", start.elapsed().as_secs_f64(), 1);
    out.metric("setup_s", "s", median(&setups), setups.len());
    for (slot, kind) in [
        ("baseline_ms", Kind::PredictNew),
        ("tuned_ms", Kind::PredictRepeat),
        ("alt_ms", Kind::Tune),
    ] {
        out.metric(slot, "ms", lat.gated_ms(kind), lat.of(&[kind]).count());
    }
    out.metric(
        "serve_predict_p50_ms",
        "ms",
        median(&predicts) * 1e3,
        predicts.len(),
    );
    out.metric("serve_predict_p99_ms", "ms", p_tail * 1e3, predicts.len());
    out.note(
        "serve_predict_tail_percentile",
        format!("p{:.1}, 30+ samples beyond it", p * 100.0),
    );
    out.metric(
        "serve_warm_start_s",
        "s",
        median(&warm_starts),
        warm_starts.len(),
    );
    for (name, kind) in [
        ("serve_tune_p50_ms", Kind::Tune),
        ("serve.predict_new_p50_ms", Kind::PredictNew),
        ("serve.predict_repeat_p50_ms", Kind::PredictRepeat),
        ("serve.status_p50_ms", Kind::Status),
    ] {
        let secs = lat.wall_of(&[kind]);
        out.metric(name, "ms", median(&secs) * 1e3, secs.len());
    }
    out.metric("serve.rps", "1/s", requests as f64 / lat.wall.max(1e-9), 0);
    out.metric("serve.restart_s", "s", median(&restarts), restarts.len());
}

/// The same prefill and mix through `ServeState::handle_line`, no socket.
fn in_process(config: ServeConfig, inputs: &Inputs, ctx: &mut Ctx) -> Latencies {
    let mut state = ServeState::new(config);
    let mut send = |line: &str| {
        state
            .handle_line(line)
            .ok_or_else(|| io::ErrorKind::InvalidInput.into())
    };
    let (mut scratch, mut lat) = (Latencies::default(), Latencies::default());
    play(
        &inputs.prefill,
        &inputs.solutions,
        &mut send,
        ctx,
        "core.serve:handle_line",
        &mut scratch,
    );
    play(
        &inputs.mix,
        &inputs.solutions,
        &mut send,
        ctx,
        "core.serve:handle_line",
        &mut lat,
    );
    state.finish();
    lat
}

pub fn probes(ctx: &mut Ctx) {
    let inputs = generate(ctx.seed);
    let dir = ctx.tmp.join("serve-probes");
    let _ = std::fs::remove_dir_all(&dir);

    let memory = in_process(ServeConfig::default(), &inputs, ctx);
    let persisted = in_process(
        persistent(&dir.join("plain"), Telemetry::disabled()),
        &inputs,
        ctx,
    );
    let us = |v: &[f64]| median(v) * 1e6;
    let persisted_predicts = persisted.wall_of(&PREDICTS);
    for (name, secs) in [
        ("core.serve.handle_predict_us", memory.wall_of(&PREDICTS)),
        (
            "core.serve.handle_predict_persist_us",
            persisted_predicts.clone(),
        ),
        (
            "core.serve.handle_tune_us",
            persisted.wall_of(&[Kind::Tune]),
        ),
        (
            "core.serve.handle_status_us",
            persisted.wall_of(&[Kind::Status]),
        ),
    ] {
        ctx.out.metric(name, "us", us(&secs), secs.len());
    }
    if let Some(socket_ms) = ctx.out.get("serve_predict_p50_ms") {
        let overhead = socket_ms * 1e3 - us(&persisted_predicts);
        ctx.out
            .metric("serve.socket_overhead_us", "us", overhead, 0);
    }

    // The same mix with every request traced into a recording sink.
    let (tel, _sink) = Telemetry::recording(Level::Info);
    let traced = in_process(persistent(&dir.join("traced"), tel), &inputs, ctx);
    ctx.out.metric(
        "telemetry.overhead_share.serve",
        "ratio",
        traced.wall / persisted.wall - 1.0,
        1,
    );

    // The persistence layer alone, on the state the mix left behind.
    let state = dir.join("plain");
    let quiet = Telemetry::disabled();
    let journal = state.join("predictions.journal");
    let bytes = std::fs::metadata(&journal).map_or(0, |m| m.len());
    ctx.out
        .metric("core.persist.journal_bytes", "B", bytes as f64, 0);
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(PersistentStore::open(&state, &quiet).is_ok());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    ctx.out
        .metric("core.persist.open_s", "s", median(&opens), opens.len());
    if let Ok(mut store) = PersistentStore::open(&state, &quiet) {
        let compacts: Vec<f64> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(store.compact().is_ok());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        ctx.out.metric(
            "core.persist.compact_s",
            "s",
            median(&compacts),
            compacts.len(),
        );
        let signature = inputs.solutions[0].signature();
        let appends: Vec<f64> = (0..2000u64)
            .map(|i| {
                // Blocks no predict request can name, so every record is new.
                let params = TuningParams::new([1, 1 + i as usize, 1], Fold::new(8, 1, 1));
                let rec = PredictionRecord {
                    key: PredictKey::new(signature, &params, 1),
                    mlups_bits: i,
                    seconds_bits: i,
                    wavefront_effective: false,
                };
                let t0 = Instant::now();
                std::hint::black_box(store.record_prediction(rec).is_ok());
                t0.elapsed().as_secs_f64()
            })
            .collect();
        ctx.out.metric(
            "core.persist.append_us",
            "us",
            median(&appends) * 1e6,
            appends.len(),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
