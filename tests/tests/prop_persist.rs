//! Property-based tests of the crash-safe persistence layer: under *any*
//! seeded I/O fault plan the journal's readable content is a clean prefix
//! of what was written, a damaged state directory reloads to that prefix
//! (emitting `persist.recovered`) and keeps accepting writes, and tuning
//! with a warm-started persistent cache is bitwise identical to tuning
//! without persistence at all.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use yasksite::telemetry::{Level, Telemetry};
use yasksite::{
    decode_journal, decode_prediction, encode_prediction, FaultPlan, FaultyMedium, Journal,
    JournalKind, MemMedium, PersistentStore, PredictKey, PredictionCache, PredictionRecord,
    SearchSpace, Solution, TuneRequest, TuneResult, TuneStrategy,
};
use yasksite_arch::Machine;
use yasksite_engine::TuningParams;
use yasksite_grid::Fold;
use yasksite_stencil::builders::heat2d;

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "yasksite-prop-persist-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A distinct, decodable prediction record per index.
fn sample_pred(i: u64) -> PredictionRecord {
    let params = TuningParams::new([16 + i as usize, 8, 4], Fold::new(8, 1, 1))
        .threads(1 + (i as usize % 4))
        .wavefront(1 + (i as usize % 3));
    PredictionRecord {
        key: PredictKey::new(0xD00D_0000 + i, &params, 2),
        mlups_bits: (900.0 + i as f64).to_bits(),
        seconds_bits: (1e-3 / (1.0 + i as f64)).to_bits(),
        wavefront_effective: i.is_multiple_of(2),
    }
}

fn arb_io_plan() -> impl Strategy<Value = FaultPlan> {
    let mixed = (any::<u64>(), 0.0f64..0.6, 0.0f64..0.4, 0.0f64..0.4).prop_map(
        |(seed, short, corrupt, enospc)| FaultPlan::io_faults(seed, short, corrupt, enospc),
    );
    prop_oneof![
        4 => mixed,
        1 => Just(FaultPlan::none()),
    ]
}

/// Reloads raw journal bytes through a real state directory and checks the
/// full recovery contract: the store holds exactly `expect` records (a
/// clean prefix), damage emits `persist.recovered`, and the recovered
/// store accepts new writes.
fn check_reload(
    tag: &str,
    bytes: &[u8],
    expect: usize,
    damaged: bool,
) -> Result<(), TestCaseError> {
    let dir = tmp_dir(tag);
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join(JournalKind::Predictions.file_name()), bytes).expect("seed journal");
    let (tel, _sink) = Telemetry::recording(Level::Info);
    let mut store = PersistentStore::open(&dir, &tel).expect("open recovers, never fails");
    prop_assert_eq!(store.prediction_count(), expect);
    if damaged {
        prop_assert!(!store.recoveries().is_empty(), "damage must be reported");
        prop_assert!(tel.counter("persist.recovered") >= 1);
    }
    // The recovered store keeps working: journals are healthy and a
    // subsequent write round-trips through yet another reopen.
    prop_assert!(store.healthy());
    let extra = sample_pred(90_000);
    prop_assert!(store
        .record_prediction(extra.clone())
        .expect("append after recovery"));
    drop(store);
    let reread = PersistentStore::open(&dir, &tel).expect("reopen");
    prop_assert_eq!(reread.prediction_count(), expect + 1);
    prop_assert!(reread.has_prediction(&extra.key));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    /// Appending through any seeded fault plan leaves media whose readable
    /// frames are, in order, a prefix of the payloads written — never a
    /// reordering, duplication, or invention — and a `PersistentStore`
    /// reload of those bytes yields exactly that prefix, reports the
    /// damage, and keeps serving.
    #[test]
    fn faulted_journal_reloads_to_a_clean_prefix(plan in arb_io_plan(), n in 1usize..20) {
        let mem = MemMedium::new();
        let mut journal = Journal::create(
            Box::new(FaultyMedium::new(mem.clone(), plan)),
            JournalKind::Predictions,
        );
        let written: Vec<Vec<u8>> = (0..n).map(|i| encode_prediction(&sample_pred(i as u64))).collect();
        let mut errored = false;
        for payload in &written {
            errored |= journal.append(payload).is_err();
        }
        prop_assert_eq!(journal.healthy(), !errored, "poisoned exactly by the first error");

        let bytes = mem.contents();
        let (frames, report) = decode_journal(&bytes, JournalKind::Predictions);
        prop_assert!(frames.len() <= written.len());
        for (got, expect) in frames.iter().zip(&written) {
            prop_assert_eq!(got, expect, "readable frames are the written prefix, in order");
            decode_prediction(got).expect("every surviving frame decodes");
        }
        if plan == FaultPlan::none() {
            prop_assert!(report.is_clean());
            prop_assert_eq!(frames.len(), written.len());
        }

        let damaged = !report.is_clean();
        check_reload("fault", &bytes, frames.len(), damaged)?;
    }

    /// A kill at *any* byte offset — mid-append or mid-compaction, the
    /// snapshot path writes the same framing — leaves a file that reloads
    /// to a clean prefix and keeps accepting writes.
    #[test]
    fn truncation_at_any_offset_recovers_to_a_prefix(n in 1usize..12, cut_frac in 0.0f64..1.0) {
        let mem = MemMedium::new();
        let mut journal = Journal::create(Box::new(mem.clone()), JournalKind::Predictions);
        for i in 0..n {
            journal.append(&encode_prediction(&sample_pred(i as u64))).expect("clean append");
        }
        let full = mem.contents();
        let cut = ((full.len() as f64) * cut_frac) as usize;
        let (frames, report) = decode_journal(&full[..cut], JournalKind::Predictions);
        prop_assert!(frames.len() <= n);
        for (i, f) in frames.iter().enumerate() {
            prop_assert_eq!(
                decode_prediction(f).expect("prefix frame decodes"),
                sample_pred(i as u64)
            );
        }
        check_reload("cut", &full[..cut], frames.len(), !report.is_clean())?;
    }
}

fn assert_identical(a: &TuneResult, b: &TuneResult) {
    assert_eq!(a.best, b.best);
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
    assert_eq!(a.ranked.len(), b.ranked.len());
    for ((pa, sa), (pb, sb)) in a.ranked.iter().zip(b.ranked.iter()) {
        assert_eq!(pa, pb);
        assert_eq!(sa.to_bits(), sb.to_bits());
    }
    assert_eq!(a.provenances, b.provenances);
}

/// Persistence must be invisible to the numbers: a tune warm-started from
/// a reloaded state directory returns bitwise-identical results to a tune
/// with no persistence at all, because persisted records only enter the
/// cache after the *live* model reproduces them.
#[test]
fn warm_started_tuning_is_bitwise_identical_to_cold() {
    let machine = Machine::cascade_lake();
    let sol = Solution::new(heat2d(1), [64, 64, 1], machine.clone());
    let space = SearchSpace::spatial_only(sol.stencil(), sol.domain(), &machine);
    let req = TuneRequest::new(TuneStrategy::Analytic).cores(2);

    // Persistence off.
    let cold = sol.tune_space_with(&space, &req).expect("cold tune");

    // Session 1 with persistence: tune through a private cache, then
    // journal its candidates the way the daemon does.
    let dir = tmp_dir("bitwise");
    let tel = Telemetry::disabled();
    let mut store = PersistentStore::open(&dir, &tel).expect("open");
    let cache1 = Arc::new(PredictionCache::new());
    let first = sol
        .tune_space_with(&space, &req.clone().cache(cache1.clone()))
        .expect("session 1 tune");
    let persisted = space
        .candidates(2)
        .iter()
        .filter(|p| {
            let key = PredictKey::new(sol.signature(), p, 2);
            let (perf, _) = cache1.predict(&sol, p, 2);
            store
                .record_prediction(PredictionRecord::new(key, &perf))
                .expect("healthy journal")
        })
        .count();
    assert!(persisted > 0, "session 1 persisted its cache");
    assert_eq!(persisted, cache1.len(), "all of it");
    drop(store);

    // Session 2: reload, verified warm start, tune again.
    let store2 = PersistentStore::open(&dir, &tel).expect("reopen");
    assert!(
        store2.recoveries().is_empty(),
        "clean shutdown, clean reload"
    );
    let cache2 = Arc::new(PredictionCache::new());
    let warm = store2.warm_solution(&sol, &cache2);
    assert!(warm.loaded > 0, "records verified against the live model");
    assert_eq!(warm.stale, 0, "same model, nothing stale");
    let second = sol
        .tune_space_with(&space, &req.clone().cache(cache2.clone()))
        .expect("session 2 tune");
    assert!(
        second.cost.cache_hits > 0,
        "the warm start actually served predictions from the cache"
    );

    assert_identical(&cold, &first);
    assert_identical(&cold, &second);
    let _ = std::fs::remove_dir_all(&dir);
}
