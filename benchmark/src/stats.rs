//! Order statistics, the repeat timer, the seeded shuffle and the input hash.

use std::time::Instant;

use yasksite::TrialRng;
use yasksite_ecm::drift::percentile_sorted;

/// The `q`-quantile (0..=1) of `values` by linear interpolation (the
/// estimator the drift ledger uses). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, q)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median of `samples[i] * scales[i]`: wall times taken to the reference
/// clock by the reading of [`crate::clock`] that belongs to each.
pub fn scaled_median(samples: &[f64], scales: &[f64]) -> f64 {
    let scaled: Vec<f64> = samples.iter().zip(scales).map(|(s, k)| s * k).collect();
    median(&scaled)
}

/// Median seconds of `reps` calls of `f` after one untimed warm-up call.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The highest percentile of `n` samples that still has `beyond` samples
/// above it, capped at p99; `(percentile, value)`.
pub fn tail(values: &[f64], beyond: usize) -> (f64, f64) {
    let n = values.len();
    if n <= beyond {
        return (0.5, median(values));
    }
    let p = (1.0 - beyond as f64 / n as f64).min(0.99);
    (p, quantile(values, p))
}

/// Fisher–Yates shuffle driven by the seeded stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut TrialRng) {
    for i in (1..items.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// FNV-1a over the generated inputs, so "same seed, same inputs" can be
/// checked from the output.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
