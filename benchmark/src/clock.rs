//! The core clock of the host, read beside the samples it scales.
//!
//! The cores of a shared host run in whichever turbo bin the package's
//! other tenants leave them: on the reference host two bins 25–29 % apart,
//! held for seconds to minutes. The wall time of compute-bound work follows
//! the bin, so ten runs of one commit spread by the distance between the
//! bins. The paper's own methodology fixes the clock; a guest cannot, so the
//! compute-bound workloads report their gated times at a reference clock
//! instead: a chain of dependent multiply-adds takes the same core cycles per
//! step in every bin, so its rate is the clock, and a wall time multiplied by
//! `rate / REFERENCE` is the time the same cycles take at the reference.
//! Memory-bound workloads do not follow the core clock and stay unscaled;
//! wall times of every workload are kept under their own names.

use std::hint::black_box;
use std::time::Instant;

/// Chain steps per second at which a scaled time equals its wall time
/// (about a 4 GHz core: a step is a 3-cycle multiply and a 1-cycle add).
const REFERENCE_STEPS_PER_S: f64 = 1e9;
const STEPS: u32 = 100_000;
const PROBES: usize = 3;

fn chain_seconds() -> f64 {
    let multiplier = black_box(6_364_136_223_846_793_005_u64);
    let mut x = black_box(1_u64);
    let t0 = Instant::now();
    for _ in 0..STEPS {
        x = x
            .wrapping_mul(multiplier)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    black_box(x);
    t0.elapsed().as_secs_f64()
}

/// The factor that takes a wall time measured now to the reference clock.
/// The fastest of a few chains counts: an interrupt can only slow one down.
pub fn scale() -> f64 {
    let fastest = (0..PROBES)
        .map(|_| chain_seconds())
        .fold(f64::INFINITY, f64::min);
    f64::from(STEPS) / fastest / REFERENCE_STEPS_PER_S
}
