//! The paper's headline application: offline tuning of explicit ODE
//! methods with Offsite driving YaskSite predictions.
//!
//! For the 2-D heat IVP, every (method × implementation variant)
//! candidate is predicted analytically, validated on the simulated
//! Cascade Lake hierarchy, and the selected variant's speedup over a
//! naive implementation is reported.
//!
//! Run with: `cargo run --release --example ode_tuning`

use yasksite_repro::arch::Machine;
use yasksite_repro::ode::ivps::Heat2d;
use yasksite_repro::ode::Tableau;
use yasksite_repro::offsite::{MethodSpec, Offsite};
use yasksite_repro::yasksite::{TrialConfig, TuneRequest};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let machine = Machine::cascade_lake();
    let cores = 2;
    let offsite = Offsite::new(machine, cores);
    let ivp = Heat2d::new(256);
    let methods = vec![
        MethodSpec::erk(Tableau::heun2()),
        MethodSpec::erk(Tableau::rk4()),
        MethodSpec::pirk(Tableau::radau_iia2(), 3),
    ];

    println!(
        "tuning Heat2D(256) on {} with {cores} cores...",
        offsite.machine().tag()
    );
    // One sample per plan measurement; `jobs` parallelises the analytic
    // rankings (results are jobs-invariant), and repeated predictions of
    // the shared stage stencils are served from the memoized prediction
    // cache (see `select_cost` below).
    let req = TuneRequest::default()
        .trial(TrialConfig::single_shot())
        .jobs(2);
    let report = offsite.evaluate_with(&ivp, &methods, 1e-6, &req)?;

    println!(
        "\n{:<24} {:>13} {:>13} {:>6}",
        "method/variant", "predicted[s]", "measured[s]", "err%"
    );
    for c in &report.candidates {
        println!(
            "{:<24} {:>13.3e} {:>13.3e} {:>6.0}",
            format!("{}/{}", c.method, c.variant),
            c.predicted_s,
            c.measured_s,
            c.rel_err * 100.0
        );
    }
    println!(
        "\nprediction picked the measured rank-{} candidate{}",
        report.rank_of_pick + 1,
        if report.picked_best {
            " — the true best"
        } else {
            ""
        }
    );
    println!("mean prediction error: {:.0}%", report.mean_rel_err * 100.0);
    println!("\nspeedups over the naive baseline:");
    for (m, s) in &report.speedups {
        println!("  {m:<20} {s:.2}x");
    }
    println!("\ncosts:");
    println!(
        "  selection  (model only): {}",
        report.select_cost.summary()
    );
    println!(
        "  validation (exhaustive): {}",
        report.validate_cost.summary()
    );
    Ok(())
}
