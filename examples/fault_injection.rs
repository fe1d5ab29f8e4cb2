//! Fault injection and resilience — the paper's workloads on a
//! machine that misbehaves.
//!
//! The original study measured a healthy Caltech Paragon; §7 asks how
//! different machine configurations change the I/O picture. This
//! example runs PRISM B against each fault class (latent sector
//! errors, a RAID-3 spindle failure with rebuild, an I/O-node crash,
//! an I/O-node slowdown, mesh-link congestion) and then sweeps fault
//! intensity with seed-reproducible generated schedules.
//!
//! ```text
//! cargo run --release --example fault_injection
//! SIOSCOPE_SCALE=smoke cargo run --example fault_injection
//! ```

use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::sweeps::{machine_sweep, SweepId};
use sioscope_workloads::{PrismConfig, PrismVersion};

fn main() {
    let scale = Scale::from_env();
    let smoke = scale == Scale::Smoke;

    println!("== One run per fault class ==\n");
    for e in [Experiment::ResilienceEscat, Experiment::ResiliencePrism] {
        let out = run_experiment(e, scale);
        println!("{}", out.rendered);
        for c in &out.checks {
            println!("  [{}] {}", if c.pass { "ok" } else { "FAIL" }, c.name);
        }
        println!();
    }

    println!("== Fault-intensity sweep (PRISM B, seed-reproducible) ==\n");
    let prism = if smoke {
        PrismConfig::tiny(PrismVersion::B).build()
    } else {
        PrismConfig::test_problem(PrismVersion::B).build()
    };
    let sweep = machine_sweep(SweepId::FaultIntensity, &prism, &[0, 1, 2, 4, 8]);
    println!("{}", sweep.render());
    println!(
        "Schedules are nested by construction — intensity k is a prefix of\n\
         k+1 — so execution time inflates monotonically with fault count,\n\
         and the same seed replays the same faults bit-for-bit."
    );
}
