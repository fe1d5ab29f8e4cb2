//! The §2 related-work contrast, quantified.
//!
//! Miller & Katz characterized Cray workloads as "highly regular,
//! cyclical, and bursty"; Pasquale & Polyzos found them "recurrent and
//! predictable". The paper's earlier Paragon study [3] found instead
//! "large variations in the temporal and spatial access patterns ...
//! more irregular, with both extremely small and extremely large
//! requests". This example measures both claims on simulated traces:
//! a vector-era cyclical workload vs. the reproduced ESCAT/PRISM runs.
//!
//! ```text
//! cargo run --release --example regularity_contrast
//! ```

use sioscope::experiments::Scale;
use sioscope::simulator::{run, RunResult, SimOptions};
use sioscope_analysis::interarrival::per_process;
use sioscope_analysis::{BandwidthSeries, Cdf};
use sioscope_pfs::{OpKind, PfsConfig};
use sioscope_sim::Time;
use sioscope_workloads::synthetic::{cray_cyclical, KernelConfig};
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion, Workload};

fn execute(w: &Workload) -> RunResult {
    let cfg = PfsConfig::caltech(w.nodes, w.os);
    run(w, cfg, SimOptions::default()).expect("runs")
}

fn row(name: &str, r: &RunResult) {
    let events = r.trace.events();
    let ias = per_process(events);
    let median_cv = {
        let mut cvs: Vec<f64> = ias.values().map(|ia| ia.cv).collect();
        cvs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        cvs.get(cvs.len() / 2).copied().unwrap_or(0.0)
    };
    let bw = BandwidthSeries::build(events, Time::from_secs(10));
    let reads = Cdf::from_samples(r.trace.sizes_of(OpKind::Read));
    let writes = Cdf::from_samples(r.trace.sizes_of(OpKind::Write));
    let span = |c: &Cdf| -> String {
        match (c.quantile(0.0), c.quantile(1.0)) {
            (Some(lo), Some(hi)) if hi > 0 => format!("{lo}..{hi}"),
            _ => "-".into(),
        }
    };
    println!(
        "{name:<18}{median_cv:>10.2}{:>12.1}{:>10.0}%{:>18}{:>18}",
        bw.burstiness(),
        100.0 * bw.duty_cycle(),
        span(&reads),
        span(&writes),
    );
}

fn main() {
    let smoke = Scale::from_env() == Scale::Smoke;
    println!(
        "{:<18}{:>10}{:>12}{:>11}{:>18}{:>18}",
        "workload", "iat CV", "burstiness", "duty", "read sizes (B)", "write sizes (B)"
    );
    println!("{}", "-".repeat(87));

    // The vector-era reference: clockwork cycles.
    let mut kcfg = KernelConfig::small();
    kcfg.request = 32 << 10;
    kcfg.total_bytes = 64 << 20;
    let cray = cray_cyclical(&kcfg, 8);
    row("Cray-cyclical", &execute(&cray));

    // The Paragon applications.
    let escat = if smoke {
        EscatConfig::tiny(EscatVersion::A).build()
    } else {
        EscatConfig::ethylene(EscatVersion::A).build()
    };
    row("ESCAT-A", &execute(&escat));
    let prism = if smoke {
        PrismConfig::tiny(PrismVersion::A).build()
    } else {
        PrismConfig::test_problem(PrismVersion::A).build()
    };
    row("PRISM-A", &execute(&prism));

    println!(
        "\nThe cyclical reference shows near-zero interarrival variation within\n\
         its bursts and a single request size; the Paragon codes mix request\n\
         sizes across four-plus orders of magnitude with irregular arrival\n\
         structure — the contrast §2 draws between the vector-era studies\n\
         and the scalable-parallel measurements."
    );
}
