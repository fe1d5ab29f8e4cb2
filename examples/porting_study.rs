//! Porting study: run the same ESCAT workloads on models of the three
//! machines in the applications' history — the Intel iPSC/860 and
//! Touchstone Delta (where the codes grew their version-A habits) and
//! the Caltech Paragon XP/S (where the paper measured them).
//!
//! §6.1 observes that the version-A patterns were "partially an
//! artifact of the codes' previous platforms": on the predecessors'
//! file systems, coordinator-mediated I/O was the natural choice. This
//! study quantifies the flip side — how much each machine generation
//! rewards the optimized version-C patterns.
//!
//! ```text
//! cargo run --release --example porting_study
//! ```

use sioscope::experiments::Scale;
use sioscope::simulator::{run, SimOptions};
use sioscope_machine::MachineConfig;
use sioscope_pfs::{PfsConfig, PfsCosts};
use sioscope_workloads::{EscatConfig, EscatVersion, Workload};

fn run_on(workload: &Workload, machine: MachineConfig) -> sioscope::simulator::RunResult {
    let cfg = PfsConfig {
        machine,
        costs: PfsCosts::for_os(sioscope_pfs::mode::OsRelease::Osf13),
        os: workload.os,
        stripe_unit: 64 * 1024,
        policy: Default::default(),
        faults: Default::default(),
        resilience: sioscope_pfs::ResilienceConfig::standard(),
    };
    run(workload, cfg, SimOptions::default()).expect("runs")
}

fn main() {
    let smoke = Scale::from_env() == Scale::Smoke;
    let build = |v: EscatVersion| {
        if smoke {
            EscatConfig::tiny(v).build()
        } else {
            EscatConfig::ethylene(v).build()
        }
    };
    let wa = build(EscatVersion::A);
    let wc = build(EscatVersion::C);
    type MachineMaker = fn(u32) -> MachineConfig;
    let machines: [(&str, MachineMaker); 3] = [
        ("iPSC/860", MachineConfig::ipsc860),
        ("Delta", MachineConfig::touchstone_delta),
        ("Paragon", MachineConfig::caltech_paragon),
    ];

    println!("ESCAT total I/O time (s) by machine generation and code version\n");
    println!(
        "{:<12}{:>14}{:>14}{:>12}",
        "machine", "version A", "version C", "C speedup"
    );
    println!("{}", "-".repeat(52));
    for (name, make) in machines {
        let ra = run_on(&wa, make(wa.nodes));
        let rc = run_on(&wc, make(wc.nodes));
        let ta = ra.total_io_time().as_secs_f64();
        let tc = rc.total_io_time().as_secs_f64();
        println!(
            "{name:<12}{ta:>13.1}s{tc:>13.1}s{:>11.2}x",
            if tc > 0.0 { ta / tc } else { f64::INFINITY }
        );
    }
    println!(
        "\nThe optimized patterns pay on every generation, but the paper's point\n\
         stands: the reward grows with the machine's I/O parallelism, and code\n\
         tuned to one generation's idiosyncrasies (version A's coordinator\n\
         pattern was natural on the iPSC/860 and Delta) leaves increasing\n\
         performance behind as the hardware scales (§6.1-§6.2)."
    );
}
