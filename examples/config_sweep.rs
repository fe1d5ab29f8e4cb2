//! Machine-configuration sensitivity study — the paper's §7 future
//! work ("examine the effects of different machine configurations,
//! e.g., number of I/O nodes, and different architectures on I/O
//! performance"), run on the reproduced workloads.
//!
//! ```text
//! cargo run --release --example config_sweep
//! ```

use sioscope::experiments::Scale;
use sioscope::sweeps::{machine_sweep, SweepId};
use sioscope_workloads::{EscatConfig, EscatVersion, PrismConfig, PrismVersion};

fn main() {
    let full = Scale::from_env() == Scale::Full;

    let escat = if full {
        EscatConfig::ethylene(EscatVersion::B).build()
    } else {
        EscatConfig::tiny(EscatVersion::B).build()
    };
    let prism = if full {
        PrismConfig::test_problem(PrismVersion::A).build()
    } else {
        PrismConfig::tiny(PrismVersion::A).build()
    };

    println!("== I/O-node scaling (ESCAT B: the all-node staging workload) ==\n");
    let sweep = machine_sweep(SweepId::IoNodes, &escat, &[2, 4, 8, 16, 32]);
    println!("{}", sweep.render());
    println!(
        "I/O-time speedup 2 -> best: {:.2}x\n",
        sweep.best_io_speedup()
    );

    println!("== Stripe-unit sensitivity (ESCAT B tuned to 64 KB stripes) ==\n");
    let sweep = machine_sweep(
        SweepId::StripeUnit,
        &escat,
        &[16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10],
    );
    println!("{}", sweep.render());
    println!(
        "The 128 KB M_RECORD reloads are stripe-multiples only at <=64 KB units —\n\
         §6.2's point that application tuning is coupled to file-system constants.\n"
    );

    println!("== Disk-generation sweep (PRISM A: open/read-bound) ==\n");
    let sweep = machine_sweep(SweepId::DiskBandwidth, &prism, &[2, 4, 8, 16, 32]);
    println!("{}", sweep.render());
    println!(
        "Faster arrays barely help version A: its bottleneck is serialized\n\
         metadata and small reads, not transfer bandwidth — the paper's core\n\
         argument for fixing file-system policy rather than buying disks."
    );
}
