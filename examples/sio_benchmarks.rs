//! The derived parallel-file-system benchmark suite (§7: "From these
//! characterizations, a comprehensive set of parallel file system I/O
//! benchmarks will be derived") — run against the measured PFS and the
//! adaptive-policy PFS.
//!
//! ```text
//! cargo run --release --example sio_benchmarks
//! ```

use sioscope::experiments::Scale;
use sioscope::simulator::{run, SimOptions};
use sioscope_pfs::mode::OsRelease;
use sioscope_pfs::{PfsConfig, PolicyConfig};
use sioscope_workloads::synthetic::{suite, KernelConfig};

fn main() {
    let cfg = if Scale::from_env() == Scale::Smoke {
        KernelConfig::small()
    } else {
        KernelConfig::paper_scale()
    };
    println!(
        "SIO benchmark suite: {} nodes, {} KB requests, {} MB per kernel\n",
        cfg.nodes,
        cfg.request >> 10,
        cfg.total_bytes >> 20
    );
    println!(
        "{:<20}{:>14}{:>14}{:>16}{:>14}",
        "kernel", "exec (s)", "I/O time (s)", "agg. MB/s", "adaptive MB/s"
    );
    println!("{}", "-".repeat(78));

    for w in suite(&cfg) {
        let (rd, wr) = w.declared_volume();
        let bytes = rd + wr;
        let base_cfg = PfsConfig::caltech(w.nodes, OsRelease::Osf13);
        let base = run(&w, base_cfg, SimOptions::default()).expect("kernel runs");
        let mut adaptive_cfg = PfsConfig::caltech(w.nodes, OsRelease::Osf13);
        adaptive_cfg.policy = PolicyConfig::adaptive();
        let adaptive = run(&w, adaptive_cfg, SimOptions::default()).expect("kernel runs");
        let bw = |t: sioscope_sim::Time| bytes as f64 / 1e6 / t.as_secs_f64();
        println!(
            "{:<20}{:>14.2}{:>14.2}{:>16.2}{:>14.2}",
            w.name.trim_start_matches("synthetic/"),
            base.exec_time.as_secs_f64(),
            base.total_io_time().as_secs_f64(),
            bw(base.exec_time),
            bw(adaptive.exec_time),
        );
    }
    println!(
        "\nKernels distill the ESCAT/PRISM access patterns; 'adaptive' applies\n\
         the §5.4 PPFS-style policy detector to the same request streams."
    );
}
