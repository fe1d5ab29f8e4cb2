//! The timing harness behind the `benches/` targets (`cargo bench`).
//!
//! Each bench body is run once as a warm-up pilot, then sampled: slow
//! bodies get one iteration per sample, fast ones are batched so a
//! sample spans at least ~2 ms. The mean and median per-iteration
//! times land in `target/criterion/<group>/<bench>/new/estimates.json`
//! as `{"mean": {"point_estimate": ns}, "median": {...}}`, the layout
//! [`collect_estimates`](crate::collect_estimates) and the
//! `sioscope baseline` subcommand read.

use sioscope_trace::json::Json;
use std::path::PathBuf;
use std::time::Instant;

/// Where estimates go: `$CARGO_TARGET_DIR/criterion`, else the
/// `criterion` directory of the target dir holding this executable
/// (`<target>/<profile>/deps/<bench>-<hash>`).
fn estimates_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir).join("criterion");
    }
    let exe = std::env::current_exe().expect("current executable path");
    exe.ancestors()
        .nth(3)
        .expect("bench executable lives under <target>/<profile>/deps")
        .join("criterion")
}

/// Per-iteration samples, in nanoseconds, for one bench body.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Warm up and sample `routine`, within a bounded budget so even
    /// end-to-end benches finish in seconds.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        let pilot = Instant::now();
        std::hint::black_box(routine());
        let pilot_ns = pilot.elapsed().as_nanos().max(1) as f64;
        let (batch, samples) = match pilot_ns {
            ns if ns > 50e6 => (1, self.sample_size.clamp(3, 10)),
            ns if ns > 2e6 => (1, self.sample_size.clamp(5, 20)),
            ns => ((2e6 / ns).ceil() as u64, self.sample_size.clamp(10, 30)),
        };
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(routine());
            }
            self.samples
                .push(t.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
}

/// A named set of benches sharing a sample size.
pub struct Group {
    name: String,
    sample_size: usize,
}

impl Group {
    /// Cap the sample count (the harness clamps it further by the
    /// body's cost).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Time one bench body and write its estimates.
    pub fn bench_function(
        &mut self,
        id: impl AsRef<str>,
        f: impl FnOnce(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        write_estimates(&self.name, id.as_ref(), &mut b.samples);
        self
    }

    /// End the group (estimates are written as each bench finishes).
    pub fn finish(self) {}
}

/// The harness handed to each bench function.
#[derive(Default)]
pub struct Harness;

impl Harness {
    /// Start a group of benches under `name`.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        Group {
            name: name.into(),
            sample_size: 100,
        }
    }

    /// Time a standalone bench, filed as the group of its own name.
    pub fn bench_function(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        self.benchmark_group(id).bench_function(id, f);
        self
    }
}

fn write_estimates(group: &str, bench: &str, samples: &mut [f64]) {
    if samples.is_empty() {
        return;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let median = (samples[(n - 1) / 2] + samples[n / 2]) / 2.0;
    let point = |v| Json::obj(vec![("point_estimate", Json::num(v))]);
    let doc = Json::obj(vec![("mean", point(mean)), ("median", point(median))]);
    let dir = estimates_root().join(group).join(bench).join("new");
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("estimates.json"), doc.render()));
    if let Err(e) = written {
        eprintln!(
            "bench {group}/{bench}: cannot write estimates under {}: {e}",
            dir.display()
        );
    }
    eprintln!(
        "bench {group}/{bench}: mean {:.3} ms over {n} samples",
        mean / 1e6
    );
}

/// Define `$group` as a function running each bench function in turn
/// against one [`Harness`].
#[macro_export]
macro_rules! bench_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut harness = $crate::timing::Harness::default();
            $($target(&mut harness);)+
        }
    };
}

/// The `main` of a `harness = false` bench target: run each group.
#[macro_export]
macro_rules! bench_main {
    ($($group:ident),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
