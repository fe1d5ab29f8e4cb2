//! `sioscope baseline`: collate a `cargo bench` run into a numbered
//! `BENCH_<n>.json` baseline, or compare it against an older one.
//!
//! Usage (from the repository root, after `cargo bench -p
//! sioscope-bench --bench hotpath`):
//!
//! ```text
//! sioscope baseline                          # print
//! sioscope baseline --out BENCH_1.json
//! sioscope baseline --compare BENCH_0.json --bench full_registry_cold --min-speedup 1.5
//! ```
//!
//! `--compare OLD` prints the speedup of every bench present in both
//! baselines (current run vs. `OLD`); with `--bench NAME
//! --min-speedup X` the process exits `4` if that bench's speedup is
//! below `X`, making the perf bar enforceable in CI. `--out FILE`
//! writes the current baseline in either mode.

use crate::Args;
use sioscope_bench::{baseline_speedup, baseline_value_multi, collect_estimates, BASELINE_GROUPS};
use sioscope_campaign::{write_atomic, CliError};
use sioscope_trace::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const USAGE: &str = "usage: sioscope baseline [--criterion-dir DIR] [--out FILE] \
[--compare OLD.json [--bench NAME --min-speedup X]]";

pub fn main(mut args: Args) -> Result<(), CliError> {
    let criterion_dir = PathBuf::from(
        args.value("--criterion-dir")?
            .unwrap_or_else(|| "target/criterion".into()),
    );
    let out = args.value("--out")?.map(PathBuf::from);
    let compare = args.value("--compare")?;
    let bench = args.value("--bench")?;
    let min_speedup: Option<f64> = args.parsed("--min-speedup")?;
    args.finish()?;
    let gate = match (bench, min_speedup) {
        (Some(bench), Some(min)) => Some((bench, min)),
        (None, None) => None,
        _ => return Err(args.bad("--bench and --min-speedup only apply together")),
    };
    if gate.is_some() && compare.is_none() {
        return Err(args.bad("--bench/--min-speedup gate a --compare"));
    }

    // Collect every baseline group. A group directory that does not
    // exist yet (e.g. a partial bench run) is treated as empty; only
    // finding *no* estimates at all is an error.
    let mut groups = BTreeMap::new();
    for group in BASELINE_GROUPS {
        match collect_estimates(&criterion_dir, group) {
            Ok(estimates) => {
                groups.insert(group.to_string(), estimates);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                groups.insert(group.to_string(), BTreeMap::new());
            }
            Err(e) => return Err(CliError::io(criterion_dir.join(group), e)),
        }
    }
    if groups.values().all(|e| e.is_empty()) {
        return Err(CliError::io(
            &criterion_dir,
            std::io::Error::other(
                "no estimates found; run `cargo bench -p sioscope-bench --bench hotpath` first",
            ),
        ));
    }
    let current = baseline_value_multi(&groups);
    let rendered = format!("{}\n", current.render_pretty());

    if let Some(path) = &out {
        write_atomic(path, &rendered)?;
        println!("baseline written to {}", path.display());
    }
    let Some(old_path) = compare else {
        if out.is_none() {
            print!("{rendered}");
        }
        return Ok(());
    };
    let old_text = std::fs::read_to_string(&old_path).map_err(|e| CliError::io(&old_path, e))?;
    let old =
        Json::parse(&old_text).map_err(|e| CliError::io(&old_path, std::io::Error::other(e)))?;
    println!("speedup vs {old_path} (old mean / new mean):");
    for (group, estimates) in &groups {
        for name in estimates.keys() {
            match baseline_speedup(&old, &current, name) {
                Some(s) => println!("  {group}/{name:<24} {s:.2}x"),
                None => println!("  {group}/{name:<24} (not in old baseline)"),
            }
        }
    }
    let Some((bench, min)) = gate else {
        return Ok(());
    };
    match baseline_speedup(&old, &current, &bench) {
        Some(s) if s >= min => {
            println!("PASS: {bench} speedup {s:.2}x >= {min:.2}x");
            Ok(())
        }
        Some(s) => Err(CliError::GoldenMismatch(format!(
            "{bench} speedup {s:.2}x < {min:.2}x"
        ))),
        None => Err(CliError::GoldenMismatch(format!(
            "{bench} missing from one of the baselines"
        ))),
    }
}
