//! `sioscope campaign`: run a campaign, a cross-product of simulator
//! runs executed in spec order, with a content-addressed result cache.
//!
//! ```text
//! sioscope campaign run examples/smoke.campaign.toml   # execute it
//! sioscope campaign plan examples/smoke.campaign.toml  # just list the runs
//! ```
//!
//! Flags (after the spec path):
//!
//! * `--no-cache` — bypass the result cache entirely (neither read
//!   nor write entries);
//! * `--cache-dir DIR` — cache location (default `artifacts/campaign`);
//! * `--out FILE` — also write the deterministic campaign report JSON
//!   to `FILE` (atomically);
//! * `--min-hit-rate PCT` — fail (exit 4) if fewer than `PCT`% of
//!   runs were served from the cache. CI uses this to prove that a
//!   repeated campaign really is cached.
//!
//! Exit `4` means the campaign ran but failed an expectation (a failed
//! run, or a missed `--min-hit-rate`).
//!
//! The report JSON is deterministic by construction: a cold campaign
//! and a fully cached re-run write bit-identical bytes. Wall-clock
//! time and hit/miss accounting appear only in the terminal summary.

use crate::Args;
use sioscope_campaign::{run_campaign, write_atomic, CampaignSpec, CliError, ExecOptions};
use std::path::PathBuf;
use std::time::Instant;

pub const USAGE: &str = "usage: sioscope campaign <plan|run> SPEC.toml \
[--no-cache] [--cache-dir DIR] [--out FILE] [--min-hit-rate PCT]";

pub fn main(mut args: Args) -> Result<(), CliError> {
    let mut opts = ExecOptions::default();
    if let Some(dir) = args.value("--cache-dir")? {
        opts.cache_dir = PathBuf::from(dir);
    }
    let out = args.value("--out")?.map(PathBuf::from);
    let min_hit_rate: Option<u32> = args.parsed("--min-hit-rate")?;
    if let Some(pct) = min_hit_rate.filter(|&p| p > 100) {
        return Err(args.bad(format!("--min-hit-rate must be 0..=100, got {pct}")));
    }
    opts.no_cache = args.flag("--no-cache");
    let positionals = args.positionals();
    args.finish()?;
    let [command, spec_path] = positionals.as_slice() else {
        return Err(args.bad("expected a command and a spec path"));
    };
    let plan = match command.as_str() {
        "plan" => true,
        "run" => false,
        other => return Err(args.bad(format!("unknown command `{other}`"))),
    };
    let text = std::fs::read_to_string(spec_path).map_err(|e| CliError::io(spec_path, e))?;
    let spec = CampaignSpec::from_toml_str(&text).map_err(|e| CliError::BadArgs(e.to_string()))?;
    sioscope_campaign::exec::validate_spec(&spec)?;

    if plan {
        let runs = spec.expand();
        println!(
            "campaign `{}` ({} scale): {} runs",
            spec.name,
            spec.scale,
            runs.len()
        );
        for run in &runs {
            println!(
                "  {}  {}",
                sioscope_campaign::config_hash(&run.canon()),
                run.label()
            );
        }
        return Ok(());
    }
    let started = Instant::now();
    let report = run_campaign(&spec, &opts)?;
    let wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    print!("{}", report.human_summary(wall_ns));
    if let Some(path) = &out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
        }
        write_atomic(path, report.render())?;
        println!("report written to {}", path.display());
    }
    let failed = report.failed().count();
    if failed > 0 {
        return Err(CliError::GoldenMismatch(format!(
            "{failed} of {} campaign run(s) failed",
            report.runs.len()
        )));
    }
    if let Some(min) = min_hit_rate {
        let hit_pct = if report.runs.is_empty() {
            100
        } else {
            (report.hits() * 100 / report.runs.len()) as u32
        };
        if hit_pct < min {
            return Err(CliError::GoldenMismatch(format!(
                "cache hit rate {hit_pct}% below required {min}% \
                 ({} hits of {} runs)",
                report.hits(),
                report.runs.len()
            )));
        }
    }
    Ok(())
}
