//! `sioscope chaos`: seeded chaos/soak harness. It fuzzes fault
//! schedules across the three storage tiers plus the streaming
//! pipeline and holds every run to the fault subsystem's hard
//! invariants (byte conservation, golden bit-identity, hook
//! neutrality, replay identity, recovery-TTS sanity; for the stream
//! tier: queue-ledger conservation, replay identity, crash
//! monotonicity, unbounded-queue equivalence).
//!
//! ```text
//! # The CI chaos-smoke budget: 64 schedules x 4 tiers.
//! sioscope chaos --seeds 64 --out artifacts/chaos-verdicts.txt
//! # One tier, a different seed window:
//! sioscope chaos --tiers stream --start 1000 --seeds 16
//! ```
//!
//! Exit `4` means the soak ran but at least one invariant was
//! violated. The verdict artifact is plain text, one `PASS`/`FAIL`
//! line per (tier, seed) case with any violations indented beneath
//! it — deterministic bytes for a given seed window, so CI can diff
//! soaks across commits.

use crate::Args;
use sioscope::chaos::{chaos_soak, parse_golden_baseline, ChaosTier, ChaosVerdict};
use sioscope_bench::parse_ids;
use sioscope_campaign::{write_atomic, CliError};
use std::collections::BTreeMap;
use std::path::PathBuf;

pub const USAGE: &str = "usage: sioscope chaos [--seeds N] [--start S] \
[--tiers pfs,object,burst,stream] [--golden FILE] [--out FILE]";

pub fn main(mut args: Args) -> Result<(), CliError> {
    let seeds: u64 = args.parsed("--seeds")?.unwrap_or(64);
    let start: u64 = args.parsed("--start")?.unwrap_or(0);
    let tiers = match args.value("--tiers")? {
        Some(ids) => parse_ids("tier", &ids, ChaosTier::all(), ChaosTier::id)?,
        None => ChaosTier::all(),
    };
    let golden = args.value("--golden")?.map(PathBuf::from);
    let out = args.value("--out")?.map(PathBuf::from);
    if seeds == 0 {
        return Err(args.bad("--seeds must be >= 1"));
    }
    if tiers.is_empty() {
        return Err(args.bad("--tiers selected no tier"));
    }
    if start.checked_add(seeds).is_none() {
        return Err(args.bad(format!(
            "seed window [{start}, {start} + {seeds}) overflows u64"
        )));
    }
    // The soak keeps one verdict per case; a window with more cases
    // than a `Vec` can ever hold cannot complete.
    let max_cases = isize::MAX as u128 / std::mem::size_of::<ChaosVerdict>() as u128;
    if tiers.len() as u128 * u128::from(seeds) > max_cases {
        return Err(args.bad(format!(
            "{seeds} seeds x {} tier(s) is more cases than one soak can hold",
            tiers.len()
        )));
    }
    args.finish()?;

    // The committed fault-free fingerprints, when available: an
    // explicit --golden path, else the repo-layout default. The soak
    // still runs without them (every other invariant is intrinsic).
    let golden_path = golden.or_else(|| {
        let default = PathBuf::from("tests/golden/backend_baseline.txt");
        default.is_file().then_some(default)
    });
    let golden: Option<BTreeMap<String, String>> = match &golden_path {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| CliError::io(p, e))?;
            Some(parse_golden_baseline(&text))
        }
        None => None,
    };

    let tier_ids: Vec<&str> = tiers.iter().map(|t| t.id()).collect();
    println!(
        "chaos soak: {} schedules x {} tiers ({}), seeds [{}, {}){}",
        seeds,
        tiers.len(),
        tier_ids.join(", "),
        start,
        start + seeds,
        match &golden_path {
            Some(p) => format!(", golden baseline {}", p.display()),
            None => ", no golden baseline".to_string(),
        }
    );

    let verdicts = chaos_soak(&tiers, start, seeds, golden.as_ref());
    let failures: Vec<&ChaosVerdict> = verdicts.iter().filter(|v| !v.pass()).collect();

    let mut artifact = String::new();
    for v in &verdicts {
        artifact.push_str(&v.render());
        artifact.push('\n');
    }
    artifact.push_str(&format!(
        "summary: {} cases, {} passed, {} failed\n",
        verdicts.len(),
        verdicts.len() - failures.len(),
        failures.len()
    ));
    if let Some(out) = &out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
        }
        write_atomic(out, &artifact)?;
        println!(
            "wrote {} verdict lines to {}",
            verdicts.len(),
            out.display()
        );
    }

    for v in &failures {
        eprintln!("{}", v.render());
    }
    println!(
        "chaos soak: {}/{} cases passed",
        verdicts.len() - failures.len(),
        verdicts.len()
    );
    if !failures.is_empty() {
        return Err(CliError::GoldenMismatch(format!(
            "{} of {} chaos cases violated an invariant",
            failures.len(),
            verdicts.len()
        )));
    }
    Ok(())
}
