//! `sioscope repro`: regenerate every table and figure of Smirni et
//! al. (HPDC 1996).
//!
//! ```text
//! sioscope repro                      # everything
//! sioscope repro escat-table2         # one artifact
//! sioscope repro --out out/           # also write files
//! SIOSCOPE_SCALE=smoke sioscope repro # fast smoke run
//! ```
//!
//! Experiments are selected by bare ids or after an `--experiments`
//! marker (`repro --experiments recovery-escat recovery-prism`); no
//! selection runs everything. With `--out DIR`, each artifact is
//! staged to `DIR/<id>.txt.tmp` and atomically renamed into place, and
//! a machine-readable summary of the shape checks goes to
//! `DIR/checks.json` the same way — a killed run never leaves a
//! truncated artifact. `--resume` skips experiments whose artifact
//! already exists in `DIR` *and* holds trustworthy contents (a `.json`
//! artifact must parse; an empty or corrupt file is regenerated), so
//! an interrupted generation picks up where it stopped. `--sweeps` appends the machine-configuration
//! sweeps of the paper's future-work agenda (§7) plus the
//! recovery-engine axes; `--sweeps=io_nodes,mtbf` selects a subset,
//! run in registry order.
//!
//! Exit `4` means the artifacts ran but shape checks disagreed with
//! the paper.

use crate::Args;
use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::report;
use sioscope::sweeps::{run_sweep, SweepId};
use sioscope_bench::{artifact_resumable, parse_ids};
use sioscope_campaign::{write_atomic, CliError};
use sioscope_trace::json::Json;
use std::path::PathBuf;

pub const USAGE: &str =
    "usage: sioscope repro [--out DIR [--resume]] [--sweeps[=id,...]] [--experiments] [ID...]";

/// The `--sweeps[=id,...]` selection: `None` without the flag, every
/// sweep for a bare `--sweeps`, else the named ones in registry order
/// with repeats dropped.
fn sweeps(args: &mut Args) -> Result<Option<Vec<SweepId>>, CliError> {
    let Some(ids) = args.optional_list("--sweeps") else {
        return Ok(None);
    };
    let wanted = parse_ids("sweep", &ids, SweepId::all(), SweepId::id)?;
    let mut selected = SweepId::all();
    selected.retain(|s| wanted.is_empty() || wanted.contains(s));
    Ok(Some(selected))
}

pub fn main(mut args: Args) -> Result<(), CliError> {
    let out = args.value("--out")?.map(PathBuf::from);
    let resume = args.flag("--resume");
    // A marker only: the ids that follow are bare arguments.
    args.flag("--experiments");
    let sweeps = sweeps(&mut args)?;
    let ids = args.positionals().join(" ");
    args.finish()?;
    let mut experiments = parse_ids("experiment", &ids, Experiment::all(), Experiment::id)?;
    if experiments.is_empty() {
        experiments = Experiment::all();
    }
    if resume && out.is_none() {
        return Err(
            args.bad("--resume requires --out DIR (there is no artifact directory to resume into)")
        );
    }
    let scale = Scale::from_env();
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).map_err(|e| CliError::io(dir, e))?;
    }
    let artifact = |name: String| out.as_ref().map(|dir| dir.join(name));
    let resumable =
        |path: &Option<PathBuf>| resume && path.as_deref().is_some_and(artifact_resumable);

    println!("{}", report::render_paper_reference());

    let mut failures = 0usize;
    let mut check_rows = Vec::new();
    for e in experiments {
        let path = artifact(format!("{}.txt", e.id()));
        if resumable(&path) {
            println!("-- {} already written, skipping (--resume)", e.id());
            continue;
        }
        let output = run_experiment(e, scale);
        let rendered = report::render_output(&output);
        print!("{rendered}");
        if let Some(path) = &path {
            write_atomic(path, &rendered)?;
        }
        for c in &output.checks {
            check_rows.push(Json::obj(vec![
                ("experiment", Json::Str(e.id().into())),
                ("check", Json::Str(c.name.clone())),
                ("pass", Json::Bool(c.pass)),
                ("detail", Json::Str(c.detail.clone())),
            ]));
        }
        failures += output.failures().len();
    }
    if let Some(selection) = &sweeps {
        println!("================================================================");
        println!("Machine-configuration sweeps (the paper's §7 future work)");
        println!("================================================================");
        for &id in selection {
            let path = artifact(format!("sweep-{}.txt", id.id()));
            if resumable(&path) {
                println!("-- sweep {} already written, skipping (--resume)", id.id());
                continue;
            }
            let sweep = run_sweep(id, scale);
            println!("{}", sweep.render());
            if let Some(p) = &path {
                write_atomic(p, sweep.render())?;
            }
        }
    }
    if let Some(dir) = &out {
        let json = Json::Array(check_rows).render_pretty();
        write_atomic(&dir.join("checks.json"), json)?;
        println!("\nartifacts written to {}", dir.display());
    }
    if failures > 0 {
        return Err(CliError::GoldenMismatch(format!(
            "{failures} shape check(s) disagree with the paper"
        )));
    }
    println!("\nall shape checks passed");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        Args {
            usage: USAGE,
            rest: argv.iter().map(|a| a.to_string()).collect(),
        }
    }

    #[test]
    fn sweeps_flag_absent_bare_and_selective() {
        assert_eq!(sweeps(&mut args(&[])).unwrap(), None);
        assert_eq!(
            sweeps(&mut args(&["--sweeps"])).unwrap(),
            Some(SweepId::all())
        );
        // Registry order whatever the order given, repeats dropped.
        let mut selective = args(&["--sweeps=stripe_unit,io_nodes", "--sweeps=io_nodes"]);
        assert_eq!(
            sweeps(&mut selective).unwrap(),
            Some(vec![SweepId::IoNodes, SweepId::StripeUnit])
        );
        assert!(
            selective.finish().is_ok(),
            "every --sweeps form is consumed"
        );
    }
}
