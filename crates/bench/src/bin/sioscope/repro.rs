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
//! an interrupted generation picks up where it stopped. The selected
//! experiments run on every core and are printed and written in
//! registry order once all of them are done; the sweeps then do the
//! same. `--sweeps` appends the machine-configuration
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
use sioscope_sim::par_map;
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

    // Experiments and sweeps run on every core; skipping, printing
    // and writing stay in registry order.
    let experiments: Vec<(Experiment, Option<PathBuf>)> = experiments
        .into_iter()
        .map(|e| (e, artifact(format!("{}.txt", e.id()))))
        .collect();
    let outputs = par_map(&experiments, |(e, path)| {
        (!resumable(path)).then(|| {
            let output = run_experiment(*e, scale);
            (report::render_output(&output), output)
        })
    });
    let mut failures = 0usize;
    let mut check_rows = Vec::new();
    for ((e, path), output) in experiments.iter().zip(outputs) {
        let Some((rendered, output)) = output else {
            println!("-- {} already written, skipping (--resume)", e.id());
            continue;
        };
        print!("{rendered}");
        if let Some(path) = path {
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
        let selection: Vec<(SweepId, Option<PathBuf>)> = selection
            .iter()
            .map(|&id| (id, artifact(format!("sweep-{}.txt", id.id()))))
            .collect();
        let rendered = par_map(&selection, |(id, path)| {
            (!resumable(path)).then(|| run_sweep(*id, scale).render())
        });
        for ((id, path), text) in selection.iter().zip(rendered) {
            let Some(text) = text else {
                println!("-- sweep {} already written, skipping (--resume)", id.id());
                continue;
            };
            println!("{text}");
            if let Some(p) = path {
                write_atomic(p, text)?;
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
