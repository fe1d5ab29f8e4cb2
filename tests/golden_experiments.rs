//! Golden-run regression suite: bit-exact snapshots of every registry
//! experiment, plus the raw per-run numbers they are derived from.
//!
//! Each experiment's rendered artifact and shape-check verdicts are
//! serialized to `tests/golden/<id>.json`; the underlying `RunResult`s
//! (exact nanosecond times, event counts, per-node finish times and a
//! digest of the full I/O trace) go to `tests/golden/runs-escat.json`
//! and `tests/golden/runs-prism.json`; every registered sweep's table
//! and per-point numbers go to `tests/golden/sweep-<id>.json`. The
//! comparison is **string equality on the serialized JSON** — one
//! nanosecond of drift anywhere fails the suite, which is exactly the
//! guarantee an optimization pass needs: the refactored simulator must
//! be *bit-identical*, not merely "still passes the shape checks".
//!
//! Workflow:
//!
//! * Every run: bit-exact comparison against the committed snapshots;
//!   any mismatch fails with the first differing line, and a missing
//!   snapshot fails naming the file.
//! * `UPDATE_GOLDEN=1 cargo test --test golden_experiments` writes
//!   every snapshot. Legitimate only when outputs *intentionally*
//!   changed (new experiment, model fix); never to make an
//!   "optimization" pass.
//!
//! Snapshots are captured at smoke scale so the suite stays cheap
//! enough to run on every commit.

use sioscope::experiments::{run_experiment, Experiment, Scale};
use sioscope::simulator::RunResult;
use sioscope_pfs::OpKind;
use sioscope_trace::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn update_requested() -> bool {
    matches!(
        std::env::var("UPDATE_GOLDEN").as_deref(),
        Ok("1") | Ok("true")
    )
}

/// FNV-1a over the binary encoding of the trace: a cheap digest that
/// pins the *entire* I/O trace (every pid, offset, start and duration)
/// without committing megabytes of events.
fn trace_digest(r: &RunResult) -> String {
    let h = sioscope_trace::binary::encode(&r.trace)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
    format!("{h:016x}")
}

fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// A per-kind map as an object keyed by the kind's paper label.
fn by_kind<V>(map: BTreeMap<OpKind, V>, value: impl Fn(V) -> u64) -> Json {
    let entries = map
        .into_iter()
        .map(|(k, v)| (k.label().to_string(), Json::UInt(value(v))))
        .collect();
    Json::Object(entries)
}

fn run_summary(r: &RunResult) -> Json {
    let s = &r.resilience;
    let resilience = [
        ("timeouts", s.timeouts),
        ("retries", s.retries),
        ("reroutes", s.reroutes),
        ("degraded_reads", s.degraded_reads),
        ("aborts", s.aborts),
        ("writethroughs", s.writethroughs),
    ];
    let node_finish = r.node_finish.iter().map(|t| Json::UInt(t.as_nanos()));
    Json::obj(vec![
        ("name", text(&r.name)),
        ("version", text(&r.version)),
        ("exec_time_ns", Json::UInt(r.exec_time.as_nanos())),
        ("events", Json::UInt(r.events)),
        ("total_io_time_ns", Json::UInt(r.total_io_time().as_nanos())),
        ("node_finish_ns", Json::Array(node_finish.collect())),
        ("trace_events", Json::UInt(r.trace.len() as u64)),
        ("trace_digest", text(&trace_digest(r))),
        (
            "duration_by_kind_ns",
            by_kind(r.trace.duration_by_kind(), |t| t.as_nanos()),
        ),
        ("bytes_by_kind", by_kind(r.trace.bytes_by_kind(), |b| b)),
        (
            "resilience",
            Json::obj(resilience.map(|(k, v)| (k, Json::UInt(v))).to_vec()),
        ),
        ("fault_transitions", Json::UInt(r.fault_transitions)),
    ])
}

/// Compare `produced` against the snapshot at `path`, recording a
/// failure on mismatch or a missing snapshot; with `UPDATE_GOLDEN=1`,
/// (re)write the snapshot instead.
fn check_snapshot(path: &Path, produced: &str, failures: &mut Vec<String>) {
    if update_requested() {
        std::fs::write(path, produced).expect("write golden snapshot");
        eprintln!("golden: wrote {}", path.display());
        return;
    }
    let Ok(expected) = std::fs::read_to_string(path) else {
        failures.push(format!(
            "{}: golden snapshot missing; generate it with UPDATE_GOLDEN=1",
            path.display()
        ));
        return;
    };
    if expected == produced {
        return;
    }
    let diff_line = expected
        .lines()
        .zip(produced.lines())
        .enumerate()
        .find(|(_, (e, p))| e != p)
        .map(|(i, (e, p))| format!("line {}: golden `{}` vs produced `{}`", i + 1, e, p))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: golden {} vs produced {}",
                expected.lines().count(),
                produced.lines().count()
            )
        });
    failures.push(format!(
        "{}: snapshot mismatch ({diff_line}); if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1",
        path.display()
    ));
}

fn pretty(value: &Json) -> String {
    let mut s = value.render_pretty();
    s.push('\n');
    s
}

#[test]
fn registry_experiments_match_goldens_bit_exact() {
    let dir = golden_dir();
    let mut failures = Vec::new();
    for e in Experiment::all() {
        let out = run_experiment(e, Scale::Smoke);
        let checks = out.checks.iter().map(|c| {
            Json::obj(vec![
                ("name", text(&c.name)),
                ("pass", Json::Bool(c.pass)),
                ("detail", text(&c.detail)),
            ])
        });
        let value = Json::obj(vec![
            ("id", text(e.id())),
            ("title", text(e.title())),
            ("rendered", text(&out.rendered)),
            ("checks", Json::Array(checks.collect())),
        ]);
        check_snapshot(
            &dir.join(format!("{}.json", e.id())),
            &pretty(&value),
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn escat_run_results_match_goldens_bit_exact() {
    use sioscope::experiments::escat::run_version;
    use sioscope_workloads::{EscatDataset, EscatVersion};
    let dir = golden_dir();
    let mut runs = BTreeMap::new();
    for v in EscatVersion::progressions() {
        for dataset in [EscatDataset::Ethylene, EscatDataset::CarbonMonoxide] {
            let r = run_version(v, dataset, Scale::Smoke);
            runs.insert(
                format!("escat-{v:?}-{dataset:?}").to_lowercase(),
                run_summary(&r),
            );
        }
    }
    let mut failures = Vec::new();
    check_snapshot(
        &dir.join("runs-escat.json"),
        &pretty(&Json::Object(runs)),
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn prism_run_results_match_goldens_bit_exact() {
    use sioscope::experiments::prism::run_version;
    use sioscope_workloads::PrismVersion;
    let dir = golden_dir();
    let mut runs = BTreeMap::new();
    for v in PrismVersion::all() {
        let r = run_version(v, Scale::Smoke);
        runs.insert(format!("prism-{v:?}").to_lowercase(), run_summary(&r));
    }
    let mut failures = Vec::new();
    check_snapshot(
        &dir.join("runs-prism.json"),
        &pretty(&Json::Object(runs)),
        &mut failures,
    );
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn registry_sweeps_match_goldens_bit_exact() {
    use sioscope::sweeps::{run_sweep, SweepId};
    let dir = golden_dir();
    let mut failures = Vec::new();
    for id in SweepId::all() {
        let sweep = run_sweep(id, Scale::Smoke);
        let points = sweep.points.iter().map(|p| {
            Json::obj(vec![
                ("label", text(&p.label)),
                ("value", Json::UInt(p.value)),
                ("exec_time_ns", Json::UInt(p.exec_time.as_nanos())),
                ("io_time_ns", Json::UInt(p.io_time.as_nanos())),
                ("events", Json::UInt(p.events)),
            ])
        });
        let value = Json::obj(vec![
            ("id", text(id.id())),
            ("rendered", text(&sweep.render())),
            ("points", Json::Array(points.collect())),
        ]);
        check_snapshot(
            &dir.join(format!("sweep-{}.json", id.id())),
            &pretty(&value),
            &mut failures,
        );
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
