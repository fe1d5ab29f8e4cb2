//! # sioscope-bench
//!
//! Benchmark harness and command line of the sioscope reproduction:
//!
//! * the `sioscope` binary regenerates **every table and figure** of
//!   the paper (`cargo run -p sioscope-bench --release --bin sioscope
//!   -- repro`), printing each artifact with its shape checks against
//!   the paper's published values, and runs campaigns, the chaos soak,
//!   trace characterization and bench-baseline collation;
//! * the benches (`cargo bench`, timed by [`timing`]) time the
//!   simulator on each experiment and on the PFS fast paths.

pub mod timing;

use sioscope_campaign::CliError;
use sioscope_faults::{FaultKind, FaultSchedule, Tier};
use sioscope_pfs::BackendKind;
use sioscope_sim::Time;
use sioscope_trace::json::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The fault-validation tier a storage backend interprets its
/// schedules against (the burst tier's *inner* PFS schedule is
/// validated separately, against [`Tier::Pfs`]).
pub fn backend_tier(kind: BackendKind) -> Tier {
    match kind {
        BackendKind::Pfs => Tier::Pfs,
        BackendKind::Object => Tier::Object,
        BackendKind::Burst => Tier::Burst,
    }
}

/// The usage error (exit code 2) for a fault schedule the chosen tier
/// cannot express: every problem, then the tier's valid fault set.
pub fn fault_mismatch_error(kind: BackendKind, problems: &[String]) -> CliError {
    let tier = backend_tier(kind);
    CliError::BadArgs(format!(
        "fault schedule invalid for the {} tier:\n  {}\nvalid faults on {}: {}",
        kind.id(),
        problems.join("\n  "),
        tier,
        tier.valid_fault_labels().join(", ")
    ))
}

/// Parse a `--faults` spec: a comma list of `label@frac` events, each
/// placed at `frac`× the run horizon with canned parameters (windows
/// span 20% of the horizon, slowdown factors are 2×). The spec is
/// *not* tier-checked here — that is the job of
/// `BackendConfig::validate_faults`, so a cross-tier schedule fails
/// through [`fault_mismatch_error`] naming the valid set rather than
/// being rejected ad hoc at parse time.
pub fn parse_fault_spec(spec: &str, horizon: Time) -> Result<FaultSchedule, CliError> {
    let window = horizon.scale(0.2).max(Time::from_millis(1));
    // One canned event per fault class, in the order errors list them.
    let canned = [
        FaultKind::LatentSector {
            ion: 0,
            duration: window,
            penalty: Time::from_millis(5),
        },
        FaultKind::SpindleFailure {
            ion: 0,
            rebuild: Some(window),
        },
        FaultKind::IonCrash {
            ion: 0,
            restart: window,
        },
        FaultKind::IonSlowdown {
            ion: 0,
            duration: window,
            factor: 2.0,
        },
        FaultKind::LinkCongestion {
            duration: window,
            factor: 2.0,
        },
        FaultKind::ComputeNodeCrash {
            node: 0,
            rework: window,
        },
        FaultKind::MetadataShardOutage {
            shard: 0,
            duration: window,
        },
        FaultKind::DegradedService {
            duration: window,
            factor: 2.0,
        },
        FaultKind::DrainStall { duration: window },
        FaultKind::BurstNodeCrash { repair: window },
        FaultKind::ConsumerCrash { stall: window },
    ];
    let mut schedule = FaultSchedule::empty();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (label, frac) = match part.split_once('@') {
            Some((l, f)) => {
                let frac: f64 = f.parse().map_err(|_| {
                    CliError::BadArgs(format!("bad fault placement `{part}` (want label@frac)"))
                })?;
                if !(0.0..=1.0).contains(&frac) {
                    return Err(CliError::BadArgs(format!(
                        "fault placement `{part}` outside [0, 1]"
                    )));
                }
                (l, frac)
            }
            None => (part, 0.5),
        };
        let Some(kind) = canned.iter().find(|k| k.label() == label) else {
            let known: Vec<&str> = canned.iter().map(FaultKind::label).collect();
            return Err(CliError::BadArgs(format!(
                "unknown fault label `{label}`; known labels: {}",
                known.join(", ")
            )));
        };
        schedule.push(horizon.scale(frac), kind.clone());
    }
    Ok(schedule)
}

/// Whether an artifact at `path` can be trusted by `--resume`: it must
/// be a readable, non-empty file, and a `.json` artifact must actually
/// parse — a file that exists but holds truncated or corrupt JSON is
/// regenerated, not skipped. (Artifacts written through
/// [`sioscope_campaign::write_atomic`] are never truncated by a crash, but artifacts from
/// older runs, other tools, or interrupted copies can be.)
pub fn artifact_resumable(path: &Path) -> bool {
    let Ok(contents) = std::fs::read_to_string(path) else {
        return false;
    };
    if contents.is_empty() {
        return false;
    }
    if path.extension().is_some_and(|e| e == "json") {
        return Json::parse(&contents).is_ok();
    }
    true
}

/// Parse a comma- or space-separated list of `what` ids into the
/// values they name, in the order given (repeats kept; empty input
/// selects nothing). `all` is the registry and `id` its stable id.
///
/// Unknown ids are a usage error (exit 2), not a no-op: the error
/// names every unknown id at once and lists the valid set, so a typo
/// cannot silently shrink a run.
pub fn parse_ids<T: Copy>(
    what: &str,
    ids: &str,
    all: Vec<T>,
    id: fn(T) -> &'static str,
) -> Result<Vec<T>, CliError> {
    let mut selected = Vec::new();
    let mut unknown = Vec::new();
    for name in ids.split([',', ' ']).filter(|s| !s.is_empty()) {
        match all.iter().find(|&&t| id(t) == name) {
            Some(&t) => selected.push(t),
            None => unknown.push(name),
        }
    }
    if unknown.is_empty() {
        return Ok(selected);
    }
    let valid: Vec<&str> = all.into_iter().map(id).collect();
    Err(CliError::BadArgs(format!(
        "unknown {what} id(s): {}\nvalid {what} ids: {}",
        unknown.join(", "),
        valid.join(", ")
    )))
}

/// Mean and median point estimates of one bench, in
/// nanoseconds.
pub type BenchEstimate = (f64, f64);

/// Collect the point estimates for every bench in `group` from
/// `criterion_dir` (normally `target/criterion`). Reads each
/// `<group>/<bench>/new/estimates.json` written by a `cargo bench` run.
pub fn collect_estimates(
    criterion_dir: &Path,
    group: &str,
) -> std::io::Result<BTreeMap<String, BenchEstimate>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(criterion_dir.join(group))? {
        let path = entry?.path();
        let estimates = path.join("new").join("estimates.json");
        if !estimates.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&estimates)?;
        let v = Json::parse(&text)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let point = |stat: &str| v.get(stat)?.get("point_estimate")?.as_f64();
        if let (Some(mean), Some(median)) = (point("mean"), point("median")) {
            let name = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            out.insert(name, (mean, median));
        }
    }
    Ok(out)
}

/// The `benches` map of a baseline: `{name: {mean_ns, median_ns}}`.
fn benches_json(estimates: &BTreeMap<String, BenchEstimate>) -> Json {
    let benches = estimates
        .iter()
        .map(|(name, &(mean, median))| {
            let stats = Json::obj(vec![
                ("mean_ns", Json::num(mean)),
                ("median_ns", Json::num(median)),
            ]);
            (name.clone(), stats)
        })
        .collect();
    Json::Object(benches)
}

/// Assemble a `BENCH_<n>.json` baseline document from collected
/// estimates.
pub fn baseline_value(group: &str, estimates: &BTreeMap<String, BenchEstimate>) -> Json {
    Json::obj(vec![
        ("schema", Json::Str("sioscope-bench-baseline/1".into())),
        ("group", Json::Str(group.into())),
        (
            "command",
            Json::Str(format!("cargo bench -p sioscope-bench --bench {group}")),
        ),
        ("benches", benches_json(estimates)),
    ])
}

/// The bench groups a `BENCH_<n>.json` baseline captures: the
/// simulator hot paths, the trace analytics engine, and the batch
/// scheduler. All live in the `hotpath` bench target, so one
/// `cargo bench --bench hotpath` run produces estimates for every
/// group.
pub const BASELINE_GROUPS: [&str; 3] = ["hotpath", "analysis", "sched"];

/// Assemble a multi-group `BENCH_<n>.json` baseline document
/// (schema `sioscope-bench-baseline/2`) from per-group estimates.
/// Groups with no collected estimates are omitted.
pub fn baseline_value_multi(groups: &BTreeMap<String, BTreeMap<String, BenchEstimate>>) -> Json {
    let rendered = groups
        .iter()
        .filter(|(_, estimates)| !estimates.is_empty())
        .map(|(group, estimates)| {
            let benches = Json::obj(vec![("benches", benches_json(estimates))]);
            (group.clone(), benches)
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::Str("sioscope-bench-baseline/2".into())),
        (
            "command",
            Json::Str("cargo bench -p sioscope-bench --bench hotpath".into()),
        ),
        ("groups", Json::Object(rendered)),
    ])
}

/// Locate `bench` in a baseline of either schema: the v1 top-level
/// `benches` map, or any group of a v2 `groups` map (bench names are
/// unique across groups).
fn find_bench<'a>(v: &'a Json, bench: &str) -> Option<&'a Json> {
    if let Some(direct) = v.get("benches").and_then(|b| b.get(bench)) {
        return Some(direct);
    }
    v.get("groups")?
        .as_object()?
        .values()
        .find_map(|g| g.get("benches")?.get(bench))
}

/// Speedup of `bench` going from the `old` baseline to the `new` one
/// (mean-over-mean; > 1.0 means `new` is faster). `None` when either
/// baseline lacks the bench or a captured mean. Accepts baselines of
/// either schema version.
pub fn baseline_speedup(old: &Json, new: &Json, bench: &str) -> Option<f64> {
    let mean = |v: &Json| find_bench(v, bench)?.get("mean_ns")?.as_f64();
    match (mean(old), mean(new)) {
        (Some(o), Some(n)) if n > 0.0 => Some(o / n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope::chaos::ChaosTier;
    use sioscope::experiments::Experiment;
    use sioscope::sweeps::SweepId;
    use sioscope_campaign::{tmp_sibling, write_atomic};

    /// The value at `path` (a chain of object keys) inside `v`.
    fn at<'a>(v: &'a Json, path: &[&str]) -> Option<&'a Json> {
        path.iter().try_fold(v, |v, key| v.get(key))
    }

    #[test]
    fn args_filtering() {
        let none = parse_ids("experiment", "", Experiment::all(), Experiment::id).unwrap();
        assert!(none.is_empty());
        // Given order, repeats kept, commas and spaces alike.
        let ids = "escat-table2 recovery-escat,escat-table2";
        let got = parse_ids("experiment", ids, Experiment::all(), Experiment::id).unwrap();
        assert_eq!(
            got,
            vec![
                Experiment::EscatTable2,
                Experiment::RecoveryEscat,
                Experiment::EscatTable2
            ]
        );
    }

    #[test]
    fn unknown_ids_are_an_error_listing_every_offender() {
        let ids = "bogus escat-table2 also-bogus";
        let err = parse_ids("experiment", ids, Experiment::all(), Experiment::id).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.starts_with("unknown experiment id(s): bogus, also-bogus\n"));
        assert!(msg.contains("valid experiment ids: escat-table1, "));
    }

    #[test]
    fn unknown_sweep_ids_are_an_error_listing_every_offender() {
        let err = parse_ids(
            "sweep",
            "io_nodes,bogus,also-bogus",
            SweepId::all(),
            SweepId::id,
        )
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.starts_with("unknown sweep id(s): bogus, also-bogus\n"));
        assert!(msg.contains("valid sweep ids: ") && msg.contains("staging_depth"));
    }

    #[test]
    fn every_registry_id_round_trips_through_parse_ids() {
        fn round_trip<T: Copy + PartialEq + std::fmt::Debug>(
            what: &str,
            all: Vec<T>,
            id: fn(T) -> &'static str,
        ) {
            let joined: Vec<&str> = all.iter().map(|&t| id(t)).collect();
            assert_eq!(
                parse_ids(what, &joined.join(","), all.clone(), id).unwrap(),
                all
            );
            for &t in &all {
                assert_eq!(parse_ids(what, id(t), all.clone(), id).unwrap(), vec![t]);
                // A near miss stays a usage error naming the bad id.
                let near = format!("{}-x", id(t));
                let err = parse_ids(what, &near, all.clone(), id).unwrap_err();
                assert!(err.to_string().contains(&near), "{err}");
            }
        }
        round_trip("experiment", Experiment::all(), Experiment::id);
        round_trip("sweep", SweepId::all(), SweepId::id);
        round_trip("tier", ChaosTier::all(), ChaosTier::id);
        round_trip("backend", BackendKind::all(), BackendKind::id);
    }

    #[test]
    fn baseline_collation_and_speedup() {
        let dir = std::env::temp_dir().join(format!("sioscope-bench-{}", std::process::id()));
        let bench_dir = dir.join("hotpath").join("full_registry_cold").join("new");
        std::fs::create_dir_all(&bench_dir).unwrap();
        std::fs::write(
            bench_dir.join("estimates.json"),
            r#"{"mean":{"point_estimate":3000.0},"median":{"point_estimate":2900.0}}"#,
        )
        .unwrap();
        // A directory without estimates (e.g. a report) must be skipped.
        std::fs::create_dir_all(dir.join("hotpath").join("report")).unwrap();
        let estimates = collect_estimates(&dir, "hotpath").unwrap();
        assert_eq!(estimates.get("full_registry_cold"), Some(&(3000.0, 2900.0)));
        let old = baseline_value("hotpath", &estimates);
        let mean = at(&old, &["benches", "full_registry_cold", "mean_ns"]);
        assert_eq!(mean.and_then(Json::as_f64), Some(3000.0));
        let mut faster = estimates.clone();
        faster.insert("full_registry_cold".to_string(), (1500.0, 1400.0));
        let new = baseline_value("hotpath", &faster);
        assert_eq!(
            baseline_speedup(&old, &new, "full_registry_cold"),
            Some(2.0)
        );
        assert_eq!(baseline_speedup(&old, &new, "missing"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn multi_group_baseline_schema_and_cross_version_speedup() {
        let mut groups: BTreeMap<String, BTreeMap<String, BenchEstimate>> = BTreeMap::new();
        groups.insert(
            "hotpath".to_string(),
            BTreeMap::from([("full_registry_cold".to_string(), (3000.0, 2900.0))]),
        );
        groups.insert(
            "analysis".to_string(),
            BTreeMap::from([("window_query_indexed".to_string(), (80.0, 78.0))]),
        );
        groups.insert("empty".to_string(), BTreeMap::new());
        let v2 = baseline_value_multi(&groups);
        assert_eq!(
            at(&v2, &["schema"]).and_then(Json::as_str),
            Some("sioscope-bench-baseline/2")
        );
        let path = [
            "groups",
            "analysis",
            "benches",
            "window_query_indexed",
            "mean_ns",
        ];
        assert_eq!(at(&v2, &path).and_then(Json::as_f64), Some(80.0));
        assert_eq!(
            at(&v2, &["groups", "empty"]),
            None,
            "estimate-less groups are omitted"
        );
        // The rendered document parses back to the same value.
        assert_eq!(Json::parse(&v2.render_pretty()).unwrap(), v2);

        // v2-vs-v2 lookups find benches in any group.
        let mut faster = groups.clone();
        faster
            .get_mut("analysis")
            .unwrap()
            .insert("window_query_indexed".to_string(), (20.0, 19.0));
        let new = baseline_value_multi(&faster);
        assert_eq!(
            baseline_speedup(&v2, &new, "window_query_indexed"),
            Some(4.0)
        );
        assert_eq!(baseline_speedup(&v2, &new, "full_registry_cold"), Some(1.0));
        assert_eq!(baseline_speedup(&v2, &new, "missing"), None);

        // A v1 baseline compares against a v2 one transparently.
        let v1 = baseline_value(
            "hotpath",
            &BTreeMap::from([("full_registry_cold".to_string(), (6000.0, 5800.0))]),
        );
        assert_eq!(baseline_speedup(&v1, &new, "full_registry_cold"), Some(2.0));
        assert!(BASELINE_GROUPS.contains(&"sched"));
    }

    #[test]
    fn cli_error_exit_codes_are_stable() {
        assert_eq!(CliError::BadArgs("x".into()).exit_code(), 2);
        let io = CliError::io("/nope/artifact.txt", std::io::Error::other("disk on fire"));
        assert_eq!(io.exit_code(), 3);
        let msg = io.to_string();
        assert!(
            msg.contains("/nope/artifact.txt"),
            "I/O errors must name the failing path: {msg}"
        );
        assert_eq!(CliError::GoldenMismatch("x".into()).exit_code(), 4);
    }

    #[test]
    fn write_atomic_lands_contents_and_cleans_its_scratch() {
        let dir = std::env::temp_dir().join(format!("sioscope-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.txt");
        write_atomic(&path, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "first");
        // Overwrites go through the same staged rename.
        write_atomic(&path, "second").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "second");
        assert!(
            !tmp_sibling(&path).exists(),
            "no .tmp straggler after a clean write"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_reports_the_failing_path() {
        let path = Path::new("/nonexistent-sioscope-dir/artifact.txt");
        let err = write_atomic(path, "x").unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("nonexistent-sioscope-dir"));
    }

    #[test]
    fn resume_trusts_only_parseable_artifacts() {
        let dir = std::env::temp_dir().join(format!("sioscope-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // Missing and empty files are never resumable.
        assert!(!artifact_resumable(&dir.join("missing.txt")));
        let empty = dir.join("empty.txt");
        std::fs::write(&empty, "").unwrap();
        assert!(!artifact_resumable(&empty));

        // Non-JSON artifacts only need contents.
        let txt = dir.join("escat-table2.txt");
        std::fs::write(&txt, "rendered table\n").unwrap();
        assert!(artifact_resumable(&txt));

        // JSON artifacts must parse: a truncated checks.json from a
        // pre-write_atomic run (or an interrupted copy) is regenerated.
        let json = dir.join("checks.json");
        std::fs::write(&json, r#"[{"experiment": "escat-table2", "pass": true}]"#).unwrap();
        assert!(artifact_resumable(&json));
        std::fs::write(&json, r#"[{"experiment": "escat-ta"#).unwrap();
        assert!(!artifact_resumable(&json));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fault_spec_parses_and_places_events() {
        let horizon = Time::from_secs(10);
        let s = parse_fault_spec("ion-crash@0.5,drain-stall", horizon).unwrap();
        assert_eq!(s.events.len(), 2);
        assert_eq!(s.events[0].at, Time::from_secs(5));
        assert!(s.engages());

        let err = parse_fault_spec("warp-core-breach@0.5", horizon).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("known labels"));

        let err = parse_fault_spec("ion-crash@1.5", horizon).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn fault_mismatch_is_a_usage_error_naming_the_valid_set() {
        let problems = vec!["event 0: drain-stall is not a fault of the pfs tier".to_string()];
        let err = fault_mismatch_error(BackendKind::Pfs, &problems);
        assert_eq!(err.exit_code(), 2);
        let msg = err.to_string();
        assert!(msg.contains("valid faults on pfs"));
        assert!(msg.contains("ion-crash"));
        let burst = fault_mismatch_error(BackendKind::Burst, &problems).to_string();
        assert!(burst.contains("drain-stall") && burst.contains("burst-crash"));
    }

    #[test]
    fn cross_tier_spec_fails_fast_through_backend_validation() {
        use sioscope_pfs::{BackendConfig, ObjectStoreConfig};
        let faults = parse_fault_spec("drain-stall@0.2", Time::from_secs(10)).unwrap();
        let mut obj = ObjectStoreConfig::modern(4);
        obj.faults = faults;
        let cfg = BackendConfig::Object(obj);
        let problems = cfg.validate_faults(4);
        assert!(!problems.is_empty());
        let err = fault_mismatch_error(BackendKind::Object, &problems);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("valid faults on object"));
    }

    #[test]
    fn consumer_crash_parses_but_stays_stream_only() {
        use sioscope_pfs::mode::OsRelease;
        use sioscope_pfs::{BackendConfig, PfsConfig};
        let horizon = Time::from_secs(10);
        let faults = parse_fault_spec("consumer-crash@0.3", horizon).unwrap();
        assert_eq!(faults.events.len(), 1);
        assert_eq!(faults.events[0].at, Time::from_secs(3));
        // On a storage tier the same schedule is a cross-tier usage
        // error, exit 2, naming the tier's valid set.
        let mut pfs = PfsConfig::caltech(4, OsRelease::Osf13);
        pfs.faults = faults;
        let cfg = BackendConfig::Pfs(pfs);
        let problems = cfg.validate_faults(4);
        assert!(!problems.is_empty(), "consumer-crash must not pass on pfs");
        let err = fault_mismatch_error(BackendKind::Pfs, &problems);
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("valid faults on pfs"));
    }
}
