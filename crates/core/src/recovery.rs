//! Checkpoint/restart recovery: end-to-end time-to-solution under
//! compute-node failures.
//!
//! The paper's applications are gang-scheduled SPMD codes: one dead
//! compute node kills the whole attempt, and the run restarts from its
//! last committed checkpoint (PRISM's restart file is literally the
//! mechanism — phase one re-reads it in 155,584-byte records). This
//! module drives the simulator through that story:
//!
//! 1. Run the current attempt (full workload, or a replay sliced from
//!    the last committed marker).
//! 2. If a scheduled [`FaultKind::ComputeNodeCrash`] lands inside the
//!    attempt, charge the crash's rework/reboot latency, roll the
//!    attempt back to its last committed checkpoint, and go again —
//!    the replay re-reads the checkpoint through the real PFS path
//!    via the workload's restart prologue.
//! 3. When an attempt outlives the remaining crash schedule, its
//!    completion instant is the *time-to-solution*.
//!
//! Every decision is a pure function of the (seeded) crash schedule
//! and the deterministic simulator, so same-seed recovery runs are
//! bit-identical end to end.

use crate::simulator::{run, RunResult, SimError, SimOptions};
use sioscope_faults::{FaultKind, FaultSchedule};
use sioscope_pfs::{BackendConfig, OpKind};
use sioscope_sim::{FileId, Time};
use sioscope_workloads::Recoverable;

/// Accounting for one recovery story (one workload, one crash
/// schedule, run to solution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Compute-node crashes survived on the way to the solution.
    pub crashes: u32,
    /// Attempts launched (`crashes + 1`).
    pub attempts: u32,
    /// Work time lost to crashes: for each crash, the attempt time
    /// past the last committed checkpoint.
    pub rework: Time,
    /// Total reboot/reschedule latency charged by the crashes.
    pub restart_latency: Time,
    /// Bytes written to the checkpoint files across all attempts
    /// (writes that had started by each crash, plus the final
    /// attempt's full checkpoint output).
    pub checkpoint_write_bytes: u64,
    /// Bytes the restart prologues read back from the checkpoint
    /// (charged once per replay-from-marker attempt).
    pub checkpoint_read_bytes: u64,
    /// End-to-end wall clock from first launch to the final attempt's
    /// completion, including all rework and restart latency.
    pub time_to_solution: Time,
}

/// Run `rec` to solution under the compute-node crashes in `crashes`,
/// on the storage tier `cfg` selects (a bare
/// [`PfsConfig`](sioscope_pfs::PfsConfig) selects the striped PFS).
///
/// `crashes` holds only [`FaultKind::ComputeNodeCrash`] events; any
/// other kind is an [`SimError::InvalidFaults`]. I/O faults belong in
/// the tier config's own schedule as usual (the two compose — the
/// storage layer never observes compute crashes). Crash
/// instants are global wall-clock times; a crash that lands during
/// another crash's rework window is absorbed by it (the partition is
/// already down).
///
/// Returns the final attempt's [`RunResult`] with
/// [`RunResult::recovery`] filled in. With an empty crash schedule
/// the result is bit-identical to a plain [`run`] of the annotated
/// workload, and `time_to_solution == exec_time`. With a burst-buffer
/// tier absorbing the checkpoint files, the foreground commit cost
/// drops to log-append speed and the checkpoint-interval U-curve
/// flattens.
pub fn run_with_recovery(
    rec: &Recoverable,
    crashes: &FaultSchedule,
    cfg: impl Into<BackendConfig>,
    options: SimOptions,
) -> Result<RunResult, SimError> {
    let cfg = cfg.into();
    // Fail fast on malformed crash scenarios before any simulation.
    let problems = crash_schedule_problems(crashes, rec.workload().nodes);
    if !problems.is_empty() {
        return Err(SimError::InvalidFaults(problems));
    }

    let mut crash_list: Vec<(Time, Time)> = crashes
        .events
        .iter()
        .filter_map(|ev| match ev.kind {
            FaultKind::ComputeNodeCrash { rework, .. } => Some((ev.at, rework)),
            _ => None,
        })
        .collect();
    crash_list.sort();

    let ckpt_files: Vec<FileId> = rec.checkpoint_files().iter().map(|f| FileId(*f)).collect();
    let ckpt_writes_before = |r: &RunResult, cutoff: Time| -> u64 {
        r.trace
            .events()
            .iter()
            .filter(|e| e.kind == OpKind::Write && e.start < cutoff && ckpt_files.contains(&e.file))
            .map(|e| e.bytes)
            .sum()
    };

    let mut stats = RecoveryStats::default();
    let mut wall = Time::ZERO;
    let mut from: Option<u32> = None;
    let mut next = 0usize;
    loop {
        stats.attempts += 1;
        let workload = rec.slice_from(from);
        let mut result = run(&workload, cfg.clone(), options.clone())?;
        let exec = result.exec_time;
        // Crashes at or before the attempt's launch instant fell into
        // the previous crash's rework window: absorbed.
        while next < crash_list.len() && crash_list[next].0 <= wall {
            next += 1;
        }
        if next >= crash_list.len() || crash_list[next].0 >= wall + exec {
            // The attempt outlives the crash schedule: done. A crash
            // at the exact completion instant strikes a finished
            // application.
            stats.time_to_solution = wall.saturating_add(exec);
            stats.checkpoint_write_bytes += ckpt_writes_before(&result, Time::MAX);
            result.recovery = stats;
            return Ok(result);
        }
        let (at, rework) = crash_list[next];
        next += 1;
        stats.crashes += 1;
        // The crash instant in this attempt's local clock.
        let local = at.saturating_sub(wall);
        // Latest marker committed strictly by the crash AND durable —
        // a commit whose bytes a burst-node crash destroyed while
        // resident in the log reports `Time::MAX` and can never be
        // rolled back to. Commit times are monotone in the marker
        // index within an attempt.
        let committed = result
            .checkpoint_commits
            .iter()
            .zip(result.durable_commits.iter())
            .rfind(|((_, t), (_, d))| *t <= local && *d <= local)
            .map(|((k, t), _)| (*k, *t));
        let base = committed.map(|(_, t)| t).unwrap_or(Time::ZERO);
        stats.rework += local.saturating_sub(base);
        stats.restart_latency += rework;
        stats.checkpoint_write_bytes += ckpt_writes_before(&result, local);
        // No marker committed this attempt → replay from wherever this
        // attempt itself started.
        let new_from = committed.map(|(k, _)| k).or(from);
        if new_from.is_some() {
            // The next attempt re-reads the checkpoint through the
            // restart prologue's PFS reads.
            stats.checkpoint_read_bytes += rec.prologue_read_bytes();
        }
        wall = at.saturating_add(rework);
        from = new_from;
    }
}

/// Validate a compute-crash schedule against `compute_nodes` nodes.
/// Both crash-driven entry points ([`run_with_recovery`] and
/// [`run_schedule`](crate::schedule::run_schedule)) consume only
/// [`FaultKind::ComputeNodeCrash`] events, so any other kind would be
/// silently dropped: it is reported instead, naming where I/O faults
/// belong.
pub(crate) fn crash_schedule_problems(crashes: &FaultSchedule, compute_nodes: u32) -> Vec<String> {
    let misplaced: Vec<String> = crashes
        .events
        .iter()
        .enumerate()
        .filter(|(_, ev)| !matches!(ev.kind, FaultKind::ComputeNodeCrash { .. }))
        .map(|(i, ev)| {
            format!(
                "event {i}: {} is not a compute-crash; I/O faults belong in the \
                 storage tier's own fault schedule",
                ev.kind.label()
            )
        })
        .collect();
    if misplaced.is_empty() {
        // Only compute crashes remain, so no I/O-node bound applies.
        crashes.validate_for(0, compute_nodes)
    } else {
        misplaced
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::{BurstBufferConfig, PfsConfig};
    use sioscope_workloads::{CheckpointPolicy, EscatConfig, EscatVersion};

    fn tiny_pfs(nodes: u32) -> PfsConfig {
        let mut cfg = PfsConfig::tiny();
        cfg.machine.compute_nodes = nodes;
        cfg
    }

    fn crash_at(at: Time, rework: Time) -> FaultSchedule {
        let mut s = FaultSchedule::empty();
        s.push(at, FaultKind::ComputeNodeCrash { node: 0, rework });
        s
    }

    #[test]
    fn fault_free_recovery_equals_plain_run() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let plain = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        let recovered = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            tiny_pfs(cfg.nodes),
            SimOptions::default(),
        )
        .unwrap();
        assert_eq!(recovered.exec_time, plain.exec_time);
        assert_eq!(recovered.trace.events(), plain.trace.events());
        assert_eq!(recovered.recovery.crashes, 0);
        assert_eq!(recovered.recovery.attempts, 1);
        assert_eq!(recovered.recovery.time_to_solution, plain.exec_time);
        assert!(recovered.recovery.rework.is_zero());
    }

    #[test]
    fn one_crash_costs_rework_and_restart() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            tiny_pfs(cfg.nodes),
            SimOptions::default(),
        )
        .unwrap()
        .recovery
        .time_to_solution;
        let rework = Time::from_secs(2);
        let crashes = crash_at(baseline.scale(0.5), rework);
        let r =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert_eq!(r.recovery.crashes, 1);
        assert_eq!(r.recovery.attempts, 2);
        assert_eq!(r.recovery.restart_latency, rework);
        assert!(
            r.recovery.time_to_solution > baseline,
            "a mid-run crash must cost wall clock: {} vs {baseline}",
            r.recovery.time_to_solution
        );
        assert!(
            r.recovery.time_to_solution >= baseline.saturating_add(rework),
            "at minimum the rework latency is charged"
        );
    }

    #[test]
    fn checkpoints_bound_rework_versus_no_policy() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let none = cfg.recoverable(CheckpointPolicy::None);
        let fixed = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(none.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        // Crash late in the run: without checkpoints everything is
        // lost; with per-cycle commits only the tail is.
        let crashes = crash_at(baseline.scale(0.8), Time::from_secs(1));
        let r_none =
            run_with_recovery(&none, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        let r_fixed =
            run_with_recovery(&fixed, &crashes, tiny_pfs(cfg.nodes), SimOptions::default())
                .unwrap();
        assert_eq!(r_none.recovery.crashes, 1);
        assert_eq!(r_fixed.recovery.crashes, 1);
        assert!(
            r_none.recovery.rework > r_fixed.recovery.rework,
            "checkpoints must bound lost work: {} vs {}",
            r_none.recovery.rework,
            r_fixed.recovery.rework
        );
        assert!(
            r_fixed.recovery.checkpoint_read_bytes > 0,
            "a replay-from-marker attempt re-reads the checkpoint"
        );
        assert_eq!(r_none.recovery.checkpoint_read_bytes, 0);
    }

    #[test]
    fn same_seed_recovery_is_bit_identical() {
        let cfg = EscatConfig::tiny(EscatVersion::B);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        let crashes = crash_at(baseline.scale(0.6), Time::from_secs(1));
        let a =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        let b =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.exec_time, b.exec_time);
        assert_eq!(a.trace.events(), b.trace.events());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn backend_routed_recovery_matches_pfs_direct() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        let crashes = crash_at(baseline.scale(0.6), Time::from_secs(1));
        let direct =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        // A burst buffer absorbing no files is pure passthrough.
        let passthrough = BackendConfig::Burst(BurstBufferConfig::absorbing(
            tiny_pfs(cfg.nodes),
            Vec::new(),
        ));
        let routed = run_with_recovery(&rec, &crashes, passthrough, SimOptions::default()).unwrap();
        assert_eq!(direct.recovery, routed.recovery);
        assert_eq!(direct.exec_time, routed.exec_time);
        assert_eq!(direct.trace.events(), routed.trace.events());
    }

    #[test]
    fn burst_buffer_cuts_foreground_checkpoint_cost() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let plain = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            tiny_pfs(cfg.nodes),
            SimOptions::default(),
        )
        .unwrap();
        let burst_cfg = BackendConfig::Burst(BurstBufferConfig::absorbing(
            tiny_pfs(cfg.nodes),
            rec.checkpoint_files().to_vec(),
        ));
        let buffered = run_with_recovery(
            &rec,
            &FaultSchedule::empty(),
            burst_cfg,
            SimOptions::default(),
        )
        .unwrap();
        assert!(
            buffered.exec_time < plain.exec_time,
            "absorbing the checkpoint files must shed foreground commit cost: {} vs {}",
            buffered.exec_time,
            plain.exec_time
        );
        assert!(buffered.backend_stats.bytes_logged > 0);
        assert!(buffered.backend_stats.conserves_bytes());
    }

    #[test]
    fn invalid_crash_schedule_rejected_before_running() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::None);
        // Node 99 does not exist in an 8-node application.
        let mut s = FaultSchedule::empty();
        s.push(
            Time::from_secs(1),
            FaultKind::ComputeNodeCrash {
                node: 99,
                rework: Time::from_secs(1),
            },
        );
        // An I/O fault has no place in a crash schedule: it would be
        // silently dropped, so it is rejected instead.
        let mut io = FaultSchedule::empty();
        io.push(
            Time::from_millis(1),
            FaultKind::IonCrash {
                ion: 0,
                restart: Time::from_secs(1),
            },
        );
        for (s, needle) in [(s, "compute-crash targets node 99"), (io, "ion-crash")] {
            let e = run_with_recovery(&rec, &s, tiny_pfs(cfg.nodes), SimOptions::default())
                .unwrap_err();
            match e {
                SimError::InvalidFaults(problems) => {
                    assert!(problems.iter().any(|p| p.contains(needle)), "{problems:?}");
                }
                other => panic!("expected InvalidFaults, got {other}"),
            }
        }
    }

    #[test]
    fn crashes_inside_rework_windows_are_absorbed() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let baseline = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default())
            .unwrap()
            .exec_time;
        let rework = Time::from_secs(30);
        let first = baseline.scale(0.5);
        let mut crashes = FaultSchedule::empty();
        crashes.push(first, FaultKind::ComputeNodeCrash { node: 0, rework });
        // Lands while the partition is still rebooting from the first.
        crashes.push(
            first.saturating_add(Time::from_secs(1)),
            FaultKind::ComputeNodeCrash { node: 1, rework },
        );
        let r =
            run_with_recovery(&rec, &crashes, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert_eq!(r.recovery.crashes, 1, "the second crash is absorbed");
        assert_eq!(r.recovery.attempts, 2);
    }
}
