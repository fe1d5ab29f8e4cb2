//! The simulation event loop.
//!
//! Executes one [`Workload`] — a statement program per compute node —
//! against one storage tier over the machine model, recording every
//! I/O operation in a [`TraceRecorder`] exactly as Pablo's
//! instrumentation library did: issue time, client-observed duration,
//! size, offset, node and operation kind.
//!
//! The statement interpreter, `Gang`, is shared with the multi-job
//! scheduler in [`crate::schedule`]: both event loops step their
//! processes through it.

use sioscope_machine::MeshModel;
use sioscope_pfs::{
    BackendConfig, BackendStats, Completion, PfsError, ResilienceStats, StorageBackend,
};
use sioscope_sim::{EventQueue, FileId, Pid, RendezvousOutcome, RendezvousTable, Time};
use sioscope_trace::{IoEvent, TraceRecorder};
use sioscope_workloads::{Stmt, Workload};
use std::collections::BTreeMap;
use std::fmt;

/// Simulation options.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Fixed software overhead of one barrier/broadcast/gather call
    /// beyond the message timing (collective library entry/exit).
    pub collective_overhead: Time,
    /// Abort if the event count exceeds this bound (guards against
    /// runaway workloads). `0` disables the check.
    pub max_events: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            collective_overhead: Time::from_micros(50),
            max_events: 200_000_000,
        }
    }
}

/// Why a run failed.
#[derive(Debug)]
pub enum SimError {
    /// The workload failed structural validation.
    InvalidWorkload(Vec<String>),
    /// The fault schedule failed validation against the machine and
    /// workload shape (checked before any faulted run starts).
    InvalidFaults(Vec<String>),
    /// A file-system call was rejected.
    Pfs {
        /// The failing process.
        pid: Pid,
        /// Statement index within the process's program.
        stmt: usize,
        /// The underlying error.
        source: PfsError,
    },
    /// The event queue drained with unfinished programs — a deadlock
    /// (usually mismatched collective participation).
    Deadlock {
        /// Pids that had not finished.
        stuck: Vec<Pid>,
        /// PFS collective groups still forming.
        forming_collectives: usize,
    },
    /// `max_events` exceeded.
    EventBudgetExceeded(u64),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidWorkload(problems) => {
                write!(f, "invalid workload: {}", problems.join("; "))
            }
            SimError::InvalidFaults(problems) => {
                write!(f, "invalid fault schedule: {}", problems.join("; "))
            }
            SimError::Pfs { pid, stmt, source } => {
                write!(f, "{pid} stmt {stmt}: {source}")
            }
            SimError::Deadlock {
                stuck,
                forming_collectives,
            } => write!(
                f,
                "deadlock: {} unfinished pids, {} forming collectives",
                stuck.len(),
                forming_collectives
            ),
            SimError::EventBudgetExceeded(n) => write!(f, "event budget exceeded: {n}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The outcome of a run.
#[derive(Debug)]
pub struct RunResult {
    /// Workload name.
    pub name: String,
    /// Version label.
    pub version: String,
    /// Wall-clock execution time: the latest completion across nodes.
    pub exec_time: Time,
    /// Per-node completion times.
    pub node_finish: Vec<Time>,
    /// The captured I/O trace (sorted by start time).
    pub trace: TraceRecorder,
    /// Total simulation events processed (including fault-calendar
    /// transitions when a fault schedule engages).
    pub events: u64,
    /// Resilience actions the PFS took (all zero on fault-free runs).
    pub resilience: ResilienceStats,
    /// Fault-calendar transitions processed (fault windows opening or
    /// closing); zero when no fault schedule engages.
    pub fault_transitions: u64,
    /// Checkpoint-commit instants: `(marker, time)` pairs sorted by
    /// marker, where the time is the latest instant any node passed
    /// the marker. Empty for marker-free workloads.
    pub checkpoint_commits: Vec<(u32, Time)>,
    /// Durability verdict per checkpoint commit, parallel to
    /// `checkpoint_commits`: the instant the commit's data is durable
    /// on stable storage, or [`Time::MAX`] if a burst-node crash
    /// destroyed bytes the commit covered (the checkpoint can never be
    /// restored from). Tiers without volatile staging report the
    /// commit instant itself.
    pub durable_commits: Vec<(u32, Time)>,
    /// Recovery accounting, filled in by
    /// [`crate::recovery::run_with_recovery`]; all-zero for plain
    /// runs.
    pub recovery: crate::recovery::RecoveryStats,
    /// Tier-specific counters from the storage backend (all-default
    /// for the plain PFS; the burst buffer's log/drain accounting and
    /// the object store's PUT/GET counts land here).
    pub backend_stats: BackendStats,
}

impl RunResult {
    /// Total client-observed I/O time across all nodes.
    pub fn total_io_time(&self) -> Time {
        self.trace.total_io_time()
    }

    /// I/O share of `nodes × exec_time` — not the paper's metric.
    /// The paper's Table 3 divides summed per-node I/O time by
    /// the (single) total execution time; use
    /// [`RunResult::io_fraction_of_exec`] for that.
    pub fn io_fraction_aggregate(&self) -> f64 {
        let denom = self.exec_time.as_secs_f64() * self.node_finish.len() as f64;
        if denom <= 0.0 {
            0.0
        } else {
            self.total_io_time().as_secs_f64() / denom
        }
    }

    /// Summed I/O time over execution time — can exceed 1 for heavily
    /// concurrent I/O; matches the paper's Table 3 construction where
    /// percentages are per-operation sums over the run's duration.
    pub fn io_fraction_of_exec(&self) -> f64 {
        if self.exec_time.is_zero() {
            0.0
        } else {
            self.total_io_time().as_secs_f64() / self.exec_time.as_secs_f64()
        }
    }
}

/// Event payload.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Resume one process.
    Resume(Pid),
    /// A fault window opens or closes. No process state changes, but
    /// the boundary lands in the event calendar so the fault timeline
    /// is interleaved with (and visible in) the run's event stream.
    FaultTransition,
}

/// One process's interpreter state.
#[derive(Default)]
struct NodeState {
    pc: usize,
    issue_time: Time,
    collective_seq: u32,
    finished: bool,
    finish_time: Time,
}

/// State one event loop shares across every gang it steps.
pub(crate) struct LoopState<'m> {
    mesh: &'m MeshModel,
    collectives: RendezvousTable,
    /// One completion buffer reused across every submission — the
    /// event loop issues millions of ops per run, and `submit`'s
    /// per-call vector was the hottest allocation in a profile.
    completions: Vec<Completion>,
    collective_overhead: Time,
}

impl<'m> LoopState<'m> {
    pub(crate) fn new(mesh: &'m MeshModel, options: &SimOptions) -> Self {
        LoopState {
            mesh,
            collectives: RendezvousTable::new(),
            completions: Vec::new(),
            collective_overhead: options.collective_overhead,
        }
    }
}

/// The statement interpreter for one gang of SPMD processes: a
/// dedicated run's whole workload, or one attempt of one scheduled
/// job. Both event loops step their processes through it.
///
/// Local pid `p` submits as global pid `pid_base + p`, local file `f`
/// is global file `file_base + f`, and the gang's `seq`-th collective
/// meets under rendezvous key `key_base | seq`. The trace and the
/// checkpoint commits are recorded in local coordinates.
#[derive(Default)]
pub(crate) struct Gang {
    nodes: Vec<NodeState>,
    unfinished: usize,
    trace: TraceRecorder,
    /// Latest instant any node passed each checkpoint marker.
    commits: BTreeMap<u32, Time>,
    pub(crate) pid_base: u32,
    pub(crate) file_base: u32,
    key_base: u64,
}

impl Gang {
    pub(crate) fn new(nodes: u32, pid_base: u32, file_base: u32, key_base: u64) -> Gang {
        Gang {
            nodes: (0..nodes).map(|_| NodeState::default()).collect(),
            unfinished: nodes as usize,
            trace: TraceRecorder::new(),
            commits: BTreeMap::new(),
            pid_base,
            file_base,
            key_base,
        }
    }

    /// The finished gang's result in local coordinates: wall clock
    /// from `start` to the last node's finish, the sorted trace, and
    /// every checkpoint commit durable at its commit instant. Backend
    /// and recovery accounting are left for the caller to fill in.
    pub(crate) fn result(&mut self, workload: &Workload, start: Time, events: u64) -> RunResult {
        let node_finish: Vec<Time> = self.nodes.iter().map(|s| s.finish_time).collect();
        let end = node_finish.iter().copied().fold(Time::ZERO, Time::max);
        let mut trace = std::mem::take(&mut self.trace);
        trace.sort();
        let commits: Vec<(u32, Time)> = self.commits.iter().map(|(&k, &t)| (k, t)).collect();
        RunResult {
            name: workload.name.clone(),
            version: workload.version.clone(),
            exec_time: end.saturating_sub(start),
            node_finish,
            trace,
            events,
            resilience: ResilienceStats::default(),
            fault_transitions: 0,
            durable_commits: commits.clone(),
            checkpoint_commits: commits,
            recovery: crate::recovery::RecoveryStats::default(),
            backend_stats: BackendStats::default(),
        }
    }

    /// Local pids whose programs have not run to completion.
    fn stuck(&self) -> Vec<Pid> {
        (0..self.nodes.len())
            .filter(|&i| !self.nodes[i].finished)
            .map(|i| Pid(i as u32))
            .collect()
    }

    /// Run local process `pid`'s next statement at `now`, handing
    /// every process it wakes to `resume(t, local_pid)` in wake order.
    /// Returns `Ok(true)` when this step finished the gang's last
    /// process; a rejected I/O call returns its statement index.
    pub(crate) fn step<B: StorageBackend + ?Sized>(
        &mut self,
        now: Time,
        pid: Pid,
        workload: &Workload,
        backend: &mut B,
        shared: &mut LoopState<'_>,
        mut resume: impl FnMut(Time, Pid),
    ) -> Result<bool, (usize, PfsError)> {
        let state = &mut self.nodes[pid.index()];
        debug_assert!(!state.finished, "{pid} resumed after finishing");
        let program = &workload.programs[pid.index()];

        if state.pc >= program.len() {
            state.finished = true;
            state.finish_time = now;
            self.unfinished -= 1;
            return Ok(self.unfinished == 0);
        }
        let stmt_idx = state.pc;
        state.pc += 1;

        match &program[stmt_idx] {
            Stmt::Compute(d) => resume(now + *d, pid),
            Stmt::Io { file, op } => {
                state.issue_time = now;
                let global = Pid(self.pid_base + pid.0);
                let fid = FileId(self.file_base + *file);
                shared.completions.clear();
                // `Ok(false)` pushes nothing: the caller blocked in a
                // forming group, and the group-closing arrival's
                // submit call delivers its completion.
                backend
                    .submit_into(now, global, fid, op, &mut shared.completions)
                    .map_err(|source| (stmt_idx, source))?;
                for c in shared.completions.drain(..) {
                    // Group completions only span this gang's pids
                    // (its files are private to it).
                    let local = Pid(c.pid.0 - self.pid_base);
                    let issued = self.nodes[local.index()].issue_time;
                    self.trace.record(IoEvent {
                        pid: local,
                        file: FileId(*file),
                        kind: c.kind,
                        start: issued,
                        duration: c.finish.saturating_sub(issued),
                        bytes: c.bytes,
                        offset: c.offset,
                        mode: c.mode,
                    });
                    resume(c.finish.max(now), local);
                }
            }
            Stmt::CheckpointCommit(k) => {
                // Zero-cost: the commit writes are the ordinary Io
                // statements preceding the marker. Record the latest
                // instant any node passes it and continue immediately.
                let slot = self.commits.entry(*k).or_insert(Time::ZERO);
                *slot = (*slot).max(now);
                resume(now, pid);
            }
            collective @ (Stmt::Barrier | Stmt::Broadcast { .. } | Stmt::Gather { .. }) => {
                let seq = state.collective_seq;
                state.collective_seq += 1;
                let key = self.key_base | u64::from(seq);
                let n = workload.nodes;
                if let RendezvousOutcome::Complete { arrivals, release } =
                    shared.collectives.arrive(key, pid, now, n as usize)
                {
                    let base = release + shared.collective_overhead;
                    let mesh = shared.mesh;
                    // `(root, root's resume, everyone else's resume)`.
                    let (root, root_t, t) = match collective {
                        Stmt::Barrier => (None, base, base),
                        Stmt::Broadcast { bytes, .. } => {
                            let t = base + mesh.broadcast_time(n, *bytes);
                            (None, t, t)
                        }
                        // Senders finish after their own message; the
                        // root collects the reduction tree's worth of
                        // data.
                        Stmt::Gather {
                            root,
                            bytes_per_node,
                        } => (
                            Some(Pid(*root)),
                            base + mesh.broadcast_time(n, *bytes_per_node),
                            base + mesh.message_time_hops(*bytes_per_node, mesh.diameter() / 2),
                        ),
                        _ => unreachable!(),
                    };
                    for (p, _) in arrivals {
                        let at = if Some(p) == root { root_t } else { t };
                        resume(at.max(now), p);
                    }
                }
            }
        }
        Ok(false)
    }
}

/// Run `workload` against the storage tier `cfg` selects; a bare
/// [`PfsConfig`](sioscope_pfs::PfsConfig) selects the striped PFS.
///
/// The tier's machine is sized to `workload.nodes` compute nodes, and
/// the PFS (or a burst buffer's inner PFS) takes its OS release from
/// the workload. Every fault schedule the config carries is validated
/// against its own tier's fault vocabulary before the run starts — a
/// PFS fault on the object store (or vice versa) is an
/// [`SimError::InvalidFaults`], never a silently dropped event.
pub fn run(
    workload: &Workload,
    cfg: impl Into<BackendConfig>,
    options: SimOptions,
) -> Result<RunResult, SimError> {
    let problems = workload.validate();
    if !problems.is_empty() {
        return Err(SimError::InvalidWorkload(problems));
    }
    let mut cfg = cfg.into();
    let fault_problems = cfg.validate_faults(workload.nodes);
    if !fault_problems.is_empty() {
        return Err(SimError::InvalidFaults(fault_problems));
    }
    match &mut cfg {
        BackendConfig::Pfs(c) => c.os = workload.os,
        BackendConfig::Burst(b) => b.pfs.os = workload.os,
        BackendConfig::Object(_) => {}
    }
    cfg.machine_mut().compute_nodes = workload.nodes;
    let mesh = MeshModel::new(cfg.machine().mesh);
    let mut backend = cfg.build();
    run_loop(workload, &mesh, &mut *backend, &options)
}

/// The event loop over one storage tier.
fn run_loop(
    workload: &Workload,
    mesh: &MeshModel,
    backend: &mut dyn StorageBackend,
    options: &SimOptions,
) -> Result<RunResult, SimError> {
    // Create the file table; workload file index i == FileId(i).
    for (i, spec) in workload.files.iter().enumerate() {
        let id = backend.create_file_with_size(&spec.name, spec.initial_size);
        debug_assert_eq!(id.index(), i);
    }

    let mut gang = Gang::new(workload.nodes, 0, 0, 0);
    let mut shared = LoopState::new(mesh, options);
    let mut queue: EventQueue<Ev> = EventQueue::new();

    // Interleave the fault calendar with the event calendar: one
    // event per fault-window boundary. A schedule that does not
    // engage contributes nothing, so fault-free runs keep identical
    // event counts.
    let mut fault_transitions = 0u64;
    for t in backend.fault_transition_times() {
        queue.schedule(t, Ev::FaultTransition);
    }

    // Kick every node off at t = 0.
    for pid in 0..workload.nodes {
        queue.schedule(Time::ZERO, Ev::Resume(Pid(pid)));
    }

    while let Some(ev) = queue.pop() {
        if options.max_events > 0 && queue.popped() > options.max_events {
            return Err(SimError::EventBudgetExceeded(queue.popped()));
        }
        let pid = match ev.payload {
            Ev::Resume(pid) => pid,
            Ev::FaultTransition => {
                fault_transitions += 1;
                continue;
            }
        };
        gang.step(ev.time, pid, workload, backend, &mut shared, |t, p| {
            queue.schedule(t, Ev::Resume(p));
        })
        .map_err(|(stmt, source)| SimError::Pfs { pid, stmt, source })?;
    }

    // Wind-down: every program must have run to completion.
    let stuck = gang.stuck();
    if !stuck.is_empty() {
        return Err(SimError::Deadlock {
            stuck,
            forming_collectives: backend.forming_collectives(),
        });
    }

    let mut result = gang.result(workload, Time::ZERO, queue.popped());
    // Flush background work (burst-buffer drains) so the stats are
    // final; the drain instant lands in `backend_stats`, not in the
    // foreground `exec_time`.
    backend.quiesce(result.exec_time);
    // Durability verdicts, queried in commit order (the cursor
    // contract: each query covers the window since the last).
    result.durable_commits = result
        .checkpoint_commits
        .iter()
        .map(|&(k, t)| (k, backend.durable_instant(t)))
        .collect();
    result.resilience = backend.resilience_stats();
    result.fault_transitions = fault_transitions;
    result.backend_stats = backend.stats();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sioscope_pfs::mode::OsRelease;
    use sioscope_pfs::IoMode;
    use sioscope_pfs::IoOp;
    use sioscope_pfs::PfsConfig;
    use sioscope_workloads::{EscatConfig, EscatVersion};
    use sioscope_workloads::{FileSpec, PrismConfig, PrismVersion};

    fn tiny_pfs(nodes: u32) -> PfsConfig {
        let mut cfg = PfsConfig::tiny();
        cfg.machine.compute_nodes = nodes;
        cfg
    }

    fn manual_workload() -> Workload {
        Workload {
            name: "manual".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "data".into(),
                initial_size: 1 << 20,
            }],
            programs: vec![
                vec![
                    Stmt::Compute(Time::from_secs(1)),
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Open,
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Read { size: 4096 },
                    },
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Close,
                    },
                    Stmt::Barrier,
                ],
                vec![Stmt::Compute(Time::from_secs(2)), Stmt::Barrier],
            ],
            phases: vec![],
        }
    }

    #[test]
    fn manual_workload_runs_and_traces() {
        let w = manual_workload();
        let r = run(&w, tiny_pfs(2), SimOptions::default()).unwrap();
        assert!(r.exec_time >= Time::from_secs(2), "barrier waits for pid 1");
        assert_eq!(r.node_finish.len(), 2);
        // Open + read + close traced.
        assert_eq!(r.trace.len(), 3);
        assert_eq!(r.trace.invariant_violations(), 0);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let r1 = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        let r2 = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        assert_eq!(r1.exec_time, r2.exec_time);
        assert_eq!(r1.trace.events(), r2.trace.events());
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn escat_tiny_all_versions_complete() {
        for v in EscatVersion::progressions() {
            let w = EscatConfig::tiny(v).build();
            let r = run(&w, tiny_pfs(w.nodes), SimOptions::default())
                .unwrap_or_else(|e| panic!("version {v:?}: {e}"));
            assert!(r.exec_time > Time::ZERO);
            assert!(!r.trace.is_empty());
        }
    }

    #[test]
    fn prism_tiny_all_versions_complete() {
        for v in PrismVersion::all() {
            let w = PrismConfig::tiny(v).build();
            let r = run(&w, tiny_pfs(w.nodes), SimOptions::default())
                .unwrap_or_else(|e| panic!("version {v:?}: {e}"));
            assert!(r.exec_time > Time::ZERO);
            assert!(!r.trace.is_empty());
        }
    }

    #[test]
    fn fault_schedule_inflates_exec_time_and_counts_transitions() {
        use sioscope_faults::FaultKind;
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let clean = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        assert_eq!(clean.fault_transitions, 0);
        assert!(clean.resilience.is_quiet());

        let mut cfg = tiny_pfs(w.nodes);
        cfg.faults.push(
            Time::ZERO,
            FaultKind::IonCrash {
                ion: 0,
                restart: clean.exec_time,
            },
        );
        let faulty = run(&w, cfg, SimOptions::default()).unwrap();
        assert!(faulty.exec_time > clean.exec_time);
        assert_eq!(faulty.fault_transitions, 2, "window start + end");
        assert!(faulty.resilience.timeouts > 0);
        assert!(faulty.resilience.retries > 0);
    }

    #[test]
    fn checkpoint_markers_are_free_and_recorded() {
        use sioscope_workloads::CheckpointPolicy;
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let plain = run(&cfg.build(), tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert!(plain.checkpoint_commits.is_empty());

        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let marked = run(rec.workload(), tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        // Markers are zero-cost: identical wall clock and I/O trace.
        assert_eq!(marked.exec_time, plain.exec_time);
        assert_eq!(marked.trace.events(), plain.trace.events());
        // All markers recorded, in order, at nondecreasing instants.
        let ks: Vec<u32> = marked.checkpoint_commits.iter().map(|(k, _)| *k).collect();
        assert_eq!(ks, (0..rec.checkpoints()).collect::<Vec<_>>());
        for pair in marked.checkpoint_commits.windows(2) {
            assert!(pair[0].1 <= pair[1].1, "commit times are monotone");
        }
        assert!(marked.checkpoint_commits[0].1 > Time::ZERO);

        // Slicing from a marker replays the tail: the replay also
        // completes, faster than the full run.
        let sliced = rec.slice_from(Some(rec.checkpoints() - 1));
        let replay = run(&sliced, tiny_pfs(cfg.nodes), SimOptions::default()).unwrap();
        assert!(replay.exec_time < plain.exec_time);
    }

    #[test]
    fn invalid_fault_schedule_fails_fast() {
        use sioscope_faults::FaultKind;
        let w = manual_workload();
        let mut cfg = tiny_pfs(2);
        // Target an I/O node the tiny machine does not have.
        cfg.faults.push(
            Time::ZERO,
            FaultKind::IonCrash {
                ion: 999,
                restart: Time::from_secs(1),
            },
        );
        let e = run(&w, cfg, SimOptions::default()).unwrap_err();
        assert!(matches!(e, SimError::InvalidFaults(_)), "got {e}");
    }

    #[test]
    fn deadlock_detected_on_mismatched_collectives() {
        let mut w = manual_workload();
        // Pid 0 waits at an extra barrier pid 1 never reaches.
        w.programs[0].push(Stmt::Barrier);
        w.programs[1].push(Stmt::Compute(Time::from_secs(1)));
        // validate() would catch this; bypass it by matching counts
        // but mismatching file collectives instead.
        let e = match run(&w, tiny_pfs(2), SimOptions::default()) {
            Err(e) => e,
            Ok(_) => return, // validation path may reject instead
        };
        match e {
            SimError::Deadlock { .. } | SimError::InvalidWorkload(_) => {}
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn pfs_error_carries_context() {
        let mut w = manual_workload();
        // Read before open.
        w.programs[1] = vec![
            Stmt::Io {
                file: 0,
                op: IoOp::Read { size: 1 },
            },
            Stmt::Compute(Time::from_secs(2)),
            Stmt::Barrier,
        ];
        let e = run(&w, tiny_pfs(2), SimOptions::default()).unwrap_err();
        match e {
            SimError::Pfs { pid, stmt, .. } => {
                assert_eq!(pid, Pid(1));
                assert_eq!(stmt, 0);
            }
            other => panic!("expected pfs error, got {other}"),
        }
    }

    #[test]
    fn pfs_tier_reports_no_backend_stats() {
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let r = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        assert!(!r.trace.is_empty());
        assert_eq!(r.backend_stats, BackendStats::default());
    }

    #[test]
    fn all_three_tiers_complete_the_same_workload() {
        use sioscope_pfs::{BurstBufferConfig, ObjectStoreConfig};
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let tiers = [
            BackendConfig::Pfs(tiny_pfs(w.nodes)),
            BackendConfig::Object(ObjectStoreConfig::modern(w.nodes)),
            BackendConfig::Burst(BurstBufferConfig::over(tiny_pfs(w.nodes))),
        ];
        for cfg in tiers {
            let kind = cfg.kind();
            let r = run(&w, cfg, SimOptions::default()).unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(r.exec_time > Time::ZERO, "{kind}");
            assert!(!r.trace.is_empty(), "{kind}");
            assert_eq!(r.trace.invariant_violations(), 0, "{kind}");
            assert!(r.backend_stats.conserves_bytes(), "{kind}");
        }
    }

    #[test]
    fn burst_buffer_absorbing_nothing_is_the_plain_pfs() {
        use sioscope_pfs::{BurstAbsorb, BurstBufferConfig};
        let w = EscatConfig::tiny(EscatVersion::C).build();
        let plain = run(&w, tiny_pfs(w.nodes), SimOptions::default()).unwrap();
        let mut cfg = BurstBufferConfig::over(tiny_pfs(w.nodes));
        cfg.absorb = BurstAbsorb::Files(vec![]);
        let buffered = run(&w, BackendConfig::Burst(cfg), SimOptions::default()).unwrap();
        assert_eq!(plain.exec_time, buffered.exec_time);
        assert_eq!(plain.trace.events(), buffered.trace.events());
        assert_eq!(buffered.backend_stats.bytes_logged, 0);
    }

    #[test]
    fn event_budget_enforced() {
        let w = EscatConfig::tiny(EscatVersion::A).build();
        let opts = SimOptions {
            max_events: 10,
            ..SimOptions::default()
        };
        let e = run(&w, tiny_pfs(w.nodes), opts).unwrap_err();
        assert!(matches!(e, SimError::EventBudgetExceeded(_)));
    }

    #[test]
    fn broadcast_synchronizes_and_costs_network_time() {
        // Root finishes a 1 MB broadcast no earlier than the slowest
        // arrival plus the tree time; all nodes resume together.
        let w = Workload {
            name: "bc".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 3,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: vec![
                vec![Stmt::Broadcast {
                    root: 0,
                    bytes: 1 << 20,
                }],
                vec![
                    Stmt::Compute(Time::from_secs(2)),
                    Stmt::Broadcast {
                        root: 0,
                        bytes: 1 << 20,
                    },
                ],
                vec![Stmt::Broadcast {
                    root: 0,
                    bytes: 1 << 20,
                }],
            ],
            phases: vec![],
        };
        let r = run(&w, tiny_pfs(3), SimOptions::default()).unwrap();
        // Everyone waits for pid 1's compute, then the broadcast.
        for t in &r.node_finish {
            assert!(*t >= Time::from_secs(2));
        }
        let spread = r.node_finish.iter().copied().fold(Time::ZERO, Time::max)
            - r.node_finish.iter().copied().fold(Time::MAX, Time::min);
        assert!(spread < Time::from_millis(1), "broadcast releases together");
    }

    #[test]
    fn gather_root_finishes_no_earlier_than_senders() {
        let w = Workload {
            name: "g".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 4,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: (0..4)
                .map(|_| {
                    vec![Stmt::Gather {
                        root: 0,
                        bytes_per_node: 1 << 20,
                    }]
                })
                .collect(),
            phases: vec![],
        };
        let r = run(&w, tiny_pfs(4), SimOptions::default()).unwrap();
        let root = r.node_finish[0];
        for (pid, t) in r.node_finish.iter().enumerate().skip(1) {
            assert!(
                root >= *t,
                "root collects the tree, pid {pid} only sends: {root} vs {t}"
            );
        }
    }

    #[test]
    fn trace_durations_include_collective_waits() {
        // Two nodes gopen; the early arrival's observed duration
        // includes waiting for the late one.
        let w = Workload {
            name: "g".into(),
            version: "X".into(),
            os: OsRelease::Osf13,
            nodes: 2,
            files: vec![FileSpec {
                name: "f".into(),
                initial_size: 0,
            }],
            programs: vec![
                vec![Stmt::Io {
                    file: 0,
                    op: IoOp::Gopen {
                        group: 2,
                        mode: IoMode::MAsync,
                        record_size: None,
                    },
                }],
                vec![
                    Stmt::Compute(Time::from_secs(5)),
                    Stmt::Io {
                        file: 0,
                        op: IoOp::Gopen {
                            group: 2,
                            mode: IoMode::MAsync,
                            record_size: None,
                        },
                    },
                ],
            ],
            phases: vec![],
        };
        let r = run(&w, tiny_pfs(2), SimOptions::default()).unwrap();
        let e0 = r.trace.of_pid(Pid(0)).next().unwrap();
        assert!(
            e0.duration >= Time::from_secs(5),
            "early arrival must observe the wait: {}",
            e0.duration
        );
    }
}
