//! Machine-configuration sweeps — the paper's stated future work.
//!
//! §7: *"we plan to examine the effects of different machine
//! configurations (e.g., number of I/O nodes) and different
//! architectures on I/O performance."* These sweeps re-run a paper
//! workload while varying one machine parameter at a time, reporting
//! execution time and total client-observed I/O time per point.
//!
//! Each sweep is data: a [`SweepId`] with its canonical grid, and a
//! point function from one value to one run. One driver maps, sorts
//! and dedups the points. [`run_sweep`] uses the canonical grid and
//! base; [`sweep`], [`machine_sweep`] and [`checkpoint_sweep`] do not.

use crate::canon::WorkloadId;
use crate::coupled::{run_coupled, Route};
use crate::experiments::contention::{
    contended_machine, mix_stream, run_stream, CLASS_TAU, COMPUTE_BOUND, IO_BOUND,
};
use crate::experiments::Scale;
use crate::recovery::run_with_recovery;
use crate::simulator::{run, RunResult, SimOptions};
use sioscope_faults::{FaultGen, FaultSchedule};
use sioscope_pfs::{BackendConfig, BurstBufferConfig, PfsConfig};
use sioscope_sched::QueuePolicy;
use sioscope_sim::{par_map, Time};
use sioscope_stream::StagingConfig;
use sioscope_workloads::{
    CheckpointPolicy, EscatConfig, EscatVersion, PrismConfig, PrismVersion, Workload,
};
use std::fmt::Write as _;

/// Seed of the fault stream behind the `fault_intensity` sweep.
const FAULT_SEED: u64 = 0xF417;
/// Seed of the compute-crash stream behind the `mtbf` sweep.
const MTBF_SEED: u64 = 0x4EC0;
/// Seed of the crash and burst-fault streams shared by the three
/// checkpoint-interval sweeps (see [`CrashEnv::seeded`]).
const CHECKPOINT_SEED: u64 = 0x0C7;

/// Every machine-configuration sweep, as a stable identifier.
///
/// The ids double as CLI arguments (`repro --sweeps=io_nodes,...`) and
/// as the `parameter` column of the rendered table, so a sweep can be
/// selected by the same name it reports under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SweepId {
    IoNodes,
    StripeUnit,
    DiskBandwidth,
    DegradedArrays,
    FaultIntensity,
    Mtbf,
    CheckpointInterval,
    CheckpointIntervalBurst,
    CheckpointIntervalBurstCrash,
    LoadFactor,
    StagingDepth,
}

impl SweepId {
    /// All sweeps in presentation order.
    pub fn all() -> Vec<SweepId> {
        use SweepId::*;
        vec![
            IoNodes,
            StripeUnit,
            DiskBandwidth,
            DegradedArrays,
            FaultIntensity,
            Mtbf,
            CheckpointInterval,
            CheckpointIntervalBurst,
            CheckpointIntervalBurstCrash,
            LoadFactor,
            StagingDepth,
        ]
    }

    /// Stable identifier (CLI arguments, artifact file names).
    pub fn id(self) -> &'static str {
        use SweepId::*;
        match self {
            IoNodes => "io_nodes",
            StripeUnit => "stripe_unit",
            DiskBandwidth => "disk_bandwidth",
            DegradedArrays => "degraded_arrays",
            FaultIntensity => "fault_intensity",
            Mtbf => "mtbf",
            CheckpointInterval => "checkpoint_interval",
            CheckpointIntervalBurst => "checkpoint_interval_burst",
            CheckpointIntervalBurstCrash => "checkpoint_interval_burst_crash",
            LoadFactor => "load_factor",
            StagingDepth => "staging_depth",
        }
    }

    /// Parse an identifier.
    pub fn from_id(id: &str) -> Option<SweepId> {
        SweepId::all().into_iter().find(|s| s.id() == id)
    }

    /// The canonical parameter values, in the unit each point reports
    /// as its `value`: I/O nodes, stripe bytes, disk MB/s, degraded
    /// arrays, fault events, MTBF and offered load as percentages of
    /// their reference, checkpoint steps. `staging_depth` flattens its
    /// two axes (queue depth in KiB, `0` = unbounded, × consumer speed
    /// in percent) into `depth_kib * 1000 + speed_pct`.
    pub fn grid(self) -> &'static [u32] {
        use SweepId::*;
        match self {
            IoNodes => &[2, 4, 8, 16, 32],
            StripeUnit => &[16 << 10, 64 << 10, 256 << 10],
            DiskBandwidth => &[2, 8, 32],
            DegradedArrays => &[0, 4, 8],
            FaultIntensity => &[0, 2, 4, 8],
            Mtbf | LoadFactor => &[25, 50, 100, 200, 400],
            CheckpointInterval | CheckpointIntervalBurst | CheckpointIntervalBurstCrash => {
                &[1, 2, 5, 10, 25, 125, 250, 625]
            }
            StagingDepth => &[
                16_050, 16_100, 16_200, 64_050, 64_100, 64_200, 512_050, 512_100, 512_200, 50, 100,
                200,
            ],
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Varied-parameter label (e.g. `"io_nodes=8"`).
    pub label: String,
    /// Parameter value (numeric, for plotting).
    pub value: u64,
    /// Wall-clock execution time of the run.
    pub exec_time: Time,
    /// Total client-observed I/O time.
    pub io_time: Time,
    /// Events processed (simulation cost indicator).
    pub events: u64,
}

/// A completed sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// What was varied.
    pub parameter: &'static str,
    /// Workload name.
    pub workload: String,
    /// The points, in parameter order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Speedup of total I/O time from the first to the best point.
    pub fn best_io_speedup(&self) -> f64 {
        let first = self.points.first().map(|p| p.io_time.as_secs_f64());
        let best = self
            .points
            .iter()
            .map(|p| p.io_time.as_secs_f64())
            .fold(f64::INFINITY, f64::min);
        match first {
            Some(f) if best > 0.0 => f / best,
            _ => 1.0,
        }
    }

    /// Is I/O time non-increasing along the sweep (more resources
    /// never hurt)?
    pub fn io_time_monotone_nonincreasing(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].io_time <= w[0].io_time.scale(1.02))
    }

    /// Is execution time non-decreasing along the sweep (more faults
    /// never help)? Allows 2% slack for re-routing that incidentally
    /// rebalances load.
    pub fn exec_time_monotone_nondecreasing(&self) -> bool {
        self.points
            .windows(2)
            .all(|w| w[1].exec_time >= w[0].exec_time.scale(0.98))
    }

    /// Render as a fixed-width table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Sweep of {} over {} ({} points)",
            self.parameter,
            self.workload,
            self.points.len()
        );
        let _ = writeln!(
            out,
            "{:<18}{:>14}{:>14}{:>12}",
            self.parameter, "exec time", "total I/O", "events"
        );
        let _ = writeln!(out, "{}", "-".repeat(58));
        for p in &self.points {
            let _ = writeln!(
                out,
                "{:<18}{:>13.1}s{:>13.1}s{:>12}",
                p.label,
                p.exec_time.as_secs_f64(),
                p.io_time.as_secs_f64(),
                p.events
            );
        }
        out
    }
}

/// The one sweep driver: run `point` at every value, the values spread
/// over every core, then order the points by value and keep the first
/// of any repeat (checkpoint intervals snap, so two requested values
/// can land on one).
fn collect(
    id: SweepId,
    name: &str,
    values: &[u32],
    point: impl Fn(u32) -> SweepPoint + Sync,
) -> Sweep {
    let mut points: Vec<SweepPoint> = par_map(values, |&v| point(v));
    points.sort_by_key(|p| p.value);
    points.dedup_by_key(|p| p.value);
    Sweep {
        parameter: id.id(),
        workload: name.to_string(),
        points,
    }
}

impl SweepPoint {
    /// The point of run `r`, whose wall clock (or time to solution)
    /// is `exec_time`.
    fn of_run(label: String, value: u64, exec_time: Time, r: &RunResult) -> SweepPoint {
        SweepPoint {
            label,
            value,
            exec_time,
            io_time: r.total_io_time(),
            events: r.events,
        }
    }
}

/// Execution time of the healthy, fault-free run of `workload`.
fn baseline_exec(workload: &Workload, cfg: &PfsConfig) -> Time {
    run(workload, cfg.clone(), SimOptions::default())
        .unwrap_or_else(|e| panic!("sweep baseline {}: {e}", workload.name))
        .exec_time
}

/// Sweep one of the five PFS axes over `workload` on the Caltech
/// machine:
///
/// - `io_nodes`: I/O nodes behind the same compute partition.
/// - `stripe_unit`: request sizes tuned to the 64 KB default (ESCAT's
///   128 KB M_RECORD reads) stop being stripe multiples at other units
///   (§6.2: "optimizations are closely tied to the idiosyncrasies of
///   the parallel I/O system").
/// - `disk_bandwidth`: disk array MB/s (architecture generations).
/// - `degraded_arrays`: arrays with a spindle failed from time zero.
/// - `fault_intensity`: the first `k` events of one seeded fault stream
///   placed over the healthy run, so each point's scenario is a prefix
///   of the next and inflation accumulates instead of being re-rolled.
///
/// Panics if `id` is another axis or a run fails.
pub fn machine_sweep(id: SweepId, workload: &Workload, values: &[u32]) -> Sweep {
    use SweepId::*;
    let base = PfsConfig::caltech(workload.nodes, workload.os);
    let horizon = (id == FaultIntensity).then(|| baseline_exec(workload, &base));
    collect(id, &workload.name, values, |v| {
        let mut cfg = base.clone();
        let label = match id {
            IoNodes => {
                cfg.machine.io_nodes = v;
                format!("io_nodes={v}")
            }
            StripeUnit => {
                cfg.stripe_unit = u64::from(v);
                format!("stripe={}K", v >> 10)
            }
            DiskBandwidth => {
                cfg.machine.disk.bandwidth_bps = f64::from(v) * 1e6;
                format!("{v}MB/s")
            }
            DegradedArrays => {
                let ions: Vec<u32> = (0..v.min(cfg.machine.io_nodes)).collect();
                cfg.faults = FaultSchedule::degraded_from_start(&ions);
                format!("degraded={v}")
            }
            FaultIntensity => {
                let horizon = horizon.expect("healthy baseline");
                cfg.faults = FaultGen::new(FAULT_SEED, horizon, cfg.machine.io_nodes)
                    .with_events(v as usize)
                    .schedule();
                format!("faults={v}")
            }
            _ => panic!("{} is not a machine sweep", id.id()),
        };
        let r = run(workload, cfg, SimOptions::default())
            .unwrap_or_else(|e| panic!("sweep point {label}: {e}"));
        SweepPoint::of_run(label, v.into(), r.exec_time, &r)
    })
}

/// Crash horizon and restart latency scaled to the fault-free baseline
/// `b`: `3.2 × b` leaves room for several full replays, and each crash
/// charges `5%` of `b` (min 1 s) in reboot/reschedule latency.
fn crash_horizon_and_rework(b: Time) -> (Time, Time) {
    (b.scale(3.2), b.scale(0.05).max(Time::from_secs(1)))
}

/// The faults every point of a checkpoint-interval sweep faces.
#[derive(Debug, Clone)]
pub struct CrashEnv {
    /// Compute-node crashes, the same at every interval.
    pub crashes: FaultSchedule,
    /// Burst-tier faults (drain stalls, burst-node crashes), injected
    /// only by `checkpoint_interval_burst_crash`.
    pub burst_faults: FaultSchedule,
}

impl CrashEnv {
    /// The seeded environment of the registered checkpoint sweeps, from
    /// the policy-free baseline of `cfg`: crashes with MTBF `0.8 ×` the
    /// baseline, and three burst faults over one attempt's horizon so
    /// they land mid-attempt. The three axes share it, so their curves
    /// are directly comparable.
    pub fn seeded(cfg: &PrismConfig) -> CrashEnv {
        let w = cfg.build();
        let pfs = PfsConfig::caltech(w.nodes, w.os);
        let baseline = baseline_exec(&w, &pfs);
        let (horizon, rework) = crash_horizon_and_rework(baseline);
        let io_nodes = pfs.machine.io_nodes;
        CrashEnv {
            crashes: FaultGen::new(CHECKPOINT_SEED, horizon, io_nodes).compute_crash_schedule(
                baseline.scale(0.8),
                rework,
                w.nodes,
            ),
            burst_faults: FaultGen::new(CHECKPOINT_SEED, baseline, io_nodes)
                .with_events(3)
                .burst_schedule(),
        }
    }
}

/// Vary PRISM's checkpoint interval (steps, snapped to a divisor of the
/// step count) under the crash environment `env`, reporting time to
/// solution. The tier comes from `id`:
///
/// - `checkpoint_interval`: the plain PFS. The classic U-curve: dense
///   checkpoints waste time committing, sparse ones replaying lost work.
/// - `checkpoint_interval_burst`: a burst buffer absorbs the checkpoint
///   files, so commits cost near nothing and the left arm collapses.
/// - `checkpoint_interval_burst_crash`: the burst tier also suffers
///   `env.burst_faults`. A commit whose bytes die in the log before
///   draining is not durable, so dense checkpointing regains value.
///
/// Panics if `id` is another axis or a run fails.
pub fn checkpoint_sweep(id: SweepId, cfg: &PrismConfig, steps: &[u32], env: &CrashEnv) -> Sweep {
    use SweepId::*;
    let w = cfg.build();
    let pfs = PfsConfig::caltech(w.nodes, w.os);
    collect(id, &w.name, steps, |v| {
        let snapped = cfg.snap_interval(v);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: snapped });
        let absorbing =
            || BurstBufferConfig::absorbing(pfs.clone(), rec.checkpoint_files().to_vec());
        let tier = match id {
            CheckpointInterval => BackendConfig::Pfs(pfs.clone()),
            CheckpointIntervalBurst => BackendConfig::Burst(absorbing()),
            CheckpointIntervalBurstCrash => BackendConfig::Burst(BurstBufferConfig {
                faults: env.burst_faults.clone(),
                ..absorbing()
            }),
            _ => panic!("{} is not a checkpoint sweep", id.id()),
        };
        let r = run_with_recovery(&rec, &env.crashes, tier, SimOptions::default())
            .unwrap_or_else(|e| panic!("{} interval={snapped}: {e}", id.id()));
        let label = format!("every {snapped} steps");
        SweepPoint::of_run(label, snapped.into(), r.recovery.time_to_solution, &r)
    })
}

/// One offered-load measurement of the `load_factor` sweep: the
/// per-class mean bounded slowdowns that the generic [`SweepPoint`]
/// has no columns for.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadFactorPoint {
    /// Offered load as a percentage of the reference arrival rate.
    pub load_pct: u32,
    /// Mean bounded slowdown of the I/O-bound class.
    pub io_bsld: f64,
    /// Mean bounded slowdown of the compute-bound class.
    pub cpu_bsld: f64,
    /// Schedule makespan.
    pub makespan: Time,
    /// Total client-observed I/O time summed over every job.
    pub io_time: Time,
    /// Events processed across the whole schedule.
    pub events: u64,
}

/// Run the contention mix at one offered load. Load `100` maps to the
/// reference mean inter-arrival of 200 ms; load `L` scales it by
/// `100/L`, so higher loads compress the same seeded job sequence into
/// a shorter window (Poisson gaps scale linearly with the mean for a
/// fixed seed). The point of the axis: I/O-bound jobs queue at the
/// shared I/O nodes, so their slowdown grows superlinearly with load,
/// while compute-bound jobs degrade gently.
pub fn load_factor_point(pct: u32, scale: Scale) -> LoadFactorPoint {
    assert!(pct > 0, "offered load must be positive");
    let reference = Time::from_millis(200);
    let stream = mix_stream(scale, reference.scale(100.0 / f64::from(pct)));
    let out = run_stream(
        &stream,
        QueuePolicy::Fcfs,
        contended_machine(scale),
        &format!("load_factor={pct}%"),
    );
    let slowdown = |class| {
        out.stats
            .mean_bounded_slowdown_of(class, CLASS_TAU)
            .unwrap_or(1.0)
    };
    LoadFactorPoint {
        load_pct: pct,
        io_bsld: slowdown(IO_BOUND),
        cpu_bsld: slowdown(COMPUTE_BOUND),
        makespan: out.stats.makespan,
        io_time: out
            .per_job
            .iter()
            .fold(Time::ZERO, |acc, r| acc.saturating_add(r.total_io_time())),
        events: out.stats.total_events,
    }
}

fn prism_config(version: PrismVersion, scale: Scale) -> PrismConfig {
    match scale {
        Scale::Smoke => PrismConfig::tiny(version),
        Scale::Full => PrismConfig::test_problem(version),
    }
}

/// Run sweep `id` over `values` on its base workload at `scale`: ESCAT
/// B for `io_nodes` and `stripe_unit`, PRISM A for the other machine
/// axes, PRISM B under [`CrashEnv::seeded`] for the checkpoint axes,
/// and:
///
/// - `mtbf`: ESCAT C checkpointing every step, with the MTBF as a
///   percentage of the fault-free run. For one seed the crash gaps
///   scale with the MTBF, so a shorter one packs strictly more crashes
///   into the same horizon: inflation comes from crash density alone.
/// - `load_factor`: the contention mix, slowdowns in the label column.
/// - `staging_depth`: PRISM C's stream cadence coupled through a
///   staging queue. `exec_time` is the pipeline latency and `io_time`
///   the producer's stall.
pub fn sweep(id: SweepId, scale: Scale, values: &[u32]) -> Sweep {
    use SweepId::*;
    match id {
        IoNodes | StripeUnit => machine_sweep(id, &WorkloadId::EscatB.build(scale), values),
        DiskBandwidth | DegradedArrays | FaultIntensity => {
            machine_sweep(id, &WorkloadId::PrismA.build(scale), values)
        }
        CheckpointInterval | CheckpointIntervalBurst | CheckpointIntervalBurstCrash => {
            let cfg = prism_config(PrismVersion::B, scale);
            checkpoint_sweep(id, &cfg, values, &CrashEnv::seeded(&cfg))
        }
        Mtbf => {
            let cfg = match scale {
                Scale::Smoke => EscatConfig::tiny(EscatVersion::C),
                Scale::Full => EscatConfig::ethylene(EscatVersion::C),
            };
            let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
            let w = rec.workload();
            let pfs = PfsConfig::caltech(w.nodes, w.os);
            let baseline = baseline_exec(w, &pfs);
            let (horizon, rework) = crash_horizon_and_rework(baseline);
            let fault_gen = FaultGen::new(MTBF_SEED, horizon, pfs.machine.io_nodes);
            collect(id, &w.name, values, |pct| {
                let mtbf = baseline.scale(f64::from(pct) / 100.0);
                let crashes = fault_gen.compute_crash_schedule(mtbf, rework, w.nodes);
                let r = run_with_recovery(&rec, &crashes, pfs.clone(), SimOptions::default())
                    .unwrap_or_else(|e| panic!("mtbf={pct}%: {e}"));
                let label = format!("mtbf={pct}% ({} crashes)", crashes.events.len());
                SweepPoint::of_run(label, pct.into(), r.recovery.time_to_solution, &r)
            })
        }
        LoadFactor => {
            let name = "contention mix (io-bound + compute-bound)";
            collect(id, name, values, |pct| {
                let p = load_factor_point(pct, scale);
                SweepPoint {
                    label: format!("load={pct}% io {:.2} cpu {:.2}", p.io_bsld, p.cpu_bsld),
                    value: pct.into(),
                    exec_time: p.makespan,
                    io_time: p.io_time,
                    events: p.events,
                }
            })
        }
        StagingDepth => {
            let cadence = prism_config(PrismVersion::C, scale).stream_cadence();
            collect(id, &cadence.name, values, |v| {
                let (depth_kib, pct) = (v / 1000, v % 1000);
                let route = Route::Stream(StagingConfig::paragon(u64::from(depth_kib) * 1024));
                let o = run_coupled(&cadence, &route, pct, &FaultSchedule::empty())
                    .unwrap_or_else(|e| panic!("staging_depth={v}: {e}"));
                let depth = match depth_kib {
                    0 => "unbounded".to_string(),
                    d => format!("{d}K"),
                };
                SweepPoint {
                    label: format!("depth={depth} speed={pct}%"),
                    value: v.into(),
                    exec_time: o.pipeline_latency,
                    io_time: o.producer_stall,
                    events: o.chunks,
                }
            })
        }
    }
}

/// Run one registered sweep at the given scale with its canonical
/// parameter grid — the single entry point `sioscope repro` and the
/// campaign engine share, so "the `io_nodes` sweep" means the same
/// runs everywhere.
pub fn run_sweep(id: SweepId, scale: Scale) -> Sweep {
    sweep(id, scale, id.grid())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_ids_round_trip() {
        for s in SweepId::all() {
            assert_eq!(SweepId::from_id(s.id()), Some(s));
        }
        assert_eq!(SweepId::from_id("nope"), None);
        let ids: Vec<&str> = SweepId::all().iter().map(|s| s.id()).collect();
        assert_eq!(
            ids,
            vec![
                "io_nodes",
                "stripe_unit",
                "disk_bandwidth",
                "degraded_arrays",
                "fault_intensity",
                "mtbf",
                "checkpoint_interval",
                "checkpoint_interval_burst",
                "checkpoint_interval_burst_crash",
                "load_factor",
                "staging_depth"
            ]
        );
        // staging_depth flattens depth (KiB, 0 = unbounded) × speed.
        let flat: Vec<u32> = [16, 64, 512, 0]
            .iter()
            .flat_map(|d| [50, 100, 200].map(|s| d * 1000 + s))
            .collect();
        assert_eq!(SweepId::StagingDepth.grid(), flat);
    }

    #[test]
    fn staging_depth_sweep_surfaces_the_stall_tradeoff() {
        // Depths {16K, 512K, unbounded} × speeds {50%, 100%}.
        let grid = [16_050, 16_100, 512_050, 512_100, 50, 100];
        let sweep = super::sweep(SweepId::StagingDepth, Scale::Smoke, &grid);
        assert_eq!(sweep.points.len(), 6);
        assert_eq!(sweep.parameter, "staging_depth");
        // Tight depth at a slow consumer stalls; unbounded never does.
        let point = |label: &str| {
            sweep
                .points
                .iter()
                .find(|p| p.label == label)
                .unwrap_or_else(|| panic!("missing {label}: {}", sweep.render()))
        };
        assert!(point("depth=16K speed=50%").io_time > Time::ZERO);
        assert_eq!(point("depth=unbounded speed=50%").io_time, Time::ZERO);
        assert_eq!(point("depth=unbounded speed=100%").io_time, Time::ZERO);
        // A faster consumer never stalls the producer more at the
        // same depth.
        assert!(
            point("depth=16K speed=100%").io_time <= point("depth=16K speed=50%").io_time,
            "{}",
            sweep.render()
        );
        // Replay identity for the whole grid.
        let again = super::sweep(SweepId::StagingDepth, Scale::Smoke, &grid);
        for (a, b) in sweep.points.iter().zip(&again.points) {
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.io_time, b.io_time);
        }
    }

    #[test]
    fn io_node_sweep_runs_and_orders_points() {
        let w = EscatConfig::tiny(EscatVersion::C).build();
        let sweep = machine_sweep(SweepId::IoNodes, &w, &[2, 8, 4]);
        assert_eq!(sweep.points.len(), 3);
        assert_eq!(sweep.points[0].value, 2);
        assert_eq!(sweep.points[2].value, 8);
        let text = sweep.render();
        assert!(text.contains("io_nodes=4"));
    }

    #[test]
    fn more_io_nodes_never_hurt_a_staging_workload() {
        let w = EscatConfig::tiny(EscatVersion::B).build();
        let sweep = machine_sweep(SweepId::IoNodes, &w, &[1, 2, 4, 8, 16]);
        assert!(sweep.io_time_monotone_nonincreasing(), "{}", sweep.render());
        assert!(sweep.best_io_speedup() >= 1.0);
    }

    #[test]
    fn stripe_sweep_runs() {
        let w = PrismConfig::tiny(PrismVersion::B).build();
        let sweep = machine_sweep(SweepId::StripeUnit, &w, &[16 << 10, 64 << 10, 256 << 10]);
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.iter().all(|p| p.io_time > Time::ZERO));
    }

    #[test]
    fn degraded_arrays_increase_io_time() {
        let w = PrismConfig::tiny(PrismVersion::B).build();
        let sweep = machine_sweep(SweepId::DegradedArrays, &w, &[0, 1, 2]);
        let healthy = sweep.points.first().expect("points").io_time;
        let worst = sweep.points.last().expect("points").io_time;
        assert!(worst > healthy, "{}", sweep.render());
        // Bounded: degradation is a constant factor, not a collapse.
        assert!(worst < healthy.scale(3.0), "{}", sweep.render());
    }

    #[test]
    fn fault_intensity_zero_matches_healthy_and_inflation_accumulates() {
        let w = PrismConfig::tiny(PrismVersion::B).build();
        let sweep = machine_sweep(SweepId::FaultIntensity, &w, &[0, 3, 8]);
        assert_eq!(sweep.points.len(), 3);
        let healthy = run(&w, PfsConfig::caltech(w.nodes, w.os), SimOptions::default()).unwrap();
        assert_eq!(
            sweep.points[0].exec_time, healthy.exec_time,
            "intensity 0 is the fault-free run"
        );
        let first = sweep.points.first().expect("points").exec_time;
        let last = sweep.points.last().expect("points").exec_time;
        assert!(last > first, "{}", sweep.render());
        assert!(
            sweep.exec_time_monotone_nondecreasing(),
            "{}",
            sweep.render()
        );
    }

    #[test]
    fn mtbf_sweep_densities_nest_and_never_beat_the_baseline() {
        let cfg = EscatConfig::tiny(EscatVersion::C);
        let rec = cfg.recoverable(CheckpointPolicy::Fixed { interval: 1 });
        let percents = [25, 75, 400];
        let sweep = super::sweep(SweepId::Mtbf, Scale::Smoke, &percents);
        assert_eq!(sweep.parameter, "mtbf");
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.windows(2).all(|w| w[0].value < w[1].value));

        // The crash schedules behind the points: for one seed, gaps
        // scale linearly with the MTBF, so a shorter MTBF can only add
        // crashes inside the fixed horizon.
        let w = rec.workload();
        let base_cfg = PfsConfig::caltech(w.nodes, w.os);
        let baseline = run(w, base_cfg.clone(), SimOptions::default())
            .unwrap()
            .exec_time;
        let horizon = baseline.scale(3.2);
        let rework = baseline.scale(0.05).max(Time::from_secs(1));
        let fgen = FaultGen::new(MTBF_SEED, horizon, base_cfg.machine.io_nodes);
        let counts: Vec<usize> = percents
            .iter()
            .map(|&pct| {
                fgen.compute_crash_schedule(baseline.scale(f64::from(pct) / 100.0), rework, w.nodes)
                    .events
                    .len()
            })
            .collect();
        assert!(
            counts.windows(2).all(|c| c[0] >= c[1]),
            "crash counts must not grow with MTBF: {counts:?}"
        );

        for (p, &n) in sweep.points.iter().zip(&counts) {
            assert!(
                p.exec_time >= baseline,
                "crashes never speed a run up: {}",
                sweep.render()
            );
            if n == 0 {
                assert_eq!(p.exec_time, baseline, "no crashes means no inflation");
            }
        }

        // Same seed, same sweep — the whole chain is deterministic.
        let again = super::sweep(SweepId::Mtbf, Scale::Smoke, &percents);
        for (a, b) in sweep.points.iter().zip(&again.points) {
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.label, b.label);
        }
    }

    #[test]
    fn sparse_checkpoints_pay_more_rework_under_the_same_crash() {
        use sioscope_faults::FaultKind;

        let cfg = PrismConfig::tiny(PrismVersion::B);
        let w = cfg.build();
        let pfs = PfsConfig::caltech(w.nodes, w.os);

        // Measure commit instants so the crash can be *placed*: just
        // before the sparse policy's only commit, and after the dense
        // policy's first. The sparse point then replays from scratch
        // while the dense point replays ten steps — the U-curve's
        // right arm by construction, not by seed luck.
        let sparse = cfg.recoverable(CheckpointPolicy::Fixed { interval: 20 });
        let dense = cfg.recoverable(CheckpointPolicy::Fixed { interval: 10 });
        let sparse_commit = run(sparse.workload(), pfs.clone(), SimOptions::default())
            .unwrap()
            .checkpoint_commits[0]
            .1;
        let dense_commits = run(dense.workload(), pfs.clone(), SimOptions::default())
            .unwrap()
            .checkpoint_commits;
        let dense_first = dense_commits[0].1;
        let crash_at = sparse_commit.saturating_sub(Time::from_millis(1));
        assert!(
            dense_first < crash_at,
            "ten steps of work must commit before the crash"
        );

        let mut crashes = FaultSchedule::empty();
        crashes.push(
            crash_at,
            FaultKind::ComputeNodeCrash {
                node: 0,
                rework: Time::from_secs(1),
            },
        );
        let env = CrashEnv {
            crashes,
            burst_faults: FaultSchedule::empty(),
        };
        let sweep = checkpoint_sweep(SweepId::CheckpointInterval, &cfg, &[10, 20], &env);
        assert_eq!(sweep.parameter, "checkpoint_interval");
        assert_eq!(sweep.points.len(), 2);
        assert_eq!(sweep.points[0].value, 10);
        assert_eq!(sweep.points[1].value, 20);
        let dense_tts = sweep.points[0].exec_time;
        let sparse_tts = sweep.points[1].exec_time;
        assert!(
            sparse_tts > dense_tts,
            "losing twenty steps must cost more than losing ten:\n{}",
            sweep.render()
        );
        // Both points at least rode out the crash and the restart.
        let floor = crash_at.saturating_add(Time::from_secs(1));
        assert!(dense_tts >= floor, "{}", sweep.render());
    }

    #[test]
    fn burst_buffer_flattens_the_checkpoint_u_curve() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        let intervals = [1, 2, 5, 10, 25];
        let env = CrashEnv::seeded(&cfg);
        let plain = checkpoint_sweep(SweepId::CheckpointInterval, &cfg, &intervals, &env);
        let burst = checkpoint_sweep(SweepId::CheckpointIntervalBurst, &cfg, &intervals, &env);
        assert_eq!(burst.parameter, "checkpoint_interval_burst");
        assert_eq!(plain.points.len(), burst.points.len());
        let min_tts = |s: &Sweep| {
            s.points
                .iter()
                .map(|p| p.exec_time)
                .fold(Time::MAX, Time::min)
        };
        // The acceptance bar: with commits absorbed at log speed, the
        // best burst interval beats the plain U-curve's minimum.
        assert!(
            min_tts(&burst) < min_tts(&plain),
            "burst optimum must undercut the plain optimum:\nplain:\n{}\nburst:\n{}",
            plain.render(),
            burst.render()
        );
        // And point-by-point under the same crashes, absorbing the
        // commit cost never makes an interval slower.
        for (b, p) in burst.points.iter().zip(&plain.points) {
            assert_eq!(b.value, p.value);
            assert!(
                b.exec_time <= p.exec_time,
                "interval {}: {} vs {}",
                b.value,
                b.exec_time,
                p.exec_time
            );
        }
    }

    #[test]
    fn burst_faults_never_improve_the_flattened_u_curve() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        let intervals = [1, 5, 25];
        let env = CrashEnv::seeded(&cfg);
        let clean = checkpoint_sweep(SweepId::CheckpointIntervalBurst, &cfg, &intervals, &env);
        let faulted = checkpoint_sweep(
            SweepId::CheckpointIntervalBurstCrash,
            &cfg,
            &intervals,
            &env,
        );
        assert_eq!(faulted.parameter, "checkpoint_interval_burst_crash");
        assert_eq!(clean.points.len(), faulted.points.len());
        for (f, c) in faulted.points.iter().zip(&clean.points) {
            assert_eq!(f.value, c.value);
            assert!(
                f.exec_time >= c.exec_time,
                "burst faults never speed recovery up at interval {}: {} vs {}",
                f.value,
                f.exec_time,
                c.exec_time
            );
        }
        // Deterministic: same seed, same curve.
        let env = CrashEnv::seeded(&cfg);
        let again = checkpoint_sweep(
            SweepId::CheckpointIntervalBurstCrash,
            &cfg,
            &intervals,
            &env,
        );
        for (a, b) in faulted.points.iter().zip(&again.points) {
            assert_eq!(a.exec_time, b.exec_time);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn seeded_checkpoint_interval_sweep_snaps_and_dedups_intervals() {
        let cfg = PrismConfig::tiny(PrismVersion::B);
        // 3 snaps to divisor 2, 4 to itself; 5 and 6 both snap to 5.
        let env = CrashEnv::seeded(&cfg);
        let sweep = checkpoint_sweep(SweepId::CheckpointInterval, &cfg, &[3, 4, 5, 6], &env);
        let values: Vec<u64> = sweep.points.iter().map(|p| p.value).collect();
        assert_eq!(values, vec![2, 4, 5]);
        assert!(sweep.points.iter().all(|p| p.exec_time > Time::ZERO));
        assert!(sweep.render().contains("every 5 steps"));
    }

    #[test]
    fn load_inflates_io_bound_slowdown_fastest() {
        let loads = [25, 100, 400];
        let points = || -> Vec<LoadFactorPoint> {
            loads
                .iter()
                .map(|&pct| load_factor_point(pct, Scale::Smoke))
                .collect()
        };
        let pts = points();
        assert_eq!(pts.len(), 3);

        // Mean bounded slowdown never improves as the load rises (2%
        // slack for event-granularity wobble, matching the other
        // monotone checks).
        let mean = |p: &LoadFactorPoint| (p.io_bsld + p.cpu_bsld) / 2.0;
        assert!(
            pts.windows(2).all(|w| mean(&w[1]) >= mean(&w[0]) * 0.98),
            "{pts:?}"
        );

        // The I/O-bound class degrades faster than the compute-bound
        // class — the shared-ION story the scheduler exists to tell.
        let io_growth = pts[2].io_bsld / pts[0].io_bsld;
        let cpu_growth = pts[2].cpu_bsld / pts[0].cpu_bsld;
        assert!(
            io_growth > cpu_growth,
            "io grew {io_growth:.3}x vs cpu {cpu_growth:.3}x\n{pts:?}"
        );

        // Superlinear for the I/O-bound class: quadrupling the load
        // from the reference point more than quadruples the excess
        // slowdown over 1.0. The compute-bound class degrades gently —
        // even at peak load its excess is under a tenth of the
        // I/O-bound class's.
        let io_excess = |p: &LoadFactorPoint| p.io_bsld - 1.0;
        let cpu_excess = |p: &LoadFactorPoint| p.cpu_bsld - 1.0;
        assert!(io_excess(&pts[2]) > 4.0 * io_excess(&pts[1]), "{pts:?}");
        assert!(cpu_excess(&pts[2]) < 0.1 * io_excess(&pts[2]), "{pts:?}");

        // The whole chain is deterministic.
        assert_eq!(pts, points());

        // The Sweep wrapper carries the same data for the CLI.
        let sweep = super::sweep(SweepId::LoadFactor, Scale::Smoke, &loads);
        assert_eq!(sweep.parameter, "load_factor");
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.render().contains("load=400%"));
    }

    #[test]
    fn faster_disks_reduce_io_time() {
        let w = PrismConfig::tiny(PrismVersion::A).build();
        let sweep = machine_sweep(SweepId::DiskBandwidth, &w, &[2, 8, 32]);
        let first = sweep.points.first().expect("points").io_time;
        let last = sweep.points.last().expect("points").io_time;
        assert!(last <= first, "{}", sweep.render());
    }
}
