//! Seeded chaos/soak harness for the storage tiers and the streaming
//! pipeline.
//!
//! Each case draws one paper workload and one tier, fuzzes a
//! tier-appropriate fault schedule from the seed, and checks the hard
//! invariants the fault subsystem promises no schedule can break:
//!
//! 1. **Byte conservation** — on every tier, after quiesce,
//!    `bytes_logged == bytes_drained + bytes_resident + bytes_lost`.
//! 2. **Golden bit-identity** — the fault-free PFS run still matches
//!    the pre-refactor fingerprint in
//!    `tests/golden/backend_baseline.txt` (supplied by the caller;
//!    the library never reads test fixtures itself).
//! 3. **Hook neutrality** — an engaged-but-empty schedule is
//!    bit-identical to no schedule at all.
//! 4. **Replay identity** — the same seed replays to the same
//!    fingerprint, resilience counters included.
//! 5. **Recovery sanity** — with the tier's faults held fixed,
//!    time-to-solution under compute crashes is never better than the
//!    crash-free run (crashes only ever add rework and replay).
//!
//! The `stream` tier runs the coupled producer–consumer pipeline
//! instead of a file-system workload (see [`stream_chaos_case`]); its
//! invariants are byte conservation through the staging queue, replay
//! identity, crash monotonicity (a consumer outage never *shrinks*
//! latency or stall), and the unbounded-queue equivalence.
//!
//! The `sioscope-bench` `chaos` subcommand drives this over a fixed
//! seed budget (the CI `chaos-smoke` job); the functions are public
//! so soaks can also run in-process from tests.

use crate::canon::{tier_config, WorkloadId};
use crate::coupled::{run_coupled, Route};
use crate::experiments::Scale;
use crate::recovery::run_with_recovery;
use crate::simulator::{run, RunResult, SimOptions};
use sioscope_faults::{FaultGen, FaultKind, FaultSchedule};
use sioscope_pfs::{BackendKind, PfsConfig};
use sioscope_sim::{par_map, Time};
use sioscope_stream::StagingConfig;
use sioscope_trace::TraceRecorder;
use sioscope_workloads::{
    CheckpointPolicy, EscatConfig, EscatVersion, PrismConfig, PrismVersion, Workload,
};
use std::collections::BTreeMap;

/// FNV-1a, 64-bit, fed in pieces.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// FNV-64 of `trace`'s binary encoding, streamed through the encoder
/// so the encoding is never held in memory.
pub(crate) fn trace_fnv64(trace: &TraceRecorder) -> u64 {
    let mut h = Fnv64::new();
    sioscope_trace::binary::encode_with(trace, |piece| h.write(piece));
    h.0
}

/// The canonical run fingerprint: exec nanoseconds, event count,
/// fault transitions, trace length, and FNV-64 digests of the binary
/// trace and the per-node finish vector. Identical format to the
/// committed `tests/golden/backend_baseline.txt` columns.
pub fn fingerprint(r: &RunResult) -> String {
    let mut finish = Fnv64::new();
    for t in &r.node_finish {
        finish.write(&t.as_nanos().to_le_bytes());
    }
    format!(
        "{} {} {} {} {:016x} {:016x}",
        r.exec_time.as_nanos(),
        r.events,
        r.fault_transitions,
        r.trace.len(),
        trace_fnv64(&r.trace),
        finish.0
    )
}

/// A tier the chaos harness can soak: one of the storage backends, or
/// the in-transit streaming pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChaosTier {
    /// A storage backend (`pfs`, `object`, `burst`).
    Backend(BackendKind),
    /// The coupled streaming pipeline over bounded staging queues.
    Stream,
}

impl ChaosTier {
    /// Every tier, storage backends first, in soak order.
    pub fn all() -> Vec<ChaosTier> {
        let mut tiers: Vec<ChaosTier> = BackendKind::all()
            .iter()
            .copied()
            .map(ChaosTier::Backend)
            .collect();
        tiers.push(ChaosTier::Stream);
        tiers
    }

    /// Stable string id (CLI `--tiers`, artifact lines).
    pub fn id(self) -> &'static str {
        match self {
            ChaosTier::Backend(b) => b.id(),
            ChaosTier::Stream => "stream",
        }
    }

    /// Parse a stable id.
    pub fn from_id(id: &str) -> Option<ChaosTier> {
        ChaosTier::all().into_iter().find(|t| t.id() == id)
    }
}

impl std::fmt::Display for ChaosTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// One chaos case's outcome: which (tier, seed, workload) ran, the
/// faulted run's fingerprint, and every invariant violation observed
/// (empty means the case passed).
#[derive(Debug, Clone)]
pub struct ChaosVerdict {
    /// Tier the case ran against.
    pub tier: ChaosTier,
    /// Seed that drew the workload and fault schedule.
    pub seed: u64,
    /// Canonical id of the workload the seed drew.
    pub workload: &'static str,
    /// Fingerprint of the faulted run (replay-checked).
    pub fingerprint: String,
    /// Invariant violations; empty for a passing case.
    pub violations: Vec<String>,
}

impl ChaosVerdict {
    /// True when no invariant was violated.
    pub fn pass(&self) -> bool {
        self.violations.is_empty()
    }

    /// One plain-text verdict line (the CI artifact format).
    pub fn render(&self) -> String {
        let mut line = format!(
            "{} seed={} workload={} {} fp={}",
            self.tier.id(),
            self.seed,
            self.workload,
            if self.pass() { "PASS" } else { "FAIL" },
            self.fingerprint,
        );
        for v in &self.violations {
            line.push_str("\n  violation: ");
            line.push_str(v);
        }
        line
    }
}

/// The seed's tier-appropriate fuzzed schedule over `horizon`.
fn tier_schedule(
    kind: BackendKind,
    seed: u64,
    horizon: Time,
    workload: &Workload,
    events: usize,
) -> FaultSchedule {
    let io_nodes = match kind {
        BackendKind::Pfs | BackendKind::Burst => {
            PfsConfig::caltech(workload.nodes, workload.os)
                .machine
                .io_nodes
        }
        BackendKind::Object => 0,
    };
    let generator = FaultGen::new(seed, horizon, io_nodes).with_events(events);
    match kind {
        BackendKind::Pfs => generator.schedule(),
        BackendKind::Object => generator.object_schedule(4),
        BackendKind::Burst => generator.burst_schedule(),
    }
}

/// Run one chaos case. `golden` optionally maps canonical workload
/// ids to the committed fault-free PFS fingerprints; when present and
/// the tier is the PFS, the fault-free run must reproduce its entry
/// bit for bit.
pub fn chaos_case(
    tier: BackendKind,
    seed: u64,
    golden: Option<&BTreeMap<String, String>>,
) -> ChaosVerdict {
    let ids = WorkloadId::all();
    let id = ids[(seed as usize) % ids.len()];
    let mut violations = Vec::new();
    // The fuzzed schedule: event count is itself seed-derived so the
    // soak covers sparse and dense schedules alike.
    let events = 1 + (seed % 4) as usize;

    // Each run is dropped as soon as its fingerprint and stats are
    // read, and the workload before the recovery phase, so a case
    // holds one run's trace at a time.
    let (clean_exec, faulted_fp) = {
        let workload = id.build(Scale::Smoke);
        let run_with = |faults: FaultSchedule| {
            run(
                &workload,
                tier_config(tier, &workload, faults),
                SimOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{} on {}: {e}", id.id(), tier.id()))
        };

        // Fault-free baseline, checked against the committed golden
        // fingerprints on the measured (PFS) tier.
        let clean = run_with(FaultSchedule::empty());
        let clean_fp = fingerprint(&clean);
        if tier == BackendKind::Pfs {
            if let Some(want) = golden.and_then(|g| g.get(id.id())) {
                if *want != clean_fp {
                    violations.push(format!(
                        "golden divergence: fault-free pfs run is {clean_fp}, baseline says {want}"
                    ));
                }
            }
        }
        if !clean.backend_stats.conserves_bytes() {
            violations.push(format!(
                "fault-free conservation broken: {:?}",
                clean.backend_stats
            ));
        }
        let clean_exec = clean.exec_time;
        drop(clean);

        // Engaged-but-empty hooks must be invisible.
        let engaged_fp = fingerprint(&run_with(FaultSchedule::engaged_empty()));
        if engaged_fp != clean_fp {
            violations.push(format!(
                "engaged-empty schedule perturbed the run: {engaged_fp} vs {clean_fp}"
            ));
        }

        let faults = tier_schedule(tier, seed, clean_exec, &workload, events);
        let faulted = run_with(faults.clone());
        let faulted_fp = fingerprint(&faulted);
        if !faulted.backend_stats.conserves_bytes() {
            let s = faulted.backend_stats;
            violations.push(format!(
                "conservation broken under faults: {} logged != {} drained + {} resident + {} lost",
                s.bytes_logged, s.bytes_drained, s.bytes_resident, s.bytes_lost
            ));
        }
        let faulted_resilience = faulted.resilience;
        drop(faulted);

        // Same seed, same world.
        let replay = run_with(faults);
        let replay_fp = fingerprint(&replay);
        if replay_fp != faulted_fp || replay.resilience != faulted_resilience {
            violations.push(format!("replay divergence: {replay_fp} vs {faulted_fp}"));
        }
        (clean_exec, faulted_fp)
    };

    // Recovery sanity: compute crashes only ever *add* time — rework,
    // restart latency, replayed work — so with the tier's faults held
    // fixed, crashing the run can never beat the crash-free
    // time-to-solution. Runs a fixed recoverable workload so every
    // tier exercises the rollback/durability path (the burst tier's
    // lost-bytes commits route through `durable_commits` here).
    let rec =
        EscatConfig::tiny(EscatVersion::B).recoverable(CheckpointPolicy::Fixed { interval: 5 });
    let rec_faults = tier_schedule(tier, seed, clean_exec, rec.workload(), events);
    let recover = |crashes: &FaultSchedule, what: &str| {
        let r = run_with_recovery(
            &rec,
            crashes,
            tier_config(tier, rec.workload(), rec_faults.clone()),
            SimOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{what} recovery run: {e}"));
        (r.exec_time, r.recovery.time_to_solution)
    };
    let (horizon, base_tts) = recover(&FaultSchedule::empty(), "crash-free");
    let crashes = FaultGen::new(seed, horizon, 0).compute_crash_schedule(
        horizon.scale(0.4).max(Time::from_millis(1)),
        horizon.scale(0.05).max(Time::from_millis(1)),
        rec.workload().nodes,
    );
    let (_, crashed_tts) = recover(&crashes, "crashed");
    if crashed_tts < base_tts {
        violations.push(format!(
            "recovery TTS beat the crash-free run: {crashed_tts} < {base_tts}"
        ));
    }

    ChaosVerdict {
        tier: ChaosTier::Backend(tier),
        seed,
        workload: id.id(),
        fingerprint: faulted_fp,
        violations,
    }
}

/// Run one chaos case against the streaming pipeline. The seed draws
/// a staging depth (including undersized and unbounded), a consumer
/// speed, and a PRISM code version, then fuzzes a consumer-crash
/// schedule over the clean run's horizon and checks:
///
/// 1. **Byte conservation** — pushed == popped + resident through the
///    staging queue, clean and faulted alike, with the full cadence
///    payload delivered.
/// 2. **Replay identity** — the same seed replays to the same
///    coupled-run fingerprint (trace digest included).
/// 3. **Crash monotonicity** — consumer outages never shrink the
///    pipeline latency or the producer's stall.
/// 4. **Unbounded equivalence** — `depth = 0` is bit-identical to a
///    queue deep enough to hold the whole payload, and never stalls.
pub fn stream_chaos_case(seed: u64) -> ChaosVerdict {
    const DEPTHS: [u64; 5] = [16 << 10, 32 << 10, 64 << 10, 256 << 10, 0];
    const SPEEDS: [u32; 4] = [50, 100, 150, 25];
    const VERSIONS: [(PrismVersion, &str); 3] = [
        (PrismVersion::A, "stream-prism-a"),
        (PrismVersion::B, "stream-prism-b"),
        (PrismVersion::C, "stream-prism-c"),
    ];
    let depth = DEPTHS[(seed % DEPTHS.len() as u64) as usize];
    let speed = SPEEDS[((seed / 5) % SPEEDS.len() as u64) as usize];
    let (version, label) = VERSIONS[((seed / 20) % VERSIONS.len() as u64) as usize];
    let cadence = PrismConfig::tiny(version).stream_cadence();
    let mut violations = Vec::new();

    let run_at = |depth: u64, faults: &FaultSchedule| {
        let route = Route::Stream(StagingConfig::paragon(depth));
        run_coupled(&cadence, &route, speed, faults)
            .unwrap_or_else(|e| panic!("stream chaos seed {seed} on {label}: {e}"))
    };

    // Fault-free: the ledger must balance and the payload arrive whole.
    let clean = run_at(depth, &FaultSchedule::empty());
    if !clean.conserves || clean.bytes != cadence.total_bytes() {
        violations.push(format!(
            "fault-free conservation broken: {} of {} B through depth {depth}",
            clean.bytes,
            cadence.total_bytes()
        ));
    }

    // Unbounded equivalence: depth 0 never stalls and matches a queue
    // that could hold every byte of the cadence at once.
    let unbounded = run_at(0, &FaultSchedule::empty());
    let oversized = run_at(cadence.total_bytes(), &FaultSchedule::empty());
    if unbounded.producer_stall != Time::ZERO {
        violations.push(format!(
            "unbounded queue stalled the producer: {}",
            unbounded.producer_stall
        ));
    }
    if unbounded.fingerprint() != oversized.fingerprint() {
        violations.push(format!(
            "unbounded != oversized queue: {} vs {}",
            unbounded.fingerprint(),
            oversized.fingerprint()
        ));
    }

    // Seed-fuzzed consumer crashes across the clean horizon.
    let crashes = 1 + seed % 3;
    let stall = clean
        .pipeline_latency
        .scale(0.05 + 0.1 * ((seed % 7) as f64) / 7.0)
        .max(Time::from_millis(1));
    let mut faults = FaultSchedule::empty();
    for k in 0..crashes {
        let frac = 0.1 + 0.8 * (k as f64) / (crashes as f64);
        faults.push(
            clean.pipeline_latency.scale(frac),
            FaultKind::ConsumerCrash { stall },
        );
    }
    let faulted = run_at(depth, &faults);
    if !faulted.conserves || faulted.bytes != cadence.total_bytes() {
        violations.push(format!(
            "conservation broken under consumer crashes: {} of {} B",
            faulted.bytes,
            cadence.total_bytes()
        ));
    }
    if faulted.pipeline_latency < clean.pipeline_latency {
        violations.push(format!(
            "crash shrank the pipeline: {} < {}",
            faulted.pipeline_latency, clean.pipeline_latency
        ));
    }
    if faulted.producer_stall < clean.producer_stall {
        violations.push(format!(
            "crash shrank the producer stall: {} < {}",
            faulted.producer_stall, clean.producer_stall
        ));
    }

    // Same seed, same world.
    let replay = run_at(depth, &faults);
    if replay.fingerprint() != faulted.fingerprint() {
        violations.push(format!(
            "replay divergence: {} vs {}",
            replay.fingerprint(),
            faulted.fingerprint()
        ));
    }

    ChaosVerdict {
        tier: ChaosTier::Stream,
        seed,
        workload: label,
        fingerprint: faulted.fingerprint(),
        violations,
    }
}

/// Soak `seeds` schedules across every tier in `tiers`, returning one
/// verdict per (tier, seed) in deterministic order: tier by tier, seeds
/// ascending. The cases are independent and run on every core.
pub fn chaos_soak(
    tiers: &[ChaosTier],
    start_seed: u64,
    seeds: u64,
    golden: Option<&BTreeMap<String, String>>,
) -> Vec<ChaosVerdict> {
    let cases: Vec<(ChaosTier, u64)> = tiers
        .iter()
        .flat_map(|&tier| (start_seed..start_seed.saturating_add(seeds)).map(move |s| (tier, s)))
        .collect();
    par_map(&cases, |&(tier, seed)| match tier {
        ChaosTier::Backend(b) => chaos_case(b, seed, golden),
        ChaosTier::Stream => stream_chaos_case(seed),
    })
}

/// Parse the committed backend baseline (`tests/golden/
/// backend_baseline.txt`) into the golden map [`chaos_case`] checks
/// against: the fault-free (fault_events == 0) rows, id →
/// fingerprint.
pub fn parse_golden_baseline(text: &str) -> BTreeMap<String, String> {
    let mut map = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        // id fault_events seed exec_ns events transitions trace_len fnv fnv
        if fields.len() == 9 && fields[1] == "0" {
            map.insert(fields[0].to_string(), fields[3..].join(" "));
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_case_passes_on_every_tier() {
        for tier in BackendKind::all() {
            let v = chaos_case(tier, 7, None);
            assert!(v.pass(), "{}", v.render());
            assert!(v.render().contains("PASS"));
        }
    }

    #[test]
    fn chaos_tier_ids_round_trip() {
        let tiers = ChaosTier::all();
        assert_eq!(tiers.len(), 4);
        assert_eq!(tiers.last(), Some(&ChaosTier::Stream));
        for t in &tiers {
            assert_eq!(ChaosTier::from_id(t.id()), Some(*t));
        }
        assert_eq!(ChaosTier::from_id("stream"), Some(ChaosTier::Stream));
        assert_eq!(ChaosTier::from_id("nvme"), None);
    }

    #[test]
    fn stream_chaos_cases_pass_over_a_seed_window() {
        for seed in 0..12 {
            let v = stream_chaos_case(seed);
            assert!(v.pass(), "{}", v.render());
            assert_eq!(v.tier, ChaosTier::Stream);
            assert!(v.workload.starts_with("stream-prism-"));
            assert!(v.render().starts_with("stream seed="));
        }
    }

    #[test]
    fn chaos_soak_dispatches_the_stream_tier() {
        let verdicts = chaos_soak(&[ChaosTier::Stream], 5, 2, None);
        assert_eq!(verdicts.len(), 2);
        assert!(verdicts.iter().all(|v| v.tier == ChaosTier::Stream));
        assert!(verdicts.iter().all(ChaosVerdict::pass));
    }

    #[test]
    fn chaos_soak_is_deterministic_and_ordered() {
        let a = chaos_soak(&[ChaosTier::Backend(BackendKind::Object)], 3, 2, None);
        let b = chaos_soak(&[ChaosTier::Backend(BackendKind::Object)], 3, 2, None);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].seed, 3);
        assert_eq!(a[1].seed, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fingerprint, y.fingerprint);
            assert!(x.pass() && y.pass(), "{}\n{}", x.render(), y.render());
        }
    }

    #[test]
    fn the_parallel_soak_equals_a_serial_loop() {
        let tiers = ChaosTier::all();
        let soak = chaos_soak(&tiers, 0, 16, None);
        let mut serial = Vec::new();
        for &tier in &tiers {
            for seed in 0..16 {
                serial.push(match tier {
                    ChaosTier::Backend(b) => chaos_case(b, seed, None),
                    ChaosTier::Stream => stream_chaos_case(seed),
                });
            }
        }
        assert_eq!(soak.len(), serial.len());
        for (p, s) in soak.iter().zip(&serial) {
            assert_eq!((p.tier, p.seed), (s.tier, s.seed));
            assert_eq!(p.fingerprint, s.fingerprint);
            assert_eq!(p.render(), s.render());
        }
    }

    /// FNV-1a over a whole byte string, the one-shot reference.
    fn fnv64(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn streamed_trace_digest_equals_the_digest_of_the_encoding() {
        let w = WorkloadId::all()[0].build(Scale::Smoke);
        let r = run(
            &w,
            tier_config(BackendKind::Pfs, &w, FaultSchedule::empty()),
            SimOptions::default(),
        )
        .unwrap();
        assert!(!r.trace.is_empty());
        let encoded = sioscope_trace::binary::encode(&r.trace);
        assert_eq!(trace_fnv64(&r.trace), fnv64(&encoded));
        let empty = TraceRecorder::new();
        assert_eq!(
            trace_fnv64(&empty),
            fnv64(&sioscope_trace::binary::encode(&empty))
        );
    }

    #[test]
    fn golden_baseline_parses_fault_free_rows_only() {
        let text = "# header\nescat-a 0 0 1 2 0 3 aa bb\nescat-a 2 9 1 2 4 3 aa bb\n";
        let map = parse_golden_baseline(text);
        assert_eq!(map.len(), 1);
        assert_eq!(map["escat-a"], "1 2 0 3 aa bb");
    }

    #[test]
    fn golden_divergence_is_reported() {
        let mut golden = BTreeMap::new();
        golden.insert(
            WorkloadId::all()[(11usize) % WorkloadId::all().len()]
                .id()
                .to_string(),
            "0 0 0 0 dead beef".to_string(),
        );
        let v = chaos_case(BackendKind::Pfs, 11, Some(&golden));
        assert!(!v.pass());
        assert!(v.violations[0].contains("golden divergence"));
    }
}
