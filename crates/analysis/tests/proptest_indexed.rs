//! Property-based tests that every indexed analysis pass equals its
//! naive-scan oracle — exactly, including bit-identical floating-point
//! results where the pass produces floats. The indexed variants feed
//! the same accumulation code the same values in the same order, so
//! `==` (not approximate comparison) is the correct assertion.
//!
//! The oracles are the library's original scans over `&[IoEvent]`,
//! kept here as the reference implementations.

use sioscope_analysis::interarrival::{self, Interarrival};
use sioscope_analysis::{
    detect_phases_indexed, BandwidthSeries, Cdf, ConcurrencyProfile, LogHistogram, ModeStats,
    ModeUsage, NodeBalance, PhaseKind, PhaseSpan, Timeline,
};
use sioscope_pfs::{IoMode, OpKind};
use sioscope_sim::prop::prelude::*;
use sioscope_sim::{FileId, Pid, Time};
use sioscope_trace::{IoEvent, TraceRecorder};
use std::collections::BTreeMap;

/// Oracle: sweep-line concurrency over a `BTreeMap` of breakpoints.
fn concurrency_scan(events: &[IoEvent]) -> ConcurrencyProfile {
    let mut deltas: BTreeMap<Time, i64> = BTreeMap::new();
    for e in events {
        *deltas.entry(e.start).or_insert(0) += 1;
        *deltas.entry(e.end()).or_insert(0) -= 1;
    }
    let mut steps = Vec::new();
    let mut level: i64 = 0;
    let mut peak = 0u32;
    let mut weighted = 0.0f64;
    let mut active = 0.0f64;
    let mut prev: Option<Time> = None;
    for (t, d) in deltas {
        if let Some(p) = prev {
            let dt = (t - p).as_secs_f64();
            weighted += level as f64 * dt;
            if level > 0 {
                active += dt;
            }
        }
        level += d;
        debug_assert!(level >= 0, "negative outstanding count");
        peak = peak.max(level as u32);
        steps.push((t, level as u32));
        prev = Some(t);
    }
    let span = match (steps.first(), steps.last()) {
        (Some(&(s, _)), Some(&(e, _))) if e > s => (e - s).as_secs_f64(),
        _ => 0.0,
    };
    let mean = if span > 0.0 { weighted / span } else { 0.0 };
    let mean_active = if active > 0.0 { weighted / active } else { 0.0 };
    ConcurrencyProfile {
        steps,
        peak,
        mean,
        mean_active,
    }
}

/// Oracle: per-node I/O time over the events a predicate selects.
fn node_balance_scan(events: &[IoEvent], keep: impl Fn(&IoEvent) -> bool) -> NodeBalance {
    let mut per_node: BTreeMap<u32, Time> = BTreeMap::new();
    let mut total = Time::ZERO;
    for e in events.iter().filter(|e| keep(e)) {
        *per_node.entry(e.pid.0).or_insert(Time::ZERO) += e.duration;
        total += e.duration;
    }
    NodeBalance { per_node, total }
}

/// Oracle: bucket every data event's bytes by completion window.
fn bandwidth_scan(events: &[IoEvent], window: Time) -> BandwidthSeries {
    let end = events
        .iter()
        .filter(|e| e.is_data())
        .map(|e| e.end())
        .fold(Time::ZERO, Time::max);
    let n = (end.as_nanos() / window.as_nanos() + 1) as usize;
    let mut bytes_per_window = vec![0u64; n.min(10_000_000)];
    for e in events.iter().filter(|e| e.is_data() && e.bytes > 0) {
        let idx = (e.end().as_nanos() / window.as_nanos()) as usize;
        if let Some(slot) = bytes_per_window.get_mut(idx) {
            *slot += e.bytes;
        }
    }
    BandwidthSeries {
        window,
        bytes_per_window,
    }
}

/// Oracle: per-mode aggregation, keyed by mode name.
fn modes_scan(events: &[IoEvent]) -> BTreeMap<&'static str, ModeStats> {
    let mut per_mode: BTreeMap<&'static str, ModeStats> = BTreeMap::new();
    for e in events {
        let s = per_mode.entry(e.mode.name()).or_default();
        s.ops += 1;
        s.bytes += e.bytes;
        s.time += e.duration;
    }
    per_mode
}

/// Oracle: cluster a time-sorted trace into phases separated by I/O
/// gaps of at least `gap`.
fn phases_scan(events: &[IoEvent], gap: Time) -> Vec<PhaseSpan> {
    let classify = |p: &PhaseSpan| {
        if p.bytes_read == 0 && p.bytes_written == 0 {
            PhaseKind::ControlOnly
        } else if p.bytes_read >= p.bytes_written {
            PhaseKind::ReadDominant
        } else {
            PhaseKind::WriteDominant
        }
    };
    let mut phases: Vec<PhaseSpan> = Vec::new();
    let mut current: Option<PhaseSpan> = None;
    for e in events {
        match current.as_mut() {
            Some(p) if e.start.saturating_sub(p.end) < gap => {
                p.end = p.end.max(e.end());
                p.events += 1;
                match e.kind {
                    OpKind::Read => p.bytes_read += e.bytes,
                    OpKind::Write => p.bytes_written += e.bytes,
                    _ => {}
                }
            }
            _ => {
                if let Some(mut done) = current.take() {
                    done.kind = classify(&done);
                    phases.push(done);
                }
                current = Some(PhaseSpan {
                    start: e.start,
                    end: e.end(),
                    events: 1,
                    bytes_read: if e.kind == OpKind::Read { e.bytes } else { 0 },
                    bytes_written: if e.kind == OpKind::Write { e.bytes } else { 0 },
                    kind: PhaseKind::ControlOnly,
                });
            }
        }
    }
    if let Some(mut done) = current.take() {
        done.kind = classify(&done);
        phases.push(done);
    }
    phases
}

/// Oracle: regroup start instants by pid, then take each stream's
/// interarrival statistics.
fn interarrival_scan(events: &[IoEvent]) -> BTreeMap<Pid, Interarrival> {
    let mut starts: BTreeMap<Pid, Vec<Time>> = BTreeMap::new();
    for e in events {
        starts.entry(e.pid).or_default().push(e.start);
    }
    starts
        .into_iter()
        .filter_map(|(pid, s)| interarrival::of_starts(&s).map(|ia| (pid, ia)))
        .collect()
}

fn arb_kind() -> impl Strategy<Value = OpKind> {
    prop_oneof![
        Just(OpKind::Open),
        Just(OpKind::Gopen),
        Just(OpKind::Read),
        Just(OpKind::Seek),
        Just(OpKind::Write),
        Just(OpKind::Iomode),
        Just(OpKind::Flush),
        Just(OpKind::Close),
    ]
}

fn arb_mode() -> impl Strategy<Value = IoMode> {
    prop_oneof![
        Just(IoMode::MUnix),
        Just(IoMode::MRecord),
        Just(IoMode::MAsync),
        Just(IoMode::MGlobal),
        Just(IoMode::MSync),
        Just(IoMode::MLog),
    ]
}

/// Arbitrary events with frequent zero durations and shared instants,
/// the shapes that stress sweep-lines and degenerate intervals.
fn arb_event() -> impl Strategy<Value = IoEvent> {
    (
        0u32..8,
        0u32..4,
        arb_kind(),
        prop_oneof![Just(0u64), 0u64..1_000_000],
        prop_oneof![Just(0u64), 0u64..10_000],
        0u64..100_000,
        0u64..1_000_000,
        arb_mode(),
    )
        .prop_map(
            |(pid, file, kind, start, dur, bytes, offset, mode)| IoEvent {
                pid: Pid(pid),
                file: FileId(file),
                kind,
                start: Time::from_nanos(start),
                duration: Time::from_nanos(dur),
                bytes: if matches!(kind, OpKind::Read | OpKind::Write) {
                    bytes
                } else {
                    0
                },
                offset,
                mode,
            },
        )
}

fn recorder(events: &[IoEvent]) -> TraceRecorder {
    let mut t = TraceRecorder::new();
    for e in events {
        t.record(*e);
    }
    t
}

proptest! {
    /// Concurrency profiles are bit-identical: the merged breakpoint
    /// stream reproduces the scan's BTreeMap sweep exactly, including
    /// net-zero breakpoints from zero-duration events.
    #[test]
    fn concurrency_matches_oracle(events in prop::collection::vec(arb_event(), 0..250)) {
        let t = recorder(&events);
        assert_eq!(
            ConcurrencyProfile::from_index(t.index()),
            concurrency_scan(&events)
        );
    }

    /// Node balance (total and per-kind) equals the filtered scans.
    #[test]
    fn node_balance_matches_oracle(events in prop::collection::vec(arb_event(), 0..250)) {
        let t = recorder(&events);
        assert_eq!(NodeBalance::from_index(t.index()), node_balance_scan(&events, |_| true));
        for k in [OpKind::Read, OpKind::Write, OpKind::Seek] {
            assert_eq!(
                NodeBalance::of_kind(t.index(), k),
                node_balance_scan(&events, |e| e.kind == k)
            );
        }
    }

    /// Bandwidth series from completion-ordered index columns equals
    /// the scan: same length, same per-window byte sums.
    #[test]
    fn bandwidth_matches_oracle(
        events in prop::collection::vec(arb_event(), 0..250),
        window_ns in 1u64..100_000,
    ) {
        let t = recorder(&events);
        let w = Time::from_nanos(window_ns);
        assert_eq!(
            BandwidthSeries::from_index(t.index(), w),
            bandwidth_scan(&events, w)
        );
    }

    /// Request-size CDFs and histograms from the pre-sorted size
    /// columns equal the sort-then-collapse oracle.
    #[test]
    fn size_distributions_match_oracle(events in prop::collection::vec(arb_event(), 0..250)) {
        let t = recorder(&events);
        for k in [OpKind::Read, OpKind::Write] {
            let sizes: Vec<u64> = events.iter().filter(|e| e.kind == k).map(|e| e.bytes).collect();
            assert_eq!(Cdf::of_kind(t.index(), k), Cdf::from_samples(sizes.clone()));
            assert_eq!(
                LogHistogram::of_kind(t.index(), k),
                LogHistogram::from_samples(sizes)
            );
        }
    }

    /// Timeline scatters (size- and duration-valued) equal the scans.
    /// The index extracts in canonical order, so the oracle filters
    /// from a canonically sorted copy of the events.
    #[test]
    fn timelines_match_oracle(events in prop::collection::vec(arb_event(), 0..250)) {
        let t = recorder(&events);
        let mut sorted = events.clone();
        sorted.sort_by_key(|e| (e.start, e.pid, e.file, e.offset));
        for k in [OpKind::Read, OpKind::Write, OpKind::Seek] {
            let pairs: Vec<(Time, u64)> =
                sorted.iter().filter(|e| e.kind == k).map(|e| (e.start, e.bytes)).collect();
            assert_eq!(Timeline::of_kind(t.index(), k), Timeline::new(pairs));
            let dpairs: Vec<(Time, u64)> = sorted
                .iter()
                .filter(|e| e.kind == k)
                .map(|e| (e.start, e.duration.as_nanos()))
                .collect();
            assert_eq!(Timeline::of_durations(t.index(), k), Timeline::new(dpairs));
        }
    }

    /// Phase detection over the index's canonical order equals the
    /// scan over a canonically sorted trace.
    #[test]
    fn phases_match_oracle(
        events in prop::collection::vec(arb_event(), 0..250),
        gap_ns in 1u64..200_000,
    ) {
        let mut t = recorder(&events);
        t.sort();
        let gap = Time::from_nanos(gap_ns);
        assert_eq!(
            detect_phases_indexed(t.index(), gap),
            phases_scan(t.events(), gap)
        );
    }

    /// Access-mode aggregation commutes: indexed equals scan, mode
    /// for mode.
    #[test]
    fn modes_match_oracle(events in prop::collection::vec(arb_event(), 0..250)) {
        let t = recorder(&events);
        let usage = ModeUsage::from_index(t.index());
        let oracle = modes_scan(&events);
        assert_eq!(usage.used_modes(), oracle.keys().copied().collect::<Vec<_>>());
        for mode in [
            IoMode::MUnix,
            IoMode::MRecord,
            IoMode::MAsync,
            IoMode::MGlobal,
            IoMode::MSync,
            IoMode::MLog,
        ] {
            assert_eq!(usage.get(mode), oracle.get(mode.name()).copied().unwrap_or_default());
        }
    }

    /// Per-process interarrival statistics from pid postings equal the
    /// regrouping scan, bit-identically.
    #[test]
    fn interarrival_matches_oracle(events in prop::collection::vec(arb_event(), 0..250)) {
        let t = recorder(&events);
        assert_eq!(
            interarrival::per_process_indexed(t.index()),
            interarrival_scan(&events)
        );
    }
}
