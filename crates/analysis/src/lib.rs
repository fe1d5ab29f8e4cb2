//! # sioscope-analysis
//!
//! The data-analysis toolkit that turns sioscope traces into the
//! paper's tables and figures: cumulative distribution functions of
//! request sizes and transferred data (Figures 2 and 7), timeline
//! scatters of request sizes and durations (Figures 3–5, 8–9),
//! percentage-of-I/O-time tables (Tables 2 and 5),
//! percentage-of-execution-time tables (Table 3), and ASCII renderings
//! of all of them.
//!
//! Every trace pass answers from a shared
//! [`sioscope_trace::TraceIndex`] (`from_index` / `of_kind` /
//! `*_indexed`) without revisiting the event vector. The original
//! scans over `&[IoEvent]` live on only as test oracles in
//! `tests/proptest_indexed.rs`, whose property tests hold every
//! indexed pass bit-identical to its scan.

pub mod bandwidth;
pub mod cdf;
pub mod classify;
pub mod compare;
pub mod histogram;
pub mod interarrival;
pub mod modes;
pub mod parallelism;
pub mod phases;
pub mod plot;
pub mod stats;
pub mod table;
pub mod timeline;

pub use bandwidth::BandwidthSeries;
pub use cdf::Cdf;
pub use classify::{classify_all, classify_file, FileClass, IoClass};
pub use compare::{Evolution, OpDelta};
pub use histogram::LogHistogram;
pub use interarrival::Interarrival;
pub use modes::{ModeStats, ModeUsage};
pub use parallelism::{ConcurrencyProfile, NodeBalance};
pub use phases::{detect_indexed as detect_phases_indexed, PhaseKind, PhaseSpan};
pub use stats::Summary;
pub use table::{ExecTimeTable, IoTimeTable};
pub use timeline::Timeline;
