//! # hostcc-trace
//!
//! The observability layer of the `hostcc` laboratory: typed datapath
//! trace events, per-packet lifecycle spans, a named counter registry,
//! periodic time-series recording, and exporters (Chrome trace-event
//! JSON viewable in Perfetto, plus a dependency-free JSON writer/parser
//! for metric snapshots).
//!
//! The datapath components know nothing of this crate: they keep plain
//! stats structs, and the host testbed observes them from outside. It
//! names every exported counter in one place (the host crate's `counters`
//! module, called by `Testbed::collect_counters`) and offers the timeline
//! one row of series per memory tick.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism** — recording is strictly observational. Nothing in
//!    this crate consumes simulation randomness, schedules events, or
//!    otherwise feeds back into the world, so a traced run produces
//!    bit-identical metrics to an untraced one.
//! 2. **Zero cost when disabled** — every record path begins with one
//!    branch on a `bool`; a disabled [`Tracer`] allocates nothing.
//! 3. **Bounded memory** — the event buffer is a ring with a configured
//!    capacity and optional 1-in-N sampling, so arbitrarily long runs
//!    cannot exhaust memory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod counters;
pub mod json;
mod ring;
mod stage;
mod timeline;
mod tracer;

pub use chrome::chrome_trace_json;
pub use counters::CounterRegistry;
pub use ring::SampleRing;
pub use stage::{Stage, StageBreakdown, StageClass};
pub use timeline::TimelineRecorder;
pub use tracer::{TraceConfig, TraceEvent, Tracer};
