//! # hostcc-sim
//!
//! Deterministic discrete-event simulation engine underpinning the `hostcc`
//! host-interconnect congestion laboratory.
//!
//! The crate provides exactly the primitives a packet-level simulator needs
//! and nothing else:
//!
//! * [`SimTime`]/[`SimDuration`] — integer-nanosecond simulated time;
//! * [`EventQueue`] — a deterministic (FIFO tie-break) min-priority queue:
//!   an alias for the [`TimingWheel`];
//! * [`Engine`]/[`World`]/[`Scheduler`] — the per-event dispatch loop;
//! * [`ParallelEngine`]/[`ShardHost`]/[`Envelope`] — deterministic
//!   conservative parallel execution of many coupled sub-simulations in
//!   lookahead-bounded epochs;
//! * [`SimRng`] — a seedable, stable xoshiro256** generator;
//! * statistics: [`Running`], [`Ewma`], [`Histogram`];
//! * pacing: [`SerialLink`].
//!
//! Everything is synchronous and allocation-light, in the spirit of
//! event-driven network stacks: components are explicit state machines that
//! the engine polls by delivering events.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod hist;
mod pacer;
mod parallel;
#[cfg(test)]
mod queue;
mod rng;
mod snap;
mod stats;
mod time;
mod wheel;

pub use engine::{DispatchProfile, Engine, RunOutcome, Scheduler, World};
pub use hist::Histogram;
pub use pacer::SerialLink;
pub use parallel::{Envelope, ParallelEngine, ShardHost, WorkerProfile};
pub use rng::{stream_seed, SimRng, SplitMix64};
#[doc(hidden)]
pub use snap::field_min_bytes as snap_field_min_bytes;
pub use snap::{
    check_resave, decode, fnv1a_64, Snap, SnapError, SnapReader, SnapWriter, SNAP_HEADER_LEN,
    SNAP_MAGIC, SNAP_VERSION,
};
pub use wheel::TimingWheel;

/// The engine's event queue: the timing wheel.
pub type EventQueue<E> = TimingWheel<E>;
pub use stats::{Ewma, Running};
pub use time::{Resolution, SimDuration, SimTime, NANOS_PER_MICRO, NANOS_PER_MILLI, NANOS_PER_SEC};
