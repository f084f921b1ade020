//! The discrete-event execution loop.
//!
//! A simulation is a `World` (all mutable component state) plus an event
//! queue. The engine pops the earliest event, advances the clock and
//! hands the event to the world, which may schedule further events through
//! the [`Scheduler`] it receives. This mirrors the poll-driven style of
//! event-driven network stacks: components are plain state machines and all
//! control flow is explicit.
//!
//! Both the scheduler and the engine are generic over the queue
//! implementation (any [`Queue`]); the default is the timing-wheel
//! [`EventQueue`]. The [`BinaryHeapQueue`](crate::BinaryHeapQueue)
//! reference implementation slots in for equivalence testing:
//! `Engine::<W, BinaryHeapQueue<W::Event>>::with_queue(world)`.

use crate::queue::Queue;
use crate::time::{Resolution, SimDuration, SimTime};
use crate::EventQueue;
use core::marker::PhantomData;

/// Handle through which event handlers schedule future events.
pub struct Scheduler<E, Q: Queue<E> = EventQueue<E>> {
    now: SimTime,
    queue: Q,
    _event: PhantomData<fn(E)>,
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero, using the default (timing-wheel)
    /// event queue.
    pub fn new() -> Self {
        Self::with_queue()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, Q: Queue<E>> Scheduler<E, Q> {
    /// An empty scheduler at time zero over queue implementation `Q`.
    pub fn with_queue() -> Self {
        Self::with_resolution(Resolution::EXACT)
    }

    /// An empty scheduler whose queue quantises event timestamps up to
    /// the given resolution grid (identity at [`Resolution::EXACT`]).
    pub fn with_resolution(res: Resolution) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: Q::with_resolution(res),
            _event: PhantomData,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` from now.
    #[inline]
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedule `event` at an absolute time.
    ///
    /// Past times are clamped to `now` — in every build profile, so a
    /// release build can never silently reorder the simulation where a
    /// debug build would have fired an assertion. A clamped event fires
    /// at the current instant, after already-pending events at `now`.
    #[inline]
    pub fn at(&mut self, time: SimTime, event: E) {
        self.queue.push(time.max(self.now), event);
    }

    /// Schedule `event` to fire as soon as possible (same timestamp, after
    /// already-pending events at this timestamp).
    #[inline]
    pub fn immediately(&mut self, event: E) {
        self.queue.push(self.now, event);
    }

    /// Events currently queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the earliest queued event (`None` when the queue is
    /// empty). The parallel engine uses this to compute the global
    /// lookahead-bounded epoch horizon without popping anything.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Events dispatched over the scheduler's lifetime.
    pub fn dispatched_total(&self) -> u64 {
        self.queue.dispatched_total()
    }
}

crate::snap_fields!(impl[E, Q: Queue<E> + crate::Snap] Scheduler<E, Q> { now, queue } skip { _event });

/// The mutable simulation state and its event handler.
///
/// `handle` is generic over the queue implementation behind the scheduler
/// so one `World` can be driven by any [`Queue`] — the engine's default
/// timing wheel or the reference binary heap (equivalence tests).
pub trait World {
    /// The event type this world handles.
    type Event;

    /// Handle one event at time `now`. May schedule more via `sched`.
    fn handle<Q: Queue<Self::Event>>(
        &mut self,
        now: SimTime,
        event: Self::Event,
        sched: &mut Scheduler<Self::Event, Q>,
    );

    /// Handle every event of one timestamp slot, in FIFO order, draining
    /// `events` completely. The engine's batched dispatch loop calls this
    /// once per slot with the reusable batch buffer; the default simply
    /// replays the events one by one through [`handle`](World::handle),
    /// so batching is behaviour-preserving for any world. Worlds override
    /// it to amortise per-event costs across a batch (grouping runs of
    /// one event kind, hoisting invariant lookups) — but any override
    /// must produce the same side effects, in the same order, as the
    /// default.
    ///
    /// Events scheduled *during* the batch at the same timestamp are not
    /// part of `events`; the engine picks them up in the next slot drain,
    /// which preserves exactly the order per-event dispatch would have
    /// produced (they sit behind the current batch in FIFO order either
    /// way).
    fn handle_batch<Q: Queue<Self::Event>>(
        &mut self,
        now: SimTime,
        events: &mut Vec<Self::Event>,
        sched: &mut Scheduler<Self::Event, Q>,
    ) {
        for ev in events.drain(..) {
            self.handle(now, ev, sched);
        }
    }
}

/// Outcome of driving a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the deadline.
    QueueEmpty {
        /// Time of the last dispatched event. (The clock itself still
        /// advances to the deadline, so relative scheduling after a
        /// drained `run_until` is anchored at the deadline.)
        at: SimTime,
    },
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The progress watchdog tripped: more than `stall_limit` consecutive
    /// events were dispatched without the simulation clock advancing —
    /// the world is almost certainly rescheduling itself at the same
    /// instant forever. Returned instead of spinning until the heat death
    /// of the host.
    Stalled {
        /// The instant the simulation stopped making progress at.
        at: SimTime,
    },
}

/// Wall-clock dispatch statistics for profiled engines: how many events
/// were handled and how much real time the event loop consumed. Purely
/// observational — profiling never alters simulation behaviour, only
/// reads the host clock around `run_until` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchProfile {
    /// Events dispatched while profiling was enabled.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside `run_until`.
    pub wall_nanos: u64,
    /// Slot batches dispatched through `handle_batch` (0 under per-event
    /// dispatch — the observability signal that batching is engaging).
    pub batches: u64,
    /// Largest single batch handed to `handle_batch`.
    pub max_batch: u64,
}

impl DispatchProfile {
    /// Events handled per wall-clock second (0 before any time elapses).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.events as f64 * 1e9 / self.wall_nanos as f64
    }

    /// Mean events per batch (0 when no batches were dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.events as f64 / self.batches as f64
    }
}

/// Drives a `World` and its scheduler.
pub struct Engine<W: World, Q: Queue<W::Event> = EventQueue<<W as World>::Event>> {
    /// The simulation state.
    pub world: W,
    /// The clock and event queue.
    pub sched: Scheduler<W::Event, Q>,
    /// Progress watchdog: maximum consecutive events at one timestamp
    /// before the run aborts with [`RunOutcome::Stalled`] (default: no
    /// limit). Same-time bursts are normal (FIFO fan-out), so set this
    /// well above any legitimate burst — the harness uses one million.
    pub stall_limit: Option<u64>,
    /// Dispatch mode: `true` (the default) drains whole timestamp slots
    /// through [`World::handle_batch`]; `false` pops one event at a time
    /// through [`World::handle`]. Both produce bit-identical simulations;
    /// the flag exists so equivalence tests and benchmarks can compare.
    pub batched: bool,
    /// Dispatch profiling accumulator (`None` = off, the default).
    profile: Option<DispatchProfile>,
    /// Reusable slot-drain buffer for batched dispatch. Grows to the
    /// largest batch seen and is never shrunk, so steady state allocates
    /// nothing.
    batch: Vec<W::Event>,
}

// A simulation's image is its clock and pending events, then its world;
// the dispatch knobs and the profiler are engine settings, not state.
crate::snap_fields!(impl[W: World + crate::Snap, Q: Queue<W::Event> + crate::Snap] Engine<W, Q> {
    sched, world,
} skip { stall_limit, batched, profile, batch });

impl<W: World> Engine<W> {
    /// An engine with an empty (timing-wheel) queue wrapping `world`.
    pub fn new(world: W) -> Self {
        Self::with_queue(world)
    }
}

impl<W: World, Q: Queue<W::Event>> Engine<W, Q> {
    /// An engine over queue implementation `Q` wrapping `world`.
    pub fn with_queue(world: W) -> Self {
        Self::with_queue_resolution(world, Resolution::EXACT)
    }

    /// An engine whose queue quantises event timestamps up to `res`
    /// (identity at [`Resolution::EXACT`]).
    pub fn with_queue_resolution(world: W, res: Resolution) -> Self {
        Engine {
            world,
            sched: Scheduler::with_resolution(res),
            stall_limit: None,
            batched: true,
            profile: None,
            batch: Vec::with_capacity(256),
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Start accumulating wall-clock dispatch statistics.
    pub fn enable_profiling(&mut self) {
        self.profile.get_or_insert_with(DispatchProfile::default);
    }

    /// Accumulated dispatch statistics (None when profiling is off).
    pub fn profile(&self) -> Option<DispatchProfile> {
        self.profile
    }

    /// Run until `deadline` (inclusive: events stamped exactly at the
    /// deadline still run), the queue empties, or the watchdog trips.
    ///
    /// On return the clock is at `deadline` (clamped to the last event
    /// time when the deadline is [`SimTime::MAX`], i.e. for
    /// [`run_to_completion`](Self::run_to_completion)) — even when the
    /// queue drained early. Callers that alternate drain/refill thus
    /// anchor subsequent relative scheduling at the deadline, not at
    /// whatever instant the last event happened to fire.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        if self.profile.is_none() {
            return self.run_until_inner(deadline);
        }
        let start = std::time::Instant::now();
        let dispatched_before = self.sched.queue.dispatched_total();
        let out = self.run_until_inner(deadline);
        let p = self.profile.as_mut().expect("profiling enabled");
        p.events += self.sched.queue.dispatched_total() - dispatched_before;
        p.wall_nanos += start.elapsed().as_nanos() as u64;
        out
    }

    fn run_until_inner(&mut self, deadline: SimTime) -> RunOutcome {
        if self.batched {
            self.run_batched(deadline)
        } else {
            self.run_per_event(deadline)
        }
    }

    /// Batched dispatch: drain one whole timestamp slot per iteration and
    /// hand it to [`World::handle_batch`]. Clock, watchdog and outcome
    /// semantics match [`run_per_event`](Self::run_per_event) exactly;
    /// only the grouping of `handle` work differs, and slot-FIFO order
    /// makes that grouping invisible to the world (see `handle_batch`).
    fn run_batched(&mut self, deadline: SimTime) -> RunOutcome {
        let mut same_time_run = 0u64;
        let mut batches = 0u64;
        let mut max_batch = 0u64;
        let out = loop {
            let Some(t) = self.sched.queue.peek_time() else {
                let at = self.sched.now;
                if deadline != SimTime::MAX {
                    self.sched.now = deadline;
                }
                break RunOutcome::QueueEmpty { at };
            };
            if t > deadline {
                self.sched.now = deadline;
                break RunOutcome::DeadlineReached;
            }
            // Pop the first event exactly like the per-event loop; only
            // when more events share its timestamp does the slot-drain
            // buffer come into play. Most slots hold a single event (1 ns
            // resolution), so the singleton path must cost nothing extra.
            // (Routing singletons through the drain buffer to save the
            // re-peek was tried and measured slower: the buffer round
            // trip costs more than `peek_time`, which is a cached-field
            // read on both queue implementations.)
            let (raw_t, ev) = self.sched.queue.pop().expect("peeked");
            let t = raw_t.max(self.sched.now);
            if self.sched.queue.peek_time() != Some(raw_t) {
                batches += 1;
                max_batch = max_batch.max(1);
                if let Some(limit) = self.stall_limit {
                    if t > self.sched.now {
                        same_time_run = 0;
                    }
                    same_time_run += 1;
                    if same_time_run > limit {
                        break RunOutcome::Stalled { at: t };
                    }
                }
                self.sched.now = t;
                self.world.handle(t, ev, &mut self.sched);
                continue;
            }
            debug_assert!(self.batch.is_empty(), "batch buffer drained last slot");
            self.batch.push(ev);
            let slot_t = self
                .sched
                .queue
                .pop_slot(&mut self.batch)
                .expect("peeked same time");
            debug_assert_eq!(slot_t, raw_t, "slot drain stayed on the timestamp");
            let n = self.batch.len() as u64;
            batches += 1;
            max_batch = max_batch.max(n);
            if let Some(limit) = self.stall_limit {
                if t > self.sched.now {
                    same_time_run = 0;
                }
                same_time_run += n;
                if same_time_run > limit {
                    // Like the per-event path, the offending events are
                    // popped but never handled.
                    self.batch.clear();
                    break RunOutcome::Stalled { at: t };
                }
            }
            self.sched.now = t;
            self.world.handle_batch(t, &mut self.batch, &mut self.sched);
            debug_assert!(self.batch.is_empty(), "handle_batch must drain its input");
        };
        if let Some(p) = self.profile.as_mut() {
            p.batches += batches;
            p.max_batch = p.max_batch.max(max_batch);
        }
        out
    }

    fn run_per_event(&mut self, deadline: SimTime) -> RunOutcome {
        // Progress watchdog: count consecutive dispatches at one
        // timestamp; any clock advance resets the count.
        let mut same_time_run = 0u64;
        loop {
            let Some(t) = self.sched.queue.peek_time() else {
                let at = self.sched.now;
                // Advance the clock to the deadline so relative `after()`
                // scheduling by the caller is computed from the right
                // instant. `SimTime::MAX` is the run-to-completion
                // sentinel, not a meaningful instant — keep the
                // last-event time there.
                if deadline != SimTime::MAX {
                    self.sched.now = deadline;
                }
                return RunOutcome::QueueEmpty { at };
            };
            if t > deadline {
                self.sched.now = deadline;
                return RunOutcome::DeadlineReached;
            }
            let (t, ev) = self.sched.queue.pop().expect("peeked");
            // Defence in depth (queues clamp on push already): never let
            // the clock move backwards, in any build profile.
            let t = t.max(self.sched.now);
            if let Some(limit) = self.stall_limit {
                if t > self.sched.now {
                    same_time_run = 0;
                }
                same_time_run += 1;
                if same_time_run > limit {
                    return RunOutcome::Stalled { at: t };
                }
            }
            self.sched.now = t;
            self.world.handle(t, ev, &mut self.sched);
        }
    }

    /// Run until the queue is empty (or the watchdog trips).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::BinaryHeapQueue;

    /// A toy world: a ping-pong counter that reschedules itself N times.
    struct PingPong {
        remaining: u32,
        log: Vec<(u64, &'static str)>,
    }

    enum Ev {
        Ping,
        Pong,
    }

    impl World for PingPong {
        type Event = Ev;
        fn handle<Q: Queue<Ev>>(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev, Q>) {
            match ev {
                Ev::Ping => {
                    self.log.push((now.as_nanos(), "ping"));
                    if self.remaining > 0 {
                        self.remaining -= 1;
                        sched.after(SimDuration::from_nanos(10), Ev::Pong);
                    }
                }
                Ev::Pong => {
                    self.log.push((now.as_nanos(), "pong"));
                    sched.after(SimDuration::from_nanos(10), Ev::Ping);
                }
            }
        }
    }

    #[test]
    fn ping_pong_alternates_and_terminates() {
        let mut eng = Engine::new(PingPong {
            remaining: 3,
            log: vec![],
        });
        eng.sched.immediately(Ev::Ping);
        let out = eng.run_to_completion();
        assert!(matches!(out, RunOutcome::QueueEmpty { .. }));
        let names: Vec<&str> = eng.world.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(
            names,
            ["ping", "pong", "ping", "pong", "ping", "pong", "ping"]
        );
        // Events are spaced 10ns apart.
        assert_eq!(eng.world.log.last().unwrap().0, 60);
        assert_eq!(eng.now().as_nanos(), 60);
    }

    #[test]
    fn deadline_stops_simulation_and_advances_clock() {
        let mut eng = Engine::new(PingPong {
            remaining: 1_000_000,
            log: vec![],
        });
        eng.sched.immediately(Ev::Ping);
        let out = eng.run_until(SimTime::from_nanos(55));
        assert_eq!(out, RunOutcome::DeadlineReached);
        assert_eq!(eng.now().as_nanos(), 55);
        // Events at t<=55: 0,10,20,30,40,50 -> 6 handled.
        assert_eq!(eng.world.log.len(), 6);
        // Resuming picks up where we left off.
        let out = eng.run_until(SimTime::from_nanos(75));
        assert_eq!(out, RunOutcome::DeadlineReached);
        assert_eq!(eng.world.log.len(), 8);
    }

    #[test]
    fn queue_empty_advances_clock_to_deadline() {
        // Regression: `run_until` used to leave `now` at the last event
        // time when the queue drained early, so a caller alternating
        // drain/refill would anchor relative `after()` scheduling at the
        // wrong instant.
        let mut eng = Engine::new(PingPong {
            remaining: 0,
            log: vec![],
        });
        eng.sched.immediately(Ev::Ping); // fires at t=0, schedules nothing
        let out = eng.run_until(SimTime::from_micros(100));
        assert_eq!(
            out,
            RunOutcome::QueueEmpty {
                at: SimTime::ZERO // last event time is still reported
            }
        );
        assert_eq!(eng.now(), SimTime::from_micros(100), "clock at deadline");
        // Refill relative to "now": the event must land at 100us + 10ns,
        // not at 10ns (the pong then schedules one final ping +10ns).
        eng.sched.after(SimDuration::from_nanos(10), Ev::Pong);
        eng.run_until(SimTime::from_micros(200));
        let base = SimTime::from_micros(100).as_nanos();
        assert_eq!(
            eng.world.log,
            [(0, "ping"), (base + 10, "pong"), (base + 20, "ping")]
        );
    }

    #[test]
    fn past_time_scheduling_clamps_to_now_in_all_profiles() {
        // `Scheduler::at` with a past timestamp must not reorder the
        // simulation (it used to be only a debug_assert, so release
        // builds silently violated event ordering).
        struct Rewinder {
            log: Vec<(u64, u32)>,
        }
        impl World for Rewinder {
            type Event = u32;
            fn handle<Q: Queue<u32>>(
                &mut self,
                now: SimTime,
                ev: u32,
                sched: &mut Scheduler<u32, Q>,
            ) {
                self.log.push((now.as_nanos(), ev));
                if ev == 0 {
                    // Attempt to schedule 50ns into the past.
                    sched.at(SimTime::from_nanos(50), 1);
                }
            }
        }
        let mut eng = Engine::new(Rewinder { log: vec![] });
        eng.sched.at(SimTime::from_nanos(100), 0);
        eng.run_to_completion();
        // The past event fired at now (100), not at 50, and after the
        // event that scheduled it.
        assert_eq!(eng.world.log, [(100, 0), (100, 1)]);
        assert_eq!(eng.now().as_nanos(), 100);
    }

    #[test]
    fn stall_watchdog_catches_zero_time_loop() {
        // A world that reschedules itself at the same instant forever:
        // without the watchdog, `run_to_completion` never returns.
        struct Spinner;
        impl World for Spinner {
            type Event = ();
            fn handle<Q: Queue<()>>(&mut self, _: SimTime, _: (), sched: &mut Scheduler<(), Q>) {
                sched.immediately(());
            }
        }
        let mut eng = Engine::new(Spinner);
        eng.stall_limit = Some(1000);
        eng.sched.at(SimTime::from_nanos(42), ());
        let out = eng.run_to_completion();
        assert_eq!(
            out,
            RunOutcome::Stalled {
                at: SimTime::from_nanos(42)
            }
        );
    }

    #[test]
    fn stall_watchdog_resets_when_clock_advances() {
        // Legitimate same-time bursts (FIFO fan-out) shorter than the
        // limit must never trip the watchdog, however many of them occur.
        struct Burst {
            bursts_left: u32,
        }
        impl World for Burst {
            type Event = u32;
            fn handle<Q: Queue<u32>>(
                &mut self,
                _: SimTime,
                ev: u32,
                sched: &mut Scheduler<u32, Q>,
            ) {
                if ev > 0 {
                    sched.immediately(ev - 1); // burst of `ev` same-time events
                } else if self.bursts_left > 0 {
                    self.bursts_left -= 1;
                    sched.after(SimDuration::from_nanos(5), 8);
                }
            }
        }
        let mut eng = Engine::new(Burst { bursts_left: 100 });
        eng.stall_limit = Some(10); // > burst length 9, < total events
        eng.sched.immediately(8);
        let out = eng.run_to_completion();
        assert!(matches!(out, RunOutcome::QueueEmpty { .. }), "{out:?}");
    }

    #[test]
    fn profiling_counts_events_without_changing_results() {
        let run = |profiled: bool| {
            let mut eng = Engine::new(PingPong {
                remaining: 100,
                log: vec![],
            });
            if profiled {
                eng.enable_profiling();
            }
            eng.sched.immediately(Ev::Ping);
            eng.run_to_completion();
            let profile = eng.profile();
            (eng.world.log, profile)
        };
        let (plain_log, plain_profile) = run(false);
        let (prof_log, prof_profile) = run(true);
        assert_eq!(plain_log, prof_log, "profiling must not perturb the run");
        assert!(plain_profile.is_none());
        let p = prof_profile.expect("profile collected");
        assert_eq!(p.events as usize, prof_log.len());
        assert!(p.wall_nanos > 0);
        assert!(p.events_per_sec() > 0.0);
    }

    #[test]
    fn scheduler_immediately_runs_at_same_time_in_fifo_order() {
        struct Fanout {
            log: Vec<u32>,
        }
        impl World for Fanout {
            type Event = u32;
            fn handle<Q: Queue<u32>>(
                &mut self,
                _now: SimTime,
                ev: u32,
                sched: &mut Scheduler<u32, Q>,
            ) {
                self.log.push(ev);
                if ev == 0 {
                    sched.immediately(1);
                    sched.immediately(2);
                }
            }
        }
        let mut eng = Engine::new(Fanout { log: vec![] });
        eng.sched.immediately(0);
        eng.run_to_completion();
        assert_eq!(eng.world.log, [0, 1, 2]);
        assert_eq!(eng.now(), SimTime::ZERO);
    }

    #[test]
    fn per_event_dispatch_matches_batched() {
        // The same world driven with batching on (default) and off must
        // produce identical logs, clocks and dispatch counts.
        let drive = |batched: bool| {
            let mut eng = Engine::new(PingPong {
                remaining: 500,
                log: vec![],
            });
            eng.batched = batched;
            eng.sched.immediately(Ev::Ping);
            let out = eng.run_to_completion();
            assert!(matches!(out, RunOutcome::QueueEmpty { .. }));
            let (now, total) = (eng.now(), eng.sched.dispatched_total());
            (eng.world.log, now, total)
        };
        assert_eq!(drive(true), drive(false));
    }

    #[test]
    fn batched_dispatch_keeps_fifo_across_nested_fanout() {
        // Events scheduled during a batch at the same timestamp must run
        // after the whole batch, in scheduling order — exactly as they
        // would under per-event dispatch.
        struct Nest {
            log: Vec<u32>,
        }
        impl World for Nest {
            type Event = u32;
            fn handle<Q: Queue<u32>>(
                &mut self,
                _now: SimTime,
                ev: u32,
                sched: &mut Scheduler<u32, Q>,
            ) {
                self.log.push(ev);
                if ev < 10 {
                    sched.immediately(ev * 10 + 1);
                    sched.immediately(ev * 10 + 2);
                }
            }
        }
        let drive = |batched: bool| {
            let mut eng = Engine::new(Nest { log: vec![] });
            eng.batched = batched;
            eng.sched.immediately(1);
            eng.sched.immediately(2);
            eng.run_to_completion();
            eng.world.log
        };
        let batched = drive(true);
        assert_eq!(batched, drive(false));
        assert_eq!(batched, [1, 2, 11, 12, 21, 22]);
    }

    #[test]
    fn stall_watchdog_identical_under_batching() {
        struct Spinner;
        impl World for Spinner {
            type Event = ();
            fn handle<Q: Queue<()>>(&mut self, _: SimTime, _: (), sched: &mut Scheduler<(), Q>) {
                sched.immediately(());
            }
        }
        for batched in [true, false] {
            let mut eng = Engine::new(Spinner);
            eng.batched = batched;
            eng.stall_limit = Some(1000);
            eng.sched.at(SimTime::from_nanos(42), ());
            let out = eng.run_to_completion();
            assert_eq!(
                out,
                RunOutcome::Stalled {
                    at: SimTime::from_nanos(42)
                },
                "batched={batched}"
            );
        }
    }

    #[test]
    fn profile_reports_batch_statistics() {
        // Fanout produces one 1-event slot and one 2-event slot.
        struct Fanout;
        impl World for Fanout {
            type Event = u32;
            fn handle<Q: Queue<u32>>(
                &mut self,
                _now: SimTime,
                ev: u32,
                sched: &mut Scheduler<u32, Q>,
            ) {
                if ev == 0 {
                    sched.immediately(1);
                    sched.immediately(2);
                }
            }
        }
        let mut eng = Engine::new(Fanout);
        eng.enable_profiling();
        eng.sched.immediately(0);
        eng.run_to_completion();
        let p = eng.profile().expect("profiling on");
        assert_eq!(p.events, 3);
        assert_eq!(p.batches, 2);
        assert_eq!(p.max_batch, 2);
        assert!((p.mean_batch() - 1.5).abs() < 1e-12);
        // Per-event dispatch reports zero batches.
        let mut eng = Engine::new(Fanout);
        eng.batched = false;
        eng.enable_profiling();
        eng.sched.immediately(0);
        eng.run_to_completion();
        let p = eng.profile().expect("profiling on");
        assert_eq!((p.events, p.batches, p.max_batch), (3, 0, 0));
        assert_eq!(p.mean_batch(), 0.0);
    }

    #[test]
    fn heap_engine_matches_wheel_engine() {
        // The same world driven by both queue implementations must
        // produce identical logs, clocks and dispatch counts.
        fn drive<Q: Queue<Ev>>(mut eng: Engine<PingPong, Q>) -> (Vec<(u64, &'static str)>, u64) {
            eng.sched.immediately(Ev::Ping);
            eng.run_to_completion();
            (eng.world.log, eng.sched.dispatched_total())
        }
        let mk = || PingPong {
            remaining: 1000,
            log: vec![],
        };
        let wheel = drive(Engine::new(mk()));
        let heap = drive(Engine::<PingPong, BinaryHeapQueue<Ev>>::with_queue(mk()));
        assert_eq!(wheel, heap);
    }
}
