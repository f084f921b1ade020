//! The discrete-event execution loop.
//!
//! A simulation is a `World` (all mutable component state) plus an event
//! queue. The engine pops the earliest event, advances the clock and
//! hands the event to the world, which may schedule further events through
//! the [`Scheduler`] it receives. This mirrors the poll-driven style of
//! event-driven network stacks: components are plain state machines and all
//! control flow is explicit.
//!
//! The queue is the timing wheel ([`EventQueue`]), and dispatch is one
//! event per loop iteration: handler work, not queue work, dominates the
//! cost of an event, and the wheel's drain list already amortises its
//! per-slot work across the events of a slot (see DESIGN.md, "Per-event
//! dispatch").

use crate::time::{Resolution, SimDuration, SimTime};
use crate::EventQueue;

/// Handle through which event handlers schedule future events.
pub struct Scheduler<E> {
    now: SimTime,
    queue: EventQueue<E>,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// An empty scheduler at time zero.
    pub(crate) fn new() -> Self {
        Self::with_resolution(Resolution::EXACT)
    }

    /// An empty scheduler whose queue quantises event timestamps up to
    /// the given resolution grid (identity at [`Resolution::EXACT`]).
    pub(crate) fn with_resolution(res: Resolution) -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: EventQueue::with_resolution(res),
        }
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

crate::snap_fields!(impl[E: Clone + crate::Snap] Scheduler<E> { now, queue });

/// The mutable simulation state and its event handler.
pub trait World {
    /// The event type this world handles.
    type Event;

    /// Handle one event at time `now`. May schedule more via `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
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
/// were handled and how much real time the event loop consumed, plus the
/// shape of same-instant runs. Purely observational — profiling never
/// alters simulation behaviour, only reads the host clock around
/// `run_until` calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct DispatchProfile {
    /// Events dispatched while profiling was enabled.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside `run_until`.
    pub wall_nanos: u64,
    /// Distinct dispatch instants: runs of consecutive events at one
    /// timestamp, counted once per run (a run that spans two `run_until`
    /// calls counts in each).
    pub batches: u64,
    /// Longest run of consecutive events dispatched at one instant.
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

    /// Mean events per dispatch instant (0 when nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.events as f64 / self.batches as f64
    }
}

/// Drives a `World` and its scheduler.
pub struct Engine<W: World> {
    /// The simulation state.
    pub world: W,
    /// The clock and event queue.
    pub sched: Scheduler<W::Event>,
    /// Progress watchdog: maximum consecutive events at one timestamp
    /// before the run aborts with [`RunOutcome::Stalled`] (default: no
    /// limit). Same-time bursts are normal (FIFO fan-out), so set this
    /// well above any legitimate burst — the harness uses one million.
    pub stall_limit: Option<u64>,
    /// Dispatch profiling accumulator (`None` = off, the default).
    profile: Option<DispatchProfile>,
}

// A simulation's image is its clock and pending events, then its world;
// the watchdog and the profiler are engine settings, not state.
crate::snap_fields!(impl[W: World<Event = E> + crate::Snap, E: Clone + crate::Snap] Engine<W> {
    sched, world,
} skip { stall_limit, profile });

impl<W: World> Engine<W> {
    /// An engine with an empty queue wrapping `world`.
    pub fn new(world: W) -> Self {
        Self::with_resolution(world, Resolution::EXACT)
    }

    /// An engine whose queue quantises event timestamps up to `res`
    /// (identity at [`Resolution::EXACT`]).
    pub fn with_resolution(world: W, res: Resolution) -> Self {
        Engine {
            world,
            sched: Scheduler::with_resolution(res),
            stall_limit: None,
            profile: None,
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
    /// time when the deadline is `SimTime::MAX`, i.e. for
    /// [`run_to_completion`](Self::run_to_completion)) — even when the
    /// queue drained early. Callers that alternate drain/refill thus
    /// anchor subsequent relative scheduling at the deadline, not at
    /// whatever instant the last event happened to fire.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        let start = self.profile.is_some().then(std::time::Instant::now);
        let dispatched_before = self.sched.queue.dispatched_total();
        // Progress watchdog and run statistics: `run` counts consecutive
        // dispatches at one timestamp; any clock advance starts a new run.
        let mut run = 0u64;
        let mut instants = 0u64;
        let mut longest = 0u64;
        let out = loop {
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
                break RunOutcome::QueueEmpty { at };
            };
            if t > deadline {
                self.sched.now = deadline;
                break RunOutcome::DeadlineReached;
            }
            let (t, ev) = self.sched.queue.pop().expect("peeked");
            // Defence in depth (the queue clamps on push already): never
            // let the clock move backwards, in any build profile.
            let t = t.max(self.sched.now);
            if run == 0 || t > self.sched.now {
                longest = longest.max(run);
                instants += 1;
                run = 0;
            }
            run += 1;
            if self.stall_limit.is_some_and(|limit| run > limit) {
                break RunOutcome::Stalled { at: t };
            }
            self.sched.now = t;
            self.world.handle(t, ev, &mut self.sched);
        };
        if let (Some(p), Some(start)) = (self.profile.as_mut(), start) {
            p.events += self.sched.queue.dispatched_total() - dispatched_before;
            p.wall_nanos += start.elapsed().as_nanos() as u64;
            p.batches += instants;
            p.max_batch = p.max_batch.max(longest.max(run));
        }
        out
    }

    /// Run until the queue is empty (or the watchdog trips).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
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
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
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
            fn handle(&mut self, _: SimTime, _: (), sched: &mut Scheduler<()>) {
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
            fn handle(&mut self, _: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
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
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
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
    fn nested_fanout_runs_in_fifo_order() {
        // Events scheduled at the current instant run after every event
        // already pending at it, in scheduling order.
        struct Nest {
            log: Vec<u32>,
        }
        impl World for Nest {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.log.push(ev);
                if ev < 10 {
                    sched.immediately(ev * 10 + 1);
                    sched.immediately(ev * 10 + 2);
                }
            }
        }
        let mut eng = Engine::new(Nest { log: vec![] });
        eng.sched.immediately(1);
        eng.sched.immediately(2);
        eng.run_to_completion();
        assert_eq!(eng.world.log, [1, 2, 11, 12, 21, 22]);
    }

    #[test]
    fn profile_reports_batch_statistics() {
        // The root and its two same-time children share one instant.
        struct Fanout;
        impl World for Fanout {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
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
        assert_eq!((p.events, p.batches, p.max_batch), (3, 1, 3));
        assert_eq!(p.mean_batch(), 3.0);
        assert_eq!(DispatchProfile::default().mean_batch(), 0.0);
    }

    #[test]
    fn profile_counts_dispatch_instants_on_fanout() {
        // t = 0: a root fanning out two generations (1 + 2 + 4 events);
        // t = 10: one event; t = 20: a run of three.
        struct Fanout;
        impl World for Fanout {
            type Event = u32;
            fn handle(&mut self, _now: SimTime, gen: u32, sched: &mut Scheduler<u32>) {
                if gen < 2 {
                    sched.immediately(gen + 1);
                    sched.immediately(gen + 1);
                }
                if gen == 0 {
                    sched.after(SimDuration::from_nanos(10), 10);
                    for _ in 0..3 {
                        sched.after(SimDuration::from_nanos(20), 20);
                    }
                }
            }
        }
        // Slicing the run at instants already dispatched must not split
        // or merge any instant.
        for slices in [&[][..], &[0, 10], &[5, 15, 25]] {
            let mut eng = Engine::new(Fanout);
            eng.enable_profiling();
            eng.sched.immediately(0);
            for &d in slices {
                eng.run_until(SimTime::from_nanos(d));
            }
            eng.run_to_completion();
            let p = eng.profile().expect("profiling on");
            assert_eq!(
                (p.events, p.batches, p.max_batch),
                (11, 3, 7),
                "slices {slices:?}"
            );
        }
    }
}
