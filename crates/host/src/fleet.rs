//! The [`ShardHost`] adapter: one started [`Simulation`] as a member of
//! a parallel fleet.
//!
//! A `FleetHost` is exactly a single-host simulation (same engine, same
//! wheel, same world) plus the three parallel-engine hooks: peek the
//! next event time, advance a lookahead-bounded slice, and move fabric
//! envelopes in and out. A one-host fleet therefore executes the
//! identical event sequence a serial [`Simulation`] would — the
//! `--shards 1 == serial` bit-identity the differential tests pin down.

use crate::error::RunError;
use crate::interhost::WireMsg;
use crate::world::{Event, Simulation};
use hostcc_sim::{Envelope, RunOutcome, ShardHost, SimTime};

/// One fleet member: a started testbed simulation driven in epoch slices.
pub struct FleetHost {
    sim: Simulation,
    /// The first watchdog trip's error, if any, built at the stall. A
    /// stalled host is withdrawn from the epoch computation (it reports
    /// no pending events and stops advancing) so the fleet run can
    /// terminate and surface the error instead of spinning on a frozen
    /// clock.
    stalled: Option<RunError>,
}

// A stalled fleet is never checkpointed, so the watchdog record is not
// in the image.
hostcc_sim::snap_fields!(FleetHost { sim } skip { stalled });

impl FleetHost {
    /// Wrap a started simulation (wire remote flows before starting it;
    /// see `Testbed::enable_fabric` / `Simulation::from_testbed`).
    pub fn new(sim: Simulation) -> Self {
        FleetHost { sim, stalled: None }
    }

    /// The wrapped simulation.
    pub fn sim(&self) -> &Simulation {
        &self.sim
    }

    /// Mutable access (arming metrics, installing telemetry sinks).
    pub fn sim_mut(&mut self) -> &mut Simulation {
        &mut self.sim
    }

    /// When the host's progress watchdog tripped, the frozen instant.
    /// A stalled host cannot be checkpointed (its queue is mid-abort).
    pub fn stalled_at(&self) -> Option<SimTime> {
        match self.stalled {
            Some(RunError::Stalled { at, .. }) => Some(at),
            _ => None,
        }
    }

    /// Check the host for a tripped progress watchdog: the error
    /// [`Simulation::stall_error`] built when it tripped.
    pub fn check_stalled(&self) -> Result<(), RunError> {
        self.stalled.clone().map_or(Ok(()), Err)
    }
}

impl ShardHost for FleetHost {
    type Msg = WireMsg;

    fn next_event_time(&self) -> Option<SimTime> {
        if self.stalled.is_some() {
            return None;
        }
        self.sim.peek_time()
    }

    fn next_send_time(&self) -> Option<SimTime> {
        if self.stalled.is_some() {
            return None;
        }
        // An uncoupled host (no fabric, or no remote flows wired) can
        // never emit an envelope — withdrawing it from the epoch bound
        // lets the engine batch lookahead windows into super-epochs.
        // A coupled host promises nothing beyond its next event: any
        // dispatched event may push a packet into the fabric outbox, and
        // a wrong promise here would silently break bit-identity. The
        // coupling answer is fixed at wiring time, so this is a pure
        // function of host state (it cannot flip mid-run and perturb
        // the deterministic epoch grid).
        if self.sim.world().coupled() {
            self.sim.peek_time()
        } else {
            None
        }
    }

    fn dispatched(&self) -> u64 {
        self.sim.dispatched_total()
    }

    fn advance_to(&mut self, deadline: SimTime) {
        if self.stalled.is_some() {
            return;
        }
        if let RunOutcome::Stalled { at } = self.sim.run_to(deadline) {
            self.stalled = Some(self.sim.stall_error(at));
        }
    }

    fn take_outbound(&mut self, out: &mut Vec<Envelope<WireMsg>>) {
        self.sim.world_mut().take_outbound(out);
    }

    fn deliver(&mut self, env: Envelope<WireMsg>) {
        self.sim.world_mut().push_inbound(env.msg);
        self.sim.schedule_at(env.fire, Event::RemoteArrival);
    }
}
