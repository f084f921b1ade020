//! Resume bit-identity: a run interrupted by checkpoint/restore must be
//! indistinguishable — in final metrics, in full serialized state, and
//! in its streamed telemetry bytes — from one that never stopped.
//!
//! The comparison discipline matters: both runs drive the identical
//! `run_to` slice schedule. For single hosts slicing is provably
//! neutral (the engine replays the same event sequence under any slice
//! boundaries), but sharing the schedule keeps these tests aligned with
//! the fleet case below, where the epoch grid derived from `run_to`
//! deadlines *is* part of the deterministic schedule and the campaign
//! runner therefore always drives fleets at its checkpoint cadence.
//!
//! The malformed-input half of the suite pins the robustness contract:
//! corrupt, truncated or version-skewed checkpoints come back as typed
//! [`SnapError`]s — never a panic, never a silently wrong restore.

use hostcc::fleet::{Fleet, FleetConfig, FleetTopology};
use hostcc::scenarios;
use hostcc::substrate::sim::{fnv1a_64, SimDuration, SimTime, SnapError, SNAP_VERSION};
use hostcc::{RunMetrics, Simulation, TelemetryConfig, TestbedConfig};

const WARMUP: SimDuration = SimDuration::from_millis(1);
const MEASURE: SimDuration = SimDuration::from_millis(2);
const MID: SimDuration = SimDuration::from_micros(500);

/// The six golden scenarios the differential suites pin down.
fn goldens() -> Vec<(&'static str, TestbedConfig)> {
    vec![
        ("incast", scenarios::fig3(12, true)),
        ("antagonist_0", scenarios::fig6(0, true)),
        ("antagonist_8", scenarios::fig6(8, true)),
        ("antagonist_15", scenarios::fig6(15, true)),
        ("baseline", scenarios::baseline()),
        ("blindspot", scenarios::cc_blindspot(14, 100)),
    ]
}

/// Everything a run can leak: the metric fields the figure tables are
/// built from (floats compared by bit pattern) plus the run's entire
/// final serialized state.
fn fingerprint(m: &RunMetrics, final_ckpt: &[u8]) -> (u64, u64, u64, u64, u64, u64, Vec<u8>) {
    (
        m.delivered_packets,
        m.delivered_payload_bytes,
        m.host_drops(),
        m.retransmits,
        m.iotlb_misses,
        m.host_delay_p99_us().to_bits(),
        final_ckpt.to_vec(),
    )
}

/// Drive one run over the shared slice schedule; when `interrupt` is
/// set, serialize at the mid-warm-up boundary and continue in a freshly
/// restored simulation.
fn run_sliced(cfg: &TestbedConfig, interrupt: bool) -> (u64, u64, u64, u64, u64, u64, Vec<u8>) {
    let mid = SimTime::ZERO + MID;
    let t1 = SimTime::ZERO + WARMUP;
    let t2 = t1 + MEASURE;
    let mut sim = Simulation::new(cfg.clone());
    sim.run_to(mid);
    if interrupt {
        let bytes = sim.save_checkpoint().expect("slot-boundary checkpoint");
        drop(sim);
        sim = Simulation::restore_checkpoint(cfg.clone(), &bytes).expect("valid checkpoint");
    }
    sim.run_to(t1);
    sim.world_mut().arm_metrics(t1);
    sim.run_to(t2);
    let m = sim.world_mut().snapshot(t2);
    let final_ckpt = sim.save_checkpoint().expect("final checkpoint");
    fingerprint(&m, &final_ckpt)
}

#[test]
fn six_goldens_resume_bit_identical() {
    for (name, cfg) in goldens() {
        let straight = run_sliced(&cfg, false);
        assert_eq!(straight, run_sliced(&cfg, false), "{name}: rerun diverged");
        let resumed = run_sliced(&cfg, true);
        assert_eq!(straight, resumed, "{name}: resumed run diverged");
    }
}

/// A `Write` sink capturing the telemetry JSONL stream in memory.
#[derive(Clone)]
struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Shared {
    fn new() -> Shared {
        Shared(std::sync::Arc::new(std::sync::Mutex::new(Vec::new())))
    }
    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().clone()
    }
}

/// The streamed telemetry JSONL of an interrupted run (bytes before the
/// checkpoint + bytes after the restore, through a fresh sink — sinks
/// are transient and deliberately not serialized) must concatenate to
/// exactly the uninterrupted run's stream, for every golden scenario.
#[test]
fn six_goldens_telemetry_stream_survives_resume_byte_identical() {
    let mid = SimTime::ZERO + MID;
    let t1 = SimTime::ZERO + WARMUP;
    let t2 = t1 + MEASURE;
    for (name, base) in goldens() {
        let mut cfg = base;
        cfg.telemetry = TelemetryConfig::enabled();

        let straight_sink = Shared::new();
        let mut sim = Simulation::new(cfg.clone());
        sim.world_mut()
            .telemetry
            .set_sink(Box::new(straight_sink.clone()));
        sim.run_to(mid);
        sim.run_to(t1);
        sim.world_mut().arm_metrics(t1);
        sim.run_to(t2);
        sim.world_mut().snapshot(t2);

        let before = Shared::new();
        let after = Shared::new();
        let mut sim = Simulation::new(cfg.clone());
        sim.world_mut().telemetry.set_sink(Box::new(before.clone()));
        sim.run_to(mid);
        let bytes = sim.save_checkpoint().expect("telemetry state serializes");
        let mut sim =
            Simulation::restore_checkpoint(cfg.clone(), &bytes).expect("valid checkpoint");
        sim.world_mut().telemetry.set_sink(Box::new(after.clone()));
        sim.run_to(t1);
        sim.world_mut().arm_metrics(t1);
        sim.run_to(t2);
        sim.world_mut().snapshot(t2);

        let mut stitched = before.bytes();
        stitched.extend_from_slice(&after.bytes());
        assert!(
            !stitched.is_empty(),
            "{name}: sampler must have streamed something"
        );
        assert_eq!(
            straight_sink.bytes(),
            stitched,
            "{name}: stitched telemetry stream must be byte-identical"
        );
    }
}

/// A small four-host coupled fleet for the multi-host round trip.
fn small_fleet() -> FleetConfig {
    FleetConfig {
        hosts: 4,
        shards: 1,
        base: TestbedConfig {
            senders: 6,
            receiver_threads: 4,
            ..TestbedConfig::default()
        },
        ..FleetConfig::coupled_fleet()
    }
}

/// Fleet resume bit-identity at one and four shards. The reference run
/// shares the interrupted run's slice schedule: fleet epoch grids clamp
/// at every `run_to` deadline, so the slice schedule is part of the
/// deterministic contract (this is why the campaign runner drives
/// fleets on its checkpoint cadence whether or not it writes one).
#[test]
fn fleet_resume_bit_identical_at_one_and_four_shards() {
    let cfg = small_fleet();
    let mid = SimTime::ZERO + MID;
    let t1 = SimTime::ZERO + WARMUP;
    let t2 = t1 + MEASURE;

    type HostFingerprint = (u64, u64, u64, u64);
    let finish = |fleet: &mut Fleet| -> (Vec<HostFingerprint>, Vec<u8>) {
        fleet.run_to(t1).expect("no stalls");
        for h in fleet.hosts_mut() {
            h.sim_mut().world_mut().arm_metrics(t1);
        }
        fleet.run_to(t2).expect("no stalls");
        let per_host = fleet
            .hosts_mut()
            .iter_mut()
            .map(|h| {
                let m = h.sim_mut().world_mut().snapshot(t2);
                (
                    m.delivered_packets,
                    m.host_drops(),
                    m.retransmits,
                    m.host_delay_p99_us().to_bits(),
                )
            })
            .collect();
        let ckpt = fleet.save_checkpoint().expect("final fleet checkpoint");
        (per_host, ckpt)
    };

    let mut reference = Fleet::new(&cfg).expect("valid fleet");
    reference.run_to(mid).expect("no stalls");
    let expected = finish(&mut reference);

    let mut interrupted = Fleet::new(&cfg).expect("valid fleet");
    interrupted.run_to(mid).expect("no stalls");
    let bytes = interrupted.save_checkpoint().expect("fleet checkpoint");

    for shards in [1u32, 4u32] {
        let mut restore_cfg = cfg.clone();
        restore_cfg.shards = shards;
        let mut fleet = Fleet::restore_checkpoint(&restore_cfg, &bytes).expect("valid checkpoint");
        let got = finish(&mut fleet);
        assert_eq!(
            expected.0, got.0,
            "per-host metrics diverged at {shards} shard(s)"
        );
        assert_eq!(
            expected.1, got.1,
            "final fleet state diverged at {shards} shard(s)"
        );
    }
}

/// Malformed checkpoints are typed errors, never panics, and never
/// silent misrestores — for every kind of damage the crash model can
/// inflict: bit rot, truncation at any prefix, format-version skew,
/// wrong-config replay, and garbage.
#[test]
fn malformed_checkpoints_fail_typed_not_panicking() {
    let cfg = scenarios::fig3(8, true);
    let mut sim = Simulation::new(cfg.clone());
    sim.run_to(SimTime::ZERO + MID);
    let good = sim.save_checkpoint().expect("checkpoint");
    assert!(Simulation::restore_checkpoint(cfg.clone(), &good).is_ok());

    // Bit rot anywhere in the payload trips the envelope checksum.
    let mut rotten = good.clone();
    let mid = rotten.len() / 2;
    rotten[mid] ^= 0x10;
    assert!(matches!(
        Simulation::restore_checkpoint(cfg.clone(), &rotten),
        Err(SnapError::Checksum) | Err(SnapError::Corrupt(_))
    ));

    // Truncation at every prefix length over a stride: typed, no panic.
    for cut in (0..good.len()).step_by(good.len() / 23 + 1) {
        assert!(
            Simulation::restore_checkpoint(cfg.clone(), &good[..cut]).is_err(),
            "truncation to {cut} bytes must fail typed"
        );
    }

    // Format-version skew (bytes 8..12 hold the little-endian version).
    let mut future = good.clone();
    future[8] = future[8].wrapping_add(1);
    match Simulation::restore_checkpoint(cfg.clone(), &future) {
        Err(SnapError::BadVersion { found, expected }) => {
            assert_ne!(found, expected);
        }
        other => panic!("expected BadVersion, got {other:?}", other = other.err()),
    }

    // Replaying against a different configuration is refused up front.
    let mut other_cfg = cfg.clone();
    other_cfg.seed ^= 1;
    assert!(matches!(
        Simulation::restore_checkpoint(other_cfg, &good),
        Err(SnapError::Corrupt(_))
    ));

    // Arbitrary garbage is a bad magic, not a crash.
    assert!(matches!(
        Simulation::restore_checkpoint(cfg, b"not a checkpoint at all"),
        Err(SnapError::BadMagic) | Err(SnapError::Eof) | Err(SnapError::Truncated)
    ));
}

/// The image layout is pinned: each golden's mid-warm-up checkpoint
/// hashes to a recorded digest under the current format version. A
/// layout change that forgets to bump `SNAP_VERSION` fails here; a bump
/// must re-record the table.
#[test]
fn golden_checkpoint_images_are_pinned_to_the_format_version() {
    // incast, antagonist_0 and baseline are the same configuration.
    const PINNED: [(&str, u32, u64); 6] = [
        ("incast", 3, 0x958e_6f76_e260_ed42),
        ("antagonist_0", 3, 0x958e_6f76_e260_ed42),
        ("antagonist_8", 3, 0xa77d_c8ce_85b8_7ab7),
        ("antagonist_15", 3, 0xc6cb_35d9_89d7_eb33),
        ("baseline", 3, 0x958e_6f76_e260_ed42),
        ("blindspot", 3, 0xc38f_ef47_bc25_0221),
    ];
    for ((name, cfg), (pinned_name, version, digest)) in goldens().into_iter().zip(PINNED) {
        assert_eq!(name, pinned_name);
        let mut sim = Simulation::new(cfg);
        sim.run_to(SimTime::ZERO + MID);
        let image = sim.save_checkpoint().expect("slot-boundary checkpoint");
        assert_eq!(
            (SNAP_VERSION, fnv1a_64(&image)),
            (version, digest),
            "{name}: checkpoint image changed"
        );
    }
}

/// Images the six fault-free, telemetry-off goldens leave unpinned: a
/// chaos run with telemetry on, checkpointed inside its open fault window
/// (open-window bookkeeping, fault aggregates, recovery tracker, sampler
/// and detector all in the image), and a 2-host coupled fleet (fabric
/// ports, remote flow slots and the fleet envelope).
#[test]
fn fault_telemetry_and_fleet_images_are_pinned_to_the_format_version() {
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let mut cfg = scenarios::chaos_replay();
    cfg.telemetry = TelemetryConfig::enabled();
    let mut sim = Simulation::new(cfg);
    sim.run_to(at(6_000));
    sim.world_mut().arm_metrics(at(6_000));
    sim.run_to(at(6_900));
    assert!(sim.world().faults.open_windows() > 0);
    let image = sim.save_checkpoint().expect("slot-boundary checkpoint");
    assert_eq!(
        (SNAP_VERSION, fnv1a_64(&image)),
        (3, 0x33f3_628a_75c9_71b2),
        "chaos_replay: checkpoint image changed"
    );

    // Fan-in 1 on a 2-ring: each host both sends to and receives from
    // the other, so every remote slot role is in the image.
    let cfg = FleetConfig {
        hosts: 2,
        topology: FleetTopology::FaninRing { fanin: 1 },
        ..small_fleet()
    };
    let mut fleet = Fleet::new(&cfg).expect("valid fleet");
    fleet.run_to(SimTime::ZERO + WARMUP).expect("no stalls");
    for h in fleet.hosts_mut() {
        h.sim_mut().world_mut().arm_metrics(SimTime::ZERO + WARMUP);
    }
    fleet
        .run_to(SimTime::ZERO + WARMUP + MID)
        .expect("no stalls");
    let image = fleet.save_checkpoint().expect("fleet checkpoint");
    assert_eq!(
        (SNAP_VERSION, fnv1a_64(&image)),
        (3, 0x737a_945f_a5c9_08cf),
        "2-host fleet: checkpoint image changed"
    );
}

/// Run `cfg` with metrics armed at `arm`, a checkpoint boundary at `ck`
/// and the end at `end`; when `interrupt` is set, the run continues from
/// a restored copy at `ck`. `at_ck` inspects the live simulation at the
/// boundary (so a test can assert what state the checkpoint captures).
fn run_through(
    cfg: &TestbedConfig,
    (arm, ck, end): (SimTime, SimTime, SimTime),
    interrupt: bool,
    at_ck: impl Fn(&Simulation),
) -> (u64, u64, u64, u64, u64, u64, Vec<u8>) {
    let mut sim = Simulation::new(cfg.clone());
    sim.run_to(arm);
    sim.world_mut().arm_metrics(arm);
    sim.run_to(ck);
    at_ck(&sim);
    if interrupt {
        let bytes = sim.save_checkpoint().expect("slot-boundary checkpoint");
        sim = Simulation::restore_checkpoint(cfg.clone(), &bytes).expect("valid checkpoint");
    }
    sim.run_to(end);
    let m = sim.world_mut().snapshot(end);
    let final_ckpt = sim.save_checkpoint().expect("final checkpoint");
    fingerprint(&m, &final_ckpt)
}

/// A restore inside an open fault window (the chaos windows open at
/// 6 ms and last 1 ms) resumes bit-identically: the open-window
/// bookkeeping, the cached fault aggregates and the recovery tracker all
/// ride in the image.
#[test]
fn restore_inside_a_fault_window_is_bit_identical() {
    let at = |us: u64| SimTime::ZERO + SimDuration::from_micros(us);
    let span = (at(6_000), at(6_900), at(7_400));
    for (name, cfg) in [
        ("chaos_replay", scenarios::chaos_replay()),
        ("chaos_flap", scenarios::chaos_flap()),
    ] {
        let in_window = |sim: &Simulation| {
            assert!(
                sim.world().faults.open_windows() > 0,
                "{name}: the checkpoint must fall inside a fault window"
            );
        };
        let straight = run_through(&cfg, span, false, in_window);
        let resumed = run_through(&cfg, span, true, in_window);
        assert_eq!(
            straight, resumed,
            "{name}: resume inside a fault window diverged"
        );
    }
}

/// A restore while a telemetry episode is open resumes bit-identically,
/// including the detector's in-progress episode accumulator.
#[test]
fn restore_during_an_open_telemetry_episode_is_bit_identical() {
    let mut cfg = scenarios::cc_blindspot(14, 100);
    cfg.telemetry = TelemetryConfig::enabled();
    // Find the first 50 µs boundary at which an episode is open.
    let step = SimDuration::from_micros(50);
    let mut probe = Simulation::new(cfg.clone());
    let mut ck = SimTime::ZERO;
    while probe
        .world()
        .telemetry
        .detector()
        .open_episode(ck.as_nanos())
        .is_none()
    {
        assert!(ck < SimTime::ZERO + WARMUP + MEASURE, "no episode opened");
        ck += step;
        probe.run_to(ck);
    }
    let span = (SimTime::ZERO, ck, ck + MID);
    let episode_open = |sim: &Simulation| {
        let t = &sim.world().telemetry;
        assert!(t.detector().open_episode(ck.as_nanos()).is_some());
    };
    let straight = run_through(&cfg, span, false, episode_open);
    let resumed = run_through(&cfg, span, true, episode_open);
    assert_eq!(straight, resumed, "resume with an open episode diverged");
}

/// A coupled fleet restored at a `run_to` deadline off the 8 µs
/// lookahead grid (an odd nanosecond count) resumes bit-identically.
#[test]
fn fleet_restored_off_the_lookahead_grid_is_bit_identical() {
    let cfg = small_fleet();
    let ck = SimTime::ZERO + MID + SimDuration::from_nanos(3_217);
    let end = ck + MID;
    let finish = |fleet: &mut Fleet| {
        fleet.run_to(end).expect("no stalls");
        fleet.save_checkpoint().expect("final fleet checkpoint")
    };
    let mut reference = Fleet::new(&cfg).expect("valid fleet");
    reference.run_to(ck).expect("no stalls");
    let expected = finish(&mut reference);

    let mut interrupted = Fleet::new(&cfg).expect("valid fleet");
    interrupted.run_to(ck).expect("no stalls");
    let bytes = interrupted.save_checkpoint().expect("fleet checkpoint");
    drop(interrupted);
    let mut restored = Fleet::restore_checkpoint(&cfg, &bytes).expect("valid checkpoint");
    assert_eq!(
        expected,
        finish(&mut restored),
        "fleet resume off-grid diverged"
    );
}
