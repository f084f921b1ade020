//! The campaign manifest: a small line-based text format describing a
//! scenario × seed × fault × override grid.
//!
//! ```text
//! # smoke.campaign — anything after '#' is a comment
//! name = smoke
//! warmup_ms = 5
//! measure_ms = 10
//! checkpoint_every_ms = 5
//! scenarios = incast, antagonist-8, fleet
//! seeds = 1, 2
//! faults = none, replay
//! overrides = none, threads=4;iommu=off
//! fleet_hosts = 32, 64          # expands the `fleet` scenario only
//! fleet_shards = 1, 4
//! fleet_topology = tree:4, rack:16
//! ```
//!
//! The grid is the cartesian product in deterministic nesting order
//! (scenario outermost, override innermost), so point labels and the
//! completion journal are stable across re-parses — the property resume
//! depends on. The `fleet` scenario expands through three extra axes
//! (hosts × shards × topology) nested between the scenario and the seed;
//! the other scenarios ignore them.

use crate::CampaignError;
use hostcc::fleet::{FleetConfig, FleetTopology};
use hostcc::scenarios;
use hostcc::TestbedConfig;
use hostcc_sim::SimDuration;
use std::path::Path;

/// A parsed campaign manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Campaign name (artifact prefix; informational).
    pub name: String,
    /// Simulated warm-up discarded from the metrics.
    pub(crate) warmup: SimDuration,
    /// Simulated measurement interval.
    pub(crate) measure: SimDuration,
    /// Checkpoint cadence in simulated time. Also the slice grid: the
    /// runner always drives runs in these slices (checkpoint or not) so
    /// an interrupted-and-resumed run replays the identical schedule.
    pub(crate) checkpoint_every: SimDuration,
    /// Scenario names (outermost grid axis): a name of
    /// [`scenarios::NAMED`], or `fleet`.
    pub(crate) scenarios: Vec<String>,
    /// RNG seeds.
    pub(crate) seeds: Vec<u64>,
    /// Fault-plan names (`none` for no faults).
    pub(crate) faults: Vec<String>,
    /// Config-override specs (`none` or `key=value[;key=value...]`, with
    /// the keys of [`scenarios::set`]).
    pub(crate) overrides: Vec<String>,
    /// Host counts the `fleet` scenario expands through.
    pub(crate) fleet_hosts: Vec<u32>,
    /// Shard (worker-thread) counts the `fleet` scenario expands through.
    pub(crate) fleet_shards: Vec<u32>,
    /// Topology specs (`ring:K`, `tree:K`, `rack:K`) the `fleet`
    /// scenario expands through.
    pub(crate) fleet_topologies: Vec<String>,
}

/// One grid point: everything needed to build its configuration and to
/// name its artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Position in the deterministic grid order.
    pub(crate) index: usize,
    /// Scenario name.
    pub(crate) scenario: String,
    /// RNG seed.
    pub(crate) seed: u64,
    /// Fault-plan name.
    pub(crate) fault: String,
    /// Index into [`Manifest::overrides`].
    pub(crate) override_idx: usize,
    /// The override spec itself.
    pub(crate) override_spec: String,
    /// Fleet axes, for points of the `fleet` scenario only.
    pub fleet: Option<FleetSpec>,
    /// Stable label: `{scenario}-s{seed}-{fault}-o{override_idx}`, with
    /// `-h{hosts}-x{shards}-{topology}` spliced after the scenario for
    /// fleet points (`:` becomes `.`). Restricted to `[a-z0-9.+=;-]`, so
    /// it is safe as a filename and needs no escaping inside the
    /// hand-rolled JSON artifacts.
    pub(crate) label: String,
}

/// The fleet axes of one `fleet` grid point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// Host count.
    pub(crate) hosts: u32,
    /// Worker-thread count.
    pub(crate) shards: u32,
    /// Topology spec as written in the manifest (`tree:4`, …).
    pub(crate) topology: String,
}

impl Manifest {
    /// Parse a manifest from text. Unknown keys, unparsable integers and
    /// unknown scenario/fault/override names are all typed errors.
    pub fn parse(text: &str) -> Result<Manifest, CampaignError> {
        let mut m = Manifest {
            name: "campaign".to_string(),
            warmup: SimDuration::from_millis(5),
            measure: SimDuration::from_millis(10),
            checkpoint_every: SimDuration::from_millis(5),
            scenarios: Vec::new(),
            seeds: vec![1],
            faults: vec!["none".to_string()],
            overrides: vec!["none".to_string()],
            fleet_hosts: vec![8],
            fleet_shards: vec![1],
            fleet_topologies: vec!["tree:4".to_string()],
        };
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(CampaignError::Manifest {
                    line: lineno,
                    reason: format!("expected `key = value`, got `{line}`"),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            let ms = |v: &str| -> Result<SimDuration, CampaignError> {
                v.parse::<u64>().map(SimDuration::from_millis).map_err(|_| {
                    CampaignError::Manifest {
                        line: lineno,
                        reason: format!("`{key}` wants an integer millisecond count, got `{v}`"),
                    }
                })
            };
            let list = |v: &str| -> Vec<String> {
                v.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(String::from)
                    .collect()
            };
            match key {
                "name" => m.name = value.to_string(),
                "warmup_ms" => m.warmup = ms(value)?,
                "measure_ms" => m.measure = ms(value)?,
                "checkpoint_every_ms" => m.checkpoint_every = ms(value)?,
                "scenarios" => m.scenarios = list(value),
                "faults" => m.faults = list(value),
                "overrides" => m.overrides = list(value),
                "seeds" => {
                    m.seeds = Vec::new();
                    for s in list(value) {
                        m.seeds
                            .push(s.parse::<u64>().map_err(|_| CampaignError::Manifest {
                                line: lineno,
                                reason: format!("`seeds` wants integers, got `{s}`"),
                            })?);
                    }
                }
                "fleet_hosts" | "fleet_shards" => {
                    let mut out = Vec::new();
                    for s in list(value) {
                        out.push(s.parse::<u32>().map_err(|_| CampaignError::Manifest {
                            line: lineno,
                            reason: format!("`{key}` wants integers, got `{s}`"),
                        })?);
                    }
                    if key == "fleet_hosts" {
                        m.fleet_hosts = out;
                    } else {
                        m.fleet_shards = out;
                    }
                }
                "fleet_topology" => {
                    for t in list(value) {
                        FleetTopology::parse(&t).map_err(|reason| CampaignError::Manifest {
                            line: lineno,
                            reason,
                        })?;
                    }
                    m.fleet_topologies = list(value);
                }
                other => {
                    return Err(CampaignError::Manifest {
                        line: lineno,
                        reason: format!("unknown key `{other}`"),
                    });
                }
            }
        }
        if m.scenarios.is_empty() {
            return Err(CampaignError::Manifest {
                line: 0,
                reason: "`scenarios` must list at least one scenario".to_string(),
            });
        }
        if m.seeds.is_empty() || m.faults.is_empty() || m.overrides.is_empty() {
            return Err(CampaignError::Manifest {
                line: 0,
                reason: "`seeds`, `faults` and `overrides` must be non-empty".to_string(),
            });
        }
        if m.checkpoint_every.as_nanos() == 0 || m.measure.as_nanos() == 0 {
            return Err(CampaignError::Manifest {
                line: 0,
                reason: "`checkpoint_every_ms` and `measure_ms` must be positive".to_string(),
            });
        }
        if m.scenarios.iter().any(|s| s == "fleet")
            && (m.fleet_hosts.is_empty() || m.fleet_shards.is_empty())
        {
            return Err(CampaignError::Manifest {
                line: 0,
                reason: "`fleet_hosts` and `fleet_shards` must be non-empty".to_string(),
            });
        }
        // Validate every grid point now, so a typo fails the whole
        // campaign up front instead of mid-run at point 37. Fleet points
        // get the full fleet validation (hosts/shards/topology bounds and
        // every derived host configuration).
        for p in m.points() {
            if p.fleet.is_some() {
                let cfg = m.build_fleet_config(&p)?;
                cfg.validate().map_err(|source| CampaignError::Run {
                    label: p.label.clone(),
                    source,
                })?;
            } else {
                m.build_config(&p)?;
            }
        }
        Ok(m)
    }

    /// Load and parse a manifest file.
    pub fn load(path: &Path) -> Result<Manifest, CampaignError> {
        let text = std::fs::read_to_string(path).map_err(|e| crate::io_err(path, e))?;
        Manifest::parse(&text)
    }

    /// The grid, in deterministic order: scenarios ▸ (fleet hosts ▸
    /// shards ▸ topology, for the `fleet` scenario) ▸ seeds ▸ faults ▸
    /// overrides, innermost fastest.
    pub fn points(&self) -> Vec<PointSpec> {
        let mut out = Vec::new();
        for scenario in &self.scenarios {
            let fleet_axes: Vec<Option<FleetSpec>> = if scenario == "fleet" {
                let mut axes = Vec::new();
                for &hosts in &self.fleet_hosts {
                    for &shards in &self.fleet_shards {
                        for topo in &self.fleet_topologies {
                            axes.push(Some(FleetSpec {
                                hosts,
                                shards,
                                topology: topo.clone(),
                            }));
                        }
                    }
                }
                axes
            } else {
                vec![None]
            };
            for fleet in &fleet_axes {
                let prefix = match fleet {
                    Some(f) => format!(
                        "{scenario}-h{}-x{}-{}",
                        f.hosts,
                        f.shards,
                        f.topology.replace(':', ".")
                    ),
                    None => scenario.clone(),
                };
                for &seed in &self.seeds {
                    for fault in &self.faults {
                        for (oi, ov) in self.overrides.iter().enumerate() {
                            let label = format!("{prefix}-s{seed}-{fault}-o{oi}");
                            out.push(PointSpec {
                                index: out.len(),
                                scenario: scenario.clone(),
                                seed,
                                fault: fault.clone(),
                                override_idx: oi,
                                override_spec: ov.clone(),
                                fleet: fleet.clone(),
                                label,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Find a grid point by label.
    pub(crate) fn find_point(&self, label: &str) -> Result<PointSpec, CampaignError> {
        self.points()
            .into_iter()
            .find(|p| p.label == label)
            .ok_or_else(|| CampaignError::UnknownPoint(label.to_string()))
    }

    /// Build the testbed configuration for one single-host grid point.
    /// Fleet points have no single testbed — use
    /// [`build_fleet_config`](Self::build_fleet_config) instead; asking
    /// for one here is a typed error (this is what `campaign bisect`,
    /// which is single-host only, reports for a fleet label).
    pub fn build_config(&self, p: &PointSpec) -> Result<TestbedConfig, CampaignError> {
        if p.fleet.is_some() {
            return Err(CampaignError::FleetPoint(p.label.clone()));
        }
        let mut cfg = scenarios::named(&p.scenario)
            .ok_or_else(|| CampaignError::UnknownScenario(p.scenario.clone()))?;
        customise(&mut cfg, p)?;
        cfg.seed = p.seed;
        Ok(cfg)
    }

    /// Build the fleet configuration for one `fleet` grid point: the
    /// light host profile on the point's hosts × shards × topology axes,
    /// with overrides and the fault plan applied to the per-host base
    /// template and the point's seed as the fleet seed.
    pub fn build_fleet_config(&self, p: &PointSpec) -> Result<FleetConfig, CampaignError> {
        let Some(f) = &p.fleet else {
            return Err(CampaignError::UnknownPoint(p.label.clone()));
        };
        let topology = FleetTopology::parse(&f.topology)
            .map_err(|reason| CampaignError::Manifest { line: 0, reason })?;
        let mut cfg = FleetConfig::light_fleet(f.hosts, f.shards);
        cfg.topology = topology;
        cfg.seed = p.seed;
        customise(&mut cfg.base, p)?;
        Ok(cfg)
    }
}

/// Apply a point's override spec (`none` or `key=value[;key=value...]`,
/// each through [`scenarios::set`]) and then its fault, the canned
/// recurring train of [`scenarios::add_fault_train`] (`none` adds
/// nothing).
fn customise(cfg: &mut TestbedConfig, p: &PointSpec) -> Result<(), CampaignError> {
    let spec = &p.override_spec;
    if spec != "none" {
        let bad = || CampaignError::BadOverride(spec.clone());
        for kv in spec.split(';').filter(|s| !s.is_empty()) {
            let (key, value) = kv.split_once('=').ok_or_else(bad)?;
            scenarios::set(cfg, key, value).map_err(|_| bad())?;
        }
    }
    if p.fault != "none" {
        scenarios::add_fault_train(cfg, &p.fault)
            .ok_or_else(|| CampaignError::UnknownFault(p.fault.clone()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
        # comment line\n\
        name = smoke\n\
        warmup_ms = 1\n\
        measure_ms = 2\n\
        checkpoint_every_ms = 1\n\
        scenarios = incast, antagonist-8\n\
        seeds = 1, 2\n\
        faults = none, replay\n\
        overrides = none, threads=4;iommu=off\n";

    #[test]
    fn parses_and_builds_the_full_grid() {
        let m = Manifest::parse(SMOKE).expect("valid manifest");
        assert_eq!(m.name, "smoke");
        assert_eq!(m.warmup, SimDuration::from_millis(1));
        let pts = m.points();
        assert_eq!(pts.len(), 2 * 2 * 2 * 2);
        // Deterministic order and stable labels.
        assert_eq!(pts[0].label, "incast-s1-none-o0");
        assert_eq!(pts[1].label, "incast-s1-none-o1");
        assert_eq!(pts[15].label, "antagonist-8-s2-replay-o1");
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(p.index, i);
            let cfg = m.build_config(p).expect("every point builds");
            assert_eq!(cfg.seed, p.seed);
        }
        // The override actually lands.
        let p = pts.iter().find(|p| p.override_idx == 1).unwrap();
        let cfg = m.build_config(p).unwrap();
        assert_eq!(cfg.receiver_threads, 4);
        assert!(!cfg.iommu.enabled);
        // The fault plan actually lands.
        let p = pts.iter().find(|p| p.fault == "replay").unwrap();
        let cfg = m.build_config(p).unwrap();
        assert!(!cfg.faults.specs.is_empty());
    }

    #[test]
    fn rejects_malformed_manifests() {
        let err = Manifest::parse("scenarios = incast\nbogus_key = 3\n").unwrap_err();
        assert!(
            matches!(err, CampaignError::Manifest { line: 2, .. }),
            "{err}"
        );
        let err = Manifest::parse("scenarios = incast\nseeds = x\n").unwrap_err();
        assert!(
            matches!(err, CampaignError::Manifest { line: 2, .. }),
            "{err}"
        );
        let err = Manifest::parse("name = empty\n").unwrap_err();
        assert!(matches!(err, CampaignError::Manifest { .. }), "{err}");
        let err = Manifest::parse("scenarios = warp-drive\n").unwrap_err();
        assert!(matches!(err, CampaignError::UnknownScenario(_)), "{err}");
        let err = Manifest::parse("scenarios = incast\nfaults = gremlin\n").unwrap_err();
        assert!(matches!(err, CampaignError::UnknownFault(_)), "{err}");
        let err = Manifest::parse("scenarios = incast\noverrides = depth=11\n").unwrap_err();
        assert!(matches!(err, CampaignError::BadOverride(_)), "{err}");
    }

    #[test]
    fn names_and_override_keys_come_from_the_scenario_table() {
        let sets = [
            ("region-mib", "8"),
            ("host-target-us", "50"),
            ("resolution", "64"),
            ("fuse-chains", "on"),
        ];
        let spec: Vec<String> = sets.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let m = Manifest::parse(&format!(
            "scenarios = fig4-4k, blindspot\nseeds = 3\noverrides = {}\n",
            spec.join(";")
        ))
        .expect("every table name and override key is accepted");
        for p in m.points() {
            let mut want = scenarios::named(&p.scenario).unwrap();
            for (key, value) in sets {
                scenarios::set(&mut want, key, value).unwrap();
            }
            want.seed = 3;
            let got = m.build_config(&p).unwrap();
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "{}", p.label);
        }
        let err = Manifest::parse("scenarios = warp-drive\n")
            .unwrap_err()
            .to_string();
        for (name, _) in scenarios::NAMED {
            assert!(err.contains(name), "{err}");
        }
        assert!(err.contains("fleet"), "{err}");
        let err = Manifest::parse("scenarios = incast\noverrides = iommu=maybe\n")
            .unwrap_err()
            .to_string();
        let keys: Vec<_> = scenarios::OVERRIDES.iter().map(|&(key, ..)| key).collect();
        assert!(err.contains(&keys.join("|")), "{err}");
    }

    #[test]
    fn fleet_scenario_expands_the_fleet_axes() {
        let m = Manifest::parse(
            "scenarios = incast, fleet\n\
             seeds = 1\n\
             fleet_hosts = 8, 12\n\
             fleet_shards = 1, 2\n\
             fleet_topology = tree:2, rack:4\n",
        )
        .expect("valid fleet manifest");
        let pts = m.points();
        // 1 incast point + 2 hosts × 2 shards × 2 topologies.
        assert_eq!(pts.len(), 1 + 8);
        assert_eq!(pts[0].label, "incast-s1-none-o0");
        assert!(pts[0].fleet.is_none());
        assert_eq!(pts[1].label, "fleet-h8-x1-tree.2-s1-none-o0");
        assert_eq!(
            pts[1].fleet,
            Some(FleetSpec {
                hosts: 8,
                shards: 1,
                topology: "tree:2".to_string(),
            })
        );
        assert_eq!(pts[8].label, "fleet-h12-x2-rack.4-s1-none-o0");
        for p in &pts[1..] {
            let cfg = m.build_fleet_config(p).expect("fleet point builds");
            assert_eq!(cfg.seed, p.seed);
            assert_eq!(cfg.hosts, p.fleet.as_ref().unwrap().hosts);
            assert_eq!(cfg.shards, p.fleet.as_ref().unwrap().shards);
            // Labels stay filename-safe: the `:` never reaches them.
            assert!(p
                .label
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "-.+=;".contains(c)));
            // A fleet point has no single-host config — typed error.
            assert!(matches!(
                m.build_config(p),
                Err(CampaignError::FleetPoint(_))
            ));
        }
    }

    #[test]
    fn fleet_axes_are_validated_at_parse_time() {
        let err = Manifest::parse("scenarios = fleet\nfleet_topology = warp:9\n").unwrap_err();
        assert!(
            matches!(err, CampaignError::Manifest { line: 2, .. }),
            "{err}"
        );
        let err = Manifest::parse("scenarios = fleet\nfleet_hosts = x\n").unwrap_err();
        assert!(
            matches!(err, CampaignError::Manifest { line: 2, .. }),
            "{err}"
        );
        // shards > hosts is caught by fleet validation before any run.
        let err =
            Manifest::parse("scenarios = fleet\nfleet_hosts = 2\nfleet_shards = 4\n").unwrap_err();
        assert!(matches!(err, CampaignError::Run { .. }), "{err}");
        // Non-fleet manifests ignore the axes entirely.
        let m = Manifest::parse("scenarios = incast\nfleet_hosts = 2\nfleet_shards = 4\n")
            .expect("axes unused without the fleet scenario");
        assert_eq!(m.points().len(), 1);
    }

    #[test]
    fn find_point_round_trips_labels() {
        let m = Manifest::parse(SMOKE).unwrap();
        for p in m.points() {
            assert_eq!(m.find_point(&p.label).unwrap(), p);
        }
        assert!(matches!(
            m.find_point("nope"),
            Err(CampaignError::UnknownPoint(_))
        ));
    }
}
