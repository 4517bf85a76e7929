//! End-to-end dataset generation with the T-Drive profile.
//!
//! One agent ⇒ one trajectory covering its whole simulated history
//! (matching the paper's "each taxi is associated with a single
//! trajectory"). Samples snap to road nodes, timestamps advance by the
//! sampling period per hop, and trips are drawn from the agent mixture
//! model until the target trajectory length is reached.

use crate::agent::{Agent, TripMix};
use crate::road::{NodeId, RoadNetwork, RoadNetworkConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trajdp_model::{Dataset, Sample, Trajectory};

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of trajectories (= agents = moving objects).
    pub num_trajectories: usize,
    /// Target samples per trajectory. T-Drive averages 1,813; the
    /// experiment harness uses a smaller default to keep sweeps fast —
    /// the mechanisms only depend on relative frequencies.
    pub points_per_trajectory: usize,
    /// Road network shape.
    pub network: RoadNetworkConfig,
    /// Number of shared hotspot nodes.
    pub num_hotspots: usize,
    /// Personal anchors per agent.
    pub anchors_per_agent: usize,
    /// Destination mixture.
    pub mix: TripMix,
    /// Time between consecutive road-node *hops*, seconds. With
    /// `sample_stride = 1` this equals the observed sampling period
    /// (T-Drive: ≈ 3.1 min = 186 s); with a larger stride the observed
    /// period between recorded fixes grows accordingly on driving
    /// stretches.
    pub sampling_period: i64,
    /// Emit every `sample_stride`-th node along a driven path (the trip
    /// destination is always emitted). T-Drive's GPS period skips
    /// several road segments between fixes; `stride > 1` reproduces
    /// that sparse-observation regime, which is what makes map-matching
    /// recovery non-trivial. `1` records every node.
    pub sample_stride: usize,
    /// Anchor dwell length range (inclusive): how many consecutive
    /// samples an agent emits while idling at one of its anchors. Longer
    /// dwells concentrate more PF mass on signature points.
    pub anchor_dwell: (usize, usize),
    /// Master seed; everything is deterministic given this.
    pub seed: u64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            num_trajectories: 1000,
            points_per_trajectory: 200,
            network: RoadNetworkConfig::default(),
            num_hotspots: 24,
            anchors_per_agent: 4,
            mix: TripMix::default(),
            sampling_period: 186,
            sample_stride: 1,
            anchor_dwell: (2, 6),
            seed: 0x7D21E,
        }
    }
}

impl GeneratorConfig {
    /// The calibrated experiment profile used throughout the evaluation
    /// harness: a compact 16×16 city (so the shared road core carries
    /// little identifying information, as in T-Drive), 16 personal
    /// anchors per agent with multi-sample dwells (so signature points
    /// carry substantial PF mass), hotspot-biased trips, and a GPS
    /// sampling stride of 2 (every other road node goes unobserved,
    /// making map-matching recovery non-trivial).
    pub fn tdrive_profile(
        num_trajectories: usize,
        points_per_trajectory: usize,
        seed: u64,
    ) -> Self {
        Self {
            num_trajectories,
            points_per_trajectory,
            network: RoadNetworkConfig { nx: 16, ny: 16, ..Default::default() },
            num_hotspots: 24,
            anchors_per_agent: 16,
            mix: TripMix { anchor: 0.4, hotspot: 0.4, random: 0.2 },
            sampling_period: 186,
            sample_stride: 2,
            anchor_dwell: (2, 6),
            seed,
        }
    }
}

/// Output of [`generate`]: the dataset plus the ground-truth network it
/// was generated on (needed by the map-matching recovery attack).
#[derive(Debug, Clone)]
pub struct SyntheticWorld {
    /// The generated trajectory dataset.
    pub dataset: Dataset,
    /// The road network trajectories travel on.
    pub network: RoadNetwork,
    /// Shared hotspot nodes.
    pub hotspots: Vec<NodeId>,
    /// Per-agent anchor nodes, indexed like `dataset.trajectories`.
    pub anchors: Vec<Vec<NodeId>>,
}

/// Generates a complete synthetic world from a configuration.
pub fn generate(cfg: &GeneratorConfig) -> SyntheticWorld {
    assert!(cfg.num_trajectories > 0, "need at least one trajectory");
    assert!(cfg.points_per_trajectory >= 2, "trajectories need at least two samples");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let network = RoadNetwork::grid(&cfg.network, &mut rng);

    // Hotspots: distinct random nodes shared by every agent.
    let mut hotspots: Vec<NodeId> = Vec::with_capacity(cfg.num_hotspots);
    while hotspots.len() < cfg.num_hotspots.min(network.num_nodes() / 2) {
        let n = network.random_node(&mut rng);
        if !hotspots.contains(&n) {
            hotspots.push(n);
        }
    }

    let mut trajectories = Vec::with_capacity(cfg.num_trajectories);
    let mut anchors = Vec::with_capacity(cfg.num_trajectories);
    for id in 0..cfg.num_trajectories {
        let mut agent = Agent::spawn(&network, cfg.anchors_per_agent, &hotspots, cfg.mix, &mut rng);
        anchors.push(agent.anchors.clone());
        let mut samples: Vec<Sample> = Vec::with_capacity(cfg.points_per_trajectory);
        // Per-agent shift-start time: drivers begin their day at
        // individual hours, giving each trajectory a temporal identity
        // (the basis of the LAt linking attack).
        let mut t = rng.gen_range(0..86_400i64);
        samples.push(Sample::new(network.node(agent.position), t));
        let stride = cfg.sample_stride.max(1);
        while samples.len() < cfg.points_per_trajectory {
            let dest = agent.next_destination(&network, &mut rng);
            let path = agent.drive_to(&network, dest);
            let last_hop = path.len().saturating_sub(1);
            for (hop, node) in path.into_iter().enumerate() {
                t += cfg.sampling_period;
                // Record every stride-th hop, and always the arrival so
                // destination (anchor/hotspot) visits keep their PF mass.
                if hop % stride != 0 && hop != last_hop {
                    continue;
                }
                samples.push(Sample::new(network.node(node), t));
                if samples.len() >= cfg.points_per_trajectory {
                    break;
                }
            }
            // Dwell at the destination (taxis idle at ranks), re-emitting
            // the same location. Anchors get long dwells — this is what
            // concentrates PF mass on signature points, matching the
            // T-Drive regime where the top-m points carry the majority
            // of a trajectory's samples.
            if samples.len() < cfg.points_per_trajectory {
                let at_anchor = agent.anchors.contains(&agent.position);
                let dwell = if at_anchor {
                    rng.gen_range(cfg.anchor_dwell.0..=cfg.anchor_dwell.1)
                } else if rng.gen::<f64>() < 0.35 {
                    rng.gen_range(1..=3)
                } else {
                    0
                };
                let here = network.node(agent.position);
                for _ in 0..dwell {
                    t += cfg.sampling_period;
                    samples.push(Sample::new(here, t));
                    if samples.len() >= cfg.points_per_trajectory {
                        break;
                    }
                }
            }
        }
        trajectories.push(Trajectory::new(id as u64, samples));
    }

    let dataset = Dataset::new(network.domain(), trajectories);
    SyntheticWorld { dataset, network, hotspots, anchors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use trajdp_model::stats::DatasetStats;
    use trajdp_model::PointKey;

    fn small_cfg() -> GeneratorConfig {
        GeneratorConfig {
            num_trajectories: 40,
            points_per_trajectory: 120,
            network: RoadNetworkConfig { nx: 16, ny: 16, ..Default::default() },
            num_hotspots: 6,
            anchors_per_agent: 3,
            seed: 99,
            ..Default::default()
        }
    }

    #[test]
    fn generates_requested_shape() {
        let w = generate(&small_cfg());
        assert_eq!(w.dataset.len(), 40);
        for t in &w.dataset.trajectories {
            assert_eq!(t.len(), 120);
            assert!(t.samples.windows(2).all(|a| a[0].t < a[1].t));
        }
        let stats = DatasetStats::compute(&w.dataset);
        assert_eq!(stats.avg_sampling_period, 186.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = generate(&small_cfg());
        let b = generate(&small_cfg());
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.hotspots, b.hotspots);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = small_cfg();
        let a = generate(&cfg);
        cfg.seed = 100;
        let b = generate(&cfg);
        assert_ne!(a.dataset, b.dataset);
    }

    #[test]
    fn samples_snap_to_network_nodes() {
        let w = generate(&small_cfg());
        let node_keys: std::collections::HashSet<PointKey> =
            w.network.nodes().iter().map(|p| p.key()).collect();
        for t in &w.dataset.trajectories {
            for s in &t.samples {
                assert!(node_keys.contains(&s.loc.key()), "sample must lie on a node");
            }
        }
    }

    #[test]
    fn consecutive_samples_are_adjacent_or_equal() {
        let w = generate(&small_cfg());
        let pos: HashMap<PointKey, usize> =
            w.network.nodes().iter().enumerate().map(|(i, p)| (p.key(), i)).collect();
        for t in &w.dataset.trajectories {
            for win in t.samples.windows(2) {
                let a = pos[&win[0].loc.key()];
                let b = pos[&win[1].loc.key()];
                assert!(
                    a == b || w.network.neighbors(a).contains(&b),
                    "consecutive samples must dwell or hop along an edge"
                );
            }
        }
    }

    #[test]
    fn anchors_have_signature_structure() {
        // Personal anchors should be visited far more by their owner
        // (high PF) than the typical location, while hotspots accumulate
        // much higher TF than anchors.
        let w = generate(&GeneratorConfig {
            num_trajectories: 60,
            points_per_trajectory: 300,
            ..small_cfg()
        });
        let tf = |k| w.dataset.trajectory_frequency(k) as f64;
        let mut anchor_tf = 0.0;
        let mut anchor_count = 0usize;
        for (i, anchors) in w.anchors.iter().enumerate() {
            let traj = &w.dataset.trajectories[i];
            // Home anchor revisited by its owner.
            let home_key = w.network.node(anchors[0]).key();
            assert!(traj.count_point(home_key) >= 1, "agent must visit its home at least once");
            for &a in anchors {
                let k = w.network.node(a).key();
                anchor_tf += tf(k);
                anchor_count += 1;
            }
        }
        let avg_anchor_tf = anchor_tf / anchor_count as f64;
        let avg_hotspot_tf = w.hotspots.iter().map(|&h| tf(w.network.node(h).key())).sum::<f64>()
            / w.hotspots.len() as f64;
        assert!(
            avg_hotspot_tf > 1.5 * avg_anchor_tf,
            "hotspots (TF {avg_hotspot_tf:.1}) should be notably more shared than anchors (TF {avg_anchor_tf:.1})"
        );
    }

    #[test]
    #[should_panic(expected = "at least one trajectory")]
    fn zero_trajectories_panics() {
        let cfg = GeneratorConfig { num_trajectories: 0, ..small_cfg() };
        generate(&cfg);
    }
}
