//! Everything the program under test sees is made here, from `--seed`:
//! container traces, entity ids, per-round samples, and the ring
//! placement that decides which node an entity is installed on.

use std::collections::BTreeMap;

use cloudtrace::container::generate_container;
use cloudtrace::{ContainerConfig, WorkloadClass};
use rptcn::HashRing;
use timeseries::TimeSeriesFrame;

/// Container classes cycled over entity indices.
const CLASSES: [WorkloadClass; 3] = [
    WorkloadClass::OnlineService,
    WorkloadClass::BatchJob,
    WorkloadClass::HighDynamic,
];

/// Diurnal period of every generated container, in samples.
const DIURNAL_PERIOD: usize = 120;

/// The `i`-th container of a run: class by `i mod 3`, generator seed
/// `seed + i`.
pub fn container_frame(seed: u64, i: usize, steps: usize) -> TimeSeriesFrame {
    generate_container(
        &ContainerConfig::new(
            CLASSES[i % CLASSES.len()],
            steps,
            seed.wrapping_add(i as u64),
        )
        .with_diurnal_period(DIURNAL_PERIOD),
    )
}

/// One entity's generated input: a bootstrap frame the model is fitted or
/// scaled on, then one sample per tick in the frame's column order.
pub struct EntityTrace {
    pub id: String,
    pub bootstrap: TimeSeriesFrame,
    pub samples: Vec<Vec<f32>>,
}

/// `n` container entities, each with `bootstrap` rows of history and
/// `ticks` further samples.
pub fn entity_traces(seed: u64, n: usize, bootstrap: usize, ticks: usize) -> Vec<EntityTrace> {
    (0..n)
        .map(|i| {
            let frame = container_frame(seed, i, bootstrap + ticks);
            let samples = (bootstrap..bootstrap + ticks)
                .map(|t| {
                    (0..frame.num_columns())
                        .map(|j| frame.column_at(j)[t])
                        .collect()
                })
                .collect();
            EntityTrace {
                id: format!("c-{i:04}"),
                bootstrap: frame
                    .slice_rows(0, bootstrap)
                    .expect("bootstrap rows are in range"),
                samples,
            }
        })
        .collect()
}

/// Ids of the seeded (Naive, single-column) entities of `fleet_wire`.
pub fn wire_ids(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("w-{i:06}")).collect()
}

/// splitmix64 finaliser: decorrelates (seed, entity, round) triples.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The single-column sample entity `idx` reports in `round`: a
/// utilisation in `[0.2, 0.8)` fixed by `(seed, idx, round)`.
pub fn wire_sample(seed: u64, idx: usize, round: usize) -> Vec<f32> {
    let bits = mix(seed ^ mix(idx as u64) ^ mix((round as u64) << 32));
    vec![0.2 + 0.6 * ((bits >> 40) as f32 / (1u64 << 24) as f32)]
}

/// Indices of `ids` owned by each node of `nodes` on a ring with
/// `vnodes` points per node — the placement a `FleetRouter` with the same
/// node names and vnode count routes by, computed before any node runs.
pub fn place(ids: &[String], nodes: &[&str], vnodes: usize) -> BTreeMap<String, Vec<usize>> {
    let mut ring = HashRing::new(vnodes);
    for node in nodes {
        ring.add_node(node);
    }
    let mut owned: BTreeMap<String, Vec<usize>> =
        nodes.iter().map(|n| (n.to_string(), Vec::new())).collect();
    for (i, id) in ids.iter().enumerate() {
        let node = ring.node_for(id).expect("ring has nodes");
        owned.get_mut(node).expect("node is on the ring").push(i);
    }
    owned
}

#[cfg(test)]
mod tests {
    use super::*;
    use net::{FleetRouter, NodeConfig, NodeServer, RouterConfig};
    use serve::{PredictionService, ServiceConfig};

    #[test]
    fn traces_repeat_for_a_seed_and_differ_across_seeds() {
        let a = entity_traces(7, 3, 100, 5);
        let b = entity_traces(7, 3, 100, 5);
        let c = entity_traces(8, 3, 100, 5);
        assert_eq!(a[2].samples, b[2].samples);
        assert_ne!(a[2].samples, c[2].samples);
        assert_eq!(a[0].bootstrap.len(), 100);
        assert_eq!(a[0].samples.len(), 5);
        assert_eq!(a[0].samples[0].len(), a[0].bootstrap.num_columns());
        assert_eq!(wire_sample(7, 3, 1), wire_sample(7, 3, 1));
        assert_ne!(wire_sample(7, 3, 1), wire_sample(7, 3, 2));
        assert!((0.2..0.8).contains(&wire_sample(9, 123, 45)[0]));
    }

    #[test]
    fn placement_helper_agrees_with_the_router_ring_for_1000_ids() {
        let cfg = RouterConfig::default();
        let servers: Vec<NodeServer> = (0..2)
            .map(|_| {
                let service = PredictionService::new(ServiceConfig {
                    shards: 1,
                    refit_workers: 0,
                    ..Default::default()
                })
                .unwrap();
                NodeServer::start(NodeConfig::default(), service).unwrap()
            })
            .collect();
        let mut router = FleetRouter::new(cfg.clone());
        router.add_node("n0", &servers[0].addr()).unwrap();
        router.add_node("n1", &servers[1].addr()).unwrap();
        let ids = wire_ids(1000);
        let placed = place(&ids, &["n0", "n1"], cfg.vnodes);
        assert_eq!(placed.values().map(Vec::len).sum::<usize>(), 1000);
        for (node, owned) in &placed {
            assert!(!owned.is_empty(), "{node} owns nothing");
            for &i in owned {
                assert_eq!(router.ring().node_for(&ids[i]), Some(node.as_str()));
            }
        }
    }
}
