//! The fleet tier's placement primitive: a [`HashRing`] that maps entity
//! ids onto serving nodes with consistent hashing, so the distributed
//! router in `rptcn-net` moves only ~1/N of the entities when a node joins
//! or leaves, and the [`OwnershipAudit`] the chaos suites check a fleet's
//! actual holdings against.

/// Consistent-hash ring over named serving nodes.
///
/// Each node contributes `vnodes` points (FNV-1a of `"name#i"`) on a
/// `u64` ring; a key is served by the node owning the first point at or
/// after the key's hash, wrapping around. Properties the distributed
/// tier relies on:
///
/// * **Deterministic** — the same membership always yields the same
///   placement, so a router restart recomputes identical routes.
/// * **Balanced** — virtual nodes spread each physical node around the
///   ring, keeping per-node entity counts within a small factor.
/// * **Stable under churn** — adding or removing one node only remaps
///   the keys whose ring arc it owned (~`1/N` of them).
/// * **Failure-aware lookups** — [`HashRing::node_for_where`] walks
///   clockwise past nodes a liveness predicate rejects, so a dead node's
///   keys land on its ring successor, the way a shard already routes
///   around a dead entity.
#[derive(Debug, Clone)]
pub struct HashRing {
    vnodes: usize,
    nodes: Vec<String>,
    /// Sorted `(point, node index)` pairs — the ring itself.
    points: Vec<(u64, u32)>,
}

/// FNV-1a over a byte string — the same hash family the serve-tier shard
/// router uses, so placement is dependency-free and reproducible.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 64-bit avalanche finalizer (the murmur3 fmix64 constants). Raw FNV-1a
/// under-diffuses the final one or two input bytes into the high bits, so
/// fleets with near-identical short ids (`e-01`, `e-02`, …) would cluster
/// into a single ring arc and all land on one node. Mixing restores full
/// avalanche while staying dependency-free and deterministic.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Ring position of an arbitrary byte string.
fn ring_hash(bytes: &[u8]) -> u64 {
    mix64(fnv1a(bytes))
}

impl HashRing {
    /// An empty ring where every node will contribute `vnodes` points
    /// (clamped to at least one).
    pub fn new(vnodes: usize) -> Self {
        Self {
            vnodes: vnodes.max(1),
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// Add a node; returns `false` (and changes nothing) if the name is
    /// already on the ring.
    pub fn add_node(&mut self, name: &str) -> bool {
        if self.contains(name) {
            return false;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(name.to_string());
        for i in 0..self.vnodes {
            let point = ring_hash(format!("{name}#{i}").as_bytes());
            self.points.push((point, idx));
        }
        self.points.sort_unstable();
        true
    }

    /// Remove a node; returns `false` if it was not on the ring.
    pub fn remove_node(&mut self, name: &str) -> bool {
        let Some(pos) = self.nodes.iter().position(|n| n == name) else {
            return false;
        };
        self.nodes.remove(pos);
        let removed = pos as u32;
        self.points.retain(|&(_, idx)| idx != removed);
        for (_, idx) in &mut self.points {
            if *idx > removed {
                *idx -= 1;
            }
        }
        true
    }

    /// Whether `name` is on the ring.
    pub fn contains(&self, name: &str) -> bool {
        self.nodes.iter().any(|n| n == name)
    }

    /// Node names in insertion order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// Number of nodes on the ring.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True while no node has been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node serving `key`, or `None` on an empty ring.
    pub fn node_for(&self, key: &str) -> Option<&str> {
        self.node_for_where(key, |_| true)
    }

    /// The first node at or after `key`'s ring position that satisfies
    /// `alive`, wrapping around — `None` if no live node exists. This is
    /// the failover walk: with every node alive it equals
    /// [`HashRing::node_for`]; with the primary dead it yields the ring
    /// successor, and so on.
    pub fn node_for_where(&self, key: &str, alive: impl Fn(&str) -> bool) -> Option<&str> {
        if self.points.is_empty() {
            return None;
        }
        let h = ring_hash(key.as_bytes());
        let start = self.points.partition_point(|&(p, _)| p < h);
        let n = self.points.len();
        for step in 0..n {
            let (_, idx) = self.points[(start + step) % n];
            let name = &self.nodes[idx as usize];
            if alive(name) {
                return Some(name);
            }
        }
        None
    }
}

/// Result of auditing the fleet's actual entity holdings against the
/// placement the ring prescribes — the *ownership oracle* the chaos
/// suites assert after every simulated run. A converged fleet has every
/// entity on exactly one live node, and that node is the ring owner;
/// anything else is a violation with enough attribution to debug it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OwnershipAudit {
    /// Entities held by no live node at all (lost).
    pub missing: Vec<String>,
    /// Entities held by more than one live node: `(entity, holders)`.
    pub duplicated: Vec<(String, Vec<String>)>,
    /// Entities held by exactly one live node, but not the ring owner:
    /// `(entity, holder, expected_owner)`.
    pub misplaced: Vec<(String, String, String)>,
}

impl OwnershipAudit {
    /// Whether the fleet satisfies single-live-owner placement.
    pub fn is_converged(&self) -> bool {
        self.missing.is_empty() && self.duplicated.is_empty() && self.misplaced.is_empty()
    }

    /// Total number of violations across all three categories.
    pub fn violations(&self) -> usize {
        self.missing.len() + self.duplicated.len() + self.misplaced.len()
    }
}

impl HashRing {
    /// Audit actual entity `holdings` (per live node, the entity ids it
    /// currently serves) against this ring's placement for `expected`
    /// entities. `alive` filters ring members the same way the router's
    /// failover lookup does; nodes absent from `holdings` are treated as
    /// holding nothing. Entities outside `expected` are ignored.
    pub fn audit_ownership(
        &self,
        alive: impl Fn(&str) -> bool,
        expected: &[String],
        holdings: &[(String, Vec<String>)],
    ) -> OwnershipAudit {
        let mut held_by: std::collections::BTreeMap<&str, Vec<&str>> =
            std::collections::BTreeMap::new();
        for (node, ids) in holdings {
            if !alive(node) {
                continue;
            }
            for id in ids {
                held_by.entry(id.as_str()).or_default().push(node.as_str());
            }
        }
        let mut audit = OwnershipAudit::default();
        for id in expected {
            let holders = held_by.get(id.as_str()).map_or(&[][..], Vec::as_slice);
            let owner = self.node_for_where(id, &alive);
            match (holders, owner) {
                ([], _) => audit.missing.push(id.clone()),
                ([one], Some(owner)) if *one == owner => {}
                ([one], Some(owner)) => {
                    audit
                        .misplaced
                        .push((id.clone(), (*one).to_string(), owner.to_string()));
                }
                ([one], None) => {
                    // No live owner exists; a single surviving copy is
                    // the best possible state, not a violation.
                    let _ = one;
                }
                (many, _) => audit
                    .duplicated
                    .push((id.clone(), many.iter().map(|n| (*n).to_string()).collect())),
            }
        }
        audit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_total() {
        let mut ring = HashRing::new(32);
        for n in ["node-0", "node-1", "node-2"] {
            assert!(ring.add_node(n));
        }
        assert!(!ring.add_node("node-1"), "duplicate must be rejected");
        assert_eq!(ring.len(), 3);
        for i in 0..100 {
            let key = format!("e_{i}");
            let a = ring.node_for(&key).unwrap().to_string();
            let b = ring.node_for(&key).unwrap().to_string();
            assert_eq!(a, b, "placement must be stable");
        }
    }

    #[test]
    fn ring_balances_across_nodes() {
        let mut ring = HashRing::new(64);
        for n in 0..4 {
            ring.add_node(&format!("node-{n}"));
        }
        let mut counts = std::collections::HashMap::new();
        for i in 0..8000 {
            let n = ring.node_for(&format!("e_{i}")).unwrap().to_string();
            *counts.entry(n).or_insert(0usize) += 1;
        }
        for (node, c) in &counts {
            assert!(
                *c > 8000 / 4 / 2 && *c < 8000 / 4 * 2,
                "{node} got {c} of 8000 keys"
            );
        }
    }

    #[test]
    fn ring_churn_moves_a_minority_of_keys() {
        let mut before = HashRing::new(64);
        for n in 0..4 {
            before.add_node(&format!("node-{n}"));
        }
        let mut after = before.clone();
        after.add_node("node-4");
        let moved = (0..4000)
            .filter(|i| {
                let key = format!("e_{i}");
                before.node_for(&key) != after.node_for(&key)
            })
            .count();
        // Adding a 5th node should move roughly 1/5 of the keys; assert a
        // generous bound that still rules out full reshuffles.
        assert!(
            moved > 0 && moved < 4000 / 2,
            "adding one node moved {moved} of 4000 keys"
        );
        // Keys that moved must have moved TO the new node.
        for i in 0..4000 {
            let key = format!("e_{i}");
            if before.node_for(&key) != after.node_for(&key) {
                assert_eq!(after.node_for(&key), Some("node-4"));
            }
        }
    }

    #[test]
    fn ring_routes_around_dead_nodes() {
        let mut ring = HashRing::new(32);
        for n in 0..3 {
            ring.add_node(&format!("node-{n}"));
        }
        let key = "e_42";
        let primary = ring.node_for(key).unwrap().to_string();
        let failover = ring
            .node_for_where(key, |n| n != primary)
            .unwrap()
            .to_string();
        assert_ne!(failover, primary, "failover must pick another node");
        assert!(
            ring.node_for_where(key, |_| false).is_none(),
            "all-dead ring yields None"
        );
        // Removing the primary makes its old failover the new primary.
        ring.remove_node(&primary);
        assert_eq!(ring.node_for(key), Some(failover.as_str()));
    }

    #[test]
    fn ring_remove_keeps_other_assignments() {
        let mut ring = HashRing::new(32);
        for n in 0..3 {
            ring.add_node(&format!("node-{n}"));
        }
        let kept: Vec<(String, String)> = (0..500)
            .map(|i| format!("e_{i}"))
            .filter(|k| ring.node_for(k) != Some("node-1"))
            .map(|k| {
                let n = ring.node_for(&k).unwrap().to_string();
                (k, n)
            })
            .collect();
        ring.remove_node("node-1");
        assert!(!ring.contains("node-1"));
        for (k, n) in kept {
            assert_eq!(ring.node_for(&k), Some(n.as_str()), "{k} moved needlessly");
        }
    }

    #[test]
    fn ownership_audit_flags_missing_duplicated_and_misplaced() {
        let mut ring = HashRing::new(32);
        for n in ["node-0", "node-1", "node-2"] {
            ring.add_node(n);
        }
        let ids: Vec<String> = (0..40).map(|i| format!("e_{i}")).collect();
        // Converged holdings: every entity exactly where the ring says.
        let mut holdings: std::collections::BTreeMap<String, Vec<String>> = Default::default();
        for id in &ids {
            let owner = ring.node_for(id).unwrap().to_string();
            holdings.entry(owner).or_default().push(id.clone());
        }
        let converged: Vec<(String, Vec<String>)> = holdings.clone().into_iter().collect();
        let audit = ring.audit_ownership(|_| true, &ids, &converged);
        assert!(
            audit.is_converged(),
            "converged fleet audits clean: {audit:?}"
        );

        // Break it three ways: drop e_0, duplicate e_1, misplace e_2.
        let mut broken = holdings;
        let owner0 = ring.node_for("e_0").unwrap().to_string();
        broken.get_mut(&owner0).unwrap().retain(|i| i != "e_0");
        let owner1 = ring.node_for("e_1").unwrap().to_string();
        let other1 = ring
            .node_for_where("e_1", |n| n != owner1)
            .unwrap()
            .to_string();
        broken.entry(other1).or_default().push("e_1".into());
        let owner2 = ring.node_for("e_2").unwrap().to_string();
        let other2 = ring
            .node_for_where("e_2", |n| n != owner2)
            .unwrap()
            .to_string();
        broken.get_mut(&owner2).unwrap().retain(|i| i != "e_2");
        broken.entry(other2.clone()).or_default().push("e_2".into());
        let broken: Vec<(String, Vec<String>)> = broken.into_iter().collect();
        let audit = ring.audit_ownership(|_| true, &ids, &broken);
        assert_eq!(audit.missing, vec!["e_0".to_string()]);
        assert_eq!(audit.duplicated.len(), 1);
        assert_eq!(audit.duplicated[0].0, "e_1");
        assert_eq!(audit.misplaced, vec![("e_2".to_string(), other2, owner2)]);
        assert_eq!(audit.violations(), 3);
    }

    #[test]
    fn ownership_audit_respects_liveness() {
        let mut ring = HashRing::new(32);
        for n in ["node-0", "node-1"] {
            ring.add_node(n);
        }
        let ids = vec!["e_7".to_string()];
        let owner = ring.node_for("e_7").unwrap().to_string();
        let successor = ring
            .node_for_where("e_7", |n| n != owner)
            .unwrap()
            .to_string();
        // The primary is dead but still holds a stale copy; the live
        // successor holds the real one. Counting only live nodes, the
        // fleet is converged onto the successor.
        let holdings = vec![
            (owner.clone(), vec!["e_7".to_string()]),
            (successor.clone(), vec!["e_7".to_string()]),
        ];
        let audit = ring.audit_ownership(|n| n != owner, &ids, &holdings);
        assert!(audit.is_converged(), "{audit:?}");
        // With every ring member dead, a single surviving copy on a live
        // off-ring node (e.g. mid-drain) is tolerated: there is no live
        // owner to converge onto.
        let off_ring = vec![("node-9".to_string(), vec!["e_7".to_string()])];
        let audit = ring.audit_ownership(|n| n == "node-9", &ids, &off_ring);
        assert!(audit.is_converged(), "{audit:?}");
        // And with no live holder anywhere, the entity is simply lost.
        let audit = ring.audit_ownership(|_| false, &ids, &holdings);
        assert_eq!(audit.missing, ids);
    }
}
