//! Entity → shard routing. FNV-1a over the entity id gives a stable,
//! uniform assignment: the same id always lands on the same shard (so
//! per-entity message order is preserved by the shard's FIFO queue), and
//! ids spread evenly across the worker pool.

/// FNV-1a hash of an entity id.
pub fn entity_hash(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The shard an entity id is served by, for a pool of `shards` workers.
pub fn shard_for(id: &str, shards: usize) -> usize {
    assert!(shards > 0, "shard pool cannot be empty");
    (entity_hash(id) % shards as u64) as usize
}

/// Group a request's ids by their target shard — the fan-out step of a
/// batched forecast request. Returns one `(shard, positions)` bucket per
/// non-empty shard; positions index into `ids` and keep request order, so
/// replies scatter back by position and an id asked for twice is two rows.
pub fn group_by_shard(ids: &[&str], shards: usize) -> Vec<(usize, Vec<usize>)> {
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
    for (at, id) in ids.iter().enumerate() {
        buckets[shard_for(id, shards)].push(at);
    }
    buckets
        .into_iter()
        .enumerate()
        .filter(|(_, positions)| !positions.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assignment_is_deterministic() {
        for id in ["c_0", "c_1", "container-8153", ""] {
            assert_eq!(shard_for(id, 7), shard_for(id, 7));
        }
    }

    #[test]
    fn assignment_is_reasonably_uniform() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..4096 {
            counts[shard_for(&format!("c_{i}"), shards)] += 1;
        }
        let expected = 4096 / shards;
        for (s, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "shard {s} got {c} of 4096 entities (expected ~{expected})"
            );
        }
    }

    #[test]
    fn group_by_shard_covers_every_position_once() {
        // A repeated id is two positions, both on its shard.
        let mut ids: Vec<String> = (0..100).map(|i| format!("c_{i}")).collect();
        ids.push("c_7".to_string());
        let refs: Vec<&str> = ids.iter().map(String::as_str).collect();
        let groups = group_by_shard(&refs, 4);
        let mut seen: Vec<usize> = Vec::new();
        for (shard, positions) in &groups {
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "request order");
            for &at in positions {
                assert_eq!(shard_for(refs[at], 4), *shard);
                seen.push(at);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..101).collect::<Vec<_>>());
    }

    #[test]
    fn single_shard_takes_everything() {
        assert_eq!(shard_for("anything", 1), 0);
    }
}
