//! Partitioning a SuDoku cache into shards along Hash-1 RAID-Group
//! boundaries.
//!
//! The sharding rule is round-robin over Hash-1 groups: group `g` belongs
//! to shard `g mod N`. Two properties follow:
//!
//! * **Hash-1 recovery is shard-local.** A Hash-1 group's members are `2^b`
//!   consecutive lines all hashing to the same group, so ECC-1 / CRC /
//!   RAID-4 / SDR under Hash-1 touch exactly one shard — lock-free inside
//!   that shard's worker.
//! * **Hash-2 groups cross shards by construction.** A Hash-2 group's
//!   members span `2^b` *consecutive* Hash-1 groups (paper §V-A:
//!   Hash-2 masks `addr[2b-1:b]`), so with `N ≥ 2` shards (and `N`
//!   dividing or smaller than `2^b`) its members land on multiple shards —
//!   SuDoku-Z recovery is inherently a cross-shard protocol.

use crate::config::{ConfigError, SudokuConfig};
use crate::hashing::{HashDim, SkewedHashes};
use std::ops::Range;

/// An immutable, cheaply-copyable description of how lines are divided
/// among `N` shards.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    hashes: SkewedHashes,
    n_shards: usize,
}

impl ShardPlan {
    /// Builds a plan dividing the configured geometry among `n_shards`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadShardCount`] unless `1 <= n_shards <= n_groups`
    /// (each shard must own at least one whole Hash-1 group); plus any
    /// error from validating `config` itself.
    pub fn new(config: &SudokuConfig, n_shards: usize) -> Result<Self, ConfigError> {
        let hashes = SkewedHashes::from_config(config)?;
        if n_shards == 0 || n_shards as u64 > hashes.n_groups() {
            return Err(ConfigError::BadShardCount {
                shards: n_shards,
                groups: hashes.n_groups(),
            });
        }
        Ok(ShardPlan { hashes, n_shards })
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The hash pair the plan partitions over.
    pub fn hashes(&self) -> &SkewedHashes {
        &self.hashes
    }

    /// Owning shard of a Hash-1 group.
    #[inline]
    pub fn shard_of_group(&self, h1_group: u64) -> usize {
        (h1_group % self.n_shards as u64) as usize
    }

    /// Owning shard of a line.
    #[inline]
    pub fn shard_of_line(&self, line: u64) -> usize {
        self.shard_of_group(self.hashes.group_of(HashDim::H1, line))
    }

    /// The Hash-1 groups a shard owns, ascending.
    pub fn owned_groups(&self, shard: usize) -> impl Iterator<Item = u64> + '_ {
        assert!(shard < self.n_shards, "shard {shard} out of range");
        (shard as u64..self.hashes.n_groups()).step_by(self.n_shards)
    }

    /// The lines a shard owns, ascending.
    pub fn owned_lines(&self, shard: usize) -> impl Iterator<Item = u64> + '_ {
        self.owned_groups(shard)
            .flat_map(move |g| self.hashes.members(HashDim::H1, g))
    }

    /// The `idx`-th line (ascending) of a shard's owned set — random access
    /// into [`ShardPlan::owned_lines`], so a per-shard fault injector can
    /// map a dense `0..owned_line_count` plan onto the interleaved lines.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= owned_line_count(shard)`.
    #[inline]
    pub fn owned_line_at(&self, shard: usize, idx: u64) -> u64 {
        assert!(
            idx < self.owned_line_count(shard),
            "index {idx} out of range for shard {shard}"
        );
        let gl = self.hashes.group_lines();
        let group = shard as u64 + (idx / gl) * self.n_shards as u64;
        group * gl + idx % gl
    }

    /// The lines at positions `idx` of a shard's owned set, ascending —
    /// [`ShardPlan::owned_line_at`] over a whole range, bounds-checked once
    /// instead of once per line.
    ///
    /// # Panics
    ///
    /// Panics if `idx.end > owned_line_count(shard)`.
    pub fn owned_lines_in(&self, shard: usize, idx: Range<u64>) -> impl Iterator<Item = u64> {
        assert!(
            idx.end <= self.owned_line_count(shard),
            "range {idx:?} out of range for shard {shard}"
        );
        let gl = self.hashes.group_lines();
        let bits = gl.trailing_zeros();
        let (shard, n) = (shard as u64, self.n_shards as u64);
        idx.map(move |i| ((shard + (i >> bits) * n) << bits) | (i & (gl - 1)))
    }

    /// Number of lines a shard owns.
    pub fn owned_line_count(&self, shard: usize) -> u64 {
        assert!(shard < self.n_shards, "shard {shard} out of range");
        let groups = self.hashes.n_groups();
        let n = self.n_shards as u64;
        let owned_groups = groups / n + u64::from((shard as u64) < groups % n);
        owned_groups * self.hashes.group_lines()
    }

    /// The distinct shards holding members of a Hash-2 group, ascending.
    /// With `n_shards >= 2` this always has at least two entries — the
    /// structural reason SuDoku-Z recovery escalates to a cross-shard
    /// coordinator.
    pub fn shards_of_h2_group(&self, h2_group: u64) -> Vec<usize> {
        let mut shards: Vec<usize> = self
            .hashes
            .members(HashDim::H2, h2_group)
            .map(|line| self.shard_of_line(line))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn plan(n_shards: usize) -> ShardPlan {
        let config = SudokuConfig::small(Scheme::Z, 1024, 16);
        ShardPlan::new(&config, n_shards).unwrap()
    }

    #[test]
    fn shards_partition_all_lines() {
        for n in [1usize, 2, 4, 8] {
            let p = plan(n);
            let mut owner = vec![usize::MAX; 1024];
            for s in 0..n {
                for line in p.owned_lines(s) {
                    assert_eq!(owner[line as usize], usize::MAX, "line {line} owned twice");
                    owner[line as usize] = s;
                }
                assert_eq!(p.owned_line_count(s), p.owned_lines(s).count() as u64);
                for (idx, line) in p.owned_lines(s).enumerate() {
                    assert_eq!(p.owned_line_at(s, idx as u64), line);
                }
                let count = p.owned_line_count(s);
                assert!(p.owned_lines_in(s, 0..count).eq(p.owned_lines(s)));
                assert!(p
                    .owned_lines_in(s, 5..count - 3)
                    .eq(p.owned_lines(s).skip(5).take(count as usize - 8)));
            }
            for (line, &s) in owner.iter().enumerate() {
                assert_eq!(s, p.shard_of_line(line as u64), "line {line}");
                assert_ne!(s, usize::MAX);
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range for shard 1")]
    fn owned_range_past_the_end_panics() {
        let p = plan(4);
        let _ = p.owned_lines_in(1, 0..p.owned_line_count(1) + 1);
    }

    #[test]
    fn h1_groups_never_cross_shards() {
        let p = plan(4);
        for g in 0..p.hashes().n_groups() {
            let owners: Vec<usize> = p
                .hashes()
                .members(HashDim::H1, g)
                .map(|l| p.shard_of_line(l))
                .collect();
            assert!(owners.windows(2).all(|w| w[0] == w[1]), "group {g}");
            assert_eq!(owners[0], p.shard_of_group(g));
        }
    }

    #[test]
    fn h2_groups_cross_shards_whenever_n_at_least_2() {
        for n in [2usize, 4, 8] {
            let p = plan(n);
            for g in 0..p.hashes().n_groups() {
                let shards = p.shards_of_h2_group(g);
                assert!(
                    shards.len() >= 2,
                    "H2 group {g} stayed local with {n} shards: {shards:?}"
                );
            }
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let p = plan(1);
        assert_eq!(p.owned_line_count(0), 1024);
        assert!(p.shards_of_h2_group(0) == vec![0]);
    }

    #[test]
    fn bad_shard_counts_rejected() {
        let config = SudokuConfig::small(Scheme::Z, 1024, 16);
        assert!(matches!(
            ShardPlan::new(&config, 0),
            Err(ConfigError::BadShardCount { .. })
        ));
        // 1024 lines / 16 = 64 groups; 65 shards cannot each own a group.
        assert!(matches!(
            ShardPlan::new(&config, 65),
            Err(ConfigError::BadShardCount { .. })
        ));
        assert!(ShardPlan::new(&config, 64).is_ok());
    }
}
