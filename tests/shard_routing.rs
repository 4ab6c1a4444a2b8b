//! Shard-routing invariants of [`ShardMap`], property-tested through
//! the facade: every global row is homed by exactly one shard, the
//! per-shard row sets are a disjoint cover of the model, local/global
//! translation round-trips, and the one-shard map is the identity —
//! the structural fact behind the `shards=1` byte-identity guarantee.

use proptest::prelude::*;
use rog::core::{RowId, ShardMap};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Exactly-one-shard: `shard_of` places every row on one in-range
    /// shard, and that placement agrees with the shard's own row list.
    #[test]
    fn prop_every_row_homed_by_exactly_one_shard(
        n_rows in 1usize..200,
        n_shards in 1usize..9,
    ) {
        let map = ShardMap::contiguous(n_rows, n_shards);
        for row in 0..map.n_rows() {
            let s = map.shard_of(RowId(row));
            prop_assert!(s < map.n_shards(), "row {row} homed by out-of-range shard {s}");
            let owners = (0..map.n_shards())
                .filter(|&c| map.rows_of(c).contains(&row))
                .count();
            prop_assert_eq!(owners, 1, "row {} owned by {} shards", row, owners);
            prop_assert!(map.rows_of(s).contains(&row));
        }
    }

    /// Disjoint cover: the per-shard row counts sum to the model and
    /// local/global index translation round-trips through every shard.
    #[test]
    fn prop_shards_disjointly_cover_the_model(
        n_rows in 1usize..200,
        n_shards in 1usize..9,
    ) {
        let map = ShardMap::contiguous(n_rows, n_shards);
        let total: usize = (0..map.n_shards()).map(|s| map.shard_rows(s)).sum();
        prop_assert_eq!(total, map.n_rows());
        let mut seen = vec![false; map.n_rows()];
        for s in 0..map.n_shards() {
            prop_assert_eq!(map.rows_of(s).len(), map.shard_rows(s));
            for (local, &row) in map.rows_of(s).iter().enumerate() {
                prop_assert!(!seen[row], "row {} appears in two shards", row);
                seen[row] = true;
                prop_assert_eq!(map.to_global(s, RowId(local)), RowId(row));
                prop_assert_eq!(map.to_local(RowId(row)), RowId(local));
                prop_assert_eq!(map.shard_of(RowId(row)), s);
            }
        }
        prop_assert!(seen.iter().all(|&v| v), "cover has a hole");
    }

    /// One shard is the identity map: local and global ids coincide,
    /// which is why a single-shard plane runs the exact pre-shard
    /// engine.
    #[test]
    fn prop_one_shard_is_the_identity(n_rows in 1usize..200) {
        let map = ShardMap::contiguous(n_rows, 1);
        prop_assert_eq!(map.n_shards(), 1);
        prop_assert_eq!(map.shard_rows(0), n_rows);
        for row in 0..n_rows {
            prop_assert_eq!(map.shard_of(RowId(row)), 0);
            prop_assert_eq!(map.to_local(RowId(row)), RowId(row));
            prop_assert_eq!(map.to_global(0, RowId(row)), RowId(row));
        }
    }

    /// Contiguous mode keeps ranges in order: global ids within a
    /// shard are consecutive and shard boundaries are monotone — the
    /// property the row engine's per-shard mandatory prefix relies on.
    #[test]
    fn prop_contiguous_ranges_are_ordered(n_rows in 1usize..200, n_shards in 1usize..9) {
        let map = ShardMap::contiguous(n_rows, n_shards);
        let mut expect = 0usize;
        for s in 0..map.n_shards() {
            for &row in map.rows_of(s) {
                prop_assert_eq!(row, expect, "contiguous map out of order at shard {}", s);
                expect += 1;
            }
        }
        prop_assert_eq!(expect, n_rows);
    }
}
