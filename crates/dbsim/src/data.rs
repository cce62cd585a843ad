//! Seeded column data generation.
//!
//! Every attribute is materialized as a dense `u32` column whose values are
//! drawn uniformly from `0..d_i`, so equality predicates hit the schema's
//! advertised selectivity `1/d_i` in expectation. Generation is keyed by
//! `(seed, table, attribute)` so columns are independent of each other and
//! reproducible in isolation.

use isel_workload::{AttrId, Schema, TableId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense column of `u32` values.
#[derive(Clone, Debug)]
pub struct Column {
    /// Row-ordered values.
    pub values: Vec<u32>,
    /// Declared value size `a_i` in bytes (used by the work counters; the
    /// in-memory representation is always 4 bytes).
    pub value_size: u32,
}

impl Column {
    /// Bytes the column contributes per row according to the schema.
    #[inline]
    pub fn row_bytes(&self) -> u64 {
        self.value_size as u64
    }
}

/// Generate the column for `attr` of `schema` with `rows` rows.
pub fn generate_column(schema: &Schema, attr: AttrId, rows: u64, seed: u64) -> Column {
    let a = schema.attribute(attr);
    let mut rng = StdRng::seed_from_u64(
        seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(attr.0 as u64 + 1)),
    );
    let d = a.distinct_values.min(u32::MAX as u64).max(1) as u32;
    let values = (0..rows).map(|_| rng.gen_range(0..d)).collect();
    Column { values, value_size: a.value_size }
}

/// Generate all columns of a table.
pub fn generate_table(schema: &Schema, table: TableId, seed: u64) -> Vec<(AttrId, Column)> {
    let t = schema.table(table);
    t.attrs()
        .map(|a| (a, generate_column(schema, a, t.rows, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use isel_workload::SchemaBuilder;

    fn schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 10_000);
        b.attribute(t, "a", 100, 4);
        b.attribute(t, "b", 2, 8);
        b.finish()
    }

    #[test]
    fn columns_have_requested_length_and_range() {
        let s = schema();
        let c = generate_column(&s, AttrId(0), 10_000, 1);
        assert_eq!(c.values.len(), 10_000);
        assert!(c.values.iter().all(|&v| v < 100));
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_attr() {
        let s = schema();
        let c1 = generate_column(&s, AttrId(0), 1_000, 7);
        let c2 = generate_column(&s, AttrId(0), 1_000, 7);
        assert_eq!(c1.values, c2.values);
        let c3 = generate_column(&s, AttrId(0), 1_000, 8);
        assert_ne!(c1.values, c3.values);
        let other_attr = generate_column(&s, AttrId(1), 1_000, 7);
        assert_ne!(c1.values, other_attr.values);
    }

    #[test]
    fn empirical_selectivity_tracks_schema() {
        let s = schema();
        let c = generate_column(&s, AttrId(0), 10_000, 3);
        // Count hits of one value: expect ~ n/d = 100 ± noise.
        let hits = c.values.iter().filter(|&&v| v == 42).count();
        assert!((50..200).contains(&hits), "hits={hits}");
    }

    #[test]
    fn whole_table_generation_covers_all_attrs() {
        let s = schema();
        let cols = generate_table(&s, TableId(0), 5);
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].0, AttrId(0));
        assert_eq!(cols[1].1.value_size, 8);
    }
}
