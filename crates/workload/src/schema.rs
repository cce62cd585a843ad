//! Tables and attributes.
//!
//! The schema carries exactly the statistics the paper's cost model needs:
//! per-table row counts `n_t`, per-attribute distinct-value counts `d_i`
//! (selectivity `s_i = 1/d_i`) and value sizes `a_i` in bytes.

use crate::ids::{AttrId, TableId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A single attribute (column) of a table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Global identifier of this attribute.
    pub id: AttrId,
    /// Table the attribute belongs to.
    pub table: TableId,
    /// Human-readable name (generated names for synthetic workloads).
    pub name: String,
    /// Number of distinct values `d_i` (≥ 1).
    pub distinct_values: u64,
    /// Fixed value size `a_i` in bytes (≥ 1).
    pub value_size: u32,
}

impl Attribute {
    /// Selectivity `s_i = 1 / d_i` of an equality predicate on this
    /// attribute.
    #[inline]
    pub fn selectivity(&self) -> f64 {
        1.0 / self.distinct_values as f64
    }
}

/// A table: a contiguous range of global attributes plus a row count.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// Identifier of this table.
    pub id: TableId,
    /// Human-readable name.
    pub name: String,
    /// Row count `n_t`.
    pub rows: u64,
    /// Global id of the first attribute of this table.
    pub first_attr: AttrId,
    /// Number of attributes `N_t`.
    pub attr_count: u32,
}

impl Table {
    /// Iterate over the global ids of this table's attributes.
    pub fn attrs(&self) -> impl Iterator<Item = AttrId> + '_ {
        (self.first_attr.0..self.first_attr.0 + self.attr_count).map(AttrId)
    }
}

/// A database schema: all tables and all attributes of the system.
///
/// Attributes are stored densely so that `schema.attribute(id)` is an array
/// lookup; the invariant that attribute `i` lives at slot `i` is enforced by
/// [`SchemaBuilder`].
///
/// A schema is immutable once built, so both slices are shared: a clone —
/// every workload snapshot, window and tuner holds one — bumps two
/// reference counts and copies no table or attribute.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    tables: Arc<[Table]>,
    attributes: Arc<[Attribute]>,
}

impl Schema {
    /// All tables.
    #[inline]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// All attributes, ordered by global id.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Total number of attributes `N` in the system.
    #[inline]
    pub fn attr_count(&self) -> usize {
        self.attributes.len()
    }

    /// Look up a table.
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.idx()]
    }

    /// Look up an attribute.
    #[inline]
    pub fn attribute(&self, id: AttrId) -> &Attribute {
        &self.attributes[id.idx()]
    }

    /// Row count of the table an attribute belongs to.
    #[inline]
    pub fn rows_of(&self, attr: AttrId) -> u64 {
        self.tables[self.attributes[attr.idx()].table.idx()].rows
    }

    /// Selectivity `s_i` of an attribute.
    #[inline]
    pub fn selectivity(&self, attr: AttrId) -> f64 {
        self.attributes[attr.idx()].selectivity()
    }
}

/// Incremental construction of a [`Schema`].
///
/// ```
/// use isel_workload::SchemaBuilder;
///
/// let mut b = SchemaBuilder::new();
/// let t = b.table("orders", 1_000_000);
/// let a = b.attribute(t, "customer_id", 50_000, 4);
/// let schema = b.finish();
/// assert_eq!(schema.attribute(a).distinct_values, 50_000);
/// assert_eq!(schema.table(t).rows, 1_000_000);
/// ```
#[derive(Default)]
pub struct SchemaBuilder {
    tables: Vec<Table>,
    attributes: Vec<Attribute>,
}

impl SchemaBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a table with `rows` rows. Attributes must be added immediately
    /// after their table (attribute ranges are contiguous).
    pub fn table(&mut self, name: &str, rows: u64) -> TableId {
        let id = TableId(u16::try_from(self.tables.len()).expect("more than u16::MAX tables"));
        self.tables.push(Table {
            id,
            name: name.to_owned(),
            rows,
            first_attr: AttrId(self.attributes.len() as u32),
            attr_count: 0,
        });
        id
    }

    /// Add an attribute to the most recently added table.
    ///
    /// # Panics
    ///
    /// Panics if `table` is not the most recently added table (attribute id
    /// ranges must stay contiguous), or if `distinct_values` or `value_size`
    /// is zero.
    pub fn attribute(
        &mut self,
        table: TableId,
        name: &str,
        distinct_values: u64,
        value_size: u32,
    ) -> AttrId {
        assert!(distinct_values >= 1, "attribute needs at least one distinct value");
        assert!(value_size >= 1, "attribute needs a positive value size");
        assert_eq!(
            table.idx() + 1,
            self.tables.len(),
            "attributes must be added to the most recent table"
        );
        let id = AttrId(self.attributes.len() as u32);
        self.attributes.push(Attribute {
            id,
            table,
            name: name.to_owned(),
            distinct_values,
            value_size,
        });
        self.tables[table.idx()].attr_count += 1;
        id
    }

    /// Finalize the schema.
    pub fn finish(self) -> Schema {
        Schema {
            tables: self.tables.into(),
            attributes: self.attributes.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_table_schema() -> Schema {
        let mut b = SchemaBuilder::new();
        let t0 = b.table("t0", 100);
        b.attribute(t0, "x", 10, 4);
        b.attribute(t0, "y", 100, 8);
        let t1 = b.table("t1", 1_000);
        b.attribute(t1, "z", 2, 1);
        b.finish()
    }

    #[test]
    fn attribute_ids_are_dense_and_global() {
        let s = two_table_schema();
        assert_eq!(s.attr_count(), 3);
        assert_eq!(s.attribute(AttrId(0)).name, "x");
        assert_eq!(s.attribute(AttrId(2)).name, "z");
        assert_eq!(s.attribute(AttrId(2)).table, TableId(1));
    }

    #[test]
    fn table_attr_ranges_are_contiguous() {
        let s = two_table_schema();
        let t0_attrs: Vec<_> = s.table(TableId(0)).attrs().collect();
        assert_eq!(t0_attrs, vec![AttrId(0), AttrId(1)]);
        let t1_attrs: Vec<_> = s.table(TableId(1)).attrs().collect();
        assert_eq!(t1_attrs, vec![AttrId(2)]);
    }

    #[test]
    fn selectivity_is_inverse_distinct_count() {
        let s = two_table_schema();
        assert_eq!(s.selectivity(AttrId(0)), 0.1);
        assert_eq!(s.selectivity(AttrId(2)), 0.5);
    }

    #[test]
    fn clones_share_the_tables_and_attributes() {
        let s = two_table_schema();
        let c = s.clone();
        assert!(std::ptr::eq(s.tables(), c.tables()));
        assert!(std::ptr::eq(s.attributes(), c.attributes()));
        let back: Schema = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rows_of_resolves_through_table() {
        let s = two_table_schema();
        assert_eq!(s.rows_of(AttrId(0)), 100);
        assert_eq!(s.rows_of(AttrId(2)), 1_000);
    }

    #[test]
    #[should_panic(expected = "most recent table")]
    fn attributes_must_follow_their_table() {
        let mut b = SchemaBuilder::new();
        let t0 = b.table("t0", 1);
        let _t1 = b.table("t1", 1);
        b.attribute(t0, "late", 1, 1);
    }

    #[test]
    #[should_panic(expected = "distinct value")]
    fn zero_distinct_values_rejected() {
        let mut b = SchemaBuilder::new();
        let t = b.table("t", 1);
        b.attribute(t, "bad", 0, 4);
    }
}
