//! Ordered multi-attribute indexes.
//!
//! An index `k = {i_1, …, i_K}` is an *ordered* list of attributes of one
//! table. An index is applicable to a query iff its leading attribute
//! `l(k) = i_1` is accessed by the query; the *usable prefix* `U(q, k)` is
//! the longest prefix of `k` whose attributes are all accessed by the query
//! (for conjunctive equality predicates, a composite index can only be
//! searched along a fully-bound prefix).

use crate::ids::AttrId;
use crate::query::Query;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An ordered multi-attribute index.
///
/// The attribute list is non-empty and duplicate-free; all attributes must
/// belong to the same table (enforced where schema context is available —
/// the generators and Algorithm 1 only ever combine same-table attributes).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Index {
    attrs: Vec<AttrId>,
}

impl Index {
    /// Create an index over `attrs` (ordered).
    ///
    /// # Panics
    ///
    /// Panics if `attrs` is empty or contains duplicates.
    pub fn new(attrs: Vec<AttrId>) -> Self {
        assert!(!attrs.is_empty(), "an index needs at least one attribute");
        let mut seen = attrs.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), attrs.len(), "index attributes must be distinct");
        Self { attrs }
    }

    /// Single-attribute index.
    pub fn single(attr: AttrId) -> Self {
        Self { attrs: vec![attr] }
    }

    /// Ordered attribute list.
    #[inline]
    pub fn attrs(&self) -> &[AttrId] {
        &self.attrs
    }

    /// Number of attributes `K`.
    #[inline]
    pub fn width(&self) -> usize {
        self.attrs.len()
    }

    /// Leading attribute `l(k)`.
    #[inline]
    pub fn leading(&self) -> AttrId {
        self.attrs[0]
    }

    /// Whether `attr` occurs anywhere in the index.
    #[inline]
    pub fn contains(&self, attr: AttrId) -> bool {
        self.attrs.contains(&attr)
    }

    /// New index with `attr` appended at the end (the "morphing" step of
    /// Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `attr` is already part of the index.
    pub fn extended(&self, attr: AttrId) -> Self {
        assert!(!self.contains(attr), "cannot append duplicate attribute {attr}");
        let mut attrs = Vec::with_capacity(self.attrs.len() + 1);
        attrs.extend_from_slice(&self.attrs);
        attrs.push(attr);
        Self { attrs }
    }

    /// Length of the usable prefix `U(q, k)`: the longest prefix of the
    /// index whose attributes are all accessed by `query`. Zero means the
    /// index is not applicable to the query.
    pub fn usable_prefix_len(&self, query: &Query) -> usize {
        self.attrs
            .iter()
            .take_while(|a| query.attrs().binary_search(a).is_ok())
            .count()
    }

    /// Whether the index is applicable to `query` (its leading attribute is
    /// accessed by the query).
    #[inline]
    pub fn applicable_to(&self, query: &Query) -> bool {
        query.accesses(self.leading())
    }
}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "idx(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;

    fn q(attrs: &[u32]) -> Query {
        Query::new(TableId(0), attrs.iter().copied().map(AttrId).collect(), 1)
    }

    #[test]
    fn extended_appends_at_end() {
        let k = Index::new(vec![AttrId(3), AttrId(1)]);
        let k2 = k.extended(AttrId(7));
        assert_eq!(k2.attrs(), &[AttrId(3), AttrId(1), AttrId(7)]);
        assert_eq!(k2.leading(), AttrId(3));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn extended_rejects_duplicates() {
        Index::single(AttrId(1)).extended(AttrId(1));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn new_rejects_duplicate_attrs() {
        Index::new(vec![AttrId(1), AttrId(2), AttrId(1)]);
    }

    #[test]
    fn usable_prefix_stops_at_first_missing_attr() {
        let k = Index::new(vec![AttrId(2), AttrId(5), AttrId(9)]);
        // Query covers 2 and 9 but not 5: only the first index attribute is
        // usable even though 9 appears later in the index.
        assert_eq!(k.usable_prefix_len(&q(&[2, 9])), 1);
        assert_eq!(k.usable_prefix_len(&q(&[2, 5])), 2);
        assert_eq!(k.usable_prefix_len(&q(&[2, 5, 9])), 3);
        assert_eq!(k.usable_prefix_len(&q(&[5, 9])), 0);
    }

    #[test]
    fn applicability_requires_leading_attribute() {
        let k = Index::new(vec![AttrId(2), AttrId(5)]);
        assert!(k.applicable_to(&q(&[1, 2])));
        assert!(!k.applicable_to(&q(&[5])));
    }
}
