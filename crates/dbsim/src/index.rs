//! Multi-attribute secondary indexes.
//!
//! A [`SecondaryIndex`] over attributes `(a_1, …, a_K)` stores the key
//! columns *materialized in sorted order* plus the matching row-id list —
//! a common layout for main-memory column stores (sorted dictionary-style
//! composite index). Probing a fully-bound prefix of length `p` is a pair
//! of binary searches (lower/upper bound) over the composite key, returning
//! the contiguous run of row ids whose prefix matches.

use crate::data::Column;
use crate::exec::Work;
use isel_workload::{AttrId, Index};

/// A sorted composite secondary index.
#[derive(Clone, Debug)]
pub struct SecondaryIndex {
    /// Index definition (ordered attribute list).
    pub definition: Index,
    /// Key columns in index-attribute order, each re-ordered by the sort.
    keys: Vec<Vec<u32>>,
    /// Row ids sorted lexicographically by the key columns.
    row_ids: Vec<u32>,
    /// Declared byte width of each key attribute (for memory accounting).
    key_widths: Vec<u32>,
}

impl SecondaryIndex {
    /// Build the index over the given base columns (one per definition
    /// attribute, in definition order).
    ///
    /// # Panics
    ///
    /// Panics if the number of columns does not match the definition or
    /// the columns disagree on length.
    pub fn build(definition: Index, columns: &[&Column]) -> Self {
        assert_eq!(definition.width(), columns.len(), "one column per index attribute");
        let n = columns.first().map_or(0, |c| c.values.len());
        assert!(
            columns.iter().all(|c| c.values.len() == n),
            "all index columns must have the same length"
        );

        let mut row_ids: Vec<u32> = (0..n as u32).collect();
        row_ids.sort_unstable_by(|&a, &b| {
            for col in columns {
                let ord = col.values[a as usize].cmp(&col.values[b as usize]);
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        });

        let keys = columns
            .iter()
            .map(|col| row_ids.iter().map(|&r| col.values[r as usize]).collect())
            .collect();
        let key_widths = columns.iter().map(|c| c.value_size).collect();
        Self { definition, keys, row_ids, key_widths }
    }

    /// Number of indexed rows.
    pub fn len(&self) -> usize {
        self.row_ids.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.row_ids.is_empty()
    }

    /// Attributes of the index, in key order.
    pub fn attrs(&self) -> &[AttrId] {
        self.definition.attrs()
    }

    /// Bytes occupied: 4 bytes per row id plus the declared width of every
    /// materialized key column — the in-memory analogue of the paper's
    /// `p_k` (row-id list + key columns).
    pub fn memory_bytes(&self) -> u64 {
        let n = self.row_ids.len() as u64;
        let keys: u64 = self.key_widths.iter().map(|&w| w as u64 * n).sum();
        4 * n + keys
    }

    /// Probe a fully-bound key prefix, returning `(range, comparisons)`:
    /// the contiguous range of positions whose first `prefix.len()` key
    /// attributes equal `prefix`, and the number of key comparisons the
    /// binary searches performed.
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is empty or longer than the index.
    pub fn probe(&self, prefix: &[u32]) -> (std::ops::Range<usize>, u64) {
        assert!(
            !prefix.is_empty() && prefix.len() <= self.definition.width(),
            "prefix length must be in 1..=K"
        );
        let mut comparisons = 0u64;
        let cmp_at = |pos: usize, cmps: &mut u64| -> std::cmp::Ordering {
            for (k, &want) in prefix.iter().enumerate() {
                *cmps += 1;
                match self.keys[k][pos].cmp(&want) {
                    std::cmp::Ordering::Equal => continue,
                    other => return other,
                }
            }
            std::cmp::Ordering::Equal
        };

        // Lower bound: first pos with key ≥ prefix.
        let (mut lo, mut hi) = (0usize, self.row_ids.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp_at(mid, &mut comparisons) == std::cmp::Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let start = lo;
        // Upper bound: first pos with key > prefix.
        let (mut lo, mut hi) = (start, self.row_ids.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if cmp_at(mid, &mut comparisons) == std::cmp::Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        (start..lo, comparisons)
    }

    /// Row ids in a probed range.
    pub fn row_ids_in(&self, range: std::ops::Range<usize>) -> &[u32] {
        &self.row_ids[range]
    }

    /// Work of maintaining this index for one modified row: binary-search
    /// the entry (composite comparisons) and rewrite the key columns plus
    /// the 4-byte row id.
    pub fn maintenance_work(&self) -> Work {
        let n = self.row_ids.len().max(2) as f64;
        let steps = n.log2().ceil() as u64;
        let key_bytes: u64 = self.key_widths.iter().map(|&w| w as u64).sum();
        Work {
            comparisons: steps * self.key_widths.len() as u64,
            bytes_written: key_bytes + 4,
            ..Work::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(values: Vec<u32>) -> Column {
        Column { values, value_size: 4 }
    }

    fn two_col_index() -> (SecondaryIndex, Column, Column) {
        let c0 = col(vec![3, 1, 2, 1, 3, 2, 1, 0]);
        let c1 = col(vec![0, 5, 1, 4, 2, 1, 5, 9]);
        let def = Index::new(vec![AttrId(0), AttrId(1)]);
        let idx = SecondaryIndex::build(def, &[&c0, &c1]);
        (idx, c0, c1)
    }

    #[test]
    fn build_sorts_lexicographically() {
        let (idx, c0, c1) = two_col_index();
        let mut prev: Option<(u32, u32)> = None;
        for pos in 0..idx.len() {
            let r = idx.row_ids_in(0..idx.len())[pos] as usize;
            let key = (c0.values[r], c1.values[r]);
            if let Some(p) = prev {
                assert!(p <= key, "{p:?} > {key:?}");
            }
            prev = Some(key);
        }
    }

    #[test]
    fn probe_single_attribute_prefix() {
        let (idx, c0, _) = two_col_index();
        let (range, cmps) = idx.probe(&[1]);
        let rows = idx.row_ids_in(range);
        let expected: Vec<u32> = (0..8).filter(|&r| c0.values[r as usize] == 1).collect();
        let mut got = rows.to_vec();
        got.sort_unstable();
        assert_eq!(got, expected);
        assert!(cmps > 0);
    }

    #[test]
    fn probe_full_composite_key() {
        let (idx, _, _) = two_col_index();
        let (range, _) = idx.probe(&[1, 5]);
        // Rows 1 and 6 have (1, 5).
        let mut got = idx.row_ids_in(range).to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![1, 6]);
    }

    #[test]
    fn probe_missing_key_returns_empty_range() {
        let (idx, _, _) = two_col_index();
        let (range, _) = idx.probe(&[7]);
        assert!(range.is_empty());
    }

    #[test]
    fn memory_accounts_rowids_and_keys() {
        let (idx, _, _) = two_col_index();
        // 8 rows: 4·8 row-ids + 2 key columns à 4·8.
        assert_eq!(idx.memory_bytes(), 32 + 64);
    }

    #[test]
    fn empty_index_probes_cleanly() {
        let c = col(vec![]);
        let idx = SecondaryIndex::build(Index::single(AttrId(0)), &[&c]);
        assert!(idx.is_empty());
        let (range, _) = idx.probe(&[1]);
        assert!(range.is_empty());
    }

    #[test]
    #[should_panic(expected = "one column per index attribute")]
    fn build_validates_column_count() {
        let c = col(vec![1, 2]);
        SecondaryIndex::build(Index::new(vec![AttrId(0), AttrId(1)]), &[&c]);
    }
}
