//! Append-only, prefix-linked index interning pool.
//!
//! Every layer above the workload model reasons about the same small set
//! of candidate indexes, yet the seed implementation keyed its caches and
//! per-candidate state on `(QueryId, Vec<AttrId>)` — one heap clone and
//! one vector hash per cost probe. At the paper's ERP scale (§IV-A: 4,204
//! attributes, 2,271 templates) that bookkeeping dwarfs the cache lookup
//! it guards.
//!
//! [`IndexPool`] interns each [`Index`] exactly once into a dense
//! [`IndexId`]. Entries are *prefix-linked*: an entry of width `K` records
//! the id of its length-`(K−1)` prefix as `parent`, plus its `last`
//! (appended) attribute and its table. The links make the two hot
//! operations of Algorithm 1 cheap:
//!
//! * **Morphing** (`k → k ∘ a`, step 3b) is one hash lookup in the
//!   `children` edge map — [`IndexPool::child`] / [`IndexPool::intern_child`]
//!   — instead of building and re-hashing a new attribute vector.
//! * **Usable-prefix reduction** (`U(q, k)`) walks `width − |U|` parent
//!   links to the ancestor id that *is* the usable prefix
//!   ([`IndexPool::usable_ancestor`]) — no attribute vector is ever
//!   materialized.
//!
//! The pool is append-only and interior-mutable (`&self` interning behind
//! a `RwLock`), so a shared pool can serve concurrent candidate
//! evaluations; ids are assigned in first-intern order and never change.
//! Per-entry reads (`attrs`, `width`, `leading`, `parent`, applicability)
//! are **lock-free**: each new entry is published once into an append-only
//! atomic bucket array, so the per-probe hot path of a candidate sweep
//! never touches the intern lock.

use crate::ids::{AttrId, IndexId, TableId};
use crate::index::Index;
use crate::query::Query;
use crate::schema::Schema;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

/// Sentinel parent of width-1 entries.
const NO_PARENT: u32 = u32::MAX;

/// log2 of the first publication bucket's capacity.
const FIRST_BUCKET_BITS: usize = 10;
/// Bucket `b` holds `1024 << b` slots; 23 buckets cover every `u32` id.
const BUCKETS: usize = 23;

/// Lock-free read view of one interned entry, published once at creation.
///
/// `meta` packs `parent << 16 | width` (an index never exceeds the
/// schema's attribute count, far below 2¹⁶); `attrs` is the raw pointer of
/// the entry's boxed attribute list, whose heap allocation is stable for
/// the pool's lifetime.
struct Published {
    meta: AtomicU64,
    attrs: AtomicPtr<AttrId>,
}

/// `id → (bucket, slot)` for the doubling bucket layout.
#[inline]
fn locate(id: u32) -> (usize, usize) {
    let i = id as usize + (1 << FIRST_BUCKET_BITS);
    let bucket = (usize::BITS - 1 - i.leading_zeros()) as usize - FIRST_BUCKET_BITS;
    (bucket, i - (1 << (FIRST_BUCKET_BITS + bucket)))
}

/// One interned index: its full attribute list plus the prefix link. The
/// interning side of the pool; reads go through the published slots.
struct Entry {
    /// Full ordered attribute list. Boxed so the heap allocation stays at
    /// a stable address while the entry vector grows (see `attrs()`).
    attrs: Box<[AttrId]>,
    /// Table all attributes belong to.
    table: TableId,
}

struct PoolInner {
    entries: Vec<Entry>,
    /// Prefix-extension edges: `(parent entry, appended attr) → child`.
    /// Width-1 roots are edges from `NO_PARENT`.
    children: HashMap<(u32, AttrId), u32>,
}

/// Append-only interning pool of prefix-linked indexes.
///
/// See the module docs for the design; in short, each [`Index`] maps to
/// one dense [`IndexId`] and every entry knows the id of its longest
/// proper prefix.
pub struct IndexPool {
    /// Table of each attribute, copied out of the schema so applicability
    /// and invariant checks never need the schema itself.
    attr_table: Box<[TableId]>,
    inner: RwLock<PoolInner>,
    /// Append-only publication buckets for lock-free entry reads. Buckets
    /// are allocated and written only under `inner`'s write lock; readers
    /// never lock. See `slot()` for the safety argument.
    published: [AtomicPtr<Published>; BUCKETS],
}

impl IndexPool {
    /// Empty pool over `schema`'s attributes.
    pub fn new(schema: &Schema) -> Self {
        Self {
            attr_table: schema.attributes().iter().map(|a| a.table).collect(),
            inner: RwLock::new(PoolInner { entries: Vec::new(), children: HashMap::new() }),
            published: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }

    /// Publish entry `id` for lock-free reads. Caller holds the write
    /// lock, so bucket allocation cannot race.
    fn publish(&self, id: u32, parent: u32, attrs: &[AttrId]) {
        let (bucket, slot) = locate(id);
        let mut chunk = self.published[bucket].load(Ordering::Acquire);
        if chunk.is_null() {
            let size = 1usize << (FIRST_BUCKET_BITS + bucket);
            let fresh: Box<[Published]> = (0..size)
                .map(|_| Published {
                    meta: AtomicU64::new(0),
                    attrs: AtomicPtr::new(ptr::null_mut()),
                })
                .collect();
            chunk = Box::into_raw(fresh) as *mut Published;
            self.published[bucket].store(chunk, Ordering::Release);
        }
        // SAFETY: `slot < size` by construction of `locate`, and the chunk
        // was allocated above or by an earlier writer (never freed while
        // the pool lives).
        let cell = unsafe { &*chunk.add(slot) };
        cell.meta
            .store((parent as u64) << 16 | attrs.len() as u64, Ordering::Relaxed);
        cell.attrs.store(attrs.as_ptr() as *mut AttrId, Ordering::Release);
    }

    /// Lock-free slot lookup.
    ///
    /// # Safety argument
    ///
    /// A caller can only hold an [`IndexId`] that some `intern*` call
    /// returned, and interning publishes the slot (entry data first, then
    /// the `attrs` pointer with release ordering) before releasing the
    /// write lock and returning the id. Any path that hands the id to
    /// another thread synchronizes (the id is `Copy` but crosses threads
    /// only through `Sync`/`Send` primitives), so the slot contents —
    /// including the pointed-to attribute box, which is never moved,
    /// mutated, or dropped while the pool is alive — are visible wherever
    /// the id is.
    #[inline]
    fn slot(&self, id: IndexId) -> &Published {
        let (bucket, slot) = locate(id.0);
        let chunk = self.published[bucket].load(Ordering::Acquire);
        assert!(!chunk.is_null(), "IndexId {id} was never interned in this pool");
        // SAFETY: chunk is a live allocation of `1024 << bucket` slots.
        unsafe { &*chunk.add(slot) }
    }

    /// Number of interned indexes.
    pub fn len(&self) -> usize {
        self.inner.read().entries.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern `index`, returning its (new or existing) id.
    pub fn intern(&self, index: &Index) -> IndexId {
        self.intern_attrs(index.attrs())
    }

    /// Intern the ordered attribute list `attrs`.
    ///
    /// # Panics
    ///
    /// Panics if `attrs` is empty, contains duplicates, or spans tables.
    pub fn intern_attrs(&self, attrs: &[AttrId]) -> IndexId {
        assert!(!attrs.is_empty(), "an index needs at least one attribute");
        // Fast path: walk the edge map under the read lock. Interning an
        // already-known index takes `width` hash probes and no allocation.
        {
            let inner = self.inner.read();
            let mut at = NO_PARENT;
            let mut hit = true;
            for &a in attrs {
                match inner.children.get(&(at, a)) {
                    Some(&next) => at = next,
                    None => {
                        hit = false;
                        break;
                    }
                }
            }
            if hit {
                return IndexId(at);
            }
        }
        // Slow path: create the missing suffix of the chain under the
        // write lock (re-checking each edge — another thread may have
        // raced us here).
        let mut inner = self.inner.write();
        let mut at = NO_PARENT;
        for (i, &a) in attrs.iter().enumerate() {
            at = self.child_or_insert(&mut inner, at, a, &attrs[..=i]);
        }
        IndexId(at)
    }

    /// Insert (or find) the edge `parent ∘ attr`, with `prefix` being the
    /// full attribute list of the resulting entry. Caller holds the write
    /// lock behind `inner`.
    fn child_or_insert(
        &self,
        inner: &mut PoolInner,
        parent: u32,
        attr: AttrId,
        prefix: &[AttrId],
    ) -> u32 {
        if let Some(&id) = inner.children.get(&(parent, attr)) {
            return id;
        }
        let table = self.attr_table[attr.idx()];
        if parent != NO_PARENT {
            let p = &inner.entries[parent as usize];
            assert!(
                !p.attrs.contains(&attr),
                "cannot append duplicate attribute {attr}"
            );
            assert_eq!(p.table, table, "index attributes must share one table");
        }
        let id = u32::try_from(inner.entries.len()).expect("pool overflow");
        inner.entries.push(Entry { attrs: prefix.into(), table });
        inner.children.insert((parent, attr), id);
        self.publish(id, parent, &inner.entries[id as usize].attrs);
        id
    }

    /// Intern the width-1 index on `attr`.
    pub fn intern_single(&self, attr: AttrId) -> IndexId {
        self.intern_attrs(std::slice::from_ref(&attr))
    }

    /// O(1) morphing lookup: the id of `parent ∘ attr`, if interned.
    pub fn child(&self, parent: IndexId, attr: AttrId) -> Option<IndexId> {
        self.inner.read().children.get(&(parent.0, attr)).copied().map(IndexId)
    }

    /// Intern `parent ∘ attr` (Algorithm 1's morphing step 3b).
    ///
    /// # Panics
    ///
    /// Panics if `attr` already occurs in `parent` or lives on another
    /// table.
    pub fn intern_child(&self, parent: IndexId, attr: AttrId) -> IndexId {
        if let Some(id) = self.child(parent, attr) {
            return id;
        }
        let mut inner = self.inner.write();
        let mut attrs: Vec<AttrId> = inner.entries[parent.idx()].attrs.to_vec();
        attrs.push(attr);
        IndexId(self.child_or_insert(&mut inner, parent.0, attr, &attrs))
    }

    /// Full ordered attribute list of `id`.
    ///
    /// Zero-copy and lock-free: the returned slice borrows the entry's
    /// boxed attribute list, which is never mutated, replaced, or dropped
    /// while the pool is alive.
    #[inline]
    pub fn attrs(&self, id: IndexId) -> &[AttrId] {
        let slot = self.slot(id);
        let ptr = slot.attrs.load(Ordering::Acquire);
        assert!(!ptr.is_null(), "IndexId {id} was never interned in this pool");
        let len = (slot.meta.load(Ordering::Relaxed) & 0xFFFF) as usize;
        // SAFETY: see `slot()` — a published (ptr, len) pair describes a
        // live boxed slice that is stable for the pool's lifetime.
        unsafe { std::slice::from_raw_parts(ptr, len) }
    }

    /// Materialize `id` back into an owned [`Index`] (API boundary only).
    pub fn resolve(&self, id: IndexId) -> Index {
        Index::new(self.attrs(id).to_vec())
    }

    /// Width `K` of `id`.
    #[inline]
    pub fn width(&self, id: IndexId) -> usize {
        self.attrs(id).len()
    }

    /// Leading attribute `l(k)`.
    #[inline]
    pub fn leading(&self, id: IndexId) -> AttrId {
        self.attrs(id)[0]
    }

    /// Last (most recently appended) attribute.
    #[inline]
    pub fn last(&self, id: IndexId) -> AttrId {
        *self.attrs(id).last().expect("interned indexes are non-empty")
    }

    /// Table of `id`.
    #[inline]
    pub fn table(&self, id: IndexId) -> TableId {
        self.attr_table[self.leading(id).idx()]
    }

    /// Id of the length-`(K−1)` prefix; `None` for width-1 indexes.
    #[inline]
    pub fn parent(&self, id: IndexId) -> Option<IndexId> {
        let p = (self.slot(id).meta.load(Ordering::Relaxed) >> 16) as u32;
        (p != NO_PARENT).then_some(IndexId(p))
    }

    /// Whether `id` is applicable to `query` (leading attribute accessed).
    #[inline]
    pub fn applicable_to(&self, query: &Query, id: IndexId) -> bool {
        query.accesses(self.leading(id))
    }

    /// Length of the usable prefix `U(q, k)`; 0 means inapplicable.
    pub fn usable_prefix_len(&self, query: &Query, id: IndexId) -> usize {
        self.attrs(id)
            .iter()
            .take_while(|a| query.accesses(**a))
            .count()
    }

    /// Id of the ancestor that *is* the usable prefix `U(q, k)` — the
    /// prefix-linked replacement for materializing `attrs[..usable]`.
    /// `None` when the index is inapplicable to `query`.
    ///
    /// Because every prefix of an interned index is itself interned (the
    /// chain is built root-first), this walks `width − |U|` parent links
    /// and allocates nothing.
    pub fn usable_ancestor(&self, query: &Query, id: IndexId) -> Option<IndexId> {
        let usable = self.usable_prefix_len(query, id);
        if usable == 0 {
            return None;
        }
        let mut at = id;
        let mut width = self.width(at);
        while width > usable {
            at = self.parent(at).expect("prefix chain is fully interned");
            width -= 1;
        }
        Some(at)
    }
}

/// Old-id → new-id mapping produced by [`IndexPool::compact`].
#[derive(Clone, Debug, Default)]
pub struct IdRemap {
    /// Indexed by pre-compaction id; `None` for entries that were dropped.
    map: Vec<Option<IndexId>>,
}

impl IdRemap {
    /// The post-compaction id of `old`, or `None` if the entry was
    /// dropped (or `old` never existed).
    pub fn get(&self, old: IndexId) -> Option<IndexId> {
        self.map.get(old.idx()).copied().flatten()
    }

    /// Number of pre-compaction ids covered by the map.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the pre-compaction pool was empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of entries that survived compaction.
    pub fn retained(&self) -> usize {
        self.map.iter().flatten().count()
    }
}

impl IndexPool {
    /// An empty pool over the same attribute/table layout.
    fn fresh_like(&self) -> Self {
        Self {
            attr_table: self.attr_table.clone(),
            inner: RwLock::new(PoolInner { entries: Vec::new(), children: HashMap::new() }),
            published: std::array::from_fn(|_| AtomicPtr::new(ptr::null_mut())),
        }
    }

    /// Drop every entry not reachable from `live`, re-numbering the
    /// survivors densely.
    ///
    /// The pool is append-only by design, so a long-lived tuner's pool
    /// grows without bound as selections churn; compaction is the
    /// counterpart for quiescent points (e.g. when a checkpoint is
    /// captured). The keep-set is `live` closed under parent links —
    /// every prefix of a live index survives, preserving the invariant
    /// that prefix chains are fully interned. Survivors are re-interned
    /// in attribute-lexicographic order, which keeps ids dense and
    /// parents below children (a prefix sorts before every extension),
    /// and makes the compacted pool *canonical*: it depends only on the
    /// live set, not on the intern history — so two runs that converged
    /// to the same selection produce byte-identical checkpoints after
    /// compaction.
    ///
    /// All previously issued [`IndexId`]s are invalidated; translate any
    /// that must survive through the returned [`IdRemap`].
    ///
    /// # Panics
    ///
    /// Panics if any id in `live` was never interned in this pool.
    pub fn compact(&mut self, live: &[IndexId]) -> IdRemap {
        let old_len = self.len();
        let mut keep = vec![false; old_len];
        for &id in live {
            assert!(id.idx() < old_len, "IndexId {id} was never interned in this pool");
            let mut at = Some(id);
            while let Some(i) = at {
                if keep[i.idx()] {
                    break; // the rest of the chain is already kept
                }
                keep[i.idx()] = true;
                at = self.parent(i);
            }
        }
        let mut kept: Vec<u32> = (0..old_len as u32).filter(|&i| keep[i as usize]).collect();
        kept.sort_by(|&x, &y| self.attrs(IndexId(x)).cmp(self.attrs(IndexId(y))));
        let fresh = self.fresh_like();
        for &old in &kept {
            fresh.intern_attrs(self.attrs(IndexId(old)));
        }
        let mut map = vec![None; old_len];
        for &old in &kept {
            // Idempotent second intern: a pure id lookup by now.
            map[old as usize] = Some(fresh.intern_attrs(self.attrs(IndexId(old))));
        }
        *self = fresh;
        IdRemap { map }
    }
}

impl Drop for IndexPool {
    fn drop(&mut self) {
        for (bucket, cell) in self.published.iter().enumerate() {
            let chunk = cell.load(Ordering::Acquire);
            if !chunk.is_null() {
                let size = 1usize << (FIRST_BUCKET_BITS + bucket);
                // SAFETY: allocated by `publish` as a boxed slice of
                // exactly this size; slots hold no owned heap data (the
                // attrs pointers borrow from `inner.entries`).
                drop(unsafe {
                    Box::from_raw(ptr::slice_from_raw_parts_mut(chunk, size))
                });
            }
        }
    }
}

impl std::fmt::Debug for IndexPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexPool").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TableId;
    use crate::schema::SchemaBuilder;

    fn schema_with(attrs_per_table: &[usize]) -> Schema {
        let mut b = SchemaBuilder::new();
        for (t, &n) in attrs_per_table.iter().enumerate() {
            let tid = b.table(&format!("t{t}"), 1_000);
            for i in 0..n {
                b.attribute(tid, &format!("a{t}_{i}"), 100, 4);
            }
        }
        b.finish()
    }

    #[test]
    fn interning_is_idempotent() {
        let s = schema_with(&[3]);
        let pool = IndexPool::new(&s);
        let k = Index::new(vec![AttrId(0), AttrId(2)]);
        let id1 = pool.intern(&k);
        let id2 = pool.intern(&k);
        assert_eq!(id1, id2);
        // Interning also created the width-1 prefix.
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.resolve(id1), k);
    }

    #[test]
    fn parent_links_form_the_prefix_chain() {
        let s = schema_with(&[4]);
        let pool = IndexPool::new(&s);
        let id = pool.intern_attrs(&[AttrId(1), AttrId(3), AttrId(0)]);
        let p = pool.parent(id).unwrap();
        assert_eq!(pool.attrs(p), &[AttrId(1), AttrId(3)]);
        let pp = pool.parent(p).unwrap();
        assert_eq!(pool.attrs(pp), &[AttrId(1)]);
        assert_eq!(pool.parent(pp), None);
        assert_eq!(pool.last(id), AttrId(0));
        assert_eq!(pool.leading(id), AttrId(1));
        assert_eq!(pool.width(id), 3);
    }

    #[test]
    fn child_lookup_is_the_morphing_step() {
        let s = schema_with(&[3]);
        let pool = IndexPool::new(&s);
        let root = pool.intern_single(AttrId(0));
        assert_eq!(pool.child(root, AttrId(1)), None);
        let ext = pool.intern_child(root, AttrId(1));
        assert_eq!(pool.child(root, AttrId(1)), Some(ext));
        assert_eq!(pool.attrs(ext), &[AttrId(0), AttrId(1)]);
        assert_eq!(pool.intern_child(root, AttrId(1)), ext);
    }

    #[test]
    fn usable_ancestor_matches_usable_prefix() {
        let s = schema_with(&[4]);
        let pool = IndexPool::new(&s);
        let id = pool.intern_attrs(&[AttrId(2), AttrId(1), AttrId(3)]);
        // Query binds a2 and a3 but not a1: usable prefix is just (a2).
        let q = Query::new(TableId(0), vec![AttrId(2), AttrId(3)], 1);
        assert_eq!(pool.usable_prefix_len(&q, id), 1);
        let anc = pool.usable_ancestor(&q, id).unwrap();
        assert_eq!(pool.attrs(anc), &[AttrId(2)]);
        // Fully bound: the ancestor is the index itself.
        let q_all = Query::new(TableId(0), vec![AttrId(1), AttrId(2), AttrId(3)], 1);
        assert_eq!(pool.usable_ancestor(&q_all, id), Some(id));
        // Inapplicable: leading attribute unbound.
        let q_none = Query::new(TableId(0), vec![AttrId(1), AttrId(3)], 1);
        assert_eq!(pool.usable_ancestor(&q_none, id), None);
        assert!(!pool.applicable_to(&q_none, id));
    }

    #[test]
    #[should_panic(expected = "share one table")]
    fn cross_table_indexes_are_rejected() {
        let s = schema_with(&[2, 2]);
        let pool = IndexPool::new(&s);
        pool.intern_attrs(&[AttrId(0), AttrId(2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_attributes_are_rejected() {
        let s = schema_with(&[2]);
        let pool = IndexPool::new(&s);
        let root = pool.intern_single(AttrId(1));
        pool.intern_child(root, AttrId(1));
    }

    #[test]
    fn concurrent_interning_yields_one_entry_per_index() {
        let s = schema_with(&[6]);
        let pool = IndexPool::new(&s);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for a in 0..6u32 {
                        for b in 0..6u32 {
                            if a != b {
                                pool.intern_attrs(&[AttrId(a), AttrId(b)]);
                            }
                        }
                    }
                });
            }
        });
        // 6 roots + 30 ordered pairs.
        assert_eq!(pool.len(), 36);
    }

    #[test]
    fn compact_keeps_live_closure_and_renumbers_densely() {
        let s = schema_with(&[6]);
        let mut pool = IndexPool::new(&s);
        let _dead = pool.intern_attrs(&[AttrId(4), AttrId(5)]);
        let live = pool.intern_attrs(&[AttrId(0), AttrId(1), AttrId(2)]);
        let live_attrs = pool.attrs(live).to_vec();
        assert_eq!(pool.len(), 5); // a4, a4a5, a0, a0a1, a0a1a2
        let remap = pool.compact(&[live]);
        // Live index + its two prefixes survive; the dead chain is gone.
        assert_eq!(pool.len(), 3);
        assert_eq!(remap.retained(), 3);
        assert_eq!(remap.len(), 5);
        let new_id = remap.get(live).unwrap();
        assert_eq!(pool.attrs(new_id), &live_attrs[..]);
        // Prefix chain is intact and the child-edge map was rebuilt.
        let p = pool.parent(new_id).unwrap();
        assert_eq!(pool.attrs(p), &live_attrs[..2]);
        assert_eq!(pool.child(p, AttrId(2)), Some(new_id));
        assert_eq!(pool.intern_attrs(&live_attrs), new_id);
        // Dead ids map to nothing.
        assert_eq!(remap.get(IndexId(0)), None);
        assert_eq!(remap.get(IndexId(1)), None);
    }

    #[test]
    fn compact_with_no_live_ids_empties_the_pool() {
        let s = schema_with(&[3]);
        let mut pool = IndexPool::new(&s);
        pool.intern_attrs(&[AttrId(0), AttrId(1)]);
        let remap = pool.compact(&[]);
        assert!(pool.is_empty());
        assert_eq!(remap.retained(), 0);
        // The pool is still usable after compaction.
        let id = pool.intern_single(AttrId(2));
        assert_eq!(pool.attrs(id), &[AttrId(2)]);
    }

    #[test]
    fn attrs_slices_survive_pool_growth() {
        let s = schema_with(&[64]);
        let pool = IndexPool::new(&s);
        let first = pool.intern_single(AttrId(0));
        let slice = pool.attrs(first);
        // Force many reallocations of the entry vector.
        for a in 1..64u32 {
            pool.intern_single(AttrId(a));
        }
        assert_eq!(slice, &[AttrId(0)]);
        assert_eq!(pool.attrs(first), &[AttrId(0)]);
    }
}
