//! Algorithm 1 against an independent oracle.
//!
//! [`naive_h6`] is H6 written from the paper's Algorithm 1 and the
//! documented tie-break, deliberately without any of the engine's
//! machinery: no benefit caches, no dirty flags, no covering lists, no
//! index ids. Every step it recomputes every candidate's benefit from
//! scratch through the public [`WhatIfOptimizer`] boundary methods
//! (`index_cost_of`, `index_memory_of`, `maintenance_cost_of`) on plain
//! [`Index`] values, orders the candidates by the documented
//! `(kind, slot, attrs)` key, and folds them left to right with the
//! documented `beats` rule. It runs on its own estimator instance, so
//! not even the interning pool is shared with the engine under test.
//!
//! The properties assert that `algorithm1::run` reproduces the oracle
//! **bit for bit** — step log, frontier, selection, initial and final
//! cost — under the default options and under every Remark-1 switch and
//! a non-free reconfiguration model. Float sums are written in the one
//! order the engine documents (queries in ascending id, slots in slot
//! order), so `to_bits` equality is the assertion, not an epsilon.

use isel_core::algorithm1::{self, Options, RunResult, StepAction, StepRecord};
use isel_core::{budget, Frontier, FrontierPoint, Parallelism, ReconfigCosts, Selection};
use isel_costmodel::{AnalyticalWhatIf, CachingWhatIf, WhatIfOptimizer};
use isel_workload::{AttrId, Index, Query, QueryId, SchemaBuilder, TableId, Workload};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The oracle
// ---------------------------------------------------------------------

/// One selected index of the naive construction. A pruned slot stays in
/// the list as `None` so later slot numbers keep their meaning — the
/// slot number is part of the tie-break key.
struct NaiveSlot {
    index: Index,
    /// Queries this index currently serves (Remark 1.2).
    served: u32,
}

/// A candidate step.
enum Candidate {
    New(Index),
    Extend { slot: usize, to: Index },
}

impl Candidate {
    /// The documented tie-break order: new indexes before extensions,
    /// extensions by slot, then lexicographically by the attribute list
    /// of the index the step would create.
    fn key(&self) -> (u8, usize, &[AttrId]) {
        match self {
            Candidate::New(k) => (0, 0, k.attrs()),
            Candidate::Extend { slot, to } => (1, *slot, to.attrs()),
        }
    }
}

struct Naive<'a, W> {
    est: &'a W,
    options: &'a Options,
    freq: Vec<f64>,
    /// Current cost of each query under the selection built so far.
    cur: Vec<f64>,
    /// Slot currently serving each query.
    server: Vec<Option<usize>>,
    slots: Vec<Option<NaiveSlot>>,
    /// Attributes allowed as new single-attribute indexes (Remark 1.1).
    allowed: Vec<bool>,
    /// Frequency-weighted update executions per table.
    upd_weight: Vec<f64>,
    total_memory: u64,
    maint_total: f64,
}

impl<'a, W: WhatIfOptimizer> Naive<'a, W> {
    fn new(est: &'a W, options: &'a Options) -> Self {
        let w = est.workload();
        let mut upd_weight = vec![0.0f64; w.schema().tables().len()];
        for (_, q) in w.iter() {
            if q.is_update() {
                upd_weight[q.table().idx()] += q.frequency() as f64;
            }
        }
        Self {
            est,
            options,
            freq: w.iter().map(|(_, q)| q.frequency() as f64).collect(),
            cur: w.iter().map(|(j, _)| est.unindexed_cost(j)).collect(),
            server: vec![None; w.query_count()],
            slots: Vec::new(),
            allowed: vec![true; w.schema().attr_count()],
            upd_weight,
            total_memory: 0,
            maint_total: 0.0,
        }
    }

    /// Workload benefit of having `index` in addition to the current
    /// selection: over every query that contains *all* its attributes, in
    /// ascending query id, the frequency-weighted cost reduction.
    fn benefit(&self, index: &Index) -> f64 {
        let mut ben = 0.0;
        for (j, q) in self.est.workload().iter() {
            if !index.attrs().iter().all(|a| q.accesses(*a)) {
                continue;
            }
            if let Some(f) = self.est.index_cost_of(j, index) {
                let cur = self.cur[j.0 as usize];
                if f < cur {
                    ben += self.freq[j.0 as usize] * (cur - f);
                }
            }
        }
        ben
    }

    fn weighted_maint(&self, index: &Index) -> f64 {
        let table = self.est.workload().schema().attribute(index.leading()).table;
        let w = self.upd_weight[table.idx()];
        if w == 0.0 {
            0.0
        } else {
            w * self.est.maintenance_cost_of(index)
        }
    }

    fn selected(&self, index: &Index) -> bool {
        self.slots.iter().flatten().any(|s| &s.index == index)
    }

    fn selection(&self) -> Selection {
        self.slots.iter().flatten().map(|s| s.index.clone()).collect()
    }

    fn slot_index(&self, slot: usize) -> &Index {
        &self.slots[slot].as_ref().expect("live slot").index
    }

    /// Every candidate of this step with its benefit, in canonical order.
    fn candidates(&self) -> Vec<(Candidate, f64)> {
        let w = self.est.workload();
        let schema = w.schema();
        let n_attrs = schema.attr_count() as u32;
        let mut out: Vec<(Candidate, f64)> = Vec::new();

        // (3a) new single-attribute indexes.
        for a in (0..n_attrs).map(AttrId) {
            let k = Index::single(a);
            if self.allowed[a.idx()] && !self.selected(&k) {
                let ben = self.benefit(&k);
                out.push((Candidate::New(k), ben));
            }
        }
        // Remark 1.4: new two-attribute indexes on every pair of
        // attributes some query accesses together, in the better of the
        // two orientations (ties keep ascending attribute order).
        if self.options.pair_steps {
            for a in (0..n_attrs).map(AttrId) {
                for b in (a.0 + 1..n_attrs).map(AttrId) {
                    if !w.iter().any(|(_, q)| q.accesses(a) && q.accesses(b)) {
                        continue;
                    }
                    let fwd = self.benefit(&Index::new(vec![a, b]));
                    let rev = self.benefit(&Index::new(vec![b, a]));
                    let (k, ben) = if fwd >= rev {
                        (Index::new(vec![a, b]), fwd)
                    } else {
                        (Index::new(vec![b, a]), rev)
                    };
                    if !self.selected(&k) {
                        out.push((Candidate::New(k), ben));
                    }
                }
            }
        }
        // (3b) append one attribute (Remark 1.4: or two, in ascending
        // order) of the same table to an existing index.
        if self.options.morphing {
            for (slot, s) in self.slots.iter().enumerate() {
                let Some(s) = s else { continue };
                let table = schema.attribute(s.index.leading()).table;
                let free: Vec<AttrId> = (0..n_attrs)
                    .map(AttrId)
                    .filter(|&a| schema.attribute(a).table == table && !s.index.contains(a))
                    .collect();
                for (x, &a) in free.iter().enumerate() {
                    let ext = s.index.extended(a);
                    if !self.selected(&ext) {
                        let ben = self.benefit(&ext);
                        out.push((Candidate::Extend { slot, to: ext.clone() }, ben));
                    }
                    if self.options.pair_steps {
                        for &b in &free[x + 1..] {
                            let ext2 = ext.extended(b);
                            if !self.selected(&ext2) {
                                let ben = self.benefit(&ext2);
                                out.push((Candidate::Extend { slot, to: ext2 }, ben));
                            }
                        }
                    }
                }
            }
        }
        out.sort_by(|(x, _), (y, _)| x.key().cmp(&y.key()));
        out
    }

    /// Reconfiguration cost a candidate adds: creating what `Ī` lacks,
    /// un-creating (or dropping) what an extension replaces.
    fn reconfig_delta(&self, cand: &Candidate) -> f64 {
        let r = &self.options.reconfig;
        if r.create_cost_per_byte == 0.0 && r.drop_cost == 0.0 {
            return 0.0;
        }
        let create = |k: &Index| self.est.index_memory_of(k) as f64 * r.create_cost_per_byte;
        match cand {
            Candidate::New(k) => {
                if r.current.contains(k) {
                    0.0
                } else {
                    create(k)
                }
            }
            Candidate::Extend { slot, to } => {
                let from = self.slot_index(*slot);
                let mut delta = 0.0;
                if !r.current.contains(to) {
                    delta += create(to);
                }
                if r.current.contains(from) {
                    delta += r.drop_cost;
                } else {
                    delta -= create(from);
                }
                delta
            }
        }
    }

    /// `(net benefit, memory delta, ratio)`, or `None` for a candidate
    /// that does not pay or does not fit.
    fn metrics(&self, cand: &Candidate, workload_ben: f64) -> Option<(f64, u64, f64)> {
        if workload_ben <= 0.0 {
            return None;
        }
        let (maint, dm) = match cand {
            Candidate::New(k) => (self.weighted_maint(k), self.est.index_memory_of(k)),
            Candidate::Extend { slot, to } => {
                let from = self.slot_index(*slot);
                (
                    self.weighted_maint(to) - self.weighted_maint(from),
                    self.est.index_memory_of(to) - self.est.index_memory_of(from),
                )
            }
        };
        let net = workload_ben - self.reconfig_delta(cand) - maint;
        if net <= 0.0 {
            return None;
        }
        if dm == 0 || self.total_memory + dm > self.options.budget {
            return None;
        }
        Some((net, dm, net / dm as f64))
    }

    fn action_of(&self, cand: &Candidate) -> StepAction {
        match cand {
            Candidate::New(k) => StepAction::NewIndex(k.clone()),
            Candidate::Extend { slot, to } => {
                StepAction::Extend { from: self.slot_index(*slot).clone(), to: to.clone() }
            }
        }
    }

    /// Point query `j` at `slot`, keeping the serve counts.
    fn reassign(&mut self, j: usize, slot: usize) {
        if let Some(old) = self.server[j] {
            if let Some(s) = self.slots[old].as_mut() {
                s.served = s.served.saturating_sub(1);
            }
        }
        self.server[j] = Some(slot);
    }

    fn apply(&mut self, cand: &Candidate) {
        let (slot, index) = match cand {
            Candidate::New(k) => (self.slots.len(), k),
            Candidate::Extend { slot, to } => (*slot, to),
        };
        // The index the slot held so far (none, for a new index) and how
        // many queries it serves; they stay with the extended index.
        let from = self.slots.get(slot).map(|s| s.as_ref().expect("live slot").index.clone());
        let mut served = self.slots.get(slot).map_or(0, |s| s.as_ref().expect("live slot").served);
        for (j, q) in self.est.workload().iter() {
            if !index.attrs().iter().all(|a| q.accesses(*a)) {
                continue;
            }
            if let Some(f) = self.est.index_cost_of(j, index) {
                let j = j.0 as usize;
                if f < self.cur[j] {
                    self.cur[j] = f;
                    if self.server[j] != Some(slot) {
                        self.reassign(j, slot);
                        served += 1;
                    }
                }
            }
        }
        match &from {
            None => {
                self.total_memory += self.est.index_memory_of(index);
                self.maint_total += self.weighted_maint(index);
            }
            Some(from) => {
                self.total_memory +=
                    self.est.index_memory_of(index) - self.est.index_memory_of(from);
                self.maint_total += self.weighted_maint(index) - self.weighted_maint(from);
            }
        }
        let entry = Some(NaiveSlot { index: index.clone(), served });
        match from {
            None => self.slots.push(entry),
            Some(_) => self.slots[slot] = entry,
        }
    }

    /// `F(I) + maintenance + R(I, Ī)` of the selection built so far.
    fn total_cost(&self) -> f64 {
        let f: f64 = self.cur.iter().zip(&self.freq).map(|(c, b)| c * b).sum();
        f + self.maint_total + self.options.reconfig.cost(&self.selection(), self.est)
    }

    fn run(mut self) -> RunResult {
        // Remark 1.1: keep the n single attributes of highest initial
        // benefit per byte (ties: lower attribute id).
        if let Some(n) = self.options.n_best_single {
            let mut density: Vec<(usize, f64)> = (0..self.allowed.len())
                .map(|i| {
                    let k = Index::single(AttrId(i as u32));
                    (i, self.benefit(&k) / self.est.index_memory_of(&k).max(1) as f64)
                })
                .collect();
            density.sort_by(|x, y| y.1.partial_cmp(&x.1).expect("finite").then(x.0.cmp(&y.0)));
            self.allowed = vec![false; self.allowed.len()];
            for &(i, _) in density.iter().take(n) {
                self.allowed[i] = true;
            }
        }

        let initial_cost = self.cur.iter().zip(&self.freq).map(|(c, b)| c * b).sum::<f64>()
            + self.options.reconfig.cost(&Selection::empty(), self.est);
        let mut steps: Vec<StepRecord> = Vec::new();
        let mut points = vec![FrontierPoint { memory: 0, cost: initial_cost }];

        loop {
            let candidates = self.candidates();
            // The documented fold: higher ratio wins beyond 1e-12, equal
            // ratios go to the larger net benefit, anything else keeps the
            // earlier candidate.
            let beats = |net: f64, ratio: f64, inc: Option<&(usize, f64, u64, f64)>| match inc {
                None => true,
                Some(&(_, bnet, _, bratio)) => {
                    ratio > bratio + 1e-12 || ((ratio - bratio).abs() <= 1e-12 && net > bnet)
                }
            };
            let mut best: Option<(usize, f64, u64, f64)> = None;
            for (pos, (cand, ben)) in candidates.iter().enumerate() {
                let Some((net, dm, ratio)) = self.metrics(cand, *ben) else { continue };
                if beats(net, ratio, best.as_ref()) {
                    best = Some((pos, net, dm, ratio));
                }
            }
            let Some((pos, net, dm, ratio)) = best else { break };
            let action = self.action_of(&candidates[pos].0);
            self.apply(&candidates[pos].0);
            let total_cost = self.total_cost();
            steps.push(StepRecord {
                action,
                benefit: net,
                memory_delta: dm as i64,
                ratio,
                total_memory: self.total_memory,
                total_cost,
            });
            points.push(FrontierPoint { memory: self.total_memory, cost: total_cost });

            // Remark 1.2: drop indexes that serve no query anymore.
            if self.options.prune_unused {
                let mut dropped = Vec::new();
                let mut freed = 0u64;
                for pos in 0..self.slots.len() {
                    if self.slots[pos].as_ref().is_some_and(|s| s.served == 0) {
                        let s = self.slots[pos].take().expect("checked above");
                        freed += self.est.index_memory_of(&s.index);
                        self.maint_total -= self.weighted_maint(&s.index);
                        dropped.push(s.index);
                    }
                }
                if !dropped.is_empty() {
                    self.total_memory -= freed;
                    let total_cost = self.total_cost();
                    steps.push(StepRecord {
                        action: StepAction::Prune(dropped),
                        benefit: 0.0,
                        memory_delta: -(freed as i64),
                        ratio: 0.0,
                        total_memory: self.total_memory,
                        total_cost,
                    });
                    points.push(FrontierPoint { memory: self.total_memory, cost: total_cost });
                }
            }
        }

        let final_cost = steps.last().map_or(initial_cost, |s| s.total_cost);
        RunResult {
            selection: self.selection(),
            steps,
            frontier: Frontier::new(points),
            initial_cost,
            final_cost,
        }
    }
}

/// The naive Algorithm 1 over the public what-if API.
fn naive_h6<W: WhatIfOptimizer>(est: &W, options: &Options) -> RunResult {
    Naive::new(est, options).run()
}

// ---------------------------------------------------------------------
// Bit-for-bit comparison
// ---------------------------------------------------------------------

fn same_f64(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "{what}: engine {got:?} ({:#x}) vs oracle {want:?} ({:#x})",
            got.to_bits(),
            want.to_bits()
        ))
    }
}

/// `Ok` iff the two results agree in every field, floats by bit pattern.
/// The error names the first difference.
fn same_run(got: &RunResult, want: &RunResult) -> Result<(), String> {
    same_f64("initial_cost", got.initial_cost, want.initial_cost)?;
    for (n, (g, w)) in got.steps.iter().zip(&want.steps).enumerate() {
        let step = n + 1;
        if g.action != w.action {
            return Err(format!("step {step}: engine {:?} vs oracle {:?}", g.action, w.action));
        }
        same_f64(&format!("step {step} benefit"), g.benefit, w.benefit)?;
        same_f64(&format!("step {step} ratio"), g.ratio, w.ratio)?;
        same_f64(&format!("step {step} total_cost"), g.total_cost, w.total_cost)?;
        if (g.memory_delta, g.total_memory) != (w.memory_delta, w.total_memory) {
            return Err(format!(
                "step {step} memory: engine {:?} vs oracle {:?}",
                (g.memory_delta, g.total_memory),
                (w.memory_delta, w.total_memory)
            ));
        }
    }
    if got.steps.len() != want.steps.len() {
        return Err(format!(
            "engine took {} steps, oracle {}; first extra: {:?}",
            got.steps.len(),
            want.steps.len(),
            got.steps.get(want.steps.len()).or(want.steps.get(got.steps.len())).map(|s| &s.action)
        ));
    }
    let (gp, wp) = (got.frontier.points(), want.frontier.points());
    if gp.len() != wp.len() {
        return Err(format!("frontier: engine {} points, oracle {}", gp.len(), wp.len()));
    }
    for (n, (g, w)) in gp.iter().zip(wp).enumerate() {
        if g.memory != w.memory {
            return Err(format!("frontier point {n}: memory {} vs {}", g.memory, w.memory));
        }
        same_f64(&format!("frontier point {n} cost"), g.cost, w.cost)?;
    }
    if got.selection != want.selection {
        return Err(format!(
            "selection: engine {:?} vs oracle {:?}",
            got.selection, want.selection
        ));
    }
    same_f64("final_cost", got.final_cost, want.final_cost)
}

/// Run the engine (on a caching oracle, as every caller does) and the
/// naive construction (on its own plain oracle) and compare; `setting`
/// names the options in the failure message.
fn check(w: &Workload, options: &Options, setting: &str) -> Result<(), TestCaseError> {
    let engine_est = CachingWhatIf::new(AnalyticalWhatIf::new(w));
    let got = algorithm1::run(&engine_est, options);
    let oracle_est = AnalyticalWhatIf::new(w);
    let want = naive_h6(&oracle_est, options);
    same_run(&got, &want).map_err(|e| {
        TestCaseError::fail(format!("{setting}, budget {}: {e}", options.budget))
    })
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// Random workload over one to three tables, with update templates.
///
/// Row counts, cardinalities, value sizes and frequencies come from
/// small menus with repeated entries, so attributes that are exact
/// twins — same benefit, same memory, same ratio — are common and the
/// tie-break order decides many steps.
fn arb_workload() -> impl Strategy<Value = Workload> {
    let table = (
        prop::sample::select(vec![1_000u64, 50_000, 50_000, 400_000]),
        prop::collection::vec(
            (
                prop::sample::select(vec![2u64, 10, 10, 1_000, 100_000]),
                prop::sample::select(vec![1u32, 4, 4, 8]),
            ),
            2..=6,
        ),
    );
    prop::collection::vec(table, 1..=3)
        .prop_flat_map(|tables| {
            let query = (
                0..tables.len(),
                prop::collection::btree_set(0usize..6, 1..=4),
                prop::sample::select(vec![1u64, 1, 10, 100, 100, 500]),
                0u32..4, // 0 => update template (25 %)
            );
            (Just(tables), prop::collection::vec(query, 1..14))
        })
        .prop_map(|(tables, queries)| {
            let mut b = SchemaBuilder::new();
            let mut first_attr = Vec::new();
            let mut next = 0u32;
            for (t, (rows, attrs)) in tables.iter().enumerate() {
                let tid = b.table(&format!("t{t}"), *rows);
                first_attr.push(next);
                for (i, (distinct, size)) in attrs.iter().enumerate() {
                    b.attribute(tid, &format!("t{t}_a{i}"), (*distinct).min(*rows), *size);
                    next += 1;
                }
            }
            let qs = queries
                .into_iter()
                .map(|(t, picks, freq, upd)| {
                    let width = tables[t].1.len();
                    let attrs: Vec<AttrId> = picks
                        .into_iter()
                        .map(|p| AttrId(first_attr[t] + (p % width) as u32))
                        .collect();
                    if upd == 0 {
                        Query::update(TableId(t as u16), attrs, freq)
                    } else {
                        Query::new(TableId(t as u16), attrs, freq)
                    }
                })
                .collect();
            Workload::new(b.finish(), qs)
        })
}

/// An existing selection `Ī`: up to three indexes, each a rotated prefix
/// of some query's attribute list (so multi-attribute indexes in
/// non-ascending attribute order occur).
fn current_selection(w: &Workload, picks: &[(usize, usize, usize)]) -> Selection {
    picks
        .iter()
        .map(|&(q, len, rot)| {
            let mut attrs = w.query(QueryId((q % w.query_count()) as u32)).attrs().to_vec();
            let width = attrs.len();
            attrs.rotate_left(rot % width);
            attrs.truncate(len.min(width));
            Index::new(attrs)
        })
        .collect()
}

fn budget_for(w: &Workload, share: f64) -> u64 {
    budget::relative_budget(&AnalyticalWhatIf::new(w), share)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Default options, at a tight-to-generous budget and with no budget
    /// limit at all (construction runs until no step pays).
    #[test]
    fn default_options_match_the_oracle(w in arb_workload(), share in 0.05f64..1.2) {
        check(&w, &Options::new(budget_for(&w, share)), "defaults")?;
        check(&w, &Options::new(u64::MAX / 2), "defaults, unlimited")?;
    }

    /// Each Remark-1 switch on its own.
    #[test]
    fn each_switch_matches_the_oracle(
        w in arb_workload(),
        share in 0.05f64..1.2,
        n_best in 1usize..5,
    ) {
        let a = budget_for(&w, share);
        check(&w, &Options { pair_steps: true, ..Options::new(a) }, "pair_steps")?;
        check(&w, &Options { prune_unused: true, ..Options::new(a) }, "prune_unused")?;
        check(
            &w,
            &Options { n_best_single: Some(n_best), ..Options::new(a) },
            &format!("n_best_single {n_best}"),
        )?;
        check(&w, &Options { morphing: false, ..Options::new(a) }, "morphing off")?;
    }

    /// Non-free reconfiguration against a non-empty current selection —
    /// the setting of the service's adapt path — alone and with every
    /// switch turned on together.
    #[test]
    fn reconfiguration_costs_match_the_oracle(
        w in arb_workload(),
        share in 0.05f64..1.2,
        current in prop::collection::vec((0usize..14, 1usize..4, 0usize..4), 1..=3),
        create in prop::sample::select(vec![1e-3, 0.05, 1.0, 20.0]),
        drop in prop::sample::select(vec![0.0, 10.0, 1e4]),
    ) {
        let a = budget_for(&w, share);
        let reconfig = ReconfigCosts {
            current: current_selection(&w, &current),
            create_cost_per_byte: create,
            drop_cost: drop,
        };
        prop_assert!(!reconfig.current.is_empty());
        let setting = format!("{reconfig:?}");
        check(&w, &Options { reconfig: reconfig.clone(), ..Options::new(a) }, &setting)?;
        let everything = Options {
            pair_steps: true,
            prune_unused: true,
            n_best_single: Some(3),
            reconfig,
            ..Options::new(a)
        };
        check(&w, &everything, &format!("all switches, {setting}"))?;
    }

    /// The parallel engine is held to the same oracle, not only to its
    /// own serial run.
    #[test]
    fn parallel_engine_matches_the_oracle(w in arb_workload(), share in 0.05f64..1.2) {
        let options = Options {
            pair_steps: true,
            parallelism: Parallelism::new(4),
            ..Options::new(budget_for(&w, share))
        };
        check(&w, &options, "pair_steps at 4 threads")?;
    }
}

/// The oracle itself is not vacuous: on the corpus above it takes
/// multi-step constructions with morphing, pruning and ties.
#[test]
fn corpus_exercises_morphing_pruning_and_updates() {
    use proptest::test_runner::TestRunner;
    let (mut extends, mut prunes, mut updates, mut steps, mut pair_news) = (0, 0, 0, 0, 0);
    let mut runner = TestRunner::new(ProptestConfig::with_cases(128));
    runner
        .run(&(arb_workload(),), |(w,)| {
            updates += w.iter().filter(|(_, q)| q.is_update()).count();
            let est = AnalyticalWhatIf::new(&w);
            let options = Options {
                pair_steps: true,
                prune_unused: true,
                ..Options::new(budget_for(&w, 0.8))
            };
            let run = naive_h6(&est, &options);
            steps += run.steps.len();
            for s in &run.steps {
                match &s.action {
                    StepAction::Extend { .. } => extends += 1,
                    StepAction::Prune(_) => prunes += 1,
                    StepAction::NewIndex(k) if k.width() == 2 => pair_news += 1,
                    StepAction::NewIndex(_) => {}
                }
            }
            Ok(())
        })
        .expect("corpus generation");
    assert!(steps > 300, "steps {steps}");
    assert!(extends > 50, "extends {extends}");
    assert!(prunes > 0, "prunes {prunes}");
    assert!(pair_news > 0, "pair_news {pair_news}");
    assert!(updates > 100, "updates {updates}");
}
