//! The reproducible scalable workload of Appendix C (Example 1).
//!
//! All formulas follow the paper verbatim (`t` and `i` are 1-based there):
//!
//! ```text
//! T        = 10
//! N_t      = 50
//! Q_t      = N_t
//! n_t      = t · 1 000 000
//! d_{t,i}  = round(Uniform(0.5, n_t · ((N_t − i + 1)/(N_t + 1))^0.2))
//! Z_{t,j}  = round(Uniform(0.5, 10.5))
//! q_{t,j}  = ∪_{k=1..Z_{t,j}} { round(Uniform(1, N_t^{1/0.3})^{0.3}) }
//! b_{t,j}  = round(Uniform(1, 10 000))
//! ```
//!
//! The attribute value sizes `a_i` appear in the notation table but are not
//! assigned a distribution in Appendix C; we draw them uniformly from
//! `{1, 2, 4, 8}` bytes (documented substitution, see DESIGN.md §3).
//!
//! Everything is driven by a single seed so that every run — and every
//! experiment binary — sees the identical workload.

use crate::ids::{AttrId, TableId};
use crate::query::{Query, Workload};
use crate::schema::SchemaBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Parameters of the Appendix-C generator.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of tables `T`.
    pub tables: usize,
    /// Attributes per table `N_t`.
    pub attrs_per_table: usize,
    /// Query templates per table `Q_t` (Table I scales this from 50 to
    /// 5 000 while `N_t` stays 50).
    pub queries_per_table: usize,
    /// Base row count: table `t` (1-based) has `t · rows_base` rows. The
    /// paper uses 1 000 000; the end-to-end experiments scale this down.
    pub rows_base: u64,
    /// Maximum attributes per query (`Z` is drawn from 1..=this). The paper
    /// uses 10.
    pub max_query_width: usize,
    /// Fraction of query templates generated as *updates* (0.0 — the
    /// paper's read-only setting — leaves the random stream untouched, so
    /// all published seeds reproduce bit-identically).
    pub update_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    /// The exact Example-1 base configuration.
    fn default() -> Self {
        Self {
            tables: 10,
            attrs_per_table: 50,
            queries_per_table: 50,
            rows_base: 1_000_000,
            max_query_width: 10,
            update_fraction: 0.0,
            seed: 0x1CDE_2019,
        }
    }
}

impl SyntheticConfig {
    /// Configuration used by the end-to-end evaluation (Section IV-B):
    /// a single table with `N = 100` attributes and `Q = 100` queries.
    pub fn end_to_end(seed: u64) -> Self {
        Self {
            tables: 1,
            attrs_per_table: 100,
            queries_per_table: 100,
            rows_base: 1_000_000,
            max_query_width: 10,
            update_fraction: 0.0,
            seed,
        }
    }
}

/// `round(Uniform(lo, hi))` exactly as the paper writes it. `hi` below `lo`
/// collapses to `lo` (can happen for tiny row counts when scaled down).
fn round_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> u64 {
    let hi = hi.max(lo);
    let v: f64 = rng.gen_range(lo..=hi);
    v.round().max(1.0) as u64
}

/// Generate the Appendix-C workload for `cfg`.
pub fn generate(cfg: &SyntheticConfig) -> Workload {
    assert!(cfg.tables >= 1 && cfg.attrs_per_table >= 1 && cfg.queries_per_table >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut builder = SchemaBuilder::new();
    let n_t = cfg.attrs_per_table as f64;
    let value_sizes = [1u32, 2, 4, 8];

    let mut tables = Vec::with_capacity(cfg.tables);
    for t in 1..=cfg.tables {
        let rows = t as u64 * cfg.rows_base;
        let table = builder.table(&format!("T{t}"), rows);
        for i in 1..=cfg.attrs_per_table {
            // d_{t,i} = round(U(0.5, n_t · ((N_t − i + 1)/(N_t + 1))^0.2))
            let shape = ((n_t - i as f64 + 1.0) / (n_t + 1.0)).powf(0.2);
            let d = round_uniform(&mut rng, 0.5, rows as f64 * shape).min(rows);
            let a = value_sizes[rng.gen_range(0..value_sizes.len())];
            builder.attribute(table, &format!("T{t}_A{i}"), d.max(1), a);
        }
        tables.push(table);
    }
    let schema = builder.finish();

    let mut queries = Vec::with_capacity(cfg.tables * cfg.queries_per_table);
    // Skew exponent of the attribute-popularity distribution:
    // attr = round(U(1, N^(1/0.3))^0.3) concentrates mass on low indices.
    let exp = 0.3;
    for (t_idx, &table) in tables.iter().enumerate() {
        let first_attr = schema.table(table).first_attr.0;
        for _ in 0..cfg.queries_per_table {
            let z = round_uniform(&mut rng, 0.5, cfg.max_query_width as f64 + 0.5)
                .min(cfg.attrs_per_table as u64) as usize;
            let mut attrs = Vec::with_capacity(z);
            for _ in 0..z {
                let u: f64 = rng.gen_range(1.0..=n_t.powf(1.0 / exp));
                let local = (u.powf(exp).round() as u32).clamp(1, cfg.attrs_per_table as u32);
                attrs.push(AttrId(first_attr + local - 1));
            }
            attrs.sort_unstable();
            attrs.dedup();
            let b = round_uniform(&mut rng, 1.0, 10_000.0);
            // Update templates are drawn only when requested so that the
            // paper's read-only configurations keep their RNG stream.
            let is_update =
                cfg.update_fraction > 0.0 && rng.gen_bool(cfg.update_fraction.min(1.0));
            if is_update {
                queries.push(Query::update(TableId(t_idx as u16), attrs, b));
            } else {
                queries.push(Query::new(TableId(t_idx as u16), attrs, b));
            }
        }
    }
    Workload::new(schema, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper_dimensions() {
        let cfg = SyntheticConfig::default();
        let w = generate(&cfg);
        assert_eq!(w.schema().tables().len(), 10);
        assert_eq!(w.schema().attr_count(), 500);
        assert_eq!(w.query_count(), 500);
        assert_eq!(w.schema().table(TableId(0)).rows, 1_000_000);
        assert_eq!(w.schema().table(TableId(9)).rows, 10_000_000);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SyntheticConfig::default();
        let w1 = generate(&cfg);
        let w2 = generate(&cfg);
        assert_eq!(w1, w2);
        let w3 = generate(&SyntheticConfig { seed: 42, ..cfg });
        assert_ne!(w1, w3);
    }

    #[test]
    fn query_frequencies_within_published_range() {
        let w = generate(&SyntheticConfig::default());
        for (_, q) in w.iter() {
            assert!((1..=10_000).contains(&q.frequency()));
            assert!((1..=10).contains(&q.width()));
        }
    }

    #[test]
    fn distinct_counts_never_exceed_rows_and_decay_with_position() {
        let w = generate(&SyntheticConfig::default());
        for attr in w.schema().attributes() {
            let rows = w.schema().rows_of(attr.id);
            assert!(attr.distinct_values >= 1);
            assert!(attr.distinct_values <= rows);
        }
        // The upper envelope of d decays in the local attribute position;
        // check the *expected* ordering statistically: the first attribute
        // of each table should on average have more distinct values than
        // the last.
        let schema = w.schema();
        let (mut first_sum, mut last_sum) = (0u64, 0u64);
        for t in schema.tables() {
            let attrs: Vec<_> = t.attrs().collect();
            first_sum += schema.attribute(attrs[0]).distinct_values;
            last_sum += schema.attribute(*attrs.last().unwrap()).distinct_values;
        }
        assert!(
            first_sum > last_sum,
            "expected leading attributes to be more selective on average"
        );
    }

    #[test]
    fn attribute_popularity_is_skewed_towards_high_indices() {
        // attr = round(U(1, N^(1/0.3))^0.3) has CDF (x/N)^(10/3): mass
        // concentrates on *high* local positions — which by construction
        // are the attributes with the fewest distinct values.
        let w = generate(&SyntheticConfig::default());
        let schema = w.schema();
        // Count accesses to the first 10 vs the last 10 local positions.
        let (mut low, mut high) = (0u64, 0u64);
        for (_, q) in w.iter() {
            let first = schema.table(q.table()).first_attr.0;
            for &a in q.attrs() {
                let local = a.0 - first;
                if local < 10 {
                    low += q.frequency();
                } else if local >= 40 {
                    high += q.frequency();
                }
            }
        }
        assert!(high > 4 * low, "low={low} high={high}");
    }

    #[test]
    fn end_to_end_config_is_single_table() {
        let w = generate(&SyntheticConfig::end_to_end(7));
        assert_eq!(w.schema().tables().len(), 1);
        assert_eq!(w.schema().attr_count(), 100);
        assert_eq!(w.query_count(), 100);
    }

    #[test]
    fn update_fraction_zero_preserves_streams_and_kinds() {
        let w = generate(&SyntheticConfig::default());
        assert!(w.queries().iter().all(|q| !q.is_update()));
    }

    #[test]
    fn update_fraction_generates_updates() {
        let cfg = SyntheticConfig { update_fraction: 0.5, ..SyntheticConfig::default() };
        let w = generate(&cfg);
        let updates = w.queries().iter().filter(|q| q.is_update()).count();
        assert!(updates > w.query_count() / 4, "updates={updates}");
        assert!(updates < w.query_count() * 3 / 4, "updates={updates}");
    }

    #[test]
    fn scaled_query_counts() {
        let cfg = SyntheticConfig {
            queries_per_table: 200,
            ..SyntheticConfig::default()
        };
        assert_eq!(generate(&cfg).query_count(), 2_000);
    }
}
