//! Runtime index selection: [`IndexSpec`], the index-side counterpart of
//! [`ddc_core::DcoSpec`].
//!
//! Same serde-free `name(key=value,...)` grammar (shared parser:
//! [`ddc_core::SpecParams`]), same contract: [`std::fmt::Display`] emits a
//! canonical form that parses back identically, [`IndexSpec::build_rows`]
//! produces a boxed [`crate::SearchIndex`], and [`IndexSpec::load_bytes`]
//! reattaches a structure serialized by [`crate::SearchIndex::save_bytes`].
//!
//! ```
//! use ddc_index::IndexSpec;
//!
//! let spec: IndexSpec = "hnsw(m=8,ef_construction=60)".parse().unwrap();
//! assert_eq!(spec.kind(), "hnsw");
//! let roundtrip: IndexSpec = spec.to_string().parse().unwrap();
//! assert_eq!(roundtrip.to_string(), spec.to_string());
//! ```

use crate::search_index::BoxedIndex;
use crate::{FlatIndex, Hnsw, HnswConfig, IndexError, Ivf, IvfConfig, Result};
use ddc_core::spec::take_metric_param;
use ddc_core::SpecParams;
use ddc_linalg::{Metric, RowAccess};
use std::fmt::{self, Display};
use std::str::FromStr;

/// Runtime-selectable AKNN index.
#[derive(Debug, Clone)]
pub enum IndexSpec {
    /// Exhaustive DCO-driven linear scan. The flat scan has no build-time
    /// geometry (every distance comes from the DCO), so the metric is
    /// carried only for manifest round-trip and engine-level validation.
    Flat(Metric),
    /// Inverted-file index. `nlist = 0` means "auto": `√n` clamped to
    /// `[1, 4096]`, resolved against the dataset at build time.
    Ivf(IvfConfig),
    /// Hierarchical Navigable Small World graph.
    Hnsw(HnswConfig),
}

impl IndexSpec {
    /// Kind tag matching [`crate::SearchIndex::kind`].
    pub fn kind(&self) -> &'static str {
        match self {
            IndexSpec::Flat(_) => "flat",
            IndexSpec::Ivf(_) => "ivf",
            IndexSpec::Hnsw(_) => "hnsw",
        }
    }

    /// The metric the built structure serves.
    pub fn metric(&self) -> &Metric {
        match self {
            IndexSpec::Flat(m) => m,
            IndexSpec::Ivf(c) => &c.metric,
            IndexSpec::Hnsw(c) => &c.metric,
        }
    }

    /// Replaces the metric in place (CLI `--metric` override path).
    pub fn set_metric(&mut self, metric: Metric) {
        match self {
            IndexSpec::Flat(m) => *m = metric,
            IndexSpec::Ivf(c) => c.metric = metric,
            IndexSpec::Hnsw(c) => c.metric = metric,
        }
    }

    /// The accepted spec names, for CLI `--help` text.
    pub fn known_names() -> &'static [&'static str] {
        &["flat", "ivf", "hnsw"]
    }

    /// Builds the index over `base` (exact distances, as always — DCOs
    /// only enter at search time). One code path per index kind for every
    /// row source, so a structure built over a mapped `SharedRows` is
    /// bit-identical to one built over a resident `VecSet` (the engine
    /// parity suite pins this).
    ///
    /// # Errors
    /// Build failures of the underlying index.
    pub fn build_rows<R: RowAccess + ?Sized>(&self, base: &R) -> Result<BoxedIndex> {
        Ok(match self {
            IndexSpec::Flat(_) => Box::new(FlatIndex::new()),
            IndexSpec::Ivf(cfg) => {
                let mut cfg = cfg.clone();
                if cfg.nlist == 0 {
                    cfg.nlist = IvfConfig::auto(base.len()).nlist;
                }
                Box::new(Ivf::build_rows(base, &cfg)?)
            }
            IndexSpec::Hnsw(cfg) => Box::new(Hnsw::build_rows(base, cfg)?),
        })
    }

    /// Reloads an index structure serialized by
    /// [`crate::SearchIndex::save_bytes`] (the `index` section of an
    /// engine snapshot container), dispatching on the spec's kind.
    ///
    /// # Errors
    /// Validation failures from the kind-specific loader.
    pub fn load_bytes(&self, bytes: &[u8]) -> Result<BoxedIndex> {
        Ok(match self {
            IndexSpec::Flat(_) => Box::new(FlatIndex::load_bytes(bytes)?),
            IndexSpec::Ivf(c) => Box::new(Ivf::load_bytes(bytes)?.with_metric(c.metric.clone())),
            IndexSpec::Hnsw(c) => Box::new(Hnsw::load_bytes(bytes)?.with_metric(c.metric.clone())),
        })
    }
}

impl Display for IndexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The `metric=` key is emitted only when non-L2, so canonical L2
        // forms stay byte-identical to the pre-metric grammar (old
        // snapshot `meta` sections round-trip unchanged).
        let metric_kv = |m: &Metric| {
            if *m == Metric::L2 {
                String::new()
            } else {
                format!(",metric={}", m.spec_value())
            }
        };
        match self {
            IndexSpec::Flat(m) => {
                if *m == Metric::L2 {
                    write!(f, "flat")
                } else {
                    write!(f, "flat(metric={})", m.spec_value())
                }
            }
            IndexSpec::Ivf(c) => write!(
                f,
                "ivf(nlist={},train_iters={},seed={},threads={}{})",
                c.nlist,
                c.train_iters,
                c.seed,
                c.threads,
                metric_kv(&c.metric)
            ),
            IndexSpec::Hnsw(c) => write!(
                f,
                "hnsw(m={},ef_construction={},seed={}{})",
                c.m,
                c.ef_construction,
                c.seed,
                metric_kv(&c.metric)
            ),
        }
    }
}

impl FromStr for IndexSpec {
    type Err = IndexError;

    fn from_str(s: &str) -> Result<IndexSpec> {
        parse_index_spec(s).map_err(IndexError::Config)
    }
}

fn parse_index_spec(s: &str) -> std::result::Result<IndexSpec, String> {
    let (name, mut p) = SpecParams::parse(s)?;
    let spec = match name.as_str() {
        "flat" => IndexSpec::Flat(take_metric_param(&mut p)?),
        "ivf" => {
            // nlist = 0 is the "auto" sentinel resolved at build time.
            let mut c = IvfConfig::new(0);
            if let Some(v) = p.take("nlist")? {
                c.nlist = v;
            }
            if let Some(v) = p.take("train_iters")? {
                c.train_iters = v;
            }
            if let Some(v) = p.take("seed")? {
                c.seed = v;
            }
            if let Some(v) = p.take("threads")? {
                c.threads = v;
            }
            c.metric = take_metric_param(&mut p)?;
            IndexSpec::Ivf(c)
        }
        "hnsw" => {
            let mut c = HnswConfig::default();
            if let Some(v) = p.take("m")? {
                c.m = v;
            }
            if let Some(v) = p.take("ef_construction")? {
                c.ef_construction = v;
            }
            if let Some(v) = p.take("seed")? {
                c.seed = v;
            }
            c.metric = take_metric_param(&mut p)?;
            IndexSpec::Hnsw(c)
        }
        other => {
            return Err(format!(
                "unknown index `{other}` (expected one of: {})",
                IndexSpec::known_names().join(", ")
            ))
        }
    };
    p.finish()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_core::Exact;
    use ddc_vecs::SynthSpec;

    #[test]
    fn parse_display_round_trips() {
        for s in [
            "flat",
            "flat(metric=ip)",
            "ivf(nlist=32,seed=9)",
            "ivf(nlist=8,metric=cosine)",
            "hnsw(m=8,ef_construction=60)",
            "hnsw(m=8,metric=wl2:1;2;0.5)",
        ] {
            let spec: IndexSpec = s.parse().unwrap();
            let canon = spec.to_string();
            let back: IndexSpec = canon.parse().unwrap();
            assert_eq!(back.to_string(), canon, "via {s}");
        }
        assert!("annoy".parse::<IndexSpec>().is_err());
        assert!("ivf(bogus=1)".parse::<IndexSpec>().is_err());
        assert!("hnsw(metric=nope)".parse::<IndexSpec>().is_err());
    }

    #[test]
    fn metric_accessors_and_l2_canonical_form() {
        for name in IndexSpec::known_names() {
            let mut spec: IndexSpec = name.parse().unwrap();
            assert_eq!(*spec.metric(), Metric::L2, "{name}");
            assert!(!spec.to_string().contains("metric"), "{name}");
            spec.set_metric(Metric::Cosine);
            assert_eq!(*spec.metric(), Metric::Cosine, "{name}");
            assert!(spec.to_string().contains("metric=cosine"), "{name}");
        }
    }

    #[test]
    fn metric_survives_save_load() {
        let w = SynthSpec::tiny_test(8, 200, 21).generate();
        let spec: IndexSpec = "hnsw(m=6,ef_construction=30,metric=ip)".parse().unwrap();
        let built = spec.build_rows(&w.base).unwrap();
        let back = spec.load_bytes(&built.save_bytes()).unwrap();
        // The reloaded graph serves the spec's metric and searches
        // identically (graph structure is metric-built, loader re-tags).
        let dco = ddc_core::Exact::build_metric(&w.base, Metric::InnerProduct).unwrap();
        let params = crate::SearchParams::new().with_ef(40);
        for qi in 0..w.queries.len().min(4) {
            let q = w.queries.get(qi);
            assert_eq!(
                built.search(&dco, q, 5, &params).unwrap().ids(),
                back.search(&dco, q, 5, &params).unwrap().ids(),
                "query {qi}"
            );
        }
    }

    #[test]
    fn auto_nlist_resolves_at_build() {
        let w = SynthSpec::tiny_test(8, 400, 3).generate();
        let spec: IndexSpec = "ivf".parse().unwrap();
        let IndexSpec::Ivf(ref c) = spec else {
            panic!("wrong variant")
        };
        assert_eq!(c.nlist, 0);
        let built = spec.build_rows(&w.base).unwrap();
        assert_eq!(built.kind(), "ivf");
        // And a built auto-IVF must actually be searchable.
        let dco = Exact::build(&w.base);
        let r = built
            .search(&dco, w.queries.get(0), 5, &crate::SearchParams::default())
            .unwrap();
        assert_eq!(r.neighbors.len(), 5);
    }

    #[test]
    fn build_and_reload_every_kind() {
        let w = SynthSpec::tiny_test(8, 200, 7).generate();
        let dco = Exact::build(&w.base);
        let params = crate::SearchParams::new().with_ef(40).with_nprobe(4);
        for s in ["flat", "ivf(nlist=8)", "hnsw(m=6,ef_construction=30)"] {
            let spec: IndexSpec = s.parse().unwrap();
            let built = spec.build_rows(&w.base).unwrap();
            let back = spec.load_bytes(&built.save_bytes()).unwrap();
            for qi in 0..w.queries.len().min(4) {
                let q = w.queries.get(qi);
                assert_eq!(
                    built.search(&dco, q, 5, &params).unwrap().ids(),
                    back.search(&dco, q, 5, &params).unwrap().ids(),
                    "{s} query {qi}"
                );
            }
        }
    }
}
