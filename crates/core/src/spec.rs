//! Runtime operator selection: [`DcoSpec`] and the `name(key=value,...)`
//! grammar it shares with `ddc-index`'s `IndexSpec`.
//!
//! The paper's point is that DDC is *general* — any estimator, any index.
//! That generality is only real if the (index, DCO) pair is a runtime
//! knob: a CLI flag, a config line, a field in a serving request. A spec
//! is a serde-free string form,
//!
//! ```text
//! ddcres                                 # defaults
//! ddcres(init_d=16,delta_d=16)           # overrides
//! adsampling(epsilon0=2.1,seed=99)
//! exact(metric=ip)                       # non-L2 metric
//! ddcres(metric=wl2:0.5;1;2)             # weighted L2 (`;`-separated weights)
//! ```
//!
//! Every operator accepts a `metric=` key (`l2` | `ip` | `cosine` |
//! `wl2:w1;w2;...`); the default is `l2` and the canonical form omits it.
//!
//! that parses via [`FromStr`], prints its canonical full form via
//! [`Display`] (so `parse(display(x))` round-trips, which is what
//! the `meta` section of `ddc-engine`'s snapshots relies on), and
//! [`DcoSpec::build_rows`] builds it into a [`BoxedDco`] ready for dynamic
//! dispatch.
//!
//! Exposed keys cover the tuning surface of each operator; deliberately
//! unexposed internals (training caps, logistic hyperparameters) stay at
//! their defaults. Unknown keys are errors, not silently ignored.

use crate::dyn_dco::BoxedDco;
use crate::{
    AdSampling, AdSamplingConfig, CoreError, DdcOpq, DdcOpqConfig, DdcPca, DdcPcaConfig, DdcRes,
    DdcResConfig, Exact,
};
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{SharedRows, VecSet};
use std::fmt::{self, Display};
use std::str::FromStr;

/// Key–value arguments of a parsed `name(key=value,...)` spec string.
///
/// Tracks which keys were consumed so [`SpecParams::finish`] can reject
/// typos instead of silently ignoring them. Shared by [`DcoSpec`] here and
/// `IndexSpec` in `ddc-index`.
#[derive(Debug)]
pub struct SpecParams {
    pairs: Vec<(String, String, bool)>,
}

impl SpecParams {
    /// Splits `spec` into `(name, params)`.
    ///
    /// Accepts `name` or `name(k=v,k=v,...)`; names and keys are
    /// lower-cased, values are kept verbatim.
    ///
    /// # Errors
    /// A human-readable message on malformed syntax.
    pub fn parse(spec: &str) -> Result<(String, SpecParams), String> {
        let spec = spec.trim();
        let (name, args) = match spec.find('(') {
            None => (spec, ""),
            Some(open) => {
                let Some(inner) = spec[open..]
                    .strip_prefix('(')
                    .and_then(|r| r.strip_suffix(')'))
                else {
                    return Err(format!("spec `{spec}`: expected closing `)`"));
                };
                (&spec[..open], inner)
            }
        };
        let name = name.trim().to_ascii_lowercase();
        if name.is_empty() {
            return Err(format!("spec `{spec}`: empty name"));
        }
        let mut pairs = Vec::new();
        for kv in args.split(',') {
            let kv = kv.trim();
            if kv.is_empty() {
                continue;
            }
            let Some((k, v)) = kv.split_once('=') else {
                return Err(format!("spec `{spec}`: `{kv}` is not `key=value`"));
            };
            pairs.push((k.trim().to_ascii_lowercase(), v.trim().to_string(), false));
        }
        Ok((name, SpecParams { pairs }))
    }

    /// Looks up `key`, parses it as `T`, and marks it consumed.
    ///
    /// # Errors
    /// A message when the value fails to parse as `T`.
    pub fn take<T: FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        for (k, v, used) in &mut self.pairs {
            if k == key {
                *used = true;
                return v
                    .parse::<T>()
                    .map(Some)
                    .map_err(|_| format!("spec key `{key}`: cannot parse `{v}`"));
            }
        }
        Ok(None)
    }

    /// Errors if any key was never consumed (typo protection).
    ///
    /// # Errors
    /// Names the first unconsumed key.
    pub fn finish(self) -> Result<(), String> {
        for (k, _, used) in &self.pairs {
            if !used {
                return Err(format!("unknown spec key `{k}`"));
            }
        }
        Ok(())
    }
}

/// Runtime-selectable distance comparison operator.
///
/// One variant per [`crate::Dco`] implementation, each carrying its full
/// build configuration. See the [module docs](self) for the string form.
///
/// ```
/// use ddc_core::DcoSpec;
///
/// let spec: DcoSpec = "ddcres(init_d=16,delta_d=16)".parse().unwrap();
/// assert_eq!(spec.name(), "DDCres");
/// // Display emits the canonical full form, which parses back identically.
/// let roundtrip: DcoSpec = spec.to_string().parse().unwrap();
/// assert_eq!(roundtrip.to_string(), spec.to_string());
/// ```
#[derive(Debug, Clone)]
pub enum DcoSpec {
    /// Exact distances (the plain-index baseline) under the given metric.
    Exact(Metric),
    /// ADSampling with the given configuration.
    AdSampling(AdSamplingConfig),
    /// DDCres with the given configuration.
    DdcRes(DdcResConfig),
    /// DDCpca with the given configuration (needs training queries).
    DdcPca(DdcPcaConfig),
    /// DDCopq with the given configuration (needs training queries).
    DdcOpq(DdcOpqConfig),
}

impl DcoSpec {
    /// Display name of the operator this spec builds (matches
    /// [`crate::Dco::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            DcoSpec::Exact(_) => "Exact",
            DcoSpec::AdSampling(_) => "ADSampling",
            DcoSpec::DdcRes(_) => "DDCres",
            DcoSpec::DdcPca(_) => "DDCpca",
            DcoSpec::DdcOpq(_) => "DDCopq",
        }
    }

    /// The metric this spec's operator will answer in.
    pub fn metric(&self) -> &Metric {
        match self {
            DcoSpec::Exact(m) => m,
            DcoSpec::AdSampling(c) => &c.metric,
            DcoSpec::DdcRes(c) => &c.metric,
            DcoSpec::DdcPca(c) => &c.metric,
            DcoSpec::DdcOpq(c) => &c.metric,
        }
    }

    /// Replaces the metric in place (CLI `--metric` override path).
    pub fn set_metric(&mut self, metric: Metric) {
        match self {
            DcoSpec::Exact(m) => *m = metric,
            DcoSpec::AdSampling(c) => c.metric = metric,
            DcoSpec::DdcRes(c) => c.metric = metric,
            DcoSpec::DdcPca(c) => c.metric = metric,
            DcoSpec::DdcOpq(c) => c.metric = metric,
        }
    }

    /// True for the data-driven operators that must see training queries.
    pub fn requires_training_queries(&self) -> bool {
        matches!(self, DcoSpec::DdcPca(_) | DcoSpec::DdcOpq(_))
    }

    /// True when appended rows go stale under this operator — its trained
    /// artifacts (PCA basis, codebooks, classifiers) are data-dependent,
    /// so [`crate::Dco::append_rows`] reuses them and bumps
    /// [`crate::Dco::stale_rows`]. The compactor uses this to choose
    /// between a cheap restore-and-append copy (`false`: appends are
    /// bit-identical to a fresh build) and a full retraining rebuild.
    pub fn retrains_on_append(&self) -> bool {
        matches!(
            self,
            DcoSpec::DdcRes(_) | DcoSpec::DdcPca(_) | DcoSpec::DdcOpq(_)
        )
    }

    /// The accepted spec names, for CLI `--help` text.
    pub fn known_names() -> &'static [&'static str] {
        &["exact", "adsampling", "ddcres", "ddcpca", "ddcopq"]
    }

    /// Builds the operator over `base`.
    ///
    /// `train_queries` feeds the data-driven operators (DDCpca / DDCopq);
    /// the others ignore it. One code path for every row source, so an
    /// operator built over a mapped `SharedRows` is **bit-identical** to one
    /// built over a resident `VecSet` (pinned across the full index ×
    /// operator grid by `crates/engine/tests/parity.rs`).
    ///
    /// # Errors
    /// Configuration/build failures, and
    /// [`CoreError::InsufficientTraining`] when a data-driven spec gets
    /// `None` training queries.
    pub fn build_rows<R: RowAccess + ?Sized>(
        &self,
        base: &R,
        train_queries: Option<&VecSet>,
    ) -> crate::Result<BoxedDco> {
        Ok(match self {
            DcoSpec::Exact(m) => Box::new(Exact::build_metric(base, m.clone())?),
            DcoSpec::AdSampling(cfg) => Box::new(AdSampling::build(base, cfg.clone())?),
            DcoSpec::DdcRes(cfg) => Box::new(DdcRes::build(base, cfg.clone())?),
            DcoSpec::DdcPca(cfg) => {
                let tq = train_queries.ok_or(CoreError::InsufficientTraining {
                    what: "DDCpca (spec built without training queries)",
                    got: 0,
                })?;
                Box::new(DdcPca::build(base, tq, cfg.clone())?)
            }
            DcoSpec::DdcOpq(cfg) => {
                let tq = train_queries.ok_or(CoreError::InsufficientTraining {
                    what: "DDCopq (spec built without training queries)",
                    got: 0,
                })?;
                Box::new(DdcOpq::build(base, tq, cfg.clone())?)
            }
        })
    }

    /// Rebuilds an operator from its snapshot `state` blob
    /// ([`crate::Dco::state_bytes`]) and its row matrix — typically a
    /// zero-copy [`SharedRows::Mapped`] straight off an open container.
    /// No PCA refit, no OPQ retraining, no classifier calibration: the
    /// restored operator is **bit-identical** to the one that was saved
    /// (the engine parity suite pins this across the full grid).
    ///
    /// # Errors
    /// [`CoreError::Config`] when the blob is malformed, labeled with a
    /// different operator than this spec, or inconsistent with `rows`.
    pub fn restore(&self, state: &[u8], rows: SharedRows) -> crate::Result<BoxedDco> {
        Ok(match self {
            DcoSpec::Exact(_) => Box::new(Exact::restore(state, rows)?),
            DcoSpec::AdSampling(_) => Box::new(AdSampling::restore(state, rows)?),
            DcoSpec::DdcRes(_) => Box::new(DdcRes::restore(state, rows)?),
            DcoSpec::DdcPca(_) => Box::new(DdcPca::restore(state, rows)?),
            DcoSpec::DdcOpq(_) => Box::new(DdcOpq::restore(state, rows)?),
        })
    }
}

/// `,metric=...` Display suffix, emitted only when non-L2 so canonical
/// forms of L2 specs stay unchanged from the pre-metric grammar.
fn fmt_metric_kv(f: &mut fmt::Formatter<'_>, m: &Metric) -> fmt::Result {
    if *m != Metric::L2 {
        write!(f, ",metric={}", m.spec_value())?;
    }
    Ok(())
}

impl Display for DcoSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DcoSpec::Exact(m) => {
                if *m == Metric::L2 {
                    write!(f, "exact")
                } else {
                    write!(f, "exact(metric={})", m.spec_value())
                }
            }
            DcoSpec::AdSampling(c) => {
                write!(
                    f,
                    "adsampling(epsilon0={},delta_d={},seed={}",
                    c.epsilon0, c.delta_d, c.seed
                )?;
                fmt_metric_kv(f, &c.metric)?;
                write!(f, ")")
            }
            DcoSpec::DdcRes(c) => {
                write!(f, "ddcres(quantile={}", c.quantile)?;
                if let Some(m) = c.multiplier {
                    write!(f, ",multiplier={m}")?;
                }
                write!(
                    f,
                    ",init_d={},delta_d={},incremental={},pca_samples={},seed={}",
                    c.init_d, c.delta_d, c.incremental, c.pca_samples, c.seed
                )?;
                fmt_metric_kv(f, &c.metric)?;
                write!(f, ")")
            }
            DcoSpec::DdcPca(c) => {
                write!(
                    f,
                    "ddcpca(init_d={},delta_d={},target_recall={},holdout={},pca_samples={},seed={}",
                    c.init_d, c.delta_d, c.target_recall, c.holdout, c.pca_samples, c.seed
                )?;
                fmt_metric_kv(f, &c.metric)?;
                write!(f, ")")
            }
            DcoSpec::DdcOpq(c) => {
                write!(
                    f,
                    "ddcopq(m={},nbits={},opq_iters={},target_recall={},holdout={},use_qerr={},seed={}",
                    c.m, c.nbits, c.opq_iters, c.target_recall, c.holdout, c.use_qerr_feature, c.seed
                )?;
                fmt_metric_kv(f, &c.metric)?;
                write!(f, ")")
            }
        }
    }
}

impl FromStr for DcoSpec {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<DcoSpec, CoreError> {
        parse_dco_spec(s).map_err(CoreError::Config)
    }
}

/// Consumes the optional `metric=` key shared by every spec.
///
/// # Errors
/// A message naming the key on an unrecognized metric value. Public so
/// `ddc-index`'s `IndexSpec` parser reuses it.
pub fn take_metric_param(p: &mut SpecParams) -> Result<Metric, String> {
    match p.take::<String>("metric")? {
        Some(s) => Metric::parse(&s).map_err(|e| format!("spec key `metric`: {e}")),
        None => Ok(Metric::L2),
    }
}

fn parse_dco_spec(s: &str) -> Result<DcoSpec, String> {
    let (name, mut p) = SpecParams::parse(s)?;
    let spec = match name.as_str() {
        "exact" => DcoSpec::Exact(take_metric_param(&mut p)?),
        "adsampling" | "ads" => {
            let mut c = AdSamplingConfig::default();
            if let Some(v) = p.take("epsilon0")? {
                c.epsilon0 = v;
            }
            if let Some(v) = p.take("delta_d")? {
                c.delta_d = v;
            }
            if let Some(v) = p.take("seed")? {
                c.seed = v;
            }
            c.metric = take_metric_param(&mut p)?;
            DcoSpec::AdSampling(c)
        }
        "ddcres" | "res" => {
            let mut c = DdcResConfig::default();
            if let Some(v) = p.take("quantile")? {
                c.quantile = v;
            }
            if let Some(v) = p.take("multiplier")? {
                c.multiplier = Some(v);
            }
            if let Some(v) = p.take("init_d")? {
                c.init_d = v;
            }
            if let Some(v) = p.take("delta_d")? {
                c.delta_d = v;
            }
            if let Some(v) = p.take("incremental")? {
                c.incremental = v;
            }
            if let Some(v) = p.take("pca_samples")? {
                c.pca_samples = v;
            }
            if let Some(v) = p.take("seed")? {
                c.seed = v;
            }
            c.metric = take_metric_param(&mut p)?;
            DcoSpec::DdcRes(c)
        }
        "ddcpca" => {
            let mut c = DdcPcaConfig::default();
            if let Some(v) = p.take("init_d")? {
                c.init_d = v;
            }
            if let Some(v) = p.take("delta_d")? {
                c.delta_d = v;
            }
            if let Some(v) = p.take("target_recall")? {
                c.target_recall = v;
            }
            if let Some(v) = p.take("holdout")? {
                c.holdout = v;
            }
            if let Some(v) = p.take("pca_samples")? {
                c.pca_samples = v;
            }
            if let Some(v) = p.take("seed")? {
                c.seed = v;
            }
            c.metric = take_metric_param(&mut p)?;
            DcoSpec::DdcPca(c)
        }
        "ddcopq" => {
            let mut c = DdcOpqConfig::default();
            if let Some(v) = p.take("m")? {
                c.m = v;
            }
            if let Some(v) = p.take("nbits")? {
                c.nbits = v;
            }
            if let Some(v) = p.take("opq_iters")? {
                c.opq_iters = v;
            }
            if let Some(v) = p.take("target_recall")? {
                c.target_recall = v;
            }
            if let Some(v) = p.take("holdout")? {
                c.holdout = v;
            }
            if let Some(v) = p.take("use_qerr")? {
                c.use_qerr_feature = v;
            }
            if let Some(v) = p.take("seed")? {
                c.seed = v;
            }
            c.metric = take_metric_param(&mut p)?;
            DcoSpec::DdcOpq(c)
        }
        other => {
            return Err(format!(
                "unknown DCO `{other}` (expected one of: {})",
                DcoSpec::known_names().join(", ")
            ))
        }
    };
    p.finish()?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynDco;
    use ddc_vecs::SynthSpec;

    #[test]
    fn bare_names_parse_to_defaults() {
        for name in DcoSpec::known_names() {
            let spec: DcoSpec = name.parse().unwrap();
            assert_eq!(&spec.to_string().split('(').next().unwrap(), name);
        }
        assert!(matches!(
            "ads".parse::<DcoSpec>().unwrap(),
            DcoSpec::AdSampling(_)
        ));
        assert!(matches!(
            "res".parse::<DcoSpec>().unwrap(),
            DcoSpec::DdcRes(_)
        ));
        assert!(matches!(
            "  EXACT ".parse::<DcoSpec>().unwrap(),
            DcoSpec::Exact(Metric::L2)
        ));
    }

    #[test]
    fn display_round_trips() {
        let specs = [
            "exact",
            "exact(metric=ip)",
            "exact(metric=wl2:0.5;1;2)",
            "adsampling(epsilon0=1.9,delta_d=16,seed=7)",
            "adsampling(metric=ip)",
            "ddcres(quantile=0.995,init_d=8,delta_d=8,incremental=false)",
            "ddcres(multiplier=4.5)",
            "ddcres(metric=cosine)",
            "ddcpca(init_d=4,delta_d=4,target_recall=0.99,holdout=0.25)",
            "ddcpca(metric=ip)",
            "ddcopq(m=4,nbits=4,opq_iters=2,use_qerr=false)",
            "ddcopq(metric=cosine)",
        ];
        for s in specs {
            let spec: DcoSpec = s.parse().unwrap();
            let canon = spec.to_string();
            let back: DcoSpec = canon.parse().unwrap();
            assert_eq!(back.to_string(), canon, "via {s}");
        }
    }

    #[test]
    fn metric_key_lands_everywhere_and_l2_display_is_legacy() {
        for name in DcoSpec::known_names() {
            let spec: DcoSpec = format!("{name}(metric=cosine)").parse().unwrap();
            assert_eq!(*spec.metric(), Metric::Cosine, "{name}");
            assert!(spec.to_string().contains("metric=cosine"), "{name}: {spec}");
            // L2 canonical form never mentions the metric key.
            let l2: DcoSpec = name.parse().unwrap();
            assert_eq!(*l2.metric(), Metric::L2);
            assert!(!l2.to_string().contains("metric"), "{name}: {l2}");
        }
        let mut spec: DcoSpec = "exact".parse().unwrap();
        spec.set_metric(Metric::InnerProduct);
        assert_eq!(spec.to_string(), "exact(metric=ip)");
        assert!("exact(metric=nope)".parse::<DcoSpec>().is_err());
        assert!("ddcres(metric=wl2:)".parse::<DcoSpec>().is_err());
    }

    #[test]
    fn metric_specs_build_operators_in_that_metric() {
        let w = SynthSpec::tiny_test(8, 60, 12).generate();
        for s in ["exact(metric=ip)", "adsampling(delta_d=4,metric=cosine)"] {
            let spec: DcoSpec = s.parse().unwrap();
            let dco = spec.build_rows(&w.base, None).unwrap();
            assert_eq!(dco.metric(), *spec.metric(), "{s}");
        }
        // wl2 weight-count mismatch surfaces at build, not parse.
        let bad: DcoSpec = "exact(metric=wl2:1;2;3)".parse().unwrap();
        assert!(bad.build_rows(&w.base, None).is_err());
    }

    #[test]
    fn overrides_land_in_the_config() {
        let spec: DcoSpec = "ddcres(init_d=16,delta_d=24,quantile=0.99)"
            .parse()
            .unwrap();
        let DcoSpec::DdcRes(c) = spec else {
            panic!("wrong variant")
        };
        assert_eq!(c.init_d, 16);
        assert_eq!(c.delta_d, 24);
        assert_eq!(c.quantile, 0.99);
        assert_eq!(c.multiplier, None);
    }

    #[test]
    fn bad_specs_are_rejected() {
        assert!("nope".parse::<DcoSpec>().is_err());
        assert!("ddcres(init_d=16".parse::<DcoSpec>().is_err());
        assert!("ddcres(unknown_key=1)".parse::<DcoSpec>().is_err());
        assert!("ddcres(init_d=abc)".parse::<DcoSpec>().is_err());
        assert!("ddcres(init_d)".parse::<DcoSpec>().is_err());
        assert!("".parse::<DcoSpec>().is_err());
    }

    #[test]
    fn append_matches_fresh_build_for_data_independent_operators() {
        // Exact and ADSampling transform rows independently of the data
        // they were built on, so growing by append must be bit-identical
        // to building over the grown set (the compactor's append-mode
        // assumption) — rows, side columns and state blob alike, under
        // every metric. The PCA/OPQ family only promises staleness
        // accounting, checked below.
        let w = SynthSpec::tiny_test(8, 120, 9).generate();
        let n0 = 100;
        let (head, tail) = w.base.clone().split_at(n0);
        for spec_str in [
            "exact",
            "exact(metric=cosine)",
            "exact(metric=wl2:0.5;1;2;1;0.25;4;1;3)",
            "adsampling(delta_d=4)",
            "adsampling(delta_d=2,metric=ip)",
            "adsampling(delta_d=4,metric=cosine)",
        ] {
            let spec: DcoSpec = spec_str.parse().unwrap();
            assert!(!spec.retrains_on_append());
            let full = spec.build_rows(&w.base, None).unwrap();
            let mut grown = spec.build_rows(&head, None).unwrap();
            grown.append_rows(&tail).unwrap();
            assert_eq!(grown.len(), full.len(), "{spec_str}");
            assert_eq!(grown.stale_rows(), 0, "{spec_str}");
            assert_eq!(
                grown.rows().to_vecset(),
                full.rows().to_vecset(),
                "{spec_str}: appended rows must be bit-identical to build"
            );
            assert_eq!(grown.extra_bytes(), full.extra_bytes(), "{spec_str}");
            assert_eq!(grown.state_bytes(), full.state_bytes(), "{spec_str}");
        }
    }

    #[test]
    fn append_counts_stale_rows_for_data_driven_operators() {
        let w = SynthSpec::tiny_test(8, 120, 10).generate();
        let n0 = 100;
        let (head, tail) = w.base.clone().split_at(n0);
        for spec_str in [
            "ddcres(init_d=4,delta_d=4)",
            "ddcres(init_d=4,delta_d=4,metric=ip)",
            "ddcpca(init_d=4,delta_d=4)",
            "ddcpca(init_d=4,delta_d=4,metric=ip)",
            "ddcopq(m=2,nbits=4,opq_iters=1)",
        ] {
            let spec: DcoSpec = spec_str.parse().unwrap();
            assert!(spec.retrains_on_append());
            let mut dco = spec.build_rows(&head, Some(&w.train_queries)).unwrap();
            assert_eq!(dco.stale_rows(), 0);
            dco.append_rows(&tail).unwrap();
            assert_eq!(dco.len(), 120, "{spec_str}");
            assert_eq!(dco.stale_rows(), 20, "{spec_str}");
            // Grown operators still answer exact distances correctly:
            // their transforms are isometric whatever data fitted them
            // (under IP this is what checks the appended `⟨x′, c⟩` entries).
            let q = w.queries.get(0);
            let mut eval = dco.begin_dyn(q);
            for id in [0u32, 99, 100, 107, 119] {
                let want = spec.metric().distance(w.base.get(id as usize), q);
                let got = eval.exact(id);
                assert!(
                    (want - got).abs() < 1e-2 * want.abs().max(1.0),
                    "{spec_str} id {id}: {want} vs {got}"
                );
            }
        }
    }

    /// The removal grid: every operator, plus the inner-product variants
    /// that carry extra per-row columns, with the side-column bytes each
    /// keeps per row (8-d rows).
    const REMOVAL_GRID: [(&str, usize); 9] = [
        ("exact", 0),
        ("exact(metric=cosine)", 0),
        ("adsampling(delta_d=4)", 0),
        ("adsampling(delta_d=2,metric=ip)", 3 * 4),
        ("ddcres(init_d=4,delta_d=4)", 4),
        ("ddcres(init_d=4,delta_d=4,metric=ip)", 4 + 4),
        ("ddcpca(init_d=4,delta_d=4)", 0),
        ("ddcpca(init_d=4,delta_d=4,metric=ip)", 4),
        ("ddcopq(m=2,nbits=4,opq_iters=1)", 2 + 4),
    ];

    /// Asserts `shrunk` answers every survivor exactly as `full` does
    /// under the dense renumbering: exact distances and `test` decisions
    /// over a τ ladder, bit for bit.
    fn assert_survivors_identical(
        full: &dyn DynDco,
        shrunk: &dyn DynDco,
        dead: &[bool],
        queries: &VecSet,
        what: &str,
    ) {
        let old_ids: Vec<u32> = (0..dead.len() as u32)
            .filter(|&i| !dead[i as usize])
            .collect();
        assert_eq!(shrunk.len(), old_ids.len(), "{what}");
        for qi in 0..3 {
            let q = queries.get(qi);
            let (mut a, mut b) = (full.begin_dyn(q), shrunk.begin_dyn(q));
            let mut dists: Vec<f32> = old_ids.iter().map(|&o| a.exact(o)).collect();
            for (new, &old) in old_ids.iter().enumerate() {
                let got = b.exact(new as u32);
                assert_eq!(got.to_bits(), dists[new].to_bits(), "{what}: row {old}");
            }
            dists.sort_unstable_by(f32::total_cmp);
            let n = dists.len();
            for tau in [
                f32::INFINITY,
                dists[n * 9 / 10],
                dists[n / 2],
                dists[n / 10],
            ] {
                for (new, &old) in old_ids.iter().enumerate() {
                    let (want, got) = (a.test(old, tau), b.test(new as u32, tau));
                    assert_eq!(
                        format!("{want:?}"),
                        format!("{got:?}"),
                        "{what}: row {old} at tau {tau}"
                    );
                }
            }
        }
    }

    #[test]
    fn remove_rows_keeps_survivors_bit_identical_on_every_operator() {
        let w = SynthSpec::tiny_test(8, 120, 13).generate();
        let dead: Vec<bool> = (0..120)
            .map(|i| i % 7 == 3 || (100..105).contains(&i))
            .collect();
        let removed = dead.iter().filter(|&&d| d).count();
        let keep: Vec<usize> = (0..120).filter(|&i| !dead[i]).collect();
        let survivors = w.base.select(&keep);
        for (spec_str, per_row) in REMOVAL_GRID {
            let spec: DcoSpec = spec_str.parse().unwrap();
            let full = spec.build_rows(&w.base, Some(&w.train_queries)).unwrap();
            let mut shrunk = spec.build_rows(&w.base, Some(&w.train_queries)).unwrap();
            shrunk.remove_rows(&dead).unwrap();
            assert_eq!(shrunk.stale_rows(), 0, "{spec_str}: removal is never stale");
            assert_eq!(
                full.extra_bytes() - shrunk.extra_bytes(),
                removed * per_row,
                "{spec_str}: side columns shrink with the rows"
            );
            assert_survivors_identical(&*full, &*shrunk, &dead, &w.queries, spec_str);

            // The shrunk operator snapshots and restores like any other.
            let rows = SharedRows::Owned(shrunk.rows().to_vecset());
            let restored = spec.restore(&shrunk.state_bytes(), rows).unwrap();
            assert_eq!(restored.extra_bytes(), shrunk.extra_bytes(), "{spec_str}");
            let what = format!("{spec_str} (restored)");
            assert_survivors_identical(&*full, &*restored, &dead, &w.queries, &what);

            // Data-independent transforms: removing rows ≡ never having
            // had them.
            if !spec.retrains_on_append() {
                let fresh = spec.build_rows(&survivors, None).unwrap();
                assert_eq!(
                    shrunk.rows().to_vecset(),
                    fresh.rows().to_vecset(),
                    "{spec_str}"
                );
                assert_eq!(shrunk.state_bytes(), fresh.state_bytes(), "{spec_str}");
                assert_eq!(shrunk.extra_bytes(), fresh.extra_bytes(), "{spec_str}");
            }

            // Bad masks are errors and change nothing; an all-dead mask
            // empties the operator.
            assert!(
                shrunk.remove_rows(&dead).is_err(),
                "{spec_str}: stale mask length"
            );
            assert_eq!(shrunk.len(), survivors.len(), "{spec_str}");
            shrunk.remove_rows(&vec![true; survivors.len()]).unwrap();
            assert!(shrunk.is_empty(), "{spec_str}");
            shrunk.remove_rows(&[]).unwrap();
        }
    }

    #[test]
    fn remove_rows_rejects_snapshot_mapped_operators() {
        // ... and so are appends: a refused mutation of either kind leaves
        // the operator exactly as it was.
        let w = SynthSpec::tiny_test(8, 60, 14).generate();
        let mut path = std::env::temp_dir();
        path.push(format!(
            "ddc-core-mapped-removal-{}.snap",
            std::process::id()
        ));
        for (spec_str, _) in REMOVAL_GRID {
            let spec: DcoSpec = spec_str.parse().unwrap();
            let built = spec.build_rows(&w.base, Some(&w.train_queries)).unwrap();
            let mut snap = ddc_vecs::SnapshotWriter::new();
            let rows = built.rows().to_vecset();
            let bytes = rows.as_flat().iter().flat_map(|v| v.to_le_bytes());
            snap.add_section("rows", bytes.collect()).unwrap();
            snap.finish(&path).unwrap();
            let mapped = ddc_vecs::Snapshot::open(&path)
                .unwrap()
                .section_rows("rows", 8)
                .unwrap();
            let mut dco = spec.restore(&built.state_bytes(), mapped).unwrap();
            let extra = dco.extra_bytes();
            let mut dead = vec![false; 60];
            dead[7] = true;
            let err = dco.remove_rows(&dead).unwrap_err();
            assert!(err.to_string().contains("immutable"), "{spec_str}: {err}");
            assert_eq!((dco.len(), dco.extra_bytes()), (60, extra), "{spec_str}");
            let err = dco.append_rows(&w.queries).unwrap_err();
            assert!(err.to_string().contains("immutable"), "{spec_str}: {err}");
            let after = (dco.len(), dco.extra_bytes(), dco.stale_rows());
            assert_eq!(after, (60, extra, 0), "{spec_str}: refused append");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn append_rejects_bad_dims() {
        let w = SynthSpec::tiny_test(8, 50, 11).generate();
        let mut dco = DcoSpec::Exact(Metric::L2)
            .build_rows(&w.base, None)
            .unwrap();
        let narrow = VecSet::from_flat(3, vec![0.0; 3]).unwrap();
        assert!(dco.append_rows(&narrow).is_err());
        let mut ads = "adsampling"
            .parse::<DcoSpec>()
            .unwrap()
            .build_rows(&w.base, None)
            .unwrap();
        assert!(ads.append_rows(&narrow).is_err());
    }

    #[test]
    fn build_dispatches_and_guards_training() {
        let w = SynthSpec::tiny_test(8, 80, 3).generate();
        let exact = "exact"
            .parse::<DcoSpec>()
            .unwrap()
            .build_rows(&w.base, None)
            .unwrap();
        assert_eq!(exact.name(), "Exact");
        assert_eq!(exact.len(), 80);

        let ads = "adsampling(delta_d=4)"
            .parse::<DcoSpec>()
            .unwrap()
            .build_rows(&w.base, None)
            .unwrap();
        assert_eq!(ads.name(), "ADSampling");

        let pca_spec: DcoSpec = "ddcpca(init_d=4,delta_d=4)".parse().unwrap();
        assert!(pca_spec.requires_training_queries());
        assert!(matches!(
            pca_spec.build_rows(&w.base, None),
            Err(CoreError::InsufficientTraining { .. })
        ));
        assert!(pca_spec.build_rows(&w.base, Some(&w.train_queries)).is_ok());
    }
}
