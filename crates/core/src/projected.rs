//! The projected-row store: the paper's *approximation* half, written once.
//!
//! Every operator serves one isometrically projected copy of the dataset
//! and differs only in how it *corrects* a partial distance over it
//! (§IV–V). [`Projected`] owns what they share — the metric and its prep,
//! the [`Projection`], the row matrix with its stale-row count, the
//! inner-product mean-correction columns — and every operation over them:
//! build, append, remove, query projection (solo and batched), and the
//! projection's place in a state blob. An operator keeps its config, its
//! training, its side columns and its `test()`.
//!
//! **Prep first.** Cosine and weighted-L2 reduce exactly to L2 in "prepped
//! space" ([`Metric::prep_into`]): rows and queries are prepped before
//! they are projected, after which every L2 mechanism applies unchanged.
//! L2 and inner product pass through untouched. Rows handed to
//! [`Projected::restore`] are *as stored* — already prepped and projected
//! (prep is not idempotent for wl2).
//!
//! **Row push first.** [`Projected::append`] pushes the projected row
//! *before* the operator's callback extends a side column, so an append
//! the matrix refuses (snapshot-mapped rows) leaves every column exactly
//! as long as the matrix.
//!
//! **Blobs.** The metric is a trailing field written only when it is not
//! L2, so L2 blobs stay byte-identical to pre-metric writers and a blob
//! that ends early reads as L2. Geometry (rotation `D²`, PCA mean and
//! spectrum `D`, wl2 weight count) is validated once, in `restore`.

use crate::snap_state::{StateReader, StateWriter};
use crate::CoreError;
use ddc_linalg::kernels::{dot, matvec_batch_f32, matvec_f32, norm_sq, prefetch_head};
use ddc_linalg::pca::Pca;
use ddc_linalg::{Metric, RowAccess};
use ddc_vecs::{SharedRows, VecSet};

/// The orthogonal map from prepped space to stored space.
#[derive(Debug, Clone)]
pub(crate) enum Projection {
    /// Rows are stored as prepped ([`crate::Exact`]).
    Identity,
    /// A row-major `D×D` rotation ([`crate::AdSampling`], [`crate::DdcOpq`]).
    Rotation(Vec<f32>),
    /// Mean-centring PCA rotation ([`crate::DdcRes`], [`crate::DdcPca`]).
    Pca(Pca),
}

impl Projection {
    /// Reads a [`Projection::Rotation`] written by [`Projected::put_projection`].
    pub(crate) fn take_rotation(r: &mut StateReader) -> crate::Result<Projection> {
        Ok(Projection::Rotation(r.take_f32s()?))
    }

    /// Reads a [`Projection::Pca`] written by [`Projected::put_projection`].
    pub(crate) fn take_pca(r: &mut StateReader) -> crate::Result<Projection> {
        Ok(Projection::Pca(Pca {
            dim: r.take_usize()?,
            mean: r.take_f32s()?,
            rotation: r.take_f32s()?,
            eigenvalues: r.take_f32s()?,
        }))
    }

    fn matrix(&self) -> &[f32] {
        match self {
            Projection::Identity => &[],
            Projection::Rotation(m) => m,
            Projection::Pca(p) => &p.rotation,
        }
    }

    fn fits(&self, dim: usize) -> bool {
        match self {
            Projection::Identity => true,
            Projection::Rotation(m) => m.len() == dim * dim,
            Projection::Pca(p) => {
                p.dim == dim
                    && p.rotation.len() == dim * dim
                    && p.mean.len() == dim
                    && p.eigenvalues.len() == dim
            }
        }
    }

    fn apply(&self, x: &[f32], out: &mut [f32]) {
        match self {
            Projection::Identity => out.copy_from_slice(x),
            Projection::Rotation(m) => matvec_f32(m, out.len(), out.len(), x, out),
            Projection::Pca(p) => p.transform(x, out),
        }
    }

    /// [`Projection::apply`] over `xs.len() / dim` row-major vectors —
    /// bit-identical per vector, one pass over the matrix per block.
    fn apply_batch(&self, xs: &[f32], dim: usize) -> Vec<f32> {
        let n = xs.len() / dim.max(1);
        match self {
            Projection::Identity => xs.to_vec(),
            Projection::Rotation(m) => {
                let mut out = vec![0.0f32; xs.len()];
                matvec_batch_f32(m, dim, dim, xs, n, &mut out);
                out
            }
            Projection::Pca(p) => p.transform_batch(xs, n),
        }
    }
}

/// Inner product under a mean-centring PCA: with `x = Rᵀx′ + μ` and
/// `c = Rμ`, `⟨x, q⟩ = ⟨x′, q′⟩ + ⟨x′, c⟩ + ⟨q′, c⟩ + ‖c‖²`. Derived from
/// the projection and the rows at build / restore, never serialized.
#[derive(Debug, Clone)]
struct IpCenter {
    c: Vec<f32>,
    c_sq: f32,
    /// Per-row `⟨x′ᵢ, c⟩`.
    row_corr: Vec<f32>,
}

/// `c = Rμ`, computed as `−pca.transform(0⃗)` (transform mean-centres).
fn ip_center_of(pca: &Pca, rows: &SharedRows) -> IpCenter {
    let mut c = vec![0.0f32; pca.dim];
    pca.transform(&vec![0.0f32; pca.dim], &mut c);
    for v in &mut c {
        *v = -*v;
    }
    IpCenter {
        row_corr: (0..rows.len()).map(|i| dot(rows.get(i), &c)).collect(),
        c_sq: norm_sq(&c),
        c,
    }
}

/// One metric, one projection, one projected row matrix.
#[derive(Debug, Clone)]
pub struct Projected {
    metric: Metric,
    projection: Projection,
    rows: SharedRows,
    /// Rows appended since the projection was fitted (runtime-only).
    stale: usize,
    /// `Some` exactly when the metric is IP and the projection centres.
    ip: Option<IpCenter>,
}

impl Projected {
    /// Streams `base` through the metric prep into the one resident copy,
    /// under the identity projection; `what` labels the error.
    ///
    /// # Errors
    /// [`CoreError::Config`] when the metric does not fit `base.dim()`.
    pub(crate) fn build<R: RowAccess + ?Sized>(
        base: &R,
        metric: Metric,
        what: &str,
    ) -> crate::Result<Projected> {
        metric
            .validate_dim(base.dim())
            .map_err(|e| CoreError::Config(format!("{what}: {e}")))?;
        let mut store = Projected {
            metric,
            projection: Projection::Identity,
            rows: VecSet::with_capacity(base.dim(), base.len()).into(),
            stale: 0,
            ip: None,
        };
        store.append(base, false, |_| {})?;
        Ok(store)
    }

    /// Swaps the identity for `projection` — typically fitted on
    /// [`Projected::rows`] a moment ago — re-projecting the rows in place,
    /// a block at a time: no second copy of the matrix ever exists.
    pub(crate) fn project(self, projection: Projection) -> Projected {
        const BLOCK_ROWS: usize = 1024;
        let (SharedRows::Owned(set), Projection::Identity) = (self.rows, self.projection) else {
            unreachable!("only a freshly built store is re-projected");
        };
        let dim = set.dim();
        let mut flat = set.into_flat();
        for block in flat.chunks_mut((BLOCK_ROWS * dim).max(1)) {
            block.copy_from_slice(&projection.apply_batch(block, dim));
        }
        let rows = VecSet::from_flat(dim, flat).expect("geometry unchanged");
        Projected {
            rows: rows.into(),
            projection,
            ..self
        }
        .with_ip()
    }

    /// Reassembles a store from a blob's projection, the rest of the blob
    /// (the optional metric suffix, then nothing) and the stored rows.
    ///
    /// # Errors
    /// [`CoreError::Config`] on trailing bytes, an unknown metric, or a
    /// projection / weight vector that does not fit `rows.dim()`.
    pub(crate) fn restore(
        mut r: StateReader,
        projection: Projection,
        rows: SharedRows,
    ) -> crate::Result<Projected> {
        let what = r.what();
        let bad = |e: String| CoreError::Config(format!("{what} state: {e}"));
        let metric = match r.remaining() {
            0 => Metric::L2,
            _ => Metric::parse(&r.take_str()?).map_err(bad)?,
        };
        r.finish()?;
        let dim = rows.dim();
        if !projection.fits(dim) {
            return Err(bad(format!(
                "projection does not fit {dim}-dimensional rows"
            )));
        }
        metric.validate_dim(dim).map_err(|e| bad(e.to_string()))?;
        let store = Projected {
            metric,
            projection,
            rows,
            stale: 0,
            ip: None,
        };
        Ok(store.with_ip())
    }

    fn with_ip(mut self) -> Projected {
        if let (Projection::Pca(pca), true) = (&self.projection, self.is_ip()) {
            self.ip = Some(ip_center_of(pca, &self.rows));
        }
        self
    }

    /// Writes the projection (nothing for the identity).
    pub(crate) fn put_projection(&self, w: &mut StateWriter) {
        match &self.projection {
            Projection::Identity => {}
            Projection::Rotation(m) => w.put_f32s(m),
            Projection::Pca(p) => {
                w.put_usize(p.dim);
                w.put_f32s(&p.mean);
                w.put_f32s(&p.rotation);
                w.put_f32s(&p.eigenvalues);
            }
        }
    }

    /// Writes the trailing metric field — only when it is not L2.
    pub(crate) fn put_metric(&self, w: &mut StateWriter) {
        if self.metric != Metric::L2 {
            w.put_str(&self.metric.spec_value());
        }
    }

    /// Appends **original-space** rows: dimension check, then per row
    /// prep → project → push → `on_row(projected)`. `stale` says whether
    /// the projection was fitted on data (the rows then postdate it).
    ///
    /// # Errors
    /// [`CoreError`] on a dimensionality mismatch or snapshot-mapped rows;
    /// nothing has changed, and `on_row` has not run, in either case.
    pub(crate) fn append<R: RowAccess + ?Sized>(
        &mut self,
        new_rows: &R,
        stale: bool,
        mut on_row: impl FnMut(&[f32]),
    ) -> crate::Result<()> {
        let dim = self.dim();
        if new_rows.dim() != dim {
            return Err(CoreError::Config(format!(
                "appended rows are {}-dimensional, operator serves {dim}",
                new_rows.dim()
            )));
        }
        let mut prepped = vec![0.0f32; dim];
        let mut buf = vec![0.0f32; dim];
        for i in 0..new_rows.len() {
            let mut row = new_rows.row(i);
            if self.metric.needs_prep() {
                self.metric.prep_into(row, &mut prepped);
                row = &prepped[..];
            }
            if !matches!(self.projection, Projection::Identity) {
                self.projection.apply(row, &mut buf);
                row = &buf[..];
            }
            self.rows.push(row)?;
            if let Some(ip) = &mut self.ip {
                ip.row_corr.push(dot(row, &ip.c));
            }
            self.stale += usize::from(stale);
            on_row(row);
        }
        Ok(())
    }

    /// Physically removes the flagged rows (and their correction entries).
    ///
    /// # Errors
    /// [`CoreError`] on a mask of the wrong length or mapped rows; nothing
    /// has changed in either case.
    pub(crate) fn remove(&mut self, dead_mask: &[bool]) -> crate::Result<()> {
        self.rows.remove_rows(dead_mask)?;
        if let Some(ip) = &mut self.ip {
            remove_column_rows(&mut ip.row_corr, dead_mask);
        }
        Ok(())
    }

    /// The original-space query as the stored rows expect it.
    pub(crate) fn project_query(&self, q: &[f32]) -> Vec<f32> {
        let mut rq = vec![0.0f32; self.dim()];
        if self.metric.needs_prep() {
            let mut pq = q.to_vec();
            self.metric.prep_in_place(&mut pq);
            self.projection.apply(&pq, &mut rq);
        } else {
            self.projection.apply(q, &mut rq);
        }
        rq
    }

    /// [`Projected::project_query`] over a whole set, row-major: one pass
    /// over the projection matrix per block of queries, bit-identical per
    /// query.
    ///
    /// # Panics
    /// Panics when `queries.dim() != self.dim()`.
    pub(crate) fn project_batch(&self, queries: &VecSet) -> Vec<f32> {
        let dim = self.dim();
        assert_eq!(queries.dim(), dim, "query batch dimensionality");
        if !self.metric.needs_prep() {
            return self.projection.apply_batch(queries.as_flat(), dim);
        }
        let mut prepped = queries.as_flat().to_vec();
        for q in prepped.chunks_mut(dim.max(1)) {
            self.metric.prep_in_place(q);
        }
        self.projection.apply_batch(&prepped, dim)
    }

    /// `⟨q′, c⟩` for a projected query — the per-query term of
    /// [`Projected::ip_exact`]; `0` when the projection does not centre.
    pub(crate) fn ip_query_term(&self, rq: &[f32]) -> f32 {
        self.ip.as_ref().map_or(0.0, |ip| dot(rq, &ip.c))
    }

    /// `−⟨x, q⟩` in the original space from the projected pair, with `qc`
    /// from [`Projected::ip_query_term`].
    #[inline]
    pub(crate) fn ip_exact(&self, id: usize, rq: &[f32], qc: f32) -> f32 {
        let d = dot(self.row(id), rq);
        match &self.ip {
            Some(ip) => -(d + ip.row_corr[id] + qc + ip.c_sq),
            None => -d,
        }
    }

    /// Floats held beyond the rows: projection matrix + IP correction.
    pub(crate) fn extra_floats(&self) -> usize {
        let ip = self.ip.as_ref();
        self.projection.matrix().len() + ip.map_or(0, |ip| ip.c.len() + ip.row_corr.len())
    }

    /// Stored row `id`.
    #[inline]
    pub(crate) fn row(&self, id: usize) -> &[f32] {
        self.rows.get(id)
    }

    /// Starts loading the head of stored row `id` (see
    /// [`crate::QueryDco::prefetch`]).
    #[inline]
    pub(crate) fn prefetch_row(&self, id: usize) {
        prefetch_head(self.rows.get(id));
    }

    /// The stored matrix.
    #[inline]
    pub(crate) fn rows(&self) -> &SharedRows {
        &self.rows
    }

    /// Number of stored rows.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Dimensionality.
    #[inline]
    pub(crate) fn dim(&self) -> usize {
        self.rows.dim()
    }

    /// The dimension the saved state fixes — a projection's side, or
    /// weighted-L2 weights' length — or `None` when only the rows do.
    pub(crate) fn recorded_dim(&self) -> Option<usize> {
        let fixed = !matches!(self.projection, Projection::Identity)
            || matches!(self.metric, Metric::WeightedL2(_));
        fixed.then(|| self.dim())
    }

    /// The metric every distance is answered in.
    #[inline]
    pub(crate) fn metric(&self) -> &Metric {
        &self.metric
    }

    /// True under inner product (the one metric with no L2 reduction).
    #[inline]
    pub(crate) fn is_ip(&self) -> bool {
        self.metric == Metric::InnerProduct
    }

    /// Rows appended since the projection was fitted.
    pub(crate) fn stale_rows(&self) -> usize {
        self.stale
    }
}

/// Shrinks one per-row side column (norms, codes, correction terms) in
/// step with the matrix. The column's width is whatever it holds per row,
/// so an absent table (empty vector) passes through untouched.
pub(crate) fn remove_column_rows<T: Copy>(col: &mut Vec<T>, dead_mask: &[bool]) {
    if !dead_mask.is_empty() {
        ddc_vecs::retain_live_rows(col, col.len() / dead_mask.len(), dead_mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainingCaps;
    use crate::{AdSampling, AdSamplingConfig, Dco, DdcOpq, DdcOpqConfig, DdcPca, DdcPcaConfig};
    use crate::{DdcRes, DdcResConfig, Exact};
    use ddc_linalg::kernels::l2_sq;
    use ddc_vecs::SynthSpec;

    impl Projected {
        /// The IP correction `(c, per-row ⟨x′ᵢ, c⟩)`, for tests to compare.
        pub(crate) fn ip_columns(&self) -> Option<(&[f32], &[f32])> {
            self.ip.as_ref().map(|ip| (&ip.c[..], &ip.row_corr[..]))
        }
    }

    fn empty(dim: usize, metric: Metric) -> Projected {
        Projected::build(&VecSet::new(dim), metric, "test").unwrap()
    }

    #[test]
    fn build_stores_rows_as_per_row_prep_leaves_them() {
        let mut base = VecSet::with_capacity(3, 0);
        base.push(&[3.0, 0.0, 4.0]).unwrap();
        base.push(&[0.0, 0.0, 0.0]).unwrap();
        let store = Projected::build(&base, Metric::Cosine, "test").unwrap();
        assert_eq!(store.row(0), &[0.6, 0.0, 0.8]);
        assert_eq!(store.row(1), &[0.0, 0.0, 0.0]);
        assert_eq!(store.stale_rows(), 0);
    }

    #[test]
    fn queries_are_prepped_only_when_the_metric_needs_it() {
        let q = [3.0f32, 4.0];
        for m in [Metric::L2, Metric::InnerProduct] {
            assert_eq!(empty(2, m).project_query(&q), q);
        }
        let cos = empty(2, Metric::Cosine);
        assert_eq!(cos.project_query(&q), [0.6, 0.8]);
        let batch = VecSet::from_flat(2, vec![3.0, 4.0, 0.0, 2.0]).unwrap();
        assert_eq!(cos.project_batch(&batch), [0.6, 0.8, 0.0, 1.0]);
    }

    #[test]
    fn prepped_space_distance_is_the_metric() {
        let m = Metric::WeightedL2([0.5f32, 2.0, 1.0].into());
        let store = empty(3, m.clone());
        let a = [1.0f32, -2.0, 0.5];
        let b = [0.0f32, 1.0, 3.0];
        let raw = m.distance(&a, &b);
        let got = l2_sq(&store.project_query(&a), &store.project_query(&b));
        assert!((got - raw).abs() <= 1e-6 * (1.0 + raw.abs()));
    }

    #[test]
    fn metric_suffix_round_trip_and_absence() {
        let rows = || SharedRows::from(VecSet::new(2));
        for m in [
            Metric::L2,
            Metric::InnerProduct,
            Metric::Cosine,
            Metric::WeightedL2([1.0f32, 0.5].into()),
        ] {
            let mut w = StateWriter::new("T");
            empty(2, m.clone()).put_metric(&mut w);
            let blob = w.into_bytes();
            let mut r = StateReader::new(&blob, "T");
            r.expect_name("T").unwrap();
            // L2 writes nothing, and nothing reads back as L2.
            assert_eq!(r.remaining() == 0, m == Metric::L2);
            let back = Projected::restore(r, Projection::Identity, rows()).unwrap();
            assert_eq!(*back.metric(), m);
        }
    }

    /// `blob` with the last length-prefixed copy of `field` two floats short.
    fn shorten(blob: &[u8], field: &[f32]) -> Vec<u8> {
        let bytes: Vec<u8> = field.iter().flat_map(|v| v.to_le_bytes()).collect();
        let at = blob
            .windows(bytes.len())
            .rposition(|w| w == bytes)
            .expect("field is in the blob");
        assert_eq!(blob[at - 8..at], (field.len() as u64).to_le_bytes());
        let mut out = blob[..at - 8].to_vec();
        out.extend_from_slice(&(field.len() as u64 - 2).to_le_bytes());
        out.extend_from_slice(&bytes[..bytes.len() - 8]);
        out.extend_from_slice(&blob[at + bytes.len()..]);
        out
    }

    /// `blob` with its trailing metric field replaced by `metric`.
    fn swap_metric(blob: &[u8], old: &Metric, metric: &Metric) -> Vec<u8> {
        let mut w = StateWriter::new("");
        w.put_str(&metric.spec_value());
        let cut = blob.len() - 8 - old.spec_value().len();
        [&blob[..cut], &w.into_bytes()[8..]].concat()
    }

    /// Every way a well-formed blob's projection or metric can disagree
    /// with the rows is a `Config` error from `restore`, never a panic in
    /// the first query.
    fn assert_rejects_misfits<D: Dco>(dco: &D, restore: fn(&[u8], SharedRows) -> crate::Result<D>) {
        let (what, blob, metric) = (dco.name(), dco.state_bytes(), dco.metric());
        assert!(restore(&blob, dco.rows().clone()).is_ok(), "{what}");
        let mut bad = Vec::new();
        match &dco.store().projection {
            Projection::Identity => {}
            Projection::Rotation(m) => bad.push(("rotation", shorten(&blob, m))),
            Projection::Pca(p) => {
                bad.push(("rotation", shorten(&blob, &p.rotation)));
                bad.push(("mean", shorten(&blob, &p.mean)));
                bad.push(("eigenvalues", shorten(&blob, &p.eigenvalues)));
            }
        }
        if let Metric::WeightedL2(w) = &metric {
            let fewer = Metric::WeightedL2(w[1..].into());
            bad.push(("wl2 weights", swap_metric(&blob, &metric, &fewer)));
        }
        assert!(!bad.is_empty(), "{what}");
        for (case, blob) in bad {
            match restore(&blob, dco.rows().clone()) {
                Err(CoreError::Config(_)) => {}
                Err(e) => panic!("{what} ({metric}), short {case}: {e}"),
                Ok(_) => panic!("{what} ({metric}), short {case}: restored"),
            }
        }
    }

    #[test]
    fn restore_rejects_projections_and_weights_that_do_not_fit_the_rows() {
        let w = SynthSpec::tiny_test(8, 120, 15).generate();
        let caps = TrainingCaps {
            max_queries: 16,
            negatives_per_query: 16,
            k: 5,
            seed: 0,
        };
        let wl2 = Metric::WeightedL2((1..=8).map(|i| i as f32 / 4.0).collect());
        for metric in [wl2, Metric::InnerProduct] {
            let m = || metric.clone();
            if metric.needs_prep() {
                let exact = Exact::build_metric(&w.base, m()).unwrap();
                assert_rejects_misfits(&exact, Exact::restore);
            }
            let cfg = AdSamplingConfig {
                delta_d: 4,
                metric: m(),
                ..Default::default()
            };
            let ads = AdSampling::build(&w.base, cfg).unwrap();
            assert_rejects_misfits(&ads, AdSampling::restore);
            let cfg = DdcResConfig {
                init_d: 4,
                delta_d: 4,
                metric: m(),
                ..Default::default()
            };
            let res = DdcRes::build(&w.base, cfg).unwrap();
            assert_rejects_misfits(&res, DdcRes::restore);
            let cfg = DdcPcaConfig {
                init_d: 4,
                delta_d: 4,
                caps: caps.clone(),
                metric: m(),
                ..Default::default()
            };
            let pca = DdcPca::build(&w.base, &w.train_queries, cfg).unwrap();
            assert_rejects_misfits(&pca, DdcPca::restore);
            let cfg = DdcOpqConfig {
                m: 2,
                nbits: 4,
                opq_iters: 1,
                caps: caps.clone(),
                metric: m(),
                ..Default::default()
            };
            let opq = DdcOpq::build(&w.base, &w.train_queries, cfg).unwrap();
            assert_rejects_misfits(&opq, DdcOpq::restore);
        }
    }
}
