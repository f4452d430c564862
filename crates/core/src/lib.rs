//! # ddc-core
//!
//! The paper's contribution: *distance comparison operators* (DCOs) that
//! replace exact distance computation in the refinement phase of AKNN
//! search. A DCO is asked, for a candidate `x` and the current queue
//! threshold `τ`, either to certify `dis(x, q) > τ` cheaply (prune) or to
//! fall back to the exact distance.
//!
//! Implementations:
//!
//! | type | approximate distance | correction | paper |
//! |------|----------------------|------------|-------|
//! | [`Exact`] | — | — | baseline `HNSW`/`IVF` |
//! | [`AdSampling`] | random-orthogonal prefix | JL hypothesis test `ε₀/√d` | §III (SOTA baseline) |
//! | [`DdcRes`] | PCA decomposition `C1 − C2` | residual variance bound `m·σ(d)` | §IV, Alg. 1–2 |
//! | [`DdcPca`] | plain PCA prefix distance | learned classifier per level | §V.B |
//! | [`DdcOpq`] | OPQ asymmetric distance | learned classifier + quantization-error feature | §V.B |
//! | [`plain::FixedProjection`] | fixed-`d` prefix, no correction | none | Table III (`PCA`, `Rand`) |
//!
//! The paper decouples the *approximation* (an orthogonal projection of
//! the dataset) from the *correction* (what certifies `dis > τ` from a
//! partial distance), and so does the crate: the crate-private `projected`
//! module owns the one projected-row store every operator serves —
//! metric prep, projection, rows, appends and removals, query projection,
//! the inner-product mean correction — and each operator file holds only
//! its correction: config, training, side columns, `test()`. All DCOs
//! record [`Counters`] (dimensions scanned, pruned rate — Fig. 10's
//! metrics) and share the [`Dco`]/[`QueryDco`] traits so indexes stay
//! generic.

pub mod adsampling;
pub mod batch;
pub mod counters;
pub mod ddc_opq;
pub mod ddc_pca;
pub mod ddc_res;
pub mod dyn_dco;
pub mod error;
pub mod exact;
pub mod plain;
pub(crate) mod projected;
pub mod snap_state;
pub mod spec;
pub mod stats;
pub mod training;
pub mod traits;

pub use adsampling::{AdSampling, AdSamplingConfig};
pub use batch::QueryBatch;
pub use counters::Counters;
pub use ddc_linalg::Metric;
pub use ddc_opq::{DdcOpq, DdcOpqConfig};
pub use ddc_pca::{DdcPca, DdcPcaConfig};
pub use ddc_res::{DdcRes, DdcResConfig};
pub use dyn_dco::{BoxedDco, DynDco, DynQueryDco};
pub use error::CoreError;
pub use exact::Exact;
pub use snap_state::{StateReader, StateWriter};
pub use spec::{DcoSpec, SpecParams};
pub use traits::{Dco, Decision, QueryDco};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
