//! # ddc-vecs
//!
//! Dataset substrate for the DDC reproduction: contiguous row-major vector
//! storage ([`VecSet`]), the fvecs/ivecs/bvecs file formats used by every
//! public ANN benchmark ([`io`]), one resident-or-mapped row matrix
//! ([`SharedRows`], in [`store`]) that serves `.fvecs` files and snapshot
//! sections zero-copy, the snapshot container ([`snapshot`]), seeded
//! synthetic workload generators that stand in for the paper's datasets
//! ([`synth`]), exact top-`k` under any metric ([`metric_oracle`]) with
//! its multi-threaded L2 ground truth ([`gt`]), and the recall/QPS
//! evaluation metrics ([`metrics`]).
//!
//! [`VecSet`] and [`SharedRows`] both implement [`RowAccess`], the row-level
//! contract every build path in the workspace consumes — which is how a
//! memory-mapped SIFT1M builds the same indexes and operators,
//! bit-identically, as a heap-resident one.
//!
//! The synthetic generators are the documented substitution for the paper's
//! eight real datasets (Table II): they control the covariance eigenspectrum
//! directly, which is the dataset property the paper's results hinge on
//! (PCA-based DCOs win under skewed spectra, OPQ-based under flat ones).
//!
//! ## Example
//!
//! ```
//! use ddc_vecs::{GroundTruth, SynthSpec};
//!
//! // A seeded workload: base vectors, evaluation queries, training queries.
//! let w = SynthSpec::tiny_test(8, 200, 7).generate();
//! assert_eq!((w.base.len(), w.base.dim()), (200, 8));
//!
//! // Brute-force ground truth (the `1` is the worker thread count).
//! let gt = GroundTruth::compute(&w.base, &w.queries, 5, 1).unwrap();
//! assert_eq!(gt.ids.len(), w.queries.len());
//! ```

pub mod error;
pub mod gt;
pub mod io;
pub mod metric_oracle;
pub mod metrics;
pub mod snapshot;
pub mod store;
pub mod synth;
#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
pub mod sys;
pub mod vecset;

pub use ddc_linalg::RowAccess;
pub use error::VecsError;
pub use gt::{GroundTruth, Neighbor, TopK};
pub use metrics::{hits, measure_qps, recall, recall_at};
pub use snapshot::{Snapshot, SnapshotWriter};
pub use store::{Advice, SharedRows};
pub use synth::{SynthProfile, SynthSpec, Workload};
pub use vecset::{retain_live_rows, VecSet};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, VecsError>;
