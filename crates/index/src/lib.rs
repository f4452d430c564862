//! # ddc-index
//!
//! The AKNN algorithms the paper plugs its distance comparison operators
//! into (§II-A: "we only consider graph-based and IVF-based indices"):
//!
//! * [`flat`] — exact/DCO linear scan (used by Table III and as a ground-
//!   truth oracle);
//! * [`ivf`] — inverted file index: k-means clustering at build time,
//!   `nprobe` nearest buckets scanned at query time;
//! * [`hnsw`] — Hierarchical Navigable Small World graph with heuristic
//!   neighbor selection and `ef`-bounded best-first search.
//!
//! Indexes are **built once with exact distances on the original vectors**
//! and searched with any [`ddc_core::Dco`]; because every DCO transform is
//! an isometry, ids and neighborhood structure agree across operators
//! (DESIGN.md, "Isometry invariance").
//!
//! ## Example
//!
//! ```
//! use ddc_core::Exact;
//! use ddc_index::FlatIndex;
//! use ddc_vecs::{GroundTruth, SynthSpec};
//!
//! let w = SynthSpec::tiny_test(8, 200, 11).generate();
//! let dco = Exact::build(&w.base);
//! let res = FlatIndex::new().search(&dco, w.queries.get(0), 5);
//!
//! // An exact flat scan reproduces brute-force ground truth.
//! let gt = GroundTruth::compute(&w.base, &w.queries, 5, 1).unwrap();
//! assert_eq!(res.neighbors[0].id, gt.ids[0][0]);
//! ```

pub mod error;
pub mod flat;
pub mod hnsw;
pub mod ivf;
pub mod persist;
pub mod search_index;
pub mod spec;
pub(crate) mod visited;

pub use error::IndexError;
pub use flat::FlatIndex;
pub use hnsw::{Hnsw, HnswConfig};
pub use ivf::{Ivf, IvfConfig};
pub use search_index::{BoxedIndex, SearchIndex, SearchParams};
pub use spec::IndexSpec;

use ddc_core::Counters;
use ddc_vecs::Neighbor;

/// Outcome of one query: ranked neighbors plus the DCO work counters.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Neighbors sorted by ascending distance.
    pub neighbors: Vec<Neighbor>,
    /// Distance-computation counters accumulated during the query.
    pub counters: Counters,
    /// Wall-clock nanos this query spent in index traversal + DCO
    /// evaluation. Indexes leave it 0 and the engine layer stamps it on
    /// every query; it is informational, not part of the result's
    /// identity.
    pub elapsed_nanos: u64,
}

impl SearchResult {
    /// Ids of the neighbors, in rank order.
    pub fn ids(&self) -> Vec<u32> {
        self.neighbors.iter().map(|n| n.id).collect()
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, IndexError>;
