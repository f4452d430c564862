//! # ddc — Effective and General Distance Computation for AKNN Search
//!
//! Facade crate re-exporting the full public API of the DDC workspace, a
//! from-scratch Rust reproduction of *"Effective and General Distance
//! Computation for Approximate Nearest Neighbor Search"* (ICDE 2025).
//!
//! Quick tour (see `examples/quickstart.rs` for a runnable version):
//!
//! 1. build or load a dataset ([`vecs`]),
//! 2. pick an (index × operator) pair — at compile time via [`core`]'s
//!    `DdcRes` / `DdcPca` / `DdcOpq` / `AdSampling` / `Exact` plugged into
//!    [`index`]'s flat / IVF / HNSW, or at runtime through the [`engine`]
//!    layer's string-configurable [`Engine`],
//! 3. search — single queries, whole batches
//!    ([`Engine::search_batch`] amortizes the per-query rotation cost),
//!    or shard-parallel batches over a [`WorkerPool`]
//!    ([`Engine::search_batch_parallel_with`]),
//! 4. serve — the [`server`] subsystem (`ddc-serve` binary) exposes the
//!    engine over HTTP with hot-swappable configuration
//!    ([`ServingHandle`]).
//!
//! ```
//! use ddc::{Engine, EngineConfig};
//! use ddc::vecs::SynthSpec;
//!
//! let w = SynthSpec::tiny_test(16, 200, 1).generate();
//! let cfg = EngineConfig::from_strs("hnsw(m=6,ef_construction=30)", "ddcres(init_d=4,delta_d=4)")
//!     .unwrap();
//! let engine = Engine::build(&w.base, None, cfg).unwrap();
//! let hits = engine.search(w.queries.get(0), 5).unwrap();
//! assert_eq!(hits.neighbors.len(), 5);
//! ```

pub use ddc_cluster as cluster;
pub use ddc_core as core;
pub use ddc_engine as engine;
pub use ddc_index as index;
pub use ddc_learn as learn;
pub use ddc_linalg as linalg;
pub use ddc_obs as obs;
pub use ddc_quant as quant;
pub use ddc_server as server;
pub use ddc_vecs as vecs;

pub use ddc_engine::{Engine, EngineConfig, EngineError, EngineStats, ServingHandle, WorkerPool};
pub use ddc_server::{Server, ServerConfig};

/// Crate version string, for binaries that want to report it.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
