//! # ddc-engine
//!
//! The serving layer of the DDC workspace: a runtime-configurable,
//! batch-capable search engine that makes every (index × DCO) combination
//! a config choice instead of a compile-time wiring.
//!
//! The paper's claim is that its distance comparison operators are
//! *general* — they plug into any AKNN index (§VI). The lower crates prove
//! that statically: `ddc-index` searches are generic over
//! [`ddc_core::Dco`]. This crate makes it operational:
//!
//! ```text
//!            EngineConfig ("hnsw(m=16)" × "ddcres")
//!                          │ build / open_snapshot
//!                          ▼
//!  ┌───────────────────── Engine ─────────────────────┐
//!  │  BoxedIndex (dyn SearchIndex)   BoxedDco (dyn)   │
//!  │   flat │ ivf │ hnsw      exact │ ads │ ddc{res,  │
//!  │                                      pca,opq}    │
//!  │  search · search_batch · stats · save_snapshot   │
//!  └──────────────────────────────────────────────────┘
//! ```
//!
//! * **One search path** — the five adapters ([`Engine::search`],
//!   [`Engine::search_with`], [`Engine::search_filtered_with`],
//!   [`Engine::search_batch`], [`Engine::search_batch_with`]) are a few
//!   lines each over the public group entry point
//!   [`Engine::search_group`] (a batch plus an optional
//!   [`FilterPredicate`]) and one per-query core: a solo query is a group
//!   of one, an unfiltered search has the predicate `None`.
//! * **Runtime selection** — [`EngineConfig::from_strs`] parses
//!   `name(key=value,...)` specs ([`ddc_core::DcoSpec`] /
//!   [`ddc_index::IndexSpec`]) straight from CLI flags or config files.
//! * **Batched search** — [`Engine::search_batch`] rotates the whole
//!   [`ddc_core::QueryBatch`] through one cache-blocked pass
//!   ([`ddc_linalg::kernels::matvec_batch_f32`]), amortizing the `O(D²)`
//!   per-query setup the paper accounts in §VI-A, with bit-identical
//!   results to per-query search.
//! * **One stats surface** — [`Engine::stats`] reports what an engine
//!   is: composition, memory (Fig. 7 accounting) and the active SIMD
//!   backend, in one [`EngineStats`]. Work (Fig. 10 metrics) is counted
//!   per query in each result's counters; the server keeps the totals.
//! * **One constructor, one file format** — [`Engine::build`] takes any
//!   row source (a resident [`ddc_vecs::VecSet`] or a mapped
//!   [`ddc_vecs::SharedRows`]) through one loop. [`Engine::save_snapshot`] /
//!   [`Engine::open_snapshot`] write and reopen one checksummed,
//!   memory-mapped container ([`ddc_vecs::snapshot`]) holding the
//!   pre-rotated matrix, the fitted operator state (projection,
//!   classifiers, calibrated multiplier), and the index structure
//!   ([`ddc_index::persist`]); reopening needs no base vectors, refits
//!   nothing, runs in `O(ms)`, and serves the matrix zero-copy off the map
//!   with results bit-identical to the saved engine.
//! * **A worker pool** — [`WorkerPool`] runs jobs (the server's request
//!   handlers) on fixed threads taking from one FIFO queue.
//! * **Hot swap** — [`ServingHandle`] is an epoch-stamped engine slot:
//!   readers snapshot an `Arc<Engine>`, [`ServingHandle::swap`] replaces
//!   it atomically mid-traffic (what `ddc-server`'s `/admin/swap` uses).
//! * **Generalized metrics & filtering** — both specs accept a `metric=`
//!   key (`l2`, `ip`, `cosine`, `wl2:w1;w2;...`; see [`Metric`]) and the
//!   engine validates that index and operator agree;
//!   [`Engine::set_payloads`] attaches one opaque `u64` tag per row and
//!   [`Engine::search_filtered_with`] restricts a search to rows matching a
//!   [`FilterPredicate`], evaluated **during** traversal through the same
//!   liveness hook tombstones use — filtered-out rows never consume a
//!   result slot.
//! * **Live mutability** — [`MutableEngine`] layers upserts and deletes
//!   over the immutable serving engine (tombstone-filtered searches with
//!   result repair, an exact-scanned pending-insert delta) and folds them
//!   in through a background compactor that lands replacement engines via
//!   the same epoch-stamped [`ServingHandle`] swap.
//!
//! ## Example: the full grid from strings
//!
//! ```
//! use ddc_engine::{Engine, EngineConfig};
//! use ddc_vecs::SynthSpec;
//!
//! let w = SynthSpec::tiny_test(16, 240, 9).generate();
//! for index in ["flat", "ivf(nlist=8)", "hnsw(m=6,ef_construction=30)"] {
//!     for dco in ["exact", "adsampling(delta_d=4)", "ddcres(init_d=4,delta_d=4)"] {
//!         let cfg = EngineConfig::from_strs(index, dco).unwrap();
//!         let engine = Engine::build(&w.base, Some(&w.train_queries), cfg).unwrap();
//!         let hits = engine.search(w.queries.get(0), 3).unwrap();
//!         assert_eq!(hits.neighbors.len(), 3);
//!     }
//! }
//! ```

mod engine;
mod error;
mod filter;
mod handle;
mod mutable;
mod pool;
mod stats;

pub use engine::{Engine, EngineConfig, SnapshotInfo};
pub use error::EngineError;
pub use filter::FilterPredicate;
pub use handle::{EngineEpoch, ServingHandle};
pub use mutable::{CompactionReport, CompactorHandle, MutableConfig, MutableEngine, MutationStats};
pub use pool::{Job, WorkerPool};
pub use stats::EngineStats;

pub use ddc_linalg::Metric;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EngineError>;
