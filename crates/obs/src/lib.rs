//! # ddc-obs
//!
//! The observability substrate shared by every serving layer of the DDC
//! workspace: lock-free fixed-bucket histograms ([`AtomicHistogram`]), a
//! request-lifecycle stage taxonomy ([`Stage`] / [`StageHistograms`]) and
//! Prometheus text exposition v0.0.4 rendering ([`expo`]). Recording is
//! always on: there is no gate to check and nothing to configure.
//!
//! The crate is deliberately dependency-free (`std` only) and sits below
//! `ddc-engine` and `ddc-server` in the workspace graph, so any layer —
//! the coalescing collector, the mutation compactor, the HTTP reactor —
//! can record into the same histogram type and every distribution
//! composes onto one `/metrics` surface.
//!
//! ## Recording and reading a latency distribution
//!
//! ```
//! use ddc_obs::AtomicHistogram;
//!
//! let hist = AtomicHistogram::log2(); // power-of-two nanosecond buckets
//! hist.record(800);
//! hist.record(1_200);
//! hist.record(1_000_000);
//!
//! let snap = hist.snapshot();
//! assert_eq!(snap.count(), 3);
//! assert_eq!(snap.sum, 1_002_000);
//! assert_eq!(snap.max, 1_000_000);
//! // 1 200 ns lands in the bucket whose upper edge is 2^11.
//! assert_eq!(snap.count_for(1_200), 1);
//! ```

pub mod expo;
mod hist;
mod stage;

pub use hist::{AtomicHistogram, HistogramSnapshot, LOG2_EDGES};
pub use stage::{Stage, StageHistograms};
