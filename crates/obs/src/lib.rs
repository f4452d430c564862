//! # ddc-obs
//!
//! The observability substrate shared by every serving layer of the DDC
//! workspace: lock-free fixed-bucket histograms ([`AtomicHistogram`]), a
//! request-lifecycle stage taxonomy ([`Stage`] / [`StageHistograms`]),
//! Prometheus text exposition v0.0.4 rendering ([`expo`]), and
//! per-request trace spans ([`TraceSpan`]) behind a process-wide on/off
//! gate ([`enabled`]).
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
//! // Quantiles are bucket-upper-edge estimates.
//! assert!(snap.quantile(0.5) >= 1_024);
//! ```
//!
//! ## The global gate
//!
//! Instrumentation is on by default; `DDC_OBS_OFF=1` in the environment
//! disables it at startup, and [`set_enabled`] flips it at runtime (so one
//! process can exercise both the instrumented and the uninstrumented
//! path, as this crate's tests do). Recording sites are
//! expected to check [`enabled`] — a single relaxed atomic load — before
//! taking timestamps, so the disabled path costs nothing measurable.

pub mod expo;
mod hist;
mod stage;
mod trace;

pub use hist::{AtomicHistogram, HistogramSnapshot, LOG2_EDGES};
pub use stage::{Stage, StageHistograms};
pub use trace::TraceSpan;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static GATE_INIT: Once = Once::new();
static GATE_ON: AtomicBool = AtomicBool::new(true);

/// True when observability recording is on (the default). The first call
/// consults the `DDC_OBS_OFF` environment variable — any non-empty value
/// other than `0` starts the process with recording off — after which
/// the gate is a single relaxed atomic load.
pub fn enabled() -> bool {
    GATE_INIT.call_once(|| {
        let off = std::env::var_os("DDC_OBS_OFF").is_some_and(|v| !v.is_empty() && v != *"0");
        if off {
            GATE_ON.store(false, Ordering::Relaxed);
        }
    });
    GATE_ON.load(Ordering::Relaxed)
}

/// Overrides the gate at runtime (wins over `DDC_OBS_OFF`), so one process
/// can run both sides of the gate.
pub fn set_enabled(on: bool) {
    GATE_INIT.call_once(|| {}); // claim init: the env no longer applies
    GATE_ON.store(on, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    #[test]
    fn gate_toggles_at_runtime() {
        super::set_enabled(true);
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
    }
}
