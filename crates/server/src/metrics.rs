//! Server-wide observability: per-endpoint × status request counters,
//! per-endpoint latency histograms, request-lifecycle stage timings,
//! DCO work series, and sampled structured access logs.
//!
//! One [`ServerObs`] lives in [`crate::server::ServerState`] and is
//! shared by the reactor, every connection, and the route handlers. The
//! exactly-once accounting contract: every request a client manages to
//! deliver (or fails to deliver) is counted at exactly one of three
//! choke points —
//!
//! * the [`crate::routes::Responder`] wrapper in the reactor's
//!   `dispatch` (every request that framed successfully, whatever its
//!   handler does);
//! * `Conn::enqueue_error` (framing failures and read timeouts: 400,
//!   408, 413 — no path was ever parsed, so they land on the `none`
//!   endpoint);
//! * the reactor's `refuse` (503 over the connection cap).
//!
//! It is also the server's one DCO work ledger: `/metrics` exposes it as
//! the `ddc_dco_*_total` counters and `/stats` as `queries` and
//! `counters`, both monotonic since boot (a hot swap resets nothing).

use crate::json::Json;
use ddc_core::Counters;
use ddc_obs::expo::Expo;
use ddc_obs::{AtomicHistogram, Stage, StageHistograms};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Endpoints with first-class series. `other` is any routed path not in
/// this table (404s); `none` is a request that died before a path was
/// parsed (framing errors, timeouts, connection-cap refusals).
pub(crate) const ENDPOINTS: [&str; 11] = [
    "/healthz",
    "/stats",
    "/metrics",
    "/search",
    "/search_batch",
    "/upsert",
    "/delete",
    "/admin/compact",
    "/admin/swap",
    "other",
    "none",
];
const EP_OTHER: usize = ENDPOINTS.len() - 2;
/// Index of the `none` endpoint (pre-parse failures).
pub(crate) const EP_NONE: usize = ENDPOINTS.len() - 1;

/// Status codes this server emits; anything else lands in the trailing
/// `other` slot.
const STATUSES: [u16; 8] = [200, 400, 404, 405, 408, 413, 500, 503];

fn status_slot(status: u16) -> usize {
    STATUSES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUSES.len())
}

fn status_label(slot: usize) -> String {
    if slot < STATUSES.len() {
        STATUSES[slot].to_string()
    } else {
        "other".into()
    }
}

/// Per-query prune-rate buckets, in percent (rendered as a 0..1 ratio).
static PCT_EDGES: [u64; 21] = [
    0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100,
];

/// The server's shared observability state.
pub(crate) struct ServerObs {
    /// `requests[endpoint][status_slot]`, the exactly-once ledger.
    requests: [[AtomicU64; STATUSES.len() + 1]; ENDPOINTS.len()],
    /// Wall-clock request duration (framed → response handed back),
    /// nanos, per endpoint.
    request_hist: [AtomicHistogram; ENDPOINTS.len()],
    /// Request-lifecycle stage timings (parse, queue_wait, search,
    /// serialize, write).
    stages: StageHistograms,
    // Monotonic server-lifetime DCO work totals.
    dco_candidates: AtomicU64,
    dco_pruned: AtomicU64,
    dco_exact: AtomicU64,
    dco_dims_scanned: AtomicU64,
    dco_dims_full: AtomicU64,
    // Per-query DCO distributions.
    query_candidates: AtomicHistogram,
    query_dims_scanned: AtomicHistogram,
    query_pruned_pct: AtomicHistogram,
    /// `Some(n)` = log every `n`-th finished request as a JSON line on
    /// stderr; `None` = access logging off.
    access_sample_n: Option<u64>,
    access_seq: AtomicU64,
}

impl ServerObs {
    pub(crate) fn new(access_sample_n: Option<u64>) -> ServerObs {
        ServerObs {
            requests: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            request_hist: std::array::from_fn(|_| AtomicHistogram::log2()),
            stages: StageHistograms::new(),
            dco_candidates: AtomicU64::new(0),
            dco_pruned: AtomicU64::new(0),
            dco_exact: AtomicU64::new(0),
            dco_dims_scanned: AtomicU64::new(0),
            dco_dims_full: AtomicU64::new(0),
            query_candidates: AtomicHistogram::log2(),
            query_dims_scanned: AtomicHistogram::log2(),
            query_pruned_pct: AtomicHistogram::new(&PCT_EDGES),
            access_sample_n: access_sample_n.map(|n| n.max(1)),
            access_seq: AtomicU64::new(0),
        }
    }

    /// The series slot for a routed path.
    pub(crate) fn endpoint_index(path: &str) -> usize {
        ENDPOINTS
            .iter()
            .position(|&e| e == path)
            .unwrap_or(EP_OTHER)
    }

    /// The stage timers (shared with connections for parse/write spans).
    pub(crate) fn stages(&self) -> &StageHistograms {
        &self.stages
    }

    /// Books one finished request: the status ledger, the latency
    /// histogram, and the access-log line when configured. Each request
    /// must reach this exactly once.
    pub(crate) fn record_request(&self, endpoint: usize, status: u16, nanos: u64) {
        self.requests[endpoint][status_slot(status)].fetch_add(1, Ordering::Relaxed);
        self.request_hist[endpoint].record(nanos);
        self.maybe_access_log(endpoint, status, nanos);
    }

    /// Books the DCO work of one answered query.
    pub(crate) fn record_dco(&self, c: &Counters) {
        self.dco_candidates
            .fetch_add(c.candidates, Ordering::Relaxed);
        self.dco_pruned.fetch_add(c.pruned, Ordering::Relaxed);
        self.dco_exact.fetch_add(c.exact, Ordering::Relaxed);
        self.dco_dims_scanned
            .fetch_add(c.dims_scanned, Ordering::Relaxed);
        self.dco_dims_full.fetch_add(c.dims_full, Ordering::Relaxed);
        self.query_candidates.record(c.candidates);
        self.query_dims_scanned.record(c.dims_scanned);
        self.query_pruned_pct
            .record((c.pruned_rate() * 100.0).round() as u64);
    }

    /// Queries answered since boot and the work they summed to.
    pub(crate) fn work(&self) -> (u64, Counters) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let totals = Counters {
            candidates: load(&self.dco_candidates),
            pruned: load(&self.dco_pruned),
            exact: load(&self.dco_exact),
            dims_scanned: load(&self.dco_dims_scanned),
            dims_full: load(&self.dco_dims_full),
        };
        // One per-query observation per answered query.
        (self.query_candidates.snapshot().count(), totals)
    }

    /// One structured access-log line per sampled request, on stderr —
    /// machine-parseable without a logging dependency.
    fn maybe_access_log(&self, endpoint: usize, status: u16, nanos: u64) {
        let Some(sample_n) = self.access_sample_n else {
            return;
        };
        let seq = self.access_seq.fetch_add(1, Ordering::Relaxed);
        if !seq.is_multiple_of(sample_n) {
            return;
        }
        let t_unix_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        let line = Json::obj([
            ("t_unix_ms", Json::from(t_unix_ms)),
            ("endpoint", Json::from(ENDPOINTS[endpoint])),
            ("status", Json::from(status as usize)),
            ("dur_us", Json::from(nanos / 1_000)),
        ]);
        eprintln!("{}", line.dump());
    }

    /// Renders this struct's metric families into a Prometheus
    /// exposition body (the `/metrics` route appends the engine, storage,
    /// and mutation families around it).
    pub(crate) fn render_into(&self, e: &mut Expo) {
        e.header(
            "ddc_requests_total",
            "Requests finished, by endpoint and status code",
            "counter",
        );
        for (ei, ep) in ENDPOINTS.iter().enumerate() {
            for (si, cell) in self.requests[ei].iter().enumerate() {
                let v = cell.load(Ordering::Relaxed);
                if v > 0 {
                    e.sample(
                        "ddc_requests_total",
                        &format!("endpoint=\"{ep}\",status=\"{}\"", status_label(si)),
                        v as f64,
                    );
                }
            }
        }

        e.header(
            "ddc_request_duration_seconds",
            "Wall-clock request latency (framed to response), by endpoint",
            "histogram",
        );
        for (ei, ep) in ENDPOINTS.iter().enumerate() {
            let snap = self.request_hist[ei].snapshot();
            if snap.count() > 0 {
                e.histogram_series(
                    "ddc_request_duration_seconds",
                    &format!("endpoint=\"{ep}\""),
                    &snap,
                    1e9,
                );
            }
        }

        e.header(
            "ddc_stage_duration_seconds",
            "Time spent per request-lifecycle stage",
            "histogram",
        );
        for stage in Stage::ALL {
            e.histogram_series(
                "ddc_stage_duration_seconds",
                &format!("stage=\"{}\"", stage.name()),
                &self.stages.snapshot(stage),
                1e9,
            );
        }

        for (name, help, v) in [
            (
                "ddc_dco_candidates_total",
                "Candidates evaluated by the distance comparison operator",
                &self.dco_candidates,
            ),
            (
                "ddc_dco_pruned_total",
                "Candidates pruned without an exact distance",
                &self.dco_pruned,
            ),
            (
                "ddc_dco_exact_total",
                "Candidates taken to an exact distance",
                &self.dco_exact,
            ),
            (
                "ddc_dco_dims_scanned_total",
                "Vector dimensions actually scanned",
                &self.dco_dims_scanned,
            ),
            (
                "ddc_dco_dims_full_total",
                "Dimensions a full exact scan would have cost",
                &self.dco_dims_full,
            ),
        ] {
            e.header(name, help, "counter");
            e.sample(name, "", v.load(Ordering::Relaxed) as f64);
        }

        e.histogram(
            "ddc_dco_query_candidates",
            "Per-query candidates evaluated",
            "",
            &self.query_candidates.snapshot(),
            1.0,
        );
        e.histogram(
            "ddc_dco_query_dims_scanned",
            "Per-query dimensions scanned",
            "",
            &self.query_dims_scanned.snapshot(),
            1.0,
        );
        e.histogram(
            "ddc_dco_query_pruned_ratio",
            "Per-query fraction of candidates pruned",
            "",
            &self.query_pruned_pct.snapshot(),
            100.0,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_index_maps_known_and_unknown_paths() {
        assert_eq!(ServerObs::endpoint_index("/search"), 3);
        assert_eq!(ServerObs::endpoint_index("/metrics"), 2);
        assert_eq!(ServerObs::endpoint_index("/nope"), EP_OTHER);
        assert_ne!(ServerObs::endpoint_index("/nope"), EP_NONE);
    }

    #[test]
    fn record_and_render_validates() {
        let obs = ServerObs::new(None);
        obs.record_request(ServerObs::endpoint_index("/search"), 200, 1_500_000);
        obs.record_request(EP_NONE, 408, 0);
        obs.record_request(EP_NONE, 599, 0); // unknown status -> `other`
        let mut c = Counters::new();
        c.record(true, 16, 128);
        c.record(false, 128, 128);
        obs.record_dco(&c);
        assert_eq!(obs.work(), (1, c));

        let mut e = Expo::new();
        obs.render_into(&mut e);
        let body = e.finish();
        ddc_obs::expo::validate(&body).unwrap();
        assert!(body.contains("ddc_requests_total{endpoint=\"/search\",status=\"200\"} 1"));
        assert!(body.contains("ddc_requests_total{endpoint=\"none\",status=\"408\"} 1"));
        assert!(body.contains("ddc_requests_total{endpoint=\"none\",status=\"other\"} 1"));
        assert!(body.contains("ddc_dco_candidates_total 2"));
        assert!(body.contains("ddc_dco_pruned_total 1"));
        // One # TYPE line per family, even with several label sets.
        let type_lines = body
            .lines()
            .filter(|l| l.starts_with("# TYPE ddc_request_duration_seconds "))
            .count();
        assert_eq!(type_lines, 1);
    }
}
