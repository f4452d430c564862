//! Metric tables (the same ones `BENCHMARK.json` declares) and the report
//! one workload run produces.

use crate::host;
use ddc_server::Json;

/// An end-to-end metric: every workload reports all of them.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` (and the driver) call it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "search_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "recall_at_10",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.01,
    },
    EndToEnd {
        name: "dims_per_query",
        unit: "dims",
        higher_is_better: false,
        bound: 0.02,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        higher_is_better: false,
        bound: 0.005,
    },
];

/// Per-layer metrics `(name, unit, higher_is_better)`, in print order. The
/// prefix before the dot is the module (layer) the number belongs to. A
/// metric that does not apply to a workload reads 0.
pub const PER_LAYER: [(&str, &str, bool); 45] = [
    ("linalg.dist_ns_per_dim", "ns", false),
    ("linalg.range_ns_per_dim", "ns", false),
    ("linalg.rotate_us_per_query", "us", false),
    ("linalg.rotate_batch_us_per_query", "us", false),
    ("linalg.pca_fit_s", "s", false),
    ("core.prepare_us_per_query", "us", false),
    ("core.ns_per_candidate", "ns", false),
    ("core.dims_scanned_frac", "ratio", false),
    ("core.pruned_frac", "ratio", true),
    ("core.false_prune_frac", "ratio", false),
    ("core.extra_bytes_per_vec", "bytes", false),
    ("core.build_s", "s", false),
    ("index.search_us_per_query", "us", false),
    ("index.candidates_per_query", "count", false),
    ("index.candidates_per_result", "count", false),
    ("index.self_us_per_query", "us", false),
    ("index.bytes_per_vec", "bytes", false),
    ("index.build_s", "s", false),
    ("cluster.kmeans_s", "s", false),
    ("quant.opq_train_s", "s", false),
    ("engine.search_us_per_query", "us", false),
    ("engine.self_us_per_query", "us", false),
    ("engine.batch_us_per_query", "us", false),
    ("engine.batch_gain", "ratio", true),
    ("engine.overlay_rows_mean", "count", false),
    ("engine.upsert_us", "us", false),
    ("engine.compact_ms", "ms", false),
    ("engine.compact_count", "count", false),
    ("server.parse_us", "us", false),
    ("server.queue_wait_us", "us", false),
    ("server.search_us", "us", false),
    ("server.serialize_us", "us", false),
    ("server.write_us", "us", false),
    ("server.self_us_per_request", "us", false),
    ("server.request_bytes", "bytes", false),
    ("server.response_bytes", "bytes", false),
    ("server.search_p99_us", "us", false),
    ("server.write_p50_us", "us", false),
    ("vecs.snapshot_save_ms", "ms", false),
    ("vecs.snapshot_open_ms", "ms", false),
    ("vecs.snapshot_bytes_per_vec", "bytes", false),
    ("trace.overhead_frac", "ratio", false),
    ("trace.reconstruction_err", "ratio", false),
    ("trace.search_p50_us", "us", false),
    ("host.calib_ns", "ns", false),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The repeated measurements (timed passes, or set-ups) a median
    /// metric was taken over; empty for counts.
    pub samples: Vec<f64>,
}

impl Metric {
    /// `(max − min) / median` of the repeated measurements.
    pub fn spread(&self) -> Option<f64> {
        (!self.samples.is_empty()).then(|| spread(&self.samples))
    }
}

/// Everything one workload run reports.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not `correct`, if it is not.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `host.calib_ns` before the first set-up and after the last pass.
    pub calib_ns: [f64; 2],
}

impl Report {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn host_unstable(&self) -> bool {
        let [before, after] = self.calib_ns;
        before.max(after) / before.min(after) - 1.0 > host::MAX_CALIB_DRIFT
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The human-readable table, then the driver's result line (last).
    pub fn print(&self) {
        println!(
            "== {} seed={} seconds={} trace={}",
            self.workload, self.seed, self.seconds, self.traced as u8
        );
        for m in &self.metrics {
            let spread = m.spread().map_or(String::new(), |s| {
                format!("  spread {:.2}% of {:.4?}", s * 100.0, m.samples)
            });
            println!("{:<34} {:>16.6} {}{}", m.name, m.value, m.unit, spread);
        }
        println!(
            "host.calib_ns {:.0?} host_unstable: {}",
            self.calib_ns,
            self.host_unstable()
        );
        for p in &self.problems {
            println!("PROBLEM: {p}");
        }
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        println!(
            "{}",
            Json::obj([
                ("correct", Json::Bool(self.correct())),
                ("attempted", Json::from(self.attempted)),
                ("failed", Json::from(self.failed)),
                ("metrics", Json::Obj(metrics)),
            ])
            .dump()
        );
    }

    /// The entry `--out` files keep per workload run.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let mut fields = vec![
                    ("value".to_string(), Json::Num(m.value)),
                    ("unit".to_string(), Json::from(m.unit)),
                ];
                if let Some(s) = m.spread() {
                    fields.push(("spread".to_string(), Json::Num(s)));
                }
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect();
        Json::obj([
            ("workload", Json::from(self.workload)),
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("host_unstable", Json::Bool(self.host_unstable())),
            (
                "calib_ns",
                Json::Arr(self.calib_ns.iter().map(|&ns| Json::Num(ns)).collect()),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(max − min) / median`: how far repeated measurements disagree.
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / median(values)
}

/// Distance between the first and third quartile of two or more values as
/// a share of their median, the quartiles taken as Python's
/// `statistics.quantiles(values, n=4)` takes them: the run-to-run spread the
/// driver computes.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |k: usize| {
        let at = (k * (n + 1)) as f64 / 4.0;
        let below = (at as usize).clamp(1, n - 1);
        v[below - 1] + (v[below] - v[below - 1]) * (at - below as f64)
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// A median-of-repeats metric with its spread beside it.
pub fn repeated(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    Metric {
        name,
        value: median(values),
        unit,
        samples: values.to_vec(),
    }
}

pub fn plain(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Against `statistics.quantiles(v, n=4)` for 2, 3, 5 and 10 values.
    #[test]
    fn quartile_spread_matches_python() {
        let close = |v: &[f64], want: f64| assert!((quartile_spread(v) - want).abs() < 1e-12);
        close(&[1.0, 2.0], 1.5 / 1.5);
        close(&[3.0, 1.0, 2.0], 2.0 / 2.0);
        close(&[1.0, 2.0, 4.0, 8.0, 16.0], (12.0 - 1.5) / 4.0);
        let ten: Vec<f64> = (1..=10).map(|x| (x * x) as f64).collect();
        close(&ten, (68.25 - 7.75) / 30.5);
    }
}
