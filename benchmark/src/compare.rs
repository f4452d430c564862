//! `compare A.json B.json`: is B worse than A by more than a metric's
//! bound, on any workload? `unresolved` where the spread is wider than the
//! bound or the host moved under a timed run.

use crate::host::MAX_CALIB_DRIFT;
use crate::report::{median, quartile_spread, END_TO_END};
use crate::run::Res;
use ddc_server::Json;
use std::path::Path;

/// The values a run set holds for one workload × metric, and the widest
/// per-pass spread any of its runs recorded. For metrics read off a clock
/// (the ones that carry a spread) also what the host did meanwhile: how
/// many of the runs were stamped `host_unstable`, and their calibration
/// readings.
struct Cell {
    values: Vec<f64>,
    pass_spread: f64,
    unstable_runs: usize,
    calib_ns: Vec<f64>,
}

fn load(path: &Path) -> Res<Json> {
    Ok(Json::parse(&std::fs::read_to_string(path)?)?)
}

fn runs(set: &Json) -> &[Json] {
    set.get("runs").and_then(Json::as_arr).unwrap_or(&[])
}

fn cell(set: &Json, workload: &str, metric: &str) -> Cell {
    let mut cell = Cell {
        values: Vec::new(),
        pass_spread: 0.0,
        unstable_runs: 0,
        calib_ns: Vec::new(),
    };
    for run in runs(set) {
        let untraced = run.get("traced").and_then(Json::as_bool) == Some(false);
        if !untraced || run.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        let Some(m) = run.get("metrics").and_then(|m| m.get(metric)) else {
            continue;
        };
        cell.values.extend(m.get("value").and_then(Json::as_f64));
        if let Some(s) = m.get("spread").and_then(Json::as_f64) {
            cell.pass_spread = cell.pass_spread.max(s);
            let unstable = run.get("host_unstable").and_then(Json::as_bool) == Some(true);
            cell.unstable_runs += unstable as usize;
            let readings = run.get("calib_ns").and_then(Json::as_arr).unwrap_or(&[]);
            cell.calib_ns
                .extend(readings.iter().filter_map(Json::as_f64));
        }
    }
    cell
}

impl Cell {
    /// A median of runs shrugs off a disturbed minority, not a majority.
    fn host_unstable(&self) -> bool {
        2 * self.unstable_runs > self.values.len()
    }

    /// Run-to-run spread (between quartiles) when the set has several runs,
    /// else the spread between the passes of its one run.
    fn spread(&self) -> f64 {
        if self.values.len() > 1 {
            quartile_spread(&self.values)
        } else {
            self.pass_spread
        }
    }
}

/// Prints one row per workload × end-to-end metric; `Ok(true)` when every
/// verdict is `ok`.
pub fn compare(a: &Path, b: &Path) -> Res<bool> {
    let (a, b) = (load(a)?, load(b)?);
    let mut workloads: Vec<&str> = Vec::new();
    for run in runs(&a) {
        if let Some(w) = run.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    println!("| workload | metric | A | B | worse by | spread | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut all_ok = !workloads.is_empty();
    for w in workloads {
        for m in &END_TO_END {
            let (ca, cb) = (cell(&a, w, m.name), cell(&b, w, m.name));
            if ca.values.is_empty() || cb.values.is_empty() {
                println!(
                    "| {w} | {} ({}) | - | - | - | - | {} | unresolved |",
                    m.name, m.unit, m.bound
                );
                all_ok = false;
                continue;
            }
            let (va, vb) = (median(&ca.values), median(&cb.values));
            let worse = if m.higher_is_better { va - vb } else { vb - va } / va;
            let noise = ca.spread().max(cb.spread());
            // Sets that met hosts of different speed, or a host that moved
            // under most of a set's runs: a timing difference then says
            // nothing about the code.
            let host_moved = ca.host_unstable()
                || cb.host_unstable()
                || (!ca.calib_ns.is_empty()
                    && !cb.calib_ns.is_empty()
                    && (median(&ca.calib_ns) / median(&cb.calib_ns)).ln().abs()
                        > (1.0 + MAX_CALIB_DRIFT).ln());
            let verdict = if host_moved {
                "unresolved (host)"
            } else if worse > m.bound {
                "regressed"
            } else if noise > m.bound {
                "unresolved"
            } else {
                "ok"
            };
            all_ok &= verdict == "ok";
            println!(
                "| {w} | {} ({}) | {va:.6} | {vb:.6} | {:+.3}% | {:.3}% | {:.1}% | {verdict} |",
                m.name,
                m.unit,
                worse * 100.0,
                noise * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-run set whose every metric reads `value`, on a host whose
    /// calibration loop read `calib_ns` before and after.
    fn set(name: &str, value: f64, calib_ns: f64) -> std::path::PathBuf {
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let spread = ("spread".to_string(), Json::Num(0.01));
                let mut fields = vec![("value".to_string(), Json::Num(value))];
                // Only the metrics read off a clock carry a spread.
                let timed = ["setup_s", "search_p50_us", "ops_per_s"].contains(&m.name);
                fields.extend(timed.then_some(spread));
                (m.name.to_string(), Json::Obj(fields))
            })
            .collect();
        let run = Json::obj([
            ("workload", Json::from("w")),
            ("traced", Json::Bool(false)),
            ("host_unstable", Json::Bool(false)),
            ("calib_ns", Json::Arr(vec![Json::Num(calib_ns); 2])),
            ("metrics", Json::Obj(metrics)),
        ]);
        let dir = crate::run::results_dir().join("tmp");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("compare_{}_{name}.json", std::process::id()));
        let doc = Json::obj([("runs", Json::Arr(vec![run]))]);
        std::fs::write(&path, doc.dump()).unwrap();
        path
    }

    #[test]
    fn a_slower_host_makes_timing_rows_unresolved_not_regressed() {
        let (a, same_host, slow_host) = (
            set("a", 1.0, 3000.0),
            set("b", 1.0, 3100.0),
            set("c", 1.0, 3600.0),
        );
        assert!(compare(&a, &same_host).unwrap());
        assert!(!compare(&a, &slow_host).unwrap());
        for path in [a, same_host, slow_host] {
            std::fs::remove_file(path).unwrap();
        }
    }
}
