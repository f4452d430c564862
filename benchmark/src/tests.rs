//! Determinism of whole runs (on the shrunken fixtures) and agreement
//! between the code's metric tables and `BENCHMARK.json`.

use crate::layers::run_traced;
use crate::report::{END_TO_END, PER_LAYER};
use crate::run::run_untraced;
use crate::workload::{specs, Kind};
use ddc_server::Json;

/// Noise rule 3: everything that is a count repeats exactly for a seed.
#[test]
fn untraced_counts_repeat_exactly() {
    for spec in specs(true) {
        let a = run_untraced(&spec, 5, 10, true).unwrap();
        let b = run_untraced(&spec, 5, 10, true).unwrap();
        assert!(a.report.correct(), "{}: {:?}", spec.name, a.report.problems);
        assert_eq!(a.report.failed, 0);
        // Recall hits, dims, candidates, wire bytes and the fingerprint of
        // every returned id and distance.
        assert_eq!(a.counts, b.counts, "{}", spec.name);
        for name in ["recall_at_10", "dims_per_query", "space_amp"] {
            let (x, y) = (a.report.get(name).unwrap(), b.report.get(name).unwrap());
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{} {name}", spec.name);
        }
        let other = run_untraced(&spec, 6, 10, true).unwrap();
        assert_ne!(a.counts.answers, other.counts.answers, "{}", spec.name);
    }
}

#[test]
fn traced_counts_repeat_exactly() {
    for spec in specs(true)
        .into_iter()
        .filter(|s| matches!(s.kind, Kind::Solo | Kind::Mutable))
    {
        let a = run_traced(&spec, 5, 10).unwrap();
        let b = run_traced(&spec, 5, 10).unwrap();
        assert!(a.correct(), "{}: {:?}", spec.name, a.problems);
        for name in [
            "index.candidates_per_query",
            "core.dims_scanned_frac",
            "core.false_prune_frac",
            "server.request_bytes",
            "server.response_bytes",
            "engine.compact_count",
            "engine.overlay_rows_mean",
        ] {
            let (x, y) = (a.get(name).unwrap(), b.get(name).unwrap());
            assert_eq!(x.value.to_bits(), y.value.to_bits(), "{} {name}", spec.name);
        }
        if spec.kind == Kind::Mutable {
            assert!(a.get("engine.compact_count").unwrap().value > 0.0);
        }
    }
}

/// `BENCHMARK.json` is what the driver reads; the tables in `report.rs`
/// and `workload.rs` are what the binary prints. They must not drift.
#[test]
fn benchmark_json_matches_the_tables() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let doc = Json::parse(&text).unwrap();
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
    let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();
    let better = |higher: bool| if higher { "higher" } else { "lower" };

    let declared: Vec<_> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let printed: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                better(m.higher_is_better).to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(declared, printed);

    let declared: Vec<_> = list("per_layer")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let printed: Vec<_> = PER_LAYER
        .iter()
        .map(|&(name, unit, higher)| {
            (
                name.to_string(),
                unit.to_string(),
                better(higher).to_string(),
            )
        })
        .collect();
    assert_eq!(declared, printed);

    let declared: Vec<_> = list("workloads")
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let printed: Vec<_> = specs(false)
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(declared, printed);
}
