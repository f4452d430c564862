//! Property-based tests on index search semantics.

use ddc_core::Exact;
use ddc_index::{
    FlatIndex, Hnsw, HnswConfig, IndexError, Ivf, IvfConfig, SearchIndex, SearchParams,
};
use ddc_vecs::{GroundTruth, SynthSpec, VecSet};
use proptest::prelude::*;

fn workload(seed: u64, n: usize) -> ddc_vecs::Workload {
    let mut spec = SynthSpec::tiny_test(8, n, seed);
    spec.clusters = 6;
    spec.generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Flat search with the exact operator IS ground truth.
    #[test]
    fn flat_exact_is_ground_truth(seed in 0u64..30, k in 1usize..15) {
        let w = workload(seed, 150);
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 1).unwrap();
        let dco = Exact::build(&w.base);
        let flat = FlatIndex::new();
        for qi in 0..w.queries.len().min(4) {
            let r = flat.search(&dco, w.queries.get(qi), k);
            prop_assert_eq!(r.ids(), gt.ids[qi].clone());
        }
    }

    /// Results are sorted by distance and contain no duplicate ids.
    #[test]
    fn results_sorted_and_unique(seed in 0u64..30) {
        let w = workload(seed, 200);
        let g = Hnsw::build(&w.base, &HnswConfig { m: 6, ef_construction: 40, seed: 0, ..Default::default() }).unwrap();
        let dco = Exact::build(&w.base);
        for qi in 0..w.queries.len().min(4) {
            let r = g.search(&dco, w.queries.get(qi), 10, 30).unwrap();
            for pair in r.neighbors.windows(2) {
                prop_assert!(pair[0].dist <= pair[1].dist);
            }
            let mut ids = r.ids();
            ids.sort_unstable();
            let len = ids.len();
            ids.dedup();
            prop_assert_eq!(ids.len(), len);
        }
    }

    /// IVF with all buckets probed equals the flat scan.
    #[test]
    fn ivf_full_probe_is_exact(seed in 0u64..30, nlist in 2usize..12) {
        let w = workload(seed, 150);
        let ivf = Ivf::build(&w.base, &IvfConfig::new(nlist)).unwrap();
        let dco = Exact::build(&w.base);
        let gt = GroundTruth::compute(&w.base, &w.queries, 5, 1).unwrap();
        for qi in 0..w.queries.len().min(4) {
            let r = ivf.search(&dco, w.queries.get(qi), 5, nlist).unwrap();
            prop_assert_eq!(r.ids(), gt.ids[qi].clone());
        }
    }

    /// HNSW recall is monotone (within tolerance) in ef, and k results are
    /// always returned when k ≤ n.
    #[test]
    fn hnsw_returns_k_and_ef_helps(seed in 0u64..15) {
        let w = workload(seed, 300);
        let g = Hnsw::build(&w.base, &HnswConfig { m: 6, ef_construction: 50, seed: 0, ..Default::default() }).unwrap();
        let dco = Exact::build(&w.base);
        let k = 8;
        let gt = GroundTruth::compute(&w.base, &w.queries, k, 1).unwrap();
        let recall_at = |ef: usize| {
            let mut results = Vec::new();
            for qi in 0..w.queries.len() {
                let r = g.search(&dco, w.queries.get(qi), k, ef).unwrap();
                assert_eq!(r.neighbors.len(), k);
                results.push(r.ids());
            }
            ddc_vecs::recall(&results, &gt, k)
        };
        prop_assert!(recall_at(150) >= recall_at(8) - 0.05);
    }

    /// Whatever the mask, a repaired graph is a well-formed graph over
    /// exactly the survivors; while the mask stays below a third of the
    /// rows (one-hop repair is a local rule — it does not promise
    /// reachability once most of a neighbourhood dies at once), every
    /// survivor still finds itself.
    #[test]
    fn hnsw_removal_keeps_the_graph_well_formed(
        seed in 0u64..30,
        percent in 0u32..100,
        rolls in proptest::collection::vec(0u32..100, 200),
    ) {
        let w = workload(seed, 200);
        let before = Hnsw::build(&w.base, &removal_cfg()).unwrap();
        let mut dead: Vec<bool> = rolls.iter().map(|&r| r < percent).collect();
        dead[(seed % 200) as usize] = false; // at least one survivor
        let mut after = before.clone();
        after.remove_rows(&w.base, &dead).unwrap();
        if let Err(why) = check_removal(&before, &after, &dead) {
            return Err(TestCaseError::fail(why));
        }
        let rows = survivors(&w.base, &dead);
        let dco = Exact::build(&rows);
        for id in (0..rows.len()).step_by(17) {
            let r = after.search(&dco, rows.get(id), 1, 40).unwrap();
            prop_assert!(r.neighbors[0].id < rows.len() as u32);
            if percent < 33 {
                prop_assert_eq!(r.neighbors[0].dist, 0.0);
            }
        }
    }

    /// Searching twice gives identical results (no hidden state).
    #[test]
    fn search_is_deterministic(seed in 0u64..30) {
        let w = workload(seed, 200);
        let g = Hnsw::build(&w.base, &HnswConfig { m: 6, ef_construction: 40, seed: 0, ..Default::default() }).unwrap();
        let dco = Exact::build(&w.base);
        let a = g.search(&dco, w.queries.get(0), 10, 40).unwrap();
        let b = g.search(&dco, w.queries.get(0), 10, 40).unwrap();
        prop_assert_eq!(a.ids(), b.ids());
    }
}

// ── Physical row removal ────────────────────────────────────────────────

fn removal_cfg() -> HnswConfig {
    HnswConfig {
        m: 6,
        ef_construction: 40,
        seed: 0,
        ..Default::default()
    }
}

fn survivors(base: &VecSet, dead: &[bool]) -> VecSet {
    let keep: Vec<usize> = (0..base.len()).filter(|&i| !dead[i]).collect();
    base.select(&keep)
}

/// A reproducible mask flagging about `percent` % of `n` rows.
fn seeded_mask(n: usize, percent: u64, seed: u64) -> Vec<bool> {
    (0..n as u64)
        .map(|i| {
            let mut z = (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (z ^ (z >> 27)) % 100 < percent
        })
        .collect()
}

/// Everything `Hnsw::remove_rows` promises about the graph it leaves:
/// dense ids, no dangling / self / duplicate edge, no list longer than it
/// was (so none over the degree bound either), survivors keep their level
/// counts, the entry is live on the top level, and the loader accepts it.
fn check_removal(before: &Hnsw, after: &Hnsw, dead: &[bool]) -> Result<(), String> {
    let old_ids: Vec<u32> = (0..before.len() as u32)
        .filter(|&o| !dead[o as usize])
        .collect();
    if after.len() != old_ids.len() {
        return Err(format!(
            "{} nodes for {} survivors",
            after.len(),
            old_ids.len()
        ));
    }
    let n = after.len() as u32;
    for (new, &old) in old_ids.iter().enumerate() {
        let new = new as u32;
        if after.node_levels(new) != before.node_levels(old) {
            return Err(format!("node {old}->{new} changed its level count"));
        }
        for level in 0..after.node_levels(new) {
            let list = after.neighbors(new, level);
            if list.iter().any(|&e| e >= n || e == new) {
                return Err(format!("node {new} level {level}: dangling or self edge"));
            }
            let mut sorted = list.to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            if sorted.len() != list.len() {
                return Err(format!("node {new} level {level}: duplicate edge"));
            }
            if list.len() > before.neighbors(old, level).len() {
                return Err(format!("node {new} level {level}: list grew"));
            }
        }
    }
    if after.entry() >= n || after.node_levels(after.entry()) != after.max_level() + 1 {
        return Err("entry point is not on the top level".into());
    }
    if (0..n).any(|u| after.node_levels(u) > after.max_level() + 1) {
        return Err("a node outgrows max_level".into());
    }
    let back = Hnsw::load_bytes(&after.save_bytes().unwrap()).map_err(|e| e.to_string())?;
    if back.len() != after.len() || back.entry() != after.entry() {
        return Err("round trip changed the graph".into());
    }
    Ok(())
}

fn recall_at_10(g: &Hnsw, rows: &VecSet, queries: &VecSet) -> f64 {
    let gt = GroundTruth::compute(rows, queries, 10, 1).unwrap();
    let dco = Exact::build(rows);
    let got: Vec<Vec<u32>> = (0..queries.len())
        .map(|qi| g.search(&dco, queries.get(qi), 10, 40).unwrap().ids())
        .collect();
    ddc_vecs::recall(&got, &gt, 10)
}

#[test]
fn hnsw_removal_of_a_tenth_keeps_recall_near_a_fresh_build() {
    let w = workload(7, 1000);
    let before = Hnsw::build(&w.base, &removal_cfg()).unwrap();
    let dead = seeded_mask(1000, 10, 42);
    let mut repaired = before.clone();
    repaired.remove_rows(&w.base, &dead).unwrap();
    check_removal(&before, &repaired, &dead).unwrap();
    // Degree bounds follow from "no list grew".
    for u in 0..repaired.len() as u32 {
        assert!(repaired.neighbors(u, 0).len() <= 12);
        assert!((1..repaired.node_levels(u)).all(|l| repaired.neighbors(u, l).len() <= 6));
    }

    let rows = survivors(&w.base, &dead);
    assert!(rows.len() > 850 && rows.len() < 950, "mask is about 10 %");
    let fresh = Hnsw::build(&rows, &removal_cfg()).unwrap();
    let (r, f) = (
        recall_at_10(&repaired, &rows, &w.queries),
        recall_at_10(&fresh, &rows, &w.queries),
    );
    assert!(r >= f - 0.03, "repaired {r} vs fresh {f}");

    // Same mask, same graph: the repair has no hidden order dependence.
    let mut again = before.clone();
    again.remove_rows(&w.base, &dead).unwrap();
    assert_eq!(again.save_bytes().unwrap(), repaired.save_bytes().unwrap());

    // The repaired graph keeps growing like any other.
    let mut grown_rows = rows.clone();
    grown_rows.push(w.queries.get(0)).unwrap();
    SearchIndex::append(&mut repaired, &grown_rows, rows.len()).unwrap();
    let dco = Exact::build(&grown_rows);
    let r = repaired.search(&dco, w.queries.get(0), 1, 40).unwrap();
    assert_eq!(r.ids(), vec![rows.len() as u32]);
}

#[test]
fn hnsw_removal_edge_cases() {
    let w = workload(3, 300);
    let g = Hnsw::build(&w.base, &removal_cfg()).unwrap();

    // The entry point dies: a live node on the highest surviving level
    // takes over.
    let mut dead = vec![false; 300];
    dead[g.entry() as usize] = true;
    let mut h = g.clone();
    h.remove_rows(&w.base, &dead).unwrap();
    check_removal(&g, &h, &dead).unwrap();

    // All but one row die: a one-node graph that still answers.
    let mut dead = vec![true; 300];
    dead[123] = false;
    let mut h = g.clone();
    h.remove_rows(&w.base, &dead).unwrap();
    check_removal(&g, &h, &dead).unwrap();
    assert_eq!((h.len(), h.entry()), (1, 0));
    let one = survivors(&w.base, &dead);
    let r = h
        .search(&Exact::build(&one), w.queries.get(0), 5, 10)
        .unwrap();
    assert_eq!(r.ids(), vec![0]);

    // An empty mask is a no-op, bit for bit.
    let mut h = g.clone();
    h.remove_rows(&w.base, &[false; 300]).unwrap();
    assert_eq!(h.save_bytes().unwrap(), g.save_bytes().unwrap());

    // Bad calls are errors, never panics, and leave the graph alone.
    let mut h = g.clone();
    assert!(matches!(
        h.remove_rows(&w.base, &[true; 299]),
        Err(IndexError::Config(_))
    ));
    assert!(matches!(
        h.remove_rows(&w.base, &[true; 300]),
        Err(IndexError::Empty)
    ));
    let (short, _) = w.base.clone().split_at(299);
    assert!(matches!(
        h.remove_rows(&short, &[false; 300]),
        Err(IndexError::Config(_))
    ));
    let narrow = VecSet::from_flat(3, vec![0.0; 900]).unwrap();
    assert!(matches!(
        h.remove_rows(&narrow, &[false; 300]),
        Err(IndexError::Dimension { .. })
    ));
    assert_eq!(h.save_bytes().unwrap(), g.save_bytes().unwrap());
}

#[test]
fn ivf_and_flat_removal_renumber_like_the_operator() {
    let w = workload(5, 400);
    let dead = seeded_mask(400, 25, 9);
    let rows = survivors(&w.base, &dead);
    let dco = Exact::build(&rows);
    let gt = GroundTruth::compute(&rows, &w.queries, 5, 1).unwrap();
    let params = SearchParams::new().with_nprobe(8);

    let mut ivf = Ivf::build(&w.base, &IvfConfig::new(8)).unwrap();
    let bytes_before = ivf.memory_bytes();
    ivf.remove_rows(&dead).unwrap();
    assert_eq!(bytes_before - ivf.memory_bytes(), (400 - rows.len()) * 4);
    let mut flat = FlatIndex::new();
    SearchIndex::remove(&mut flat, &w.base, &dead).unwrap();
    // A full probe over the filtered lists is the exact scan of the
    // survivors under their new ids; so is the (stateless) flat index.
    let indexes: [&dyn SearchIndex; 2] = [&ivf, &flat];
    for idx in indexes {
        for qi in 0..w.queries.len().min(6) {
            let r = idx.search(&dco, w.queries.get(qi), 5, &params).unwrap();
            assert_eq!(r.ids(), gt.ids[qi], "{} query {qi}", idx.kind());
        }
    }
    let back = Ivf::load_bytes(&ivf.save_bytes().unwrap()).unwrap();
    assert_eq!(back.memory_bytes(), ivf.memory_bytes());

    for idx in [&mut ivf as &mut dyn SearchIndex, &mut flat] {
        let kind = idx.kind();
        assert!(
            matches!(idx.remove(&rows, &[true; 3]), Err(IndexError::Config(_))),
            "{kind}: mask length"
        );
        assert!(
            matches!(
                idx.remove(&rows, &vec![true; rows.len()]),
                Err(IndexError::Empty)
            ),
            "{kind}: all dead"
        );
        idx.remove(&rows, &vec![false; rows.len()]).unwrap();
    }
}
