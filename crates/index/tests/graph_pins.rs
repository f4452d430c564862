//! Pins on the HNSW graph that outlive any change of its in-memory
//! layout.
//!
//! * **Graph bytes.** `save_bytes` of five fixed graphs — builds under
//!   L2, inner product, cosine and weighted L2, and a graph repaired by
//!   `remove_rows` and then grown by `insert_next` — hash to constants
//!   recorded before the level-0 lists moved into one flat array (the
//!   cosine and weighted-L2 ones before insertion moved onto the query's
//!   traversal). The snapshot `index` section is exactly these bytes, so
//!   a layout or traversal change that moves a hash has changed the graph
//!   (or its order of neighbours), not just its representation.
//! * **The walk.** The level-0 search prefetches every unvisited
//!   neighbour of an expansion before testing the first. A logging
//!   operator shows that the ids it tests, in order, are the ones a
//!   one-neighbour-at-a-time loop tests, and that each was prefetched
//!   earlier in the same expansion — on a graph whose level-0 degree is
//!   above 64, so no fixed-size buffer can hide a dropped neighbour.

use ddc_core::{Counters, Dco, DdcRes, DdcResConfig, Decision, QueryDco};
use ddc_index::{Hnsw, HnswConfig};
use ddc_linalg::Metric;
use ddc_vecs::{Neighbor, SynthSpec, TopK, VecSet};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn rows(dim: usize, n: usize, seed: u64) -> VecSet {
    let mut spec = SynthSpec::tiny_test(dim, n, seed);
    spec.alpha = 1.2;
    spec.clusters = 8;
    spec.generate().base
}

fn cfg(m: usize, metric: Metric) -> HnswConfig {
    HnswConfig {
        m,
        ef_construction: 40,
        seed: 7,
        metric,
    }
}

/// Rows `0..n` of `set` without the flagged ones, then rows `n..`.
fn survivors_then_tail(set: &VecSet, n: usize, dead: &[bool]) -> VecSet {
    let kept: Vec<Vec<f32>> = (0..set.len())
        .filter(|&i| i >= n || !dead[i])
        .map(|i| set.get(i).to_vec())
        .collect();
    VecSet::from_rows(set.dim(), &kept).unwrap()
}

#[test]
fn saved_graph_bytes_are_pinned() {
    let base = rows(16, 600, 5);
    let l2 = Hnsw::build(&base, &cfg(8, Metric::L2)).unwrap();
    let ip = Hnsw::build(&base, &cfg(8, Metric::InnerProduct)).unwrap();
    let cosine = Hnsw::build(&base, &cfg(8, Metric::Cosine)).unwrap();
    let weights: Vec<f32> = (0..16).map(|i| 0.25 + (i % 4) as f32 * 0.5).collect();
    let wl2 = Metric::WeightedL2(Arc::from(weights));
    let wl2 = Hnsw::build(&base, &cfg(8, wl2)).unwrap();

    // Repair: build over the first 500 rows, drop every seventh, then
    // grow by the last 100 rows one insert at a time.
    let (head, _) = base.clone().split_at(500);
    let mut grown = Hnsw::build(&head, &cfg(8, Metric::L2)).unwrap();
    let dead: Vec<bool> = (0..500).map(|i| i % 7 == 3).collect();
    grown.remove_rows(&head, &dead).unwrap();
    let source = survivors_then_tail(&base, 500, &dead);
    while grown.len() < source.len() {
        grown.insert_next(&source).unwrap();
    }

    // Many level-0 lists sit at their 2m cap: the pins cover full blocks.
    assert!((0..l2.len() as u32).any(|u| l2.neighbors(u, 0).len() == 16));
    let got = [l2, ip, grown, cosine, wl2].map(|g| fnv1a(&g.save_bytes()));
    assert_eq!(
        got,
        [
            0xc0de_e52f_13f4_b2a0,
            0x65aa_dc30_2ea2_bdc9,
            0xe1b4_db91_6954_db87,
            0xcc06_7c7a_605d_91ee,
            0xf908_e23d_32d0_1195
        ],
        "graph bytes moved: {got:#018x?}"
    );
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Prefetch(u32),
    Test(u32),
    Exact(u32),
}

/// Forwards to an operator and logs every call the walk makes.
struct Logged<Q> {
    inner: Q,
    log: RefCell<Vec<Event>>,
}

impl<Q: QueryDco> QueryDco for Logged<Q> {
    fn exact(&mut self, id: u32) -> f32 {
        self.log.get_mut().push(Event::Exact(id));
        self.inner.exact(id)
    }

    fn test(&mut self, id: u32, tau: f32) -> Decision {
        self.log.get_mut().push(Event::Test(id));
        self.inner.test(id, tau)
    }

    fn prefetch(&self, id: u32) {
        self.log.borrow_mut().push(Event::Prefetch(id));
        self.inner.prefetch(id);
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}

/// The level-0 walk as it was before prefetching: each neighbour is
/// marked visited and tested as it is found.
fn one_at_a_time<Q: QueryDco>(g: &Hnsw, eval: &mut Q, k: usize, ef: usize) -> Vec<Neighbor> {
    let ef = ef.max(k).max(1);
    let mut ep = g.entry();
    let mut ep_dist = eval.exact(ep);
    for lev in (1..=g.max_level()).rev() {
        loop {
            let mut improved = false;
            for &e in g.neighbors(ep, lev) {
                let d = eval.exact(e);
                if d < ep_dist {
                    ep = e;
                    ep_dist = d;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
    }
    let mut visited = HashSet::from([ep]);
    let mut candidates = BinaryHeap::new();
    candidates.push(Reverse(Neighbor {
        id: ep,
        dist: ep_dist,
    }));
    let mut w = TopK::new(ef);
    w.offer(ep, ep_dist);
    while let Some(Reverse(c)) = candidates.pop() {
        if w.is_full() && c.dist > w.tau() {
            break;
        }
        for &e in g.neighbors(c.id, 0) {
            if !visited.insert(e) {
                continue;
            }
            if let Decision::Exact(d) = eval.test(e, w.tau()) {
                if !w.is_full() || d < w.tau() {
                    candidates.push(Reverse(Neighbor { id: e, dist: d }));
                    w.offer(e, d);
                }
            }
        }
    }
    let mut out = w.into_sorted();
    out.truncate(k);
    out
}

fn tests_of(log: &[Event]) -> Vec<u32> {
    log.iter()
        .filter_map(|e| match e {
            Event::Test(id) => Some(*id),
            _ => None,
        })
        .collect()
}

#[test]
fn prefetching_walk_tests_what_the_one_at_a_time_walk_tests() {
    let mut spec = SynthSpec::tiny_test(16, 1500, 23);
    spec.alpha = 1.2;
    let w = spec.generate();
    let g = Hnsw::build(
        &w.base,
        &HnswConfig {
            m: 40,
            ef_construction: 80,
            seed: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let widest = (0..g.len() as u32)
        .map(|u| g.neighbors(u, 0).len())
        .max()
        .unwrap();
    assert!(widest > 64, "level-0 degree reaches only {widest}");
    let dco = DdcRes::build(
        &w.base,
        DdcResConfig {
            init_d: 4,
            delta_d: 4,
            ..Default::default()
        },
    )
    .unwrap();

    let (k, ef) = (10, 120);
    let mut pruned = 0;
    for qi in 0..w.queries.len() {
        let q = w.queries.get(qi);
        let mut walk = Logged {
            inner: dco.begin(q),
            log: RefCell::default(),
        };
        let got = g.search_eval_filtered(&mut walk, k, ef, &|_| true);
        let mut old = Logged {
            inner: dco.begin(q),
            log: RefCell::default(),
        };
        let want = one_at_a_time(&g, &mut old, k, ef);

        let (log, old_log) = (walk.log.into_inner(), old.log.into_inner());
        assert_eq!(tests_of(&log), tests_of(&old_log), "query {qi}: tested ids");
        assert_eq!(got.neighbors.len(), want.len(), "query {qi}");
        for (a, b) in got.neighbors.iter().zip(&want) {
            assert_eq!(
                (a.id, a.dist.to_bits()),
                (b.id, b.dist.to_bits()),
                "query {qi}"
            );
        }
        assert_eq!(got.counters, old.inner.counters(), "query {qi}: counters");
        pruned += got.counters.pruned;

        // An expansion is a run of prefetches, then a run of tests: each
        // test names an id of the run just before it, and each prefetched
        // id is tested.
        let mut expansion: Vec<u32> = Vec::new();
        let mut tested: Vec<u32> = Vec::new();
        let mut last_was_test = false;
        for &e in &log {
            match e {
                Event::Prefetch(id) => {
                    if last_was_test {
                        assert_eq!(tested, expansion, "query {qi}: an expansion skipped a test");
                        expansion.clear();
                        tested.clear();
                    }
                    expansion.push(id);
                    last_was_test = false;
                }
                Event::Test(id) => {
                    assert!(
                        expansion.contains(&id),
                        "query {qi}: {id} tested before it was prefetched"
                    );
                    tested.push(id);
                    last_was_test = true;
                }
                Event::Exact(_) => {}
            }
        }
        assert_eq!(
            tested, expansion,
            "query {qi}: the last expansion skipped a test"
        );
    }
    assert!(pruned > 0, "the operator pruned nothing: τ went untested");
}
