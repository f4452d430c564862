//! Workloads: seeded fixtures, fixed operation tapes, and the exact oracle.
//!
//! Everything here is a pure function of `(spec, seed, pass length)`: no clock,
//! no thread-count dependence, no feedback from the server. The server only
//! ever sees the request bytes a tape renders.

use crate::http;
use ddc_engine::{EngineConfig, Metric};
use ddc_index::SearchParams;
use ddc_server::Json;
use ddc_vecs::{SynthProfile, TopK, VecSet};
use std::ops::Range;

/// Neighbours asked for (and scored) by every search.
pub const K: usize = 10;
/// Queries per `/search_batch` request.
pub const BATCH: usize = 32;
/// Distinct payload tags of the filtered workload (`payload = id % TAGS`,
/// so an `eq` filter keeps one row in ten).
pub const TAGS: u64 = 10;
/// Accepted `recall_at_10` band: below it the operating point is broken,
/// above it the metric is saturated and can show neither loss nor gain.
pub const RECALL_BAND: (f64, f64) = (0.93, 0.99);

/// What one request of a workload looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Solo `/search`, engine booted from a `DDCSNAP1` snapshot.
    Solo,
    /// `/search_batch` of [`BATCH`] queries.
    Batch,
    /// Solo `/search` with an `eq` payload filter.
    Filtered,
    /// `/search` + `/upsert` + `/delete` + forced `/admin/compact`.
    Mutable,
}

/// One frozen workload. Sizes are tuned once (see README) and then only
/// ever scaled by `--seconds`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    pub profile: SynthProfile,
    pub n: usize,
    pub index: &'static str,
    pub dco: &'static str,
    pub params: SearchParams,
    /// Requests per pass at `--seconds 10` (mutable: operations before the
    /// pass-closing compaction).
    pub requests_per_pass: usize,
    /// Queries scored against the oracle (static workloads; the mutable
    /// one scores every 10th search).
    pub scored: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Queries replayed in-process by the traced run.
    pub trace_queries: usize,
}

/// The four workloads, or their shrunken twins for `--smoke` and tests.
pub fn specs(smoke: bool) -> Vec<Spec> {
    let full = vec![
        Spec {
            name: "deep256_hnsw_snap",
            why: "paper's headline cell, HNSW + DDCres off a snapshot mapping of 41 MB of rows: graph traversal and incremental comparison of ~500 candidates are the largest share of a request",
            kind: Kind::Solo,
            profile: SynthProfile::DeepLike,
            n: 40_000,
            index: "hnsw(m=6,ef_construction=24)",
            dco: "ddcres",
            params: SearchParams { ef: 96, nprobe: 1 },
            requests_per_pass: 6_000,
            scored: 1_500,
            setup_repeats: 3,
            trace_queries: 2_000,
        },
        Spec {
            name: "tiny384_ivf_batch",
            why: "no graph: posting-list scans make DDCopq comparisons the largest share, with kernels and batched rotation behind them; 240 KB JSON bodies",
            kind: Kind::Batch,
            profile: SynthProfile::TinyLike,
            n: 18_000,
            index: "ivf(nlist=128,train_iters=8,threads=1)",
            dco: "ddcopq(m=24,nbits=6,opq_iters=1)",
            params: SearchParams { ef: 10, nprobe: 8 },
            requests_per_pass: 200,
            scored: 1_920,
            setup_repeats: 3,
            trace_queries: 1_280,
        },
        Spec {
            name: "w2v300_ip_filtered",
            why: "same HNSW core via the liveness-hook filter and pool-job path: index traversal is the largest share; inner product prunes nothing, the flat spectrum projects worst",
            kind: Kind::Filtered,
            profile: SynthProfile::Word2VecLike,
            n: 24_000,
            index: "hnsw(m=8,ef_construction=40,metric=ip)",
            dco: "ddcpca(metric=ip)",
            params: SearchParams { ef: 20, nprobe: 1 },
            requests_per_pass: 4_500,
            scored: 3_000,
            setup_repeats: 3,
            trace_queries: 2_000,
        },
        Spec {
            name: "sift128_mutable_mixed",
            why: "writes beside reads: overlay merge, tombstone repair and a forced fold per pass compete with search; the server is the largest share of a request",
            kind: Kind::Mutable,
            profile: SynthProfile::SiftLike,
            n: 20_000,
            index: "hnsw(m=12,ef_construction=128)",
            dco: "adsampling",
            params: SearchParams { ef: 14, nprobe: 1 },
            requests_per_pass: 8_000,
            scored: 0,
            setup_repeats: 3,
            trace_queries: 2_000,
        },
    ];
    if !smoke {
        return full;
    }
    full.into_iter()
        .map(|s| Spec {
            n: 1_500,
            requests_per_pass: if s.kind == Kind::Batch { 12 } else { 300 },
            scored: 192,
            setup_repeats: 1,
            trace_queries: 128,
            ..s
        })
        .collect()
}

impl Spec {
    /// Requests per pass for a run of `seconds`: a fixed count derived from
    /// the argument, never from a clock (noise rule 2).
    pub fn pass_len(&self, seconds: u64) -> usize {
        let scaled = (self.requests_per_pass as f64 * seconds as f64 / 10.0).round() as usize;
        match self.kind {
            // Whole op-mix cycles only, so the live-row count at every
            // tape position is the same for every seed.
            Kind::Mutable => (scaled / CYCLE.len()).max(1) * CYCLE.len(),
            _ => scaled.max(1),
        }
    }

    /// Queries carried by one search request.
    pub fn queries_per_request(&self) -> usize {
        if self.kind == Kind::Batch {
            BATCH
        } else {
            1
        }
    }

    pub fn config(&self) -> EngineConfig {
        EngineConfig::from_strs(self.index, self.dco)
            .expect("workload specs parse")
            .with_params(self.params)
    }
}

/// splitmix64: the one RNG of the tape generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seed of every workload's collection (base and training vectors).
const COLLECTION_SEED: u64 = 0x00DD_C0DE;
/// The query and upsert-row pools hold this many times what one run draws.
const POOL_FACTOR: usize = 2;

/// `k` rows of `set`, drawn without replacement in seeded order.
fn draw(set: &VecSet, k: usize, rng: &mut Rng) -> VecSet {
    let mut ids: Vec<usize> = (0..set.len()).collect();
    for i in 0..k {
        let j = i + rng.below(ids.len() - i);
        ids.swap(i, j);
    }
    set.select(&ids[..k])
}

/// Everything generated before the server exists.
pub struct Fixture {
    pub base: VecSet,
    pub train: VecSet,
    pub queries: VecSet,
    /// Rows the mutable tape upserts (same distribution as `base`).
    pub pool: VecSet,
    pub payloads: Option<Vec<u64>>,
    pub metric: Metric,
}

impl Fixture {
    /// Generates the fixture a `passes`-pass run of `spec` needs.
    pub fn generate(spec: &Spec, seed: u64, pass_len: usize, passes: usize) -> Fixture {
        let per_cycle = |kind: u8| CYCLE.iter().filter(|&&c| c == kind).count();
        let (n_queries, n_pool) = match spec.kind {
            Kind::Mutable => {
                let cycles = pass_len / CYCLE.len() * passes;
                (
                    cycles * per_cycle(b'S'),
                    cycles * (per_cycle(b'N') + per_cycle(b'U')),
                )
            }
            _ => (pass_len * spec.queries_per_request(), 0),
        };
        // The collection is the same for every seed; the seed draws what
        // the server is asked to do with it (README, "What the seed
        // controls"). Rows are generated in order, so the base does not
        // depend on how many spare rows follow it.
        let mut synth = spec.profile.spec(spec.n, 0, COLLECTION_SEED);
        synth.n += POOL_FACTOR * n_pool;
        synth.n_queries = POOL_FACTOR * n_queries;
        let w = synth.generate();
        let (base, spare) = w.base.split_at(spec.n);
        let mut rng = Rng::new(seed);
        Fixture {
            base,
            train: w.train_queries,
            queries: draw(&w.queries, n_queries, &mut rng),
            pool: draw(&spare, n_pool, &mut rng),
            payloads: (spec.kind == Kind::Filtered)
                .then(|| (0..spec.n as u64).map(|i| i % TAGS).collect()),
            metric: spec.config().metric().clone(),
        }
    }
}

/// One step of a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `/search`; `scored` indexes [`Tape::oracle`].
    Search {
        query: u32,
        tag: Option<u64>,
        scored: Option<u32>,
    },
    /// `/search_batch` over queries `first..first + BATCH`; a scored batch
    /// owns oracle rows `scored..scored + BATCH`.
    Batch { first: u32, scored: Option<u32> },
    /// `/upsert` of pool row `row` under `id`.
    Upsert { id: u32, row: u32, replaces: bool },
    /// `/delete` of a live id.
    Delete { id: u32 },
    /// Synchronous `/admin/compact`.
    Compact,
}

/// The mutable op mix, fixed by position so that row counts never depend
/// on the seed: 16 searches, 2 new-id upserts (`N`), 1 overwrite (`U`) and
/// 1 delete (`D`) per 20 operations — 80 % / 15 % / 5 %.
const CYCLE: [u8; 20] = *b"SSSSNSSSSDSSSUSSSSNS";
/// Every this-many-th search of the mutable tape is scored.
const MUTABLE_SCORE_EVERY: usize = 10;

/// A seeded, fixed sequence of operations plus the exact answers of its
/// scored searches.
pub struct Tape {
    pub ops: Vec<Op>,
    /// Exact top-[`K`] ids per scored query, ascending distance.
    pub oracle: Vec<Vec<u32>>,
    /// Tape entries one pass covers (mutable: `pass_len` ops + the compact).
    stride: usize,
    /// Static tapes are replayed whole on every pass.
    repeats: bool,
    /// Rows a full replay leaves live.
    pub final_live: usize,
    /// Mean count of not-yet-compacted upserted rows a search meets.
    pub overlay_rows_mean: f64,
}

impl Tape {
    pub fn generate(spec: &Spec, fx: &Fixture, seed: u64, pass_len: usize, passes: usize) -> Tape {
        match spec.kind {
            Kind::Mutable => mutable_tape(spec, fx, seed, pass_len, passes),
            _ => static_tape(spec, fx, pass_len),
        }
    }

    /// Entries of pass `p`.
    pub fn pass(&self, p: usize) -> Range<usize> {
        if self.repeats {
            0..self.ops.len()
        } else {
            p * self.stride..(p + 1) * self.stride
        }
    }

    /// The wire bytes of every entry: what the server receives, and what
    /// the determinism tests compare.
    pub fn requests(&self, spec: &Spec, fx: &Fixture, explain: bool) -> Vec<Vec<u8>> {
        let search_fields = |explain: bool| {
            let mut f = vec![
                ("k".to_string(), Json::from(K)),
                ("ef".to_string(), Json::from(spec.params.ef)),
                ("nprobe".to_string(), Json::from(spec.params.nprobe)),
            ];
            if explain {
                f.push(("explain".to_string(), Json::Bool(true)));
            }
            f
        };
        self.ops
            .iter()
            .map(|op| match op {
                Op::Search { query, tag, .. } => {
                    let mut f = vec![(
                        "query".to_string(),
                        Json::from(fx.queries.get(*query as usize)),
                    )];
                    f.extend(search_fields(explain));
                    if let Some(t) = tag {
                        f.push(("filter".to_string(), Json::obj([("eq", Json::from(*t))])));
                    }
                    http::frame("POST", "/search", &Json::Obj(f).dump())
                }
                Op::Batch { first, .. } => {
                    let rows = (0..BATCH)
                        .map(|i| Json::from(fx.queries.get(*first as usize + i)))
                        .collect::<Vec<_>>();
                    let mut f = vec![("queries".to_string(), Json::Arr(rows))];
                    f.extend(search_fields(false));
                    http::frame("POST", "/search_batch", &Json::Obj(f).dump())
                }
                Op::Upsert { id, row, .. } => http::frame(
                    "POST",
                    "/upsert",
                    &Json::obj([
                        ("id", Json::from(*id as usize)),
                        ("vector", Json::from(fx.pool.get(*row as usize))),
                    ])
                    .dump(),
                ),
                Op::Delete { id } => http::frame(
                    "POST",
                    "/delete",
                    &Json::obj([("id", Json::from(*id as usize))]).dump(),
                ),
                Op::Compact => http::frame("POST", "/admin/compact", "{}"),
            })
            .collect()
    }
}

fn static_tape(spec: &Spec, fx: &Fixture, pass_len: usize) -> Tape {
    let per_request = spec.queries_per_request();
    let scored_requests = (spec.scored / per_request).clamp(1, pass_len);
    let every = pass_len / scored_requests;
    let mut ops = Vec::with_capacity(pass_len);
    let mut jobs: Vec<(u32, Option<u64>)> = Vec::new();
    for r in 0..pass_len {
        let scored = (r % every == 0 && jobs.len() < scored_requests * per_request)
            .then_some(jobs.len() as u32);
        let first = (r * per_request) as u32;
        let tag = (spec.kind == Kind::Filtered).then_some(r as u64 % TAGS);
        if scored.is_some() {
            jobs.extend((0..per_request as u32).map(|i| (first + i, tag)));
        }
        ops.push(match spec.kind {
            Kind::Batch => Op::Batch { first, scored },
            _ => Op::Search {
                query: first,
                tag,
                scored,
            },
        });
    }
    Tape {
        ops,
        oracle: static_oracle(fx, &jobs),
        stride: pass_len,
        repeats: true,
        final_live: spec.n,
        overlay_rows_mean: 0.0,
    }
}

/// Exact top-[`K`] for `(query, tag)` jobs over the immutable base.
fn static_oracle(fx: &Fixture, jobs: &[(u32, Option<u64>)]) -> Vec<Vec<u32>> {
    jobs.iter()
        .map(|&(query, tag)| {
            let q = fx.queries.get(query as usize);
            let mut top = TopK::new(K);
            for i in 0..fx.base.len() {
                if tag.is_none_or(|t| i as u64 % TAGS == t) {
                    top.offer(i as u32, fx.metric.distance(fx.base.get(i), q));
                }
            }
            top.into_sorted().iter().map(|n| n.id).collect()
        })
        .collect()
}

/// The benchmark's own copy of the mutable engine's live set: the source
/// of write targets during generation and of the live-set-aware oracle.
pub struct Mirror {
    dim: usize,
    rows: Vec<f32>,
    /// Live ids in pick order, and each live id's position in it.
    ids: Vec<u32>,
    pos: Vec<Option<u32>>,
}

impl Mirror {
    pub fn new(base: &VecSet, id_space: usize) -> Mirror {
        let mut rows = base.as_flat().to_vec();
        rows.resize(id_space * base.dim(), 0.0);
        let mut pos = vec![None; id_space];
        for (i, p) in pos.iter_mut().enumerate().take(base.len()) {
            *p = Some(i as u32);
        }
        Mirror {
            dim: base.dim(),
            rows,
            ids: (0..base.len() as u32).collect(),
            pos,
        }
    }

    pub fn live_len(&self) -> usize {
        self.ids.len()
    }

    pub fn upsert(&mut self, id: u32, v: &[f32]) {
        let at = id as usize * self.dim;
        self.rows[at..at + self.dim].copy_from_slice(v);
        if self.pos[id as usize].is_none() {
            self.pos[id as usize] = Some(self.ids.len() as u32);
            self.ids.push(id);
        }
    }

    pub fn delete(&mut self, id: u32) {
        let Some(at) = self.pos[id as usize].take() else {
            return;
        };
        self.ids.swap_remove(at as usize);
        if let Some(&moved) = self.ids.get(at as usize) {
            self.pos[moved as usize] = Some(at);
        }
    }

    fn pick(&self, rng: &mut Rng) -> u32 {
        self.ids[rng.below(self.ids.len())]
    }

    /// Exact top-[`K`] over the live rows (L2: the mutable workload's metric).
    pub fn top_k(&self, q: &[f32]) -> Vec<u32> {
        let mut top = TopK::new(K);
        for &id in &self.ids {
            let at = id as usize * self.dim;
            top.offer(id, Metric::L2.distance(&self.rows[at..at + self.dim], q));
        }
        top.into_sorted().iter().map(|n| n.id).collect()
    }
}

fn mutable_tape(spec: &Spec, fx: &Fixture, seed: u64, pass_len: usize, passes: usize) -> Tape {
    let mut rng = Rng::new(seed ^ 0x7A9E);
    let mut mirror = Mirror::new(&fx.base, spec.n + fx.pool.len());
    let mut ops = Vec::with_capacity(passes * (pass_len + 1));
    let mut oracle = Vec::new();
    let (mut next_query, mut next_row, mut next_id) = (0u32, 0u32, spec.n as u32);
    let (mut pending, mut overlay_sum) = (0u64, 0u64);
    for _ in 0..passes {
        for i in 0..pass_len {
            match CYCLE[i % CYCLE.len()] {
                b'S' => {
                    let scored = (next_query as usize)
                        .is_multiple_of(MUTABLE_SCORE_EVERY)
                        .then(|| {
                            oracle.push(mirror.top_k(fx.queries.get(next_query as usize)));
                            oracle.len() as u32 - 1
                        });
                    overlay_sum += pending;
                    ops.push(Op::Search {
                        query: next_query,
                        tag: None,
                        scored,
                    });
                    next_query += 1;
                }
                b'D' => {
                    let id = mirror.pick(&mut rng);
                    mirror.delete(id);
                    ops.push(Op::Delete { id });
                }
                kind => {
                    let replaces = kind == b'U';
                    let id = if replaces {
                        mirror.pick(&mut rng)
                    } else {
                        next_id += 1;
                        next_id - 1
                    };
                    mirror.upsert(id, fx.pool.get(next_row as usize));
                    ops.push(Op::Upsert {
                        id,
                        row: next_row,
                        replaces,
                    });
                    next_row += 1;
                    pending += 1;
                }
            }
        }
        ops.push(Op::Compact);
        pending = 0;
    }
    Tape {
        ops,
        oracle,
        stride: pass_len + 1,
        repeats: false,
        final_live: mirror.live_len(),
        overlay_rows_mean: overlay_sum as f64 / next_query.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn smoke(kind: Kind) -> Spec {
        specs(true).into_iter().find(|s| s.kind == kind).unwrap()
    }

    fn build(spec: &Spec, seed: u64) -> (Fixture, Tape) {
        let len = spec.pass_len(10);
        let fx = Fixture::generate(spec, seed, len, 3);
        let tape = Tape::generate(spec, &fx, seed, len, 3);
        (fx, tape)
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for spec in specs(true) {
            let (fx_a, a) = build(&spec, 7);
            let (fx_b, b) = build(&spec, 7);
            assert_eq!(a.ops, b.ops, "{}", spec.name);
            assert_eq!(a.oracle, b.oracle, "{}", spec.name);
            assert_eq!(
                a.requests(&spec, &fx_a, false),
                b.requests(&spec, &fx_b, false),
                "{}",
                spec.name
            );
            let (fx_c, c) = build(&spec, 8);
            assert_ne!(
                a.requests(&spec, &fx_a, false),
                c.requests(&spec, &fx_c, false),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn row_counts_do_not_depend_on_the_seed() {
        let spec = smoke(Kind::Mutable);
        let (_, a) = build(&spec, 1);
        let (_, b) = build(&spec, 2);
        assert_eq!(a.final_live, b.final_live);
        assert_eq!(a.overlay_rows_mean, b.overlay_rows_mean);
        // 2 new ids and 1 delete per 20 operations.
        let cycles = spec.pass_len(10) / CYCLE.len() * 3;
        assert_eq!(a.final_live, spec.n + cycles);
    }

    #[test]
    fn mirror_never_scores_a_deleted_id() {
        let spec = smoke(Kind::Mutable);
        let (_, tape) = build(&spec, 11);
        let mut live: HashSet<u32> = (0..spec.n as u32).collect();
        let mut scored = 0;
        for op in &tape.ops {
            match op {
                Op::Upsert { id, replaces, .. } => {
                    assert_eq!(live.contains(id), *replaces);
                    live.insert(*id);
                }
                Op::Delete { id } => assert!(live.remove(id), "delete of a dead id"),
                Op::Search {
                    scored: Some(s), ..
                } => {
                    let ids = &tape.oracle[*s as usize];
                    assert_eq!(ids.len(), K);
                    assert!(ids.iter().all(|id| live.contains(id)));
                    scored += 1;
                }
                _ => {}
            }
        }
        assert!(scored > 0);
        assert_eq!(live.len(), tape.final_live);
    }

    #[test]
    fn filtered_oracle_respects_the_predicate() {
        let spec = smoke(Kind::Filtered);
        let (_, tape) = build(&spec, 3);
        for op in &tape.ops {
            if let Op::Search {
                tag: Some(t),
                scored: Some(s),
                ..
            } = op
            {
                assert!(tape.oracle[*s as usize]
                    .iter()
                    .all(|&id| id as u64 % TAGS == *t));
            }
        }
    }
}
