//! The byte form of a built index — the `index` section of an engine
//! snapshot container (see `ddc_vecs::snapshot`).
//!
//! A plain little-endian stream behind a magic tag and version byte that
//! stores only the *index structure*: the rows and the operator state
//! travel in their own snapshot sections, keeping this format independent
//! of operator evolution.
//!
//! Loaders read a `&[u8]` and never trust a length from the stream: every
//! count is bounded by the bytes that remain before anything is
//! allocated, so a forged or truncated section is an `Err`, never an
//! allocation larger than the input.

use crate::flat::FlatIndex;
use crate::hnsw::{Hnsw, HnswConfig, MAX_M};
use crate::ivf::Ivf;
use crate::{IndexError, Result};
use ddc_linalg::Metric;
use ddc_vecs::VecSet;

const HNSW_MAGIC: &[u8; 8] = b"DDCHNSW2";
const IVF_MAGIC: &[u8; 8] = b"DDCIVF01";
const FLAT_MAGIC: &[u8; 8] = b"DDCFLAT1";

/// The loaded level-0 array may be at most this many times the bytes of
/// the section it came from. A stored list costs 12 + 4·len bytes and its
/// padded block 4 + 8m; a built graph links each node to about `m` ids
/// or more, which keeps the ratio below 2, so only a forged `m` gets near.
const PADDED_PER_BYTE: usize = 16;

/// ... and may always be this large, so that a graph of a few nodes built
/// with a large `m` (short lists, wide blocks) still loads.
const PADDED_FLOOR: usize = 1 << 16;

fn corrupt(detail: impl std::fmt::Display) -> IndexError {
    IndexError::Config(format!("corrupt index stream: {detail}"))
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32_slice(out: &mut Vec<u8>, v: &[u32]) {
    out.extend_from_slice(&(v.len() as u64).to_le_bytes());
    for &x in v {
        put_u32(out, x);
    }
}

/// A cursor over a serialized index.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(corrupt(format!(
                "needs {n} more bytes, {} remain",
                self.0.len()
            )));
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// A count of items that each occupy at least `min_bytes` of what is
    /// left — the bound that keeps allocation below the input size.
    fn count(&mut self, n: u64, min_bytes: usize, what: &str) -> Result<usize> {
        let fits = (self.0.len() / min_bytes) as u64;
        if n > fits {
            return Err(corrupt(format!(
                "{what} count {n} cannot fit in the {} bytes left",
                self.0.len()
            )));
        }
        Ok(n as usize)
    }

    /// A `u64`-length-prefixed run of 4-byte words, each decoded by `word`.
    fn words<T>(&mut self, what: &str, word: fn([u8; 4]) -> T) -> Result<Vec<T>> {
        let len = self.u64()?;
        let len = self.count(len, 4, what)?;
        Ok(self
            .take(4 * len)?
            .chunks_exact(4)
            .map(|b| word(b.try_into().expect("4 bytes")))
            .collect())
    }

    fn magic(&mut self, magic: &[u8; 8], what: &str) -> Result<()> {
        match self.take(8) {
            Ok(m) if m == magic => Ok(()),
            _ => Err(IndexError::Config(format!("not a DDC {what} stream"))),
        }
    }
}

impl Hnsw {
    /// Serializes the graph structure (the snapshot `index` section).
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut out = HNSW_MAGIC.to_vec();
        put_u32(&mut out, self.len() as u32);
        put_u32(&mut out, self.entry());
        put_u32(&mut out, self.max_level() as u32);
        put_u32(&mut out, self.m_param() as u32);
        put_u32(&mut out, self.dim_param() as u32);
        out.extend_from_slice(&self.seed().to_le_bytes());
        put_u32(&mut out, self.ef_construction() as u32);
        for id in 0..self.len() as u32 {
            let levels = self.node_levels(id);
            put_u32(&mut out, levels as u32);
            for lev in 0..levels {
                put_u32_slice(&mut out, self.neighbors(id, lev));
            }
        }
        out
    }

    /// Deserializes a graph written by [`Hnsw::save_bytes`].
    ///
    /// Level-0 lists land in fixed-stride blocks of `1 + 2m` words, so
    /// `m` sizes an allocation before any list is read: the padded array
    /// may be at most 16 times the section's length (or 64 KiB).
    ///
    /// # Errors
    /// A wrong magic tag, truncation, and structural validation errors:
    /// `m` outside `2..=MAX_M`, an `m` whose padded level-0 array the
    /// section cannot account for, a level-0 list longer than `2m`, an
    /// upper list longer than `m`, an edge id out of range, an upper edge
    /// to a node that does not reach its level, an entry point below the
    /// top level, `ef_construction` of 0.
    pub fn load_bytes(bytes: &[u8]) -> Result<Hnsw> {
        let mut r = Cursor(bytes);
        r.magic(HNSW_MAGIC, "HNSW")?;
        let n = r.u32()?;
        let entry = r.u32()?;
        let max_level = r.u32()? as usize;
        let m = r.u32()? as usize;
        let dim = r.u32()? as usize;
        let seed = r.u64()?;
        let ef_construction = r.u32()? as usize;
        if n == 0 || entry >= n {
            return Err(IndexError::Config("corrupt HNSW header".into()));
        }
        if !(2..=MAX_M).contains(&m) {
            return Err(corrupt(format!("HNSW m = {m} is outside 2..={MAX_M}")));
        }
        if ef_construction == 0 {
            return Err(corrupt("HNSW ef_construction = 0"));
        }
        // Every node carries at least its 4-byte level word.
        let n = r.count(u64::from(n), 4, "HNSW node")?;
        let stride = 1 + 2 * m;
        let padded = n * stride * 4;
        if padded > (PADDED_PER_BYTE * bytes.len()).max(PADDED_FLOOR) {
            return Err(corrupt(format!(
                "HNSW m = {m} pads {n} level-0 lists to {padded} bytes, \
                 more than a {}-byte section accounts for",
                bytes.len()
            )));
        }
        let mut level0 = vec![0u32; n * stride];
        let mut upper = Vec::with_capacity(n);
        for block in level0.chunks_exact_mut(stride) {
            let levels = r.u32()? as usize;
            if levels == 0 || levels > max_level + 1 {
                return Err(IndexError::Config("corrupt HNSW node level".into()));
            }
            // Every level carries at least its 8-byte list length.
            let levels = r.count(levels as u64, 8, "HNSW level")?;
            let mut node = Vec::with_capacity(levels - 1);
            for level in 0..levels {
                let nbrs = r.words("list", u32::from_le_bytes)?;
                let cap = if level == 0 { 2 * m } else { m };
                if nbrs.len() > cap {
                    return Err(corrupt(format!(
                        "HNSW level-{level} list of {} ids, the cap is {cap}",
                        nbrs.len()
                    )));
                }
                if nbrs.iter().any(|&e| e as usize >= n) {
                    return Err(IndexError::Config("corrupt HNSW edge id".into()));
                }
                if level == 0 {
                    block[0] = nbrs.len() as u32;
                    block[1..=nbrs.len()].copy_from_slice(&nbrs);
                } else {
                    node.push(nbrs);
                }
            }
            upper.push(node);
        }
        // An insert may link back along any edge, on the edge's level.
        for (node, lists) in upper.iter().enumerate() {
            for (l, list) in (1..).zip(lists) {
                if let Some(e) = list.iter().find(|&&e| upper[e as usize].len() < l) {
                    return Err(corrupt(format!(
                        "HNSW level-{l} edge {node} → {e} to a node below level {l}"
                    )));
                }
            }
        }
        // The search descends from the entry through every level above 0.
        if upper[entry as usize].len() != max_level {
            return Err(IndexError::Config(
                "corrupt HNSW entry: not on the top level".into(),
            ));
        }
        let cfg = HnswConfig {
            m,
            ef_construction,
            seed,
            metric: Metric::L2,
        };
        Ok(Hnsw::from_parts(cfg, dim, level0, upper, entry, max_level))
    }
}

impl FlatIndex {
    /// The (stateless) flat index's byte form: a magic tag only, written
    /// so engine snapshots treat all three index kinds uniformly.
    pub fn save_bytes(&self) -> Vec<u8> {
        FLAT_MAGIC.to_vec()
    }

    /// Validates a buffer written by [`FlatIndex::save_bytes`].
    ///
    /// # Errors
    /// A wrong magic tag.
    pub fn load_bytes(bytes: &[u8]) -> Result<FlatIndex> {
        if bytes != FLAT_MAGIC {
            return Err(IndexError::Config("not a DDC flat-index stream".into()));
        }
        Ok(FlatIndex)
    }
}

impl Ivf {
    /// Serializes the centroids and posting lists (the snapshot `index`
    /// section).
    pub fn save_bytes(&self) -> Vec<u8> {
        let mut out = IVF_MAGIC.to_vec();
        let (centroids, lists) = self.parts();
        put_u32(&mut out, centroids.dim() as u32);
        put_u32(&mut out, lists.len() as u32);
        out.extend_from_slice(&(centroids.as_flat().len() as u64).to_le_bytes());
        for &x in centroids.as_flat() {
            out.extend_from_slice(&x.to_le_bytes());
        }
        for list in lists {
            put_u32_slice(&mut out, list);
        }
        out
    }

    /// Deserializes an index written by [`Ivf::save_bytes`].
    ///
    /// # Errors
    /// A wrong magic tag, truncation, and structural validation errors.
    pub fn load_bytes(bytes: &[u8]) -> Result<Ivf> {
        let mut r = Cursor(bytes);
        r.magic(IVF_MAGIC, "IVF")?;
        let dim = r.u32()? as usize;
        let nlist = r.u32()? as usize;
        if dim == 0 || nlist == 0 {
            return Err(IndexError::Config("corrupt IVF header".into()));
        }
        let centroids = VecSet::from_flat(dim, r.words("buffer", f32::from_le_bytes)?)
            .map_err(|e| IndexError::Config(format!("corrupt IVF centroids: {e}")))?;
        if centroids.len() != nlist {
            return Err(IndexError::Config("IVF centroid count mismatch".into()));
        }
        let lists = (0..nlist)
            .map(|_| r.words("list", u32::from_le_bytes))
            .collect::<Result<_>>()?;
        Ok(Ivf::from_parts(centroids, lists))
    }
}

#[cfg(test)]
mod tests {
    use crate::hnsw::{Hnsw, HnswConfig, MAX_M};
    use crate::ivf::{Ivf, IvfConfig};
    use ddc_core::Exact;
    use ddc_vecs::{SynthSpec, VecSet};

    #[test]
    fn hnsw_roundtrip_preserves_search() {
        let w = SynthSpec::tiny_test(8, 400, 13).generate();
        let g = Hnsw::build(
            &w.base,
            &HnswConfig {
                m: 6,
                ef_construction: 40,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let back = Hnsw::load_bytes(&g.save_bytes()).unwrap();

        assert_eq!(back.len(), g.len());
        assert_eq!(back.entry(), g.entry());
        assert_eq!(back.max_level(), g.max_level());
        let dco = Exact::build(&w.base);
        for qi in 0..w.queries.len().min(8) {
            let a = g.search(&dco, w.queries.get(qi), 5, 30).unwrap().ids();
            let b = back.search(&dco, w.queries.get(qi), 5, 30).unwrap().ids();
            assert_eq!(a, b, "query {qi}");
        }
    }

    #[test]
    fn ivf_roundtrip_preserves_search() {
        let w = SynthSpec::tiny_test(6, 300, 17).generate();
        let ivf = Ivf::build(&w.base, &IvfConfig::new(8)).unwrap();
        let back = Ivf::load_bytes(&ivf.save_bytes()).unwrap();

        assert_eq!(back.nlist(), ivf.nlist());
        let dco = Exact::build(&w.base);
        for qi in 0..w.queries.len().min(8) {
            let a = ivf.search(&dco, w.queries.get(qi), 5, 4).unwrap().ids();
            let b = back.search(&dco, w.queries.get(qi), 5, 4).unwrap().ids();
            assert_eq!(a, b, "query {qi}");
        }
    }

    #[test]
    fn wrong_magic_rejected() {
        let bytes = b"NOTANIDX________";
        assert!(Hnsw::load_bytes(bytes).is_err());
        assert!(Ivf::load_bytes(bytes).is_err());
        assert!(crate::FlatIndex::load_bytes(bytes).is_err());
    }

    #[test]
    fn truncated_file_rejected() {
        let w = SynthSpec::tiny_test(4, 100, 19).generate();
        let g = Hnsw::build(
            &w.base,
            &HnswConfig {
                m: 4,
                ef_construction: 20,
                seed: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let bytes = g.save_bytes();
        assert!(Hnsw::load_bytes(&bytes[..bytes.len() / 2]).is_err());
        let ivf = Ivf::build(&w.base, &IvfConfig::new(4))
            .unwrap()
            .save_bytes();
        assert!(Ivf::load_bytes(&ivf[..ivf.len() - 1]).is_err());
    }

    /// A 24-byte IVF stream whose centroid buffer claims 2⁴⁰ floats:
    /// rejected before anything is allocated for it.
    #[test]
    fn forged_ivf_centroid_length_is_rejected() {
        let mut s = b"DDCIVF01".to_vec();
        s.extend_from_slice(&4u32.to_le_bytes()); // dim
        s.extend_from_slice(&1u32.to_le_bytes()); // nlist
        s.extend_from_slice(&(1u64 << 40).to_le_bytes()); // centroid floats
        assert_eq!(s.len(), 24);
        let err = Ivf::load_bytes(&s).unwrap_err().to_string();
        assert!(err.contains("cannot fit"), "{err}");
    }

    /// A 40-byte HNSW header claiming `u32::MAX` nodes: rejected before the
    /// node table is allocated.
    #[test]
    fn forged_hnsw_node_count_is_rejected() {
        let mut s = b"DDCHNSW2".to_vec();
        for v in [u32::MAX, 0, 0, 4, 4] {
            s.extend_from_slice(&v.to_le_bytes()); // n, entry, max_level, m, dim
        }
        s.extend_from_slice(&0u64.to_le_bytes()); // seed
        s.extend_from_slice(&16u32.to_le_bytes()); // ef_construction
        assert_eq!(s.len(), 40);
        let err = Hnsw::load_bytes(&s).unwrap_err().to_string();
        assert!(err.contains("cannot fit"), "{err}");
    }

    /// An HNSW stream of `lists.len()` nodes: node `i` carries the lists
    /// `lists[i]`, level 0 first.
    fn hnsw_stream(m: u32, max_level: u32, lists: &[Vec<Vec<u32>>]) -> Vec<u8> {
        let mut s = b"DDCHNSW2".to_vec();
        for v in [lists.len() as u32, 0, max_level, m, 4] {
            s.extend_from_slice(&v.to_le_bytes()); // n, entry, max_level, m, dim
        }
        s.extend_from_slice(&0u64.to_le_bytes()); // seed
        s.extend_from_slice(&16u32.to_le_bytes()); // ef_construction
        for node in lists {
            super::put_u32(&mut s, node.len() as u32);
            for list in node {
                super::put_u32_slice(&mut s, list);
            }
        }
        s
    }

    fn load_err(bytes: &[u8]) -> String {
        match Hnsw::load_bytes(bytes) {
            Err(crate::IndexError::Config(e)) => e,
            other => panic!("expected a Config error, got {other:?}"),
        }
    }

    #[test]
    fn hnsw_level0_list_over_2m_is_rejected() {
        let full: Vec<u32> = (1..=4).collect(); // 2m for m = 2
        let nodes = |l0: &[u32]| {
            let mut nodes = vec![vec![l0.to_vec()]];
            nodes.extend((1..=5).map(|_| vec![vec![0]]));
            nodes
        };
        assert!(Hnsw::load_bytes(&hnsw_stream(2, 0, &nodes(&full))).is_ok());
        let over: Vec<u32> = (1..=5).collect();
        let err = load_err(&hnsw_stream(2, 0, &nodes(&over)));
        assert!(err.contains("level-0 list of 5 ids"), "{err}");
    }

    #[test]
    fn hnsw_upper_list_over_m_is_rejected() {
        let nodes = |upper: Vec<u32>| {
            let mut nodes = vec![vec![vec![1], upper]];
            nodes.extend((1..=3).map(|_| vec![vec![0], vec![0]]));
            nodes
        };
        assert!(Hnsw::load_bytes(&hnsw_stream(2, 1, &nodes(vec![1, 2]))).is_ok());
        let err = load_err(&hnsw_stream(2, 1, &nodes(vec![1, 2, 3])));
        assert!(err.contains("level-1 list of 3 ids"), "{err}");
    }

    /// An upper edge to a node that lives below that level: the next
    /// insert that reaches it would link it back on a level it lacks.
    #[test]
    fn hnsw_upper_edge_to_a_node_below_its_level_is_rejected() {
        let nodes = |e: u32| {
            [
                vec![vec![1], vec![e]],
                vec![vec![0]],
                vec![vec![0], vec![0]],
            ]
        };
        assert!(Hnsw::load_bytes(&hnsw_stream(2, 1, &nodes(2))).is_ok());
        let err = load_err(&hnsw_stream(2, 1, &nodes(1)));
        assert!(err.contains("level-1 edge 0 → 1"), "{err}");
    }

    /// A forged `max_level` above the entry's levels would send every
    /// search through that many empty levels.
    #[test]
    fn hnsw_entry_below_the_top_level_is_rejected() {
        let nodes = [vec![vec![1]], vec![vec![0]]];
        assert!(Hnsw::load_bytes(&hnsw_stream(2, 0, &nodes)).is_ok());
        let err = load_err(&hnsw_stream(2, u32::MAX - 1, &nodes));
        assert!(err.contains("not on the top level"), "{err}");
    }

    #[test]
    fn hnsw_m_outside_2_to_max_is_rejected() {
        for m in [0, 1, MAX_M as u32 + 1, 1 << 30] {
            let err = load_err(&hnsw_stream(m, 0, &[vec![vec![]]]));
            assert!(err.contains("outside 2..="), "m = {m}: {err}");
        }
    }

    /// A one-node graph claiming the largest `m`: its level-0 block alone
    /// would be 80 kB, from a 52-byte section. Rejected before allocating.
    #[test]
    fn hnsw_m_padding_beyond_the_section_is_rejected() {
        let s = hnsw_stream(MAX_M as u32, 0, &[vec![vec![]]]);
        assert_eq!(s.len(), 52);
        let err = load_err(&s);
        assert!(err.contains("more than a 52-byte section"), "{err}");
        // A single node with a wide but plausible m still loads.
        assert!(Hnsw::load_bytes(&hnsw_stream(256, 0, &[vec![vec![]]])).is_ok());
    }

    /// `rows` followed by `extra`: a source one insert longer.
    fn with_row(rows: &VecSet, extra: &[f32]) -> VecSet {
        let mut flat = rows.as_flat().to_vec();
        flat.extend_from_slice(extra);
        VecSet::from_flat(rows.dim(), flat).unwrap()
    }

    /// A real 40-node stream with its `ef_construction` word replaced.
    fn with_ef_construction(ef: u32) -> (VecSet, Vec<u8>) {
        let w = SynthSpec::tiny_test(4, 40, 29).generate();
        let cfg = HnswConfig {
            m: 4,
            ef_construction: 10,
            seed: 3,
            ..Default::default()
        };
        let mut bytes = Hnsw::build(&w.base, &cfg).unwrap().save_bytes();
        bytes[36..40].copy_from_slice(&ef.to_le_bytes()); // after magic, 5 words, seed
        (with_row(&w.base, w.queries.get(0)), bytes)
    }

    /// A beam of width 0 cannot hold the entry point: the first insert
    /// would fail, so the loader refuses the graph.
    #[test]
    fn hnsw_ef_construction_zero_is_rejected() {
        let (_, bytes) = with_ef_construction(0);
        let err = load_err(&bytes);
        assert!(err.contains("ef_construction"), "{err}");
    }

    /// A beam wider than the graph is sized at the graph: the insert
    /// allocates nothing in proportion to `ef_construction` and wires the
    /// node exactly as a beam of `len()` does.
    #[test]
    fn hnsw_huge_ef_construction_inserts_like_a_beam_of_the_whole_graph() {
        let (rows, bytes) = with_ef_construction(u32::MAX);
        let mut huge = Hnsw::load_bytes(&bytes).unwrap();
        assert_eq!(huge.ef_construction(), u32::MAX as usize);
        let mut whole = bytes.clone();
        whole[36..40].copy_from_slice(&40u32.to_le_bytes());
        let mut whole = Hnsw::load_bytes(&whole).unwrap();
        assert_eq!(huge.insert_next(&rows).unwrap(), 40);
        whole.insert_next(&rows).unwrap();
        let strip = |b: Vec<u8>| [&b[..36], &b[40..]].concat();
        assert_eq!(strip(huge.save_bytes()), strip(whole.save_bytes()));
    }

    /// Every 4-byte word of a real stream overwritten with boundary
    /// values: the loader returns, never panics or over-allocates, and
    /// whatever it accepts can be searched and grown by one insert
    /// without a panic.
    #[test]
    fn hnsw_word_corruption_sweep_never_panics() {
        let w = SynthSpec::tiny_test(4, 40, 29).generate();
        let cfg = HnswConfig {
            m: 2,
            ef_construction: 10,
            seed: 3,
            ..Default::default()
        };
        let bytes = Hnsw::build(&w.base, &cfg).unwrap().save_bytes();
        let dco = Exact::build(&w.base);
        let grown = with_row(&w.base, w.queries.get(0));
        let mut accepted = 0;
        for at in (8..bytes.len() - 3).step_by(4) {
            let word = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            for v in [
                0,
                1,
                2,
                5,
                word ^ 1,
                word.wrapping_add(1),
                1 << 30,
                u32::MAX,
            ] {
                let mut forged = bytes.clone();
                forged[at..at + 4].copy_from_slice(&v.to_le_bytes());
                let Ok(mut g) = Hnsw::load_bytes(&forged) else {
                    continue;
                };
                accepted += 1;
                if g.len() == w.base.len() {
                    let _ = g.search(&dco, w.queries.get(0), 3, 8);
                }
                let _ = g.insert_next(&grown);
            }
        }
        assert!(
            accepted > 0,
            "no forged stream loaded: the sweep tests nothing"
        );
    }
}
