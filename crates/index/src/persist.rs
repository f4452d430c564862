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
use crate::hnsw::Hnsw;
use crate::ivf::Ivf;
use crate::{IndexError, Result};
use ddc_vecs::VecSet;

const HNSW_MAGIC: &[u8; 8] = b"DDCHNSW2";
const IVF_MAGIC: &[u8; 8] = b"DDCIVF01";
const FLAT_MAGIC: &[u8; 8] = b"DDCFLAT1";

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
    /// # Errors
    /// A wrong magic tag, truncation, and structural validation errors.
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
        // Every node carries at least its 4-byte level word.
        let n = r.count(u64::from(n), 4, "HNSW node")?;
        let mut links = Vec::with_capacity(n);
        for _ in 0..n {
            let levels = r.u32()? as usize;
            if levels == 0 || levels > max_level + 1 {
                return Err(IndexError::Config("corrupt HNSW node level".into()));
            }
            // Every level carries at least its 8-byte list length.
            let levels = r.count(levels as u64, 8, "HNSW level")?;
            let mut node = Vec::with_capacity(levels);
            for _ in 0..levels {
                let nbrs = r.words("list", u32::from_le_bytes)?;
                if nbrs.iter().any(|&e| e as usize >= n) {
                    return Err(IndexError::Config("corrupt HNSW edge id".into()));
                }
                node.push(nbrs);
            }
            links.push(node);
        }
        Ok(Hnsw::from_parts(
            links,
            entry,
            max_level,
            m,
            dim,
            seed,
            ef_construction,
        ))
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
    use crate::hnsw::{Hnsw, HnswConfig};
    use crate::ivf::{Ivf, IvfConfig};
    use ddc_core::Exact;
    use ddc_vecs::SynthSpec;

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
}
