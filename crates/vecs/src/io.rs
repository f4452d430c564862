//! Readers and writers for the TEXMEX vector file formats used by every
//! public ANN benchmark the paper evaluates on.
//!
//! # Wire formats
//!
//! All three formats share one framing: each row starts with a
//! little-endian `u32` **component count** `d`, followed by `d` payload
//! elements. Nothing else — no file header, no footer, no padding:
//!
//! ```text
//! .fvecs   ┌─────┬──────────────────┐┌─────┬──────────────────┐ ...
//!          │ d:u32│ d × f32 (LE)    ││ d:u32│ d × f32 (LE)    │
//!          └─────┴──────────────────┘└─────┴──────────────────┘
//! .ivecs   same framing, payload d × u32   (ground-truth ids)
//! .bvecs   same framing, payload d × u8    (SIFT1B-style data)
//! ```
//!
//! Every row of a file must carry the same `d`; a well-formed file's size
//! is therefore an exact multiple of its row stride (`4 + 4·d` bytes for
//! fvecs/ivecs, `4 + d` for bvecs) — the invariant the zero-copy mapped
//! arm of [`crate::SharedRows`] checks before trusting a file.
//!
//! # Two ways to read
//!
//! * **Eager** ([`read_fvecs`] / [`read_bvecs`] / [`read_ivecs`]):
//!   materialize everything into a heap [`VecSet`]. Right for sets that
//!   fit comfortably in RAM.
//! * **Mapped** ([`crate::SharedRows::open`]): `mmap` an `.fvecs` file
//!   and serve rows zero-copy from the page cache — the out-of-core path.
//!   It falls back to [`read_fvecs`] where mapping is unavailable, and
//!   both paths answer a `limit` of `Some(0)` with [`VecsError::Empty`],
//!   like an empty file.
//!
//! Read failures carry the offending file path and byte offset
//! ([`VecsError::File`]), so a truncated 500 MB download is reported as
//! *which* file broke and *where*.
//!
//! ```
//! use ddc_vecs::{io, VecSet};
//!
//! let mut path = std::env::temp_dir();
//! path.push(format!("ddc-io-doc-{}.fvecs", std::process::id()));
//! let set = VecSet::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! io::write_fvecs(&path, &set).unwrap();
//! let back = io::read_fvecs(&path, None).unwrap();
//! assert_eq!(back, set);
//!
//! // Corruption reports name the file and the byte offset:
//! std::fs::write(&path, &[3u8, 0, 0, 0, 1, 2]).unwrap(); // header says 3 floats, payload is 2 bytes
//! let err = io::read_fvecs(&path, None).unwrap_err().to_string();
//! assert!(err.contains("ddc-io-doc"), "{err}");
//! assert!(err.contains("byte 0"), "{err}");
//! std::fs::remove_file(&path).ok();
//! ```

use crate::vecset::VecSet;
use crate::{Result, VecsError};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Largest plausible per-row component count; headers above this are
/// treated as corruption rather than an allocation request.
pub(crate) const MAX_PLAUSIBLE_DIM: usize = 1 << 20;

/// The pseudo-path attached to errors from in-memory readers.
pub(crate) const MEMORY_PATH: &str = "<memory>";

/// A framed reader over TEXMEX row framing that knows *where* it is: every
/// error it produces carries the source path and the byte offset of the
/// frame being decoded. Shared by the eager readers.
struct FramedSource<R> {
    r: R,
    path: PathBuf,
    offset: u64,
}

impl<R: Read> FramedSource<R> {
    fn new(r: R, path: Option<&Path>) -> FramedSource<R> {
        FramedSource {
            r,
            path: path.map_or_else(|| PathBuf::from(MEMORY_PATH), Path::to_path_buf),
            offset: 0,
        }
    }

    /// An error pinned to the current frame position.
    fn corrupt(&self, detail: impl Into<String>) -> VecsError {
        VecsError::File {
            path: self.path.clone(),
            offset: self.offset,
            detail: detail.into(),
        }
    }

    /// Reads one row header. `Ok(None)` at clean EOF (a frame boundary);
    /// a partial header is corruption.
    fn read_header(&mut self) -> Result<Option<u32>> {
        let mut buf = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            match self.r.read(&mut buf[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => {
                    return Err(self.corrupt(format!("truncated row header ({got} of 4 bytes)")))
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.corrupt(format!("read failed: {e}"))),
            }
        }
        Ok(Some(u32::from_le_bytes(buf)))
    }

    /// Validates a header value as a dimensionality: nonzero (when
    /// `allow_zero` is false), plausible, and consistent with `expected`.
    fn check_dim(&self, dim: usize, expected: Option<usize>, allow_zero: bool) -> Result<()> {
        if (dim == 0 && !allow_zero) || dim > MAX_PLAUSIBLE_DIM {
            return Err(self.corrupt(format!("implausible row dimension {dim}")));
        }
        if let Some(want) = expected {
            if dim != want {
                return Err(self.corrupt(format!(
                    "row dimension {dim} disagrees with the file's first row ({want})"
                )));
            }
        }
        Ok(())
    }

    /// Reads an exact payload; a short read reports as a truncated row,
    /// other I/O failures keep their own message — both pinned to the
    /// frame that started at the last header.
    fn read_payload(&mut self, buf: &mut [u8], what: &str) -> Result<()> {
        self.r.read_exact(buf).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                self.corrupt(format!("truncated {what} row"))
            } else {
                self.corrupt(format!("read failed: {e}"))
            }
        })?;
        // The frame decoded successfully; advance to the next boundary.
        self.offset += 4 + buf.len() as u64;
        Ok(())
    }
}

pub(crate) fn open_for_read(path: &Path) -> Result<std::fs::File> {
    std::fs::File::open(path).map_err(|e| VecsError::File {
        path: path.to_path_buf(),
        offset: 0,
        detail: format!("open: {e}"),
    })
}

/// Reads an entire `.fvecs` file, optionally capping the number of rows.
///
/// # Errors
/// I/O failures and malformed content, with the file path and byte offset
/// attached ([`VecsError::File`]).
pub fn read_fvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<VecSet> {
    let path = path.as_ref();
    let file = open_for_read(path)?;
    read_fvecs_inner(BufReader::new(file), Some(path), limit)
}

/// Reads `.fvecs` content from any reader (errors report `<memory>` as
/// the path).
///
/// # Errors
/// Same contract as [`read_fvecs`].
pub fn read_fvecs_from(r: impl Read, limit: Option<usize>) -> Result<VecSet> {
    read_fvecs_inner(r, None, limit)
}

fn read_fvecs_inner(r: impl Read, path: Option<&Path>, limit: Option<usize>) -> Result<VecSet> {
    let mut src = FramedSource::new(r, path);
    let mut set: Option<VecSet> = None;
    let mut row: Vec<f32> = Vec::new();
    let cap = limit.unwrap_or(usize::MAX);
    let mut count = 0usize;
    while count < cap {
        let Some(dim) = src.read_header()? else {
            break;
        };
        let dim = dim as usize;
        src.check_dim(dim, set.as_ref().map(VecSet::dim), false)?;
        let mut bytes = vec![0u8; dim * 4];
        src.read_payload(&mut bytes, "fvecs")?;
        row.clear();
        row.extend(
            bytes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        let set = set.get_or_insert_with(|| VecSet::new(dim));
        set.push(&row)?;
        count += 1;
    }
    set.ok_or(VecsError::Empty("fvecs file"))
}

/// Writes a [`VecSet`] in `.fvecs` format.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_fvecs(path: impl AsRef<Path>, set: &VecSet) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for v in set.iter() {
        w.write_all(&(set.dim() as u32).to_le_bytes())?;
        for &x in v {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads an `.ivecs` file (e.g. precomputed ground-truth neighbor ids).
///
/// Returns one `Vec<u32>` per row. Unlike the vector formats, rows here
/// may legitimately vary in width (and be empty), so only the plausibility
/// bound is enforced.
///
/// # Errors
/// I/O failures and malformed rows, with path and byte offset attached.
pub fn read_ivecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Vec<Vec<u32>>> {
    let path = path.as_ref();
    let file = open_for_read(path)?;
    let mut src = FramedSource::new(BufReader::new(file), Some(path));
    let mut rows = Vec::new();
    let cap = limit.unwrap_or(usize::MAX);
    while rows.len() < cap {
        let Some(dim) = src.read_header()? else {
            break;
        };
        let dim = dim as usize;
        src.check_dim(dim, None, true)?;
        let mut bytes = vec![0u8; dim * 4];
        src.read_payload(&mut bytes, "ivecs")?;
        rows.push(
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        );
    }
    Ok(rows)
}

/// Writes `.ivecs` rows.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_ivecs(path: impl AsRef<Path>, rows: &[Vec<u32>]) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for row in rows {
        w.write_all(&(row.len() as u32).to_le_bytes())?;
        for &x in row {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Writes a [`VecSet`] in `.bvecs` format (components clamped to
/// `[0, 255]` and rounded to the nearest `u8`; intended for test
/// fixtures — real bvecs data is already byte-valued).
///
/// # Errors
/// Propagates I/O failures.
pub fn write_bvecs(path: impl AsRef<Path>, set: &VecSet) -> Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    for v in set.iter() {
        w.write_all(&(set.dim() as u32).to_le_bytes())?;
        for &x in v {
            w.write_all(&[x.clamp(0.0, 255.0).round() as u8])?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Reads a `.bvecs` file, widening `u8` components to `f32`.
///
/// # Errors
/// I/O failures and malformed rows, with path and byte offset attached.
pub fn read_bvecs(path: impl AsRef<Path>, limit: Option<usize>) -> Result<VecSet> {
    let path = path.as_ref();
    let file = open_for_read(path)?;
    let mut src = FramedSource::new(BufReader::new(file), Some(path));
    let mut set: Option<VecSet> = None;
    let cap = limit.unwrap_or(usize::MAX);
    let mut count = 0usize;
    let mut row: Vec<f32> = Vec::new();
    while count < cap {
        let Some(dim) = src.read_header()? else {
            break;
        };
        let dim = dim as usize;
        src.check_dim(dim, set.as_ref().map(VecSet::dim), false)?;
        let mut bytes = vec![0u8; dim];
        src.read_payload(&mut bytes, "bvecs")?;
        row.clear();
        row.extend(bytes.iter().map(|&b| f32::from(b)));
        let set = set.get_or_insert_with(|| VecSet::new(dim));
        set.push(&row)?;
        count += 1;
    }
    set.ok_or(VecsError::Empty("bvecs file"))
}

/// Environment variable naming a directory that holds real TEXMEX
/// datasets (see [`resolve_fixture`]).
pub const DATA_DIR_ENV: &str = "DDC_DATA_DIR";

/// The files of one resolved on-disk dataset, in the TEXMEX layout.
#[derive(Debug, Clone)]
pub struct FixturePaths {
    /// Fixture name as requested (`"sift1m"`, `"gist1m"`, ...).
    pub name: String,
    /// `<stem>_base.fvecs` — always present when resolution succeeds.
    pub base: PathBuf,
    /// `<stem>_query.fvecs`, when present.
    pub queries: Option<PathBuf>,
    /// `<stem>_learn.fvecs`, when present (training queries for the
    /// data-driven operators).
    pub learn: Option<PathBuf>,
    /// `<stem>_groundtruth.ivecs`, when present.
    pub ground_truth: Option<PathBuf>,
}

/// The fixture root from `DDC_DATA_DIR`, if set and existing.
pub fn data_dir() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os(DATA_DIR_ENV)?);
    dir.is_dir().then_some(dir)
}

/// Resolves a named dataset under `DDC_DATA_DIR` without downloading
/// anything: if the env var points at a directory where the standard
/// TEXMEX files for `name` exist, their paths come back; otherwise
/// `None`, and callers fall back to the synthetic fixtures
/// ([`crate::SynthSpec`] / [`crate::SynthProfile`]).
///
/// Known names map to their conventional stems (`sift1m` → `sift`,
/// `gist1m` → `gist`); any other name is used as its own stem. For each
/// the files are looked up as `<stem>_base.fvecs`, `<stem>_query.fvecs`,
/// `<stem>_learn.fvecs`, and `<stem>_groundtruth.ivecs`, first in
/// `$DDC_DATA_DIR/<name>/`, then `$DDC_DATA_DIR/<stem>/`, then
/// `$DDC_DATA_DIR/` itself.
pub fn resolve_fixture(name: &str) -> Option<FixturePaths> {
    let root = data_dir()?;
    let stem = match name {
        "sift1m" => "sift",
        "gist1m" => "gist",
        other => other,
    };
    let candidates = [root.join(name), root.join(stem), root.clone()];
    for dir in candidates {
        let base = dir.join(format!("{stem}_base.fvecs"));
        if !base.is_file() {
            continue;
        }
        let optional = |suffix: &str| {
            let p = dir.join(format!("{stem}_{suffix}"));
            p.is_file().then_some(p)
        };
        return Some(FixturePaths {
            name: name.to_string(),
            base,
            queries: optional("query.fvecs"),
            learn: optional("learn.fvecs"),
            ground_truth: optional("groundtruth.ivecs"),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ddc-vecs-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn fvecs_roundtrip() {
        let set = VecSet::from_rows(4, &[vec![1.0, -2.0, 0.5, 3.25], vec![0.0, 0.0, -1.0, 1e-3]])
            .unwrap();
        let p = tmp("roundtrip.fvecs");
        write_fvecs(&p, &set).unwrap();
        let back = read_fvecs(&p, None).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn fvecs_limit_truncates() {
        let set = VecSet::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let p = tmp("limit.fvecs");
        write_fvecs(&p, &set).unwrap();
        let back = read_fvecs(&p, Some(2)).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn fvecs_truncated_row_is_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes()); // only 1 of 3 floats
        let err = read_fvecs_from(&bytes[..], None).unwrap_err();
        assert!(matches!(err, VecsError::File { .. }), "{err}");
        assert!(err.to_string().contains(MEMORY_PATH));
    }

    /// Failures through the path-taking reader name the file and the
    /// offset of the frame that broke — the whole point of the
    /// [`VecsError::File`] variant.
    #[test]
    fn errors_carry_path_and_offset() {
        let p = tmp("ctx.fvecs");
        let set = VecSet::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        write_fvecs(&p, &set).unwrap();
        // Chop the file mid-way through the second row's payload.
        let bytes = std::fs::read(&p).unwrap();
        std::fs::write(&p, &bytes[..bytes.len() - 3]).unwrap();
        let err = read_fvecs(&p, None).unwrap_err();
        let VecsError::File {
            path,
            offset,
            detail,
        } = &err
        else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(path, &p);
        // The second frame starts after one complete 2-d row: 4 + 8 bytes.
        assert_eq!(*offset, 12);
        assert!(detail.contains("truncated"), "{detail}");
        std::fs::remove_file(&p).ok();

        // A missing file also names its path.
        let missing = read_fvecs(tmp("does-not-exist.fvecs"), None).unwrap_err();
        assert!(missing.to_string().contains("does-not-exist"));
    }

    #[test]
    fn fvecs_inconsistent_dim_is_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f32.to_le_bytes());
        bytes.extend_from_slice(&2.0f32.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes()); // second row claims d=3
        bytes.extend_from_slice(&[0u8; 12]);
        let err = read_fvecs_from(&bytes[..], None).unwrap_err();
        let VecsError::File { offset, detail, .. } = &err else {
            panic!("wrong variant: {err}");
        };
        assert_eq!(*offset, 12);
        assert!(detail.contains("disagrees"), "{detail}");
    }

    #[test]
    fn fvecs_empty_file_is_error() {
        let err = read_fvecs_from(&[][..], None).unwrap_err();
        assert!(matches!(err, VecsError::Empty(_)));
    }

    #[test]
    fn fvecs_zero_dim_is_error() {
        let bytes = 0u32.to_le_bytes();
        let err = read_fvecs_from(&bytes[..], None).unwrap_err();
        assert!(matches!(err, VecsError::File { .. }));
    }

    #[test]
    fn partial_header_is_error() {
        let bytes = [1u8, 0]; // 2 of 4 header bytes
        let err = read_fvecs_from(&bytes[..], None).unwrap_err();
        assert!(err.to_string().contains("truncated row header"));
    }

    #[test]
    fn ivecs_roundtrip() {
        let rows = vec![vec![5u32, 1, 9], vec![0u32, 2, 4]];
        let p = tmp("roundtrip.ivecs");
        write_ivecs(&p, &rows).unwrap();
        let back = read_ivecs(&p, None).unwrap();
        assert_eq!(back, rows);
        std::fs::remove_file(p).ok();
    }

    /// All `DDC_DATA_DIR` scenarios in one test: the env var is process
    /// state, so splitting these across parallel #[test]s would race.
    #[test]
    fn fixture_resolution_and_fallback() {
        let root = tmp("data-dir");
        let sift = root.join("sift1m");
        std::fs::create_dir_all(&sift).unwrap();
        let base =
            VecSet::from_rows(4, &[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]).unwrap();
        write_fvecs(sift.join("sift_base.fvecs"), &base).unwrap();
        write_fvecs(sift.join("sift_query.fvecs"), &base).unwrap();

        // Unset: resolution declines.
        std::env::remove_var(DATA_DIR_ENV);
        assert!(data_dir().is_none());
        assert!(resolve_fixture("sift1m").is_none());

        // Set: the fixture resolves.
        std::env::set_var(DATA_DIR_ENV, &root);
        let fix = resolve_fixture("sift1m").expect("fixture resolves");
        assert_eq!(fix.name, "sift1m");
        assert_eq!(fix.base, sift.join("sift_base.fvecs"));
        assert!(fix.queries.is_some());
        assert!(fix.learn.is_none(), "no learn file was written");
        assert!(fix.ground_truth.is_none());

        // Unknown names decline even with the env var set.
        assert!(resolve_fixture("no-such-dataset").is_none());

        // A dataset directly under the root (no subdirectory) resolves
        // through the bare-root candidate.
        write_fvecs(root.join("gist_base.fvecs"), &base).unwrap();
        let gist = resolve_fixture("gist1m").expect("root-level fixture resolves");
        assert_eq!(gist.base, root.join("gist_base.fvecs"));

        std::env::remove_var(DATA_DIR_ENV);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn bvecs_widens_bytes() {
        let p = tmp("b.bvecs");
        {
            let mut f = std::fs::File::create(&p).unwrap();
            f.write_all(&2u32.to_le_bytes()).unwrap();
            f.write_all(&[7u8, 255u8]).unwrap();
        }
        let set = read_bvecs(&p, None).unwrap();
        assert_eq!(set.get(0), &[7.0, 255.0]);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn bvecs_roundtrip_through_writer() {
        let set = VecSet::from_rows(3, &[vec![0.0, 128.0, 255.0], vec![1.0, 2.0, 3.0]]).unwrap();
        let p = tmp("roundtrip.bvecs");
        write_bvecs(&p, &set).unwrap();
        let back = read_bvecs(&p, None).unwrap();
        assert_eq!(back, set);
        std::fs::remove_file(p).ok();
    }
}
