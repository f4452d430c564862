//! Out-of-core vector storage: memory-mapped `.fvecs` files and a
//! pluggable [`VecStore`] over RAM and mapped backends.
//!
//! # Why a store layer
//!
//! The eager readers in [`crate::io`] materialize a whole dataset on the
//! heap before anything can be built over it. At million-row scale that
//! costs a full extra copy of the base set (the DCOs keep their own
//! rotated copy anyway), and past RAM scale it stops working entirely.
//! [`VecStore`] makes the input a *backend choice*:
//!
//! * [`VecStore::Ram`] — the classic heap [`VecSet`];
//! * [`VecStore::Mmap`] — a [`MmapVecs`]: the file is memory-mapped and
//!   rows are served **zero-copy** straight out of the OS page cache.
//!   Opening is O(1) in heap terms; pages fault in lazily as builders
//!   touch rows and the kernel evicts them under pressure — the dataset
//!   never needs to be resident all at once.
//!
//! Both implement [`RowAccess`], which every index/operator build path in
//! the workspace consumes — so a store-built engine is produced by the
//! *same loop* as a RAM-built one and is bit-identical to it (pinned by
//! `crates/engine/tests/parity.rs`).
//!
//! # What maps
//!
//! Mapping wants random access and repeated passes (graph construction,
//! k-means) — exactly what builders do. Only `.fvecs` maps: its payload
//! already is the `f32` rows the stack reads. `.bvecs` payloads are `u8`
//! and must be widened, so [`VecStore::open`] streams them into RAM
//! through [`crate::io::read_bvecs`] (4× the file size); `.ivecs` files
//! hold ids, not vectors, and go through [`crate::io::read_ivecs`]. Where
//! the mapping shim is unavailable, [`VecStore::open`] falls back to a
//! buffered streaming load of the `.fvecs` file.
//!
//! # Safety of the mapped backend
//!
//! The map is created read-only and private, and unmapped when the
//! [`MmapVecs`] drops; every `&[f32]` handed out borrows the store, so
//! Rust's lifetimes keep slices from outliving the mapping. What the type
//! system cannot prevent is another process truncating the file while it
//! is mapped — accessing pages past the new end then raises `SIGBUS`, the
//! standard caveat of every mmap consumer. Treat dataset files as
//! immutable while a store is open (benchmark datasets are write-once in
//! practice). Row framing is validated at open (first/last headers,
//! stride divisibility) and can be fully audited with
//! [`MmapVecs::verify`]; mapped reads themselves stay memory-safe within
//! the mapping even if interior headers are corrupt, because row offsets
//! are computed from the validated stride, never from file contents.
//!
//! ```
//! use ddc_vecs::store::VecStore;
//! use ddc_vecs::{io, RowAccess, VecSet};
//!
//! let mut path = std::env::temp_dir();
//! path.push(format!("ddc-store-doc-{}.fvecs", std::process::id()));
//! let set = VecSet::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
//! io::write_fvecs(&path, &set).unwrap();
//!
//! let store = VecStore::open(&path).unwrap();
//! assert_eq!((store.len(), store.dim()), (3, 2));
//! assert_eq!(store.row(1), &[3.0, 4.0]);
//! // The mapped backend holds no heap copy of the vectors:
//! if store.backend() == "mmap" {
//!     assert_eq!(store.resident_bytes(), 0);
//!     assert!(store.mapped_bytes() > 0);
//! }
//! std::fs::remove_file(&path).ok();
//! ```

use crate::io::MAX_PLAUSIBLE_DIM;
use crate::vecset::VecSet;
use crate::{Result, VecsError};
use ddc_linalg::RowAccess;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// Raw mmap calls (libc-free, through `crate::sys`)
// ---------------------------------------------------------------------------

/// Raw `mmap`/`munmap`/`madvise` calls through the shared [`crate::sys`]
/// shim. Zero-copy `f32` views additionally require a little-endian
/// target — the TEXMEX wire format is little-endian.
#[cfg(all(
    target_os = "linux",
    target_endian = "little",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod sys {
    use crate::sys::{check, syscall6};
    use std::io;
    use std::os::fd::{AsRawFd, RawFd};

    pub(super) const SUPPORTED: bool = true;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;

    pub(super) const MADV_RANDOM: usize = 1;
    pub(super) const MADV_SEQUENTIAL: usize = 2;
    pub(super) const MADV_WILLNEED: usize = 3;

    #[cfg(target_arch = "x86_64")]
    const SYS_MMAP: usize = 9;
    #[cfg(target_arch = "x86_64")]
    const SYS_MUNMAP: usize = 11;
    #[cfg(target_arch = "x86_64")]
    const SYS_MADVISE: usize = 28;
    #[cfg(target_arch = "aarch64")]
    const SYS_MMAP: usize = 222;
    #[cfg(target_arch = "aarch64")]
    const SYS_MUNMAP: usize = 215;
    #[cfg(target_arch = "aarch64")]
    const SYS_MADVISE: usize = 233;

    /// Maps `len` bytes of `file` read-only/private.
    pub(super) fn map_file(file: &std::fs::File, len: usize) -> io::Result<Option<*mut u8>> {
        let fd: RawFd = file.as_raw_fd();
        // SAFETY: a fresh anonymous-address read-only private mapping of a
        // file descriptor we own; the kernel validates every argument.
        let addr = unsafe {
            check(syscall6(
                SYS_MMAP,
                0,
                len,
                PROT_READ,
                MAP_PRIVATE,
                fd as usize,
                0,
            ))?
        };
        Ok(Some(addr as *mut u8))
    }

    /// Unmaps a region previously returned by [`map_file`].
    pub(super) fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: only called from `Mmap::drop` with the exact pointer and
        // length `map_file` returned.
        unsafe {
            let _ = check(syscall6(SYS_MUNMAP, ptr as usize, len, 0, 0, 0, 0));
        }
    }

    /// Advises the kernel on the access pattern of `[addr, addr + len)`,
    /// which must lie inside a live mapping. Purely a hint: failures are
    /// ignored (an unsupported advice value must never break serving).
    pub(super) fn advise(addr: usize, len: usize, advice: usize) {
        // SAFETY: callers pass a page-aligned subrange of a mapping they
        // own; madvise never writes through the pointer and the kernel
        // validates every argument.
        unsafe {
            let _ = check(syscall6(SYS_MADVISE, addr, len, advice, 0, 0, 0));
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    target_endian = "little",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod sys {
    use std::io;

    pub(super) const SUPPORTED: bool = false;

    pub(super) const MADV_RANDOM: usize = 1;
    pub(super) const MADV_SEQUENTIAL: usize = 2;
    pub(super) const MADV_WILLNEED: usize = 3;

    pub(super) fn map_file(_file: &std::fs::File, _len: usize) -> io::Result<Option<*mut u8>> {
        // No shim for this platform (e.g. Windows would use
        // CreateFileMapping/MapViewOfFile): callers fall back to a
        // buffered streaming load.
        Ok(None)
    }

    pub(super) fn unmap(_ptr: *mut u8, _len: usize) {}

    pub(super) fn advise(_addr: usize, _len: usize, _advice: usize) {}
}

/// True when this build can memory-map files (otherwise [`VecStore::open`]
/// always takes the buffered streaming fallback).
pub fn mmap_supported() -> bool {
    sys::SUPPORTED
}

/// Access-pattern hints forwarded to the kernel via `madvise` for mapped
/// regions (no-ops for heap-resident data and on platforms without the
/// mapping shim). Hints only affect read-ahead and eviction policy — never
/// results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advice {
    /// Expect sequential passes (aggressive read-ahead, eager eviction
    /// behind the cursor) — scan-shaped sections such as row matrices.
    Sequential,
    /// Expect random access (disable read-ahead) — pointer-chasing
    /// structures such as serialized graphs.
    Random,
    /// Expect imminent access (prefault pages now).
    WillNeed,
}

impl Advice {
    fn raw(self) -> usize {
        match self {
            Advice::Sequential => sys::MADV_SEQUENTIAL,
            Advice::Random => sys::MADV_RANDOM,
            Advice::WillNeed => sys::MADV_WILLNEED,
        }
    }
}

/// Page size assumed when rounding `madvise` ranges. 4 KiB is the base
/// page size on both shim targets; a larger real page size only makes the
/// rounded range cover more than asked, which is safe for hints.
const PAGE_SIZE: usize = 4096;

/// An owned read-only memory mapping, unmapped on drop.
pub(crate) struct Mmap {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the mapping is read-only for its entire lifetime; concurrent
// reads from any thread are as safe as reads of an `&[u8]`.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Maps the whole of `file` (`len` bytes). `Ok(None)` when the
    /// platform has no mapping shim.
    pub(crate) fn map(file: &std::fs::File, len: usize) -> std::io::Result<Option<Mmap>> {
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty mapping has no rows anyway.
            return Ok(None);
        }
        Ok(sys::map_file(file, len)?.map(|ptr| Mmap { ptr, len }))
    }

    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` points at a live `len`-byte read-only mapping that
        // outlives this borrow (it is unmapped only in `drop`).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Hints the kernel about the access pattern of `[offset, offset+len)`
    /// within this mapping. The range is widened to page boundaries
    /// (`madvise` requires a page-aligned start); out-of-range requests
    /// are clamped. Advisory only — never fails, never changes contents.
    pub(crate) fn advise(&self, offset: usize, len: usize, advice: Advice) {
        if offset >= self.len || len == 0 {
            return;
        }
        let start = offset - (offset % PAGE_SIZE);
        let end = (offset + len).min(self.len);
        sys::advise(self.ptr as usize + start, end - start, advice.raw());
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

// ---------------------------------------------------------------------------
// File formats
// ---------------------------------------------------------------------------

/// The three TEXMEX payload element types, detected from the file
/// extension (see the [`crate::io`] format diagram).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VecFormat {
    /// `.fvecs`: `f32` components — the vector format proper.
    F32,
    /// `.bvecs`: `u8` components, widened to `f32` as they are read.
    U8,
    /// `.ivecs`: `u32` ids (ground truth), not vectors.
    U32,
}

impl VecFormat {
    /// Detects the format from a path's extension.
    ///
    /// # Errors
    /// [`VecsError::Format`] for anything but `.fvecs`/`.bvecs`/`.ivecs`.
    pub fn from_path(path: &Path) -> Result<VecFormat> {
        match path.extension().and_then(|e| e.to_str()) {
            Some("fvecs") => Ok(VecFormat::F32),
            Some("bvecs") => Ok(VecFormat::U8),
            Some("ivecs") => Ok(VecFormat::U32),
            other => Err(VecsError::Format(format!(
                "`{}`: unknown vector-file extension {other:?} (expected .fvecs/.bvecs/.ivecs)",
                path.display()
            ))),
        }
    }
}

fn corrupt_at(path: &Path, offset: u64, detail: impl Into<String>) -> VecsError {
    VecsError::File {
        path: path.to_path_buf(),
        offset,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// MmapVecs
// ---------------------------------------------------------------------------

/// A memory-mapped `.fvecs` file: rows served zero-copy out of the page
/// cache, never copied onto the heap.
///
/// Opening validates the framing invariants that make fixed-stride
/// addressing sound — first and last row headers, plausibility of the
/// dimension, and that the file size is an exact multiple of the row
/// stride — and attaches path + byte offset to anything it rejects.
/// Interior headers are validated on demand ([`MmapVecs::verify`]), not
/// at open: touching every page of a 500 MB file up front would defeat
/// lazy loading.
#[derive(Debug)]
pub struct MmapVecs {
    map: Mmap,
    path: PathBuf,
    dim: usize,
    len: usize,
    stride: usize,
}

impl MmapVecs {
    /// Maps the `.fvecs` file `path` whole. `Ok(None)` when the platform
    /// cannot map (the caller then falls back to streaming); `Err` when the
    /// file is not `.fvecs`, missing, empty, or structurally invalid.
    ///
    /// # Errors
    /// Other extensions, open/metadata failures and framing violations,
    /// with path + offset.
    pub fn open(path: impl AsRef<Path>) -> Result<Option<MmapVecs>> {
        MmapVecs::open_limit(path, None)
    }

    /// [`MmapVecs::open`] serving at most `limit` rows (the whole file is
    /// still mapped and validated; only the row count is capped).
    ///
    /// # Errors
    /// Same contract as [`MmapVecs::open`].
    pub fn open_limit(path: impl AsRef<Path>, limit: Option<usize>) -> Result<Option<MmapVecs>> {
        let path = path.as_ref();
        if VecFormat::from_path(path)? != VecFormat::F32 {
            return Err(VecsError::Format(format!(
                "`{}`: only .fvecs files map (read .bvecs with io::read_bvecs, \
                 .ivecs with io::read_ivecs)",
                path.display()
            )));
        }
        let file = crate::io::open_for_read(path)?;
        let size = file
            .metadata()
            .map_err(|e| corrupt_at(path, 0, format!("metadata: {e}")))?
            .len() as usize;
        if size == 0 {
            return Err(VecsError::Empty("mapped vector file"));
        }
        if size < 4 {
            return Err(corrupt_at(path, 0, "file too small for a row header"));
        }
        let Some(map) = Mmap::map(&file, size).map_err(VecsError::Io)? else {
            return Ok(None);
        };
        let bytes = map.bytes();
        let dim = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
        if dim == 0 || dim > MAX_PLAUSIBLE_DIM {
            return Err(corrupt_at(
                path,
                0,
                format!("implausible row dimension {dim}"),
            ));
        }
        let stride = 4 + 4 * dim;
        if !size.is_multiple_of(stride) {
            let full_rows = size / stride;
            return Err(corrupt_at(
                path,
                (full_rows * stride) as u64,
                format!(
                    "file size {size} is not a multiple of the {stride}-byte row \
                     stride (dim {dim}): truncated or corrupt"
                ),
            ));
        }
        let rows = size / stride;
        // Cheap last-row check: catches files whose tail is garbage of a
        // coincidentally-divisible length, without touching every page.
        let last_off = (rows - 1) * stride;
        let last_dim =
            u32::from_le_bytes(bytes[last_off..last_off + 4].try_into().expect("4 bytes")) as usize;
        if last_dim != dim {
            return Err(corrupt_at(
                path,
                last_off as u64,
                format!("last row claims dimension {last_dim}, first row {dim}"),
            ));
        }
        let len = limit.map_or(rows, |l| l.min(rows));
        Ok(Some(MmapVecs {
            map,
            path: path.to_path_buf(),
            dim,
            len,
            stride,
        }))
    }

    /// Dimensionality of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows served (after any open-time limit).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no rows are served.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes mapped (the file size — *virtual*, not resident).
    pub fn mapped_bytes(&self) -> usize {
        self.map.len
    }

    /// Zero-copy `f32` view of row `i`.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn row_f32(&self, i: usize) -> &[f32] {
        assert!(i < self.len, "row {i} out of bounds ({} rows)", self.len);
        let start = i * self.stride + 4;
        let bytes = &self.map.bytes()[start..start + 4 * self.dim];
        debug_assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<f32>()), 0);
        // SAFETY: the payload is `dim` little-endian f32s on a
        // little-endian target (the shim is gated on that); the pointer is
        // 4-aligned because the mapping is page-aligned and every payload
        // offset `i·(4 + 4·dim) + 4` is a multiple of 4; the borrow is
        // tied to `&self`, which owns the mapping.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), self.dim) }
    }

    /// Audits every interior row header against the first row's dimension
    /// — the full-file integrity pass that open deliberately skips.
    /// Sequential, touches every page once.
    ///
    /// # Errors
    /// [`VecsError::File`] naming the first offending row's byte offset.
    pub fn verify(&self) -> Result<()> {
        let bytes = self.map.bytes();
        for i in 0..self.map.len / self.stride {
            let off = i * self.stride;
            let d = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            if d != self.dim {
                return Err(corrupt_at(
                    &self.path,
                    off as u64,
                    format!("row {i} claims dimension {d}, expected {}", self.dim),
                ));
            }
        }
        Ok(())
    }
}

impl RowAccess for MmapVecs {
    fn len(&self) -> usize {
        self.len
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn row(&self, i: usize) -> &[f32] {
        self.row_f32(i)
    }
}

// ---------------------------------------------------------------------------
// VecStore
// ---------------------------------------------------------------------------

/// A vector dataset behind one of two storage backends: resident heap
/// rows ([`VecSet`]) or a zero-copy memory map ([`MmapVecs`]).
///
/// Every builder (`DcoSpec::build_rows`, `IndexSpec::build_rows`,
/// `Engine::build`) takes it as a [`RowAccess`] row source beside a
/// [`VecSet`], `ddc-serve --data` opens one, and the parity suite pins
/// that the backend choice never changes a single result bit.
#[derive(Debug)]
pub enum VecStore {
    /// Fully resident rows.
    Ram(VecSet),
    /// Rows served from a mapped `.fvecs` file.
    Mmap(MmapVecs),
}

impl From<VecSet> for VecStore {
    fn from(set: VecSet) -> VecStore {
        VecStore::Ram(set)
    }
}

impl VecStore {
    /// Opens a vector file with the best available backend: `.fvecs` maps
    /// zero-copy (falling back to a buffered streaming load where mapping
    /// is unavailable); `.bvecs` streams into RAM through
    /// [`crate::io::read_bvecs`], widening `u8 → f32` (widening cannot be
    /// zero-copy).
    ///
    /// # Errors
    /// Unknown extensions (including `.ivecs`, which holds ids — read it
    /// with [`crate::io::read_ivecs`]), and open/framing failures with
    /// path + offset attached.
    pub fn open(path: impl AsRef<Path>) -> Result<VecStore> {
        VecStore::open_limit(path, None)
    }

    /// [`VecStore::open`] serving at most `limit` rows.
    ///
    /// # Errors
    /// Same contract as [`VecStore::open`].
    pub fn open_limit(path: impl AsRef<Path>, limit: Option<usize>) -> Result<VecStore> {
        let path = path.as_ref();
        match VecFormat::from_path(path)? {
            VecFormat::F32 => match MmapVecs::open_limit(path, limit) {
                Ok(Some(map)) => Ok(VecStore::Mmap(map)),
                Ok(None) => Ok(VecStore::Ram(crate::io::read_fvecs(path, limit)?)),
                // The map syscall itself failed (ENODEV on some FUSE and
                // network mounts, ENOMEM under pressure): that is the
                // documented automatic-fallback case, not corruption —
                // stream the file into RAM instead. Structural errors
                // (bad framing, empty file) still propagate.
                Err(VecsError::Io(_)) => Ok(VecStore::Ram(crate::io::read_fvecs(path, limit)?)),
                Err(e) => Err(e),
            },
            VecFormat::U8 => Ok(VecStore::Ram(crate::io::read_bvecs(path, limit)?)),
            VecFormat::U32 => Err(VecsError::Format(format!(
                "`{}` holds ids, not vectors: read it with io::read_ivecs",
                path.display()
            ))),
        }
    }

    /// Opens the base file of fixture `name` under `DDC_DATA_DIR` with the
    /// best available backend, falling back to `synth` when the fixture is
    /// absent (`ddc-serve --data sift1m` goes through this, so a mapped
    /// SIFT1M serves without ever being loaded).
    ///
    /// # Errors
    /// Open/framing failures on a *resolved* fixture; a missing fixture is
    /// not an error.
    pub fn open_fixture_or<F: FnOnce() -> VecSet>(
        name: &str,
        limit: Option<usize>,
        synth: F,
    ) -> Result<VecStore> {
        match crate::io::resolve_fixture(name) {
            Some(fix) => VecStore::open_limit(fix.base, limit),
            None => Ok(VecStore::Ram(synth())),
        }
    }

    /// Dimensionality of every row.
    pub fn dim(&self) -> usize {
        match self {
            VecStore::Ram(s) => s.dim(),
            VecStore::Mmap(m) => m.dim(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            VecStore::Ram(s) => s.len(),
            VecStore::Mmap(m) => m.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow row `i` (zero-copy on both backends).
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        match self {
            VecStore::Ram(s) => s.get(i),
            VecStore::Mmap(m) => m.row_f32(i),
        }
    }

    /// Backend tag for logs and stats: `"ram"` or `"mmap"`.
    pub fn backend(&self) -> &'static str {
        match self {
            VecStore::Ram(_) => "ram",
            VecStore::Mmap(_) => "mmap",
        }
    }

    /// The source file, when the store came from one.
    pub fn source_path(&self) -> Option<&Path> {
        match self {
            VecStore::Ram(_) => None,
            VecStore::Mmap(m) => Some(m.path()),
        }
    }

    /// Heap bytes this store holds for vector data. The mapped backend
    /// answers **0** — that asymmetry is the whole point, and what
    /// `/stats` reports as `storage_resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        match self {
            VecStore::Ram(s) => std::mem::size_of_val(s.as_flat()),
            VecStore::Mmap(_) => 0,
        }
    }

    /// Bytes of address space mapped for vector data (0 for RAM).
    pub fn mapped_bytes(&self) -> usize {
        match self {
            VecStore::Ram(_) => 0,
            VecStore::Mmap(m) => m.mapped_bytes(),
        }
    }

    /// Borrow the resident [`VecSet`] when this is the RAM backend.
    pub fn as_vecset(&self) -> Option<&VecSet> {
        match self {
            VecStore::Ram(s) => Some(s),
            VecStore::Mmap(_) => None,
        }
    }
}

impl RowAccess for VecStore {
    fn len(&self) -> usize {
        VecStore::len(self)
    }

    fn dim(&self) -> usize {
        VecStore::dim(self)
    }

    fn row(&self, i: usize) -> &[f32] {
        VecStore::row(self, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{write_bvecs, write_fvecs};

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ddc-store-test-{}-{name}", std::process::id()));
        p
    }

    fn sample(n: usize, dim: usize) -> VecSet {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dim).map(|j| (i * dim + j) as f32 * 0.5 - 3.0).collect())
            .collect();
        VecSet::from_rows(dim, &rows).unwrap()
    }

    #[test]
    fn mmap_serves_rows_zero_copy() {
        let set = sample(17, 6);
        let p = tmp("zero-copy.fvecs");
        write_fvecs(&p, &set).unwrap();
        let store = VecStore::open(&p).unwrap();
        assert_eq!(store.len(), 17);
        assert_eq!(store.dim(), 6);
        for i in 0..17 {
            assert_eq!(store.row(i), set.get(i), "row {i}");
        }
        if mmap_supported() {
            assert_eq!(store.backend(), "mmap");
            assert_eq!(store.resident_bytes(), 0);
            assert_eq!(store.mapped_bytes(), 17 * (4 + 6 * 4));
            assert_eq!(store.source_path().unwrap(), p.as_path());
            let VecStore::Mmap(ref m) = store else {
                panic!("expected mmap backend")
            };
            m.verify().unwrap();
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn open_limit_caps_rows() {
        let set = sample(10, 3);
        let p = tmp("limit.fvecs");
        write_fvecs(&p, &set).unwrap();
        let store = VecStore::open_limit(&p, Some(4)).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.row(3), set.get(3));
        // Limit above the row count is a no-op.
        assert_eq!(VecStore::open_limit(&p, Some(99)).unwrap().len(), 10);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn bvecs_store_widens_into_ram() {
        let set = VecSet::from_rows(2, &[vec![0.0, 255.0], vec![7.0, 3.0]]).unwrap();
        let p = tmp("widen.bvecs");
        write_bvecs(&p, &set).unwrap();
        let store = VecStore::open(&p).unwrap();
        assert_eq!(store.as_vecset(), Some(&set));
        assert!(MmapVecs::open(&p).is_err(), "only .fvecs maps");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ivecs_store_is_rejected_with_guidance() {
        let p = tmp("ids.ivecs");
        crate::io::write_ivecs(&p, &[vec![1u32, 2, 3]]).unwrap();
        let err = VecStore::open(&p).unwrap_err().to_string();
        assert!(err.contains("read_ivecs"), "{err}");
        let err = MmapVecs::open(&p).unwrap_err().to_string();
        assert!(err.contains("read_ivecs"), "{err}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mmap_rejects_truncated_and_corrupt_headers() {
        let set = sample(5, 4);
        let p = tmp("corrupt.fvecs");
        write_fvecs(&p, &set).unwrap();
        if !mmap_supported() {
            return;
        }

        // Truncation: size stops being a stride multiple.
        let good = std::fs::read(&p).unwrap();
        std::fs::write(&p, &good[..good.len() - 5]).unwrap();
        let err = MmapVecs::open(&p).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("stride"), "{err}");

        // Zero-dim first header.
        let mut zero = good.clone();
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&p, &zero).unwrap();
        let err = MmapVecs::open(&p).unwrap_err().to_string();
        assert!(err.contains("implausible"), "{err}");

        // Corrupt interior header: open passes (lazy), verify pins it.
        let mut interior = good.clone();
        let stride = 4 + 4 * 4;
        interior[2 * stride..2 * stride + 4].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&p, &interior).unwrap();
        let m = MmapVecs::open(&p).unwrap().unwrap();
        let err = m.verify().unwrap_err();
        let VecsError::File { offset, .. } = &err else {
            panic!("wrong variant: {err}")
        };
        assert_eq!(*offset, 2 * stride as u64);

        // Corrupt last header is caught at open.
        let mut tail = good.clone();
        let last = 4 * stride;
        tail[last..last + 4].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&p, &tail).unwrap();
        assert!(MmapVecs::open(&p).is_err());

        // Empty file.
        std::fs::write(&p, []).unwrap();
        assert!(matches!(MmapVecs::open(&p), Err(VecsError::Empty(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn row_access_trait_is_uniform_across_backends() {
        let set = sample(9, 4);
        let p = tmp("trait.fvecs");
        write_fvecs(&p, &set).unwrap();
        let store = VecStore::open(&p).unwrap();
        let a: &dyn RowAccess = &set;
        let b: &dyn RowAccess = &store;
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        for i in 0..a.len() {
            assert_eq!(a.row(i), b.row(i));
        }
        std::fs::remove_file(&p).ok();
    }
}
