//! Row storage: one matrix type, [`SharedRows`], whose rows are either
//! heap-resident or served zero-copy out of a read-only file mapping.
//!
//! # One type, two arms
//!
//! * [`SharedRows::Owned`] — a heap [`VecSet`]: freshly built operators,
//!   `.bvecs` files (widened `u8 → f32`), and anything opened where the
//!   mapping shim is unavailable.
//! * [`SharedRows::Mapped`] — a [`MappedRows`] view over a shared mapping:
//!   rows are slices at `offset + i·stride` of the file image, so opening
//!   is O(1) in heap terms and pages fault in lazily as readers touch
//!   rows. Two files map this way, with different framing:
//!
//!   | source | offset of row 0 | stride | backend |
//!   |---|---|---|---|
//!   | `.fvecs` file ([`SharedRows::open`]) | 4 | `4 + 4·dim` | `"mmap"` |
//!   | snapshot `rows` section ([`crate::Snapshot::section_rows`]) | section start | `4·dim` | `"snapshot"` |
//!
//! Both arms implement [`RowAccess`], which every index/operator build
//! path in the workspace consumes — so an engine built over a mapped file
//! is produced by the *same loop* as a RAM-built one and is bit-identical
//! to it (pinned by `crates/engine/tests/parity.rs`), and a
//! snapshot-opened operator compares against its rows through the same
//! [`SharedRows::get`] as a freshly built one.
//!
//! # What maps
//!
//! Only `.fvecs` maps: its payload already is the `f32` rows the stack
//! reads. `.bvecs` payloads are `u8` and must be widened, so
//! [`SharedRows::open`] streams them into RAM through
//! [`crate::io::read_bvecs`] (4× the file size); `.ivecs` files hold ids,
//! not vectors, and go through [`crate::io::read_ivecs`]. Where the
//! mapping shim is unavailable, or the `mmap` call itself fails,
//! [`SharedRows::open`] falls back to a buffered streaming load of the
//! `.fvecs` file.
//!
//! # Safety of the mapped arm
//!
//! The map is created read-only and private, and unmapped when the last
//! view over it drops; every `&[f32]` handed out borrows the rows, so
//! Rust's lifetimes keep slices from outliving the mapping. What the type
//! system cannot prevent is another process truncating the file while it
//! is mapped — accessing pages past the new end then raises `SIGBUS`, the
//! standard caveat of every mmap consumer. Treat dataset files as
//! immutable while they are open. A view's geometry is checked once, with
//! checked arithmetic, when it is made (every row lies inside the file);
//! a vector file's first and last row headers and its size are validated
//! at open, and [`SharedRows::verify`] audits every interior header. Reads
//! stay memory-safe even if interior headers are corrupt, because row
//! offsets come from the validated stride, never from file contents.
//!
//! ```
//! use ddc_vecs::{io, SharedRows, VecSet};
//!
//! let mut path = std::env::temp_dir();
//! path.push(format!("ddc-store-doc-{}.fvecs", std::process::id()));
//! let set = VecSet::from_rows(2, &[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
//! io::write_fvecs(&path, &set).unwrap();
//!
//! let rows = SharedRows::open(&path).unwrap();
//! assert_eq!((rows.len(), rows.dim()), (3, 2));
//! assert_eq!(rows.get(1), &[3.0, 4.0]);
//! // The mapped arm holds no heap copy of the vectors:
//! if rows.backend() == "mmap" {
//!     assert_eq!(rows.resident_bytes(), 0);
//!     assert!(rows.mapped_bytes() > 0);
//! }
//! std::fs::remove_file(&path).ok();
//! ```

use crate::io::MAX_PLAUSIBLE_DIM;
use crate::vecset::VecSet;
use crate::{Result, VecsError};
use ddc_linalg::RowAccess;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Arc;

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

/// True when this build can memory-map files (otherwise [`SharedRows::open`]
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

/// Heap fallback for platforms without the mapping shim: the file is read
/// into a `u64`-backed buffer so the base pointer is 8-byte aligned —
/// a plain `Vec<u8>` only guarantees alignment 1, which would make the
/// zero-copy `&[f32]` row casts unsound.
pub(crate) struct AlignedBytes {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBytes {
    pub(crate) fn read_from(file: &mut std::fs::File, len: usize) -> std::io::Result<AlignedBytes> {
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: the `u64` buffer is a valid writable byte region of at
        // least `len` bytes; u64 has no invalid bit patterns.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        file.read_exact(&mut bytes[..len])?;
        Ok(AlignedBytes { words, len })
    }

    fn bytes(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Where a file image lives: a read-only mapping, or (snapshots on
/// platforms without the shim) an aligned heap copy.
pub(crate) enum Backing {
    Mapped(Mmap),
    Heap(AlignedBytes),
}

/// The whole image of one read-only file, shared (behind an `Arc`) by the
/// container that opened it and every row view over it.
pub(crate) struct FileBytes {
    pub(crate) backing: Backing,
    pub(crate) path: PathBuf,
}

impl std::fmt::Debug for FileBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileBytes")
            .field("path", &self.path)
            .finish()
    }
}

impl FileBytes {
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.backing {
            Backing::Mapped(m) => m.bytes(),
            Backing::Heap(h) => h.bytes(),
        }
    }

    /// Bytes of address space mapped (0 for the heap fallback).
    pub(crate) fn mapped_bytes(&self) -> usize {
        match &self.backing {
            Backing::Mapped(m) => m.len,
            Backing::Heap(_) => 0,
        }
    }
}

pub(crate) fn corrupt_at(path: &Path, offset: u64, detail: impl Into<String>) -> VecsError {
    VecsError::File {
        path: path.to_path_buf(),
        offset,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// SharedRows
// ---------------------------------------------------------------------------

/// A row matrix that is either heap-owned or served zero-copy out of a
/// shared file mapping — the storage behind every operator's working set
/// and every input a build reads, through one interface.
///
/// Every builder (`DcoSpec::build_rows`, `IndexSpec::build_rows`,
/// `Engine::build`) takes it as a [`RowAccess`] row source, `ddc-serve
/// --data` opens one, and the parity suite pins that the arm never
/// changes a single result bit.
#[derive(Debug, Clone)]
pub enum SharedRows {
    /// Heap-resident rows.
    Owned(VecSet),
    /// Rows served out of a mapped `.fvecs` file or snapshot section.
    Mapped(MappedRows),
}

/// The mapped arm of [`SharedRows`]: a shared file image plus the byte
/// offset of row 0, the row stride, and the matrix shape. Row `i` is the
/// `4·dim` bytes at `offset + i·stride`. Cloning shares the mapping.
#[derive(Debug, Clone)]
pub struct MappedRows {
    file: Arc<FileBytes>,
    offset: usize,
    stride: usize,
    rows: usize,
    dim: usize,
}

impl MappedRows {
    /// Frames the `len` bytes at `start` of `file` as whole rows of `dim`
    /// `f32`s, each behind a `header`-byte prefix (4 for a vector file's
    /// count word, 0 for a snapshot section). `None` when `dim` is 0, the
    /// stride overflows, `len` is not a whole number of rows, the span
    /// leaves the file, or `start` or `header` is not a multiple of 4 — so
    /// every row a view serves is an aligned `f32` slice inside the file.
    pub(crate) fn new(
        file: Arc<FileBytes>,
        start: usize,
        len: usize,
        header: usize,
        dim: usize,
    ) -> Option<MappedRows> {
        let stride = dim.checked_mul(4)?.checked_add(header)?;
        let aligned = start.is_multiple_of(4) && header.is_multiple_of(4);
        if dim == 0 || !aligned || !len.is_multiple_of(stride) {
            return None;
        }
        if start.checked_add(len)? > file.bytes().len() {
            return None;
        }
        Some(MappedRows {
            file,
            offset: start + header,
            stride,
            rows: len / stride,
            dim,
        })
    }

    /// Bytes in front of each row: a vector file's count word, none in a
    /// snapshot section.
    fn header(&self) -> usize {
        self.stride - 4 * self.dim
    }

    #[inline]
    fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of bounds ({} rows)", self.rows);
        let start = self.offset + i * self.stride;
        let bytes = &self.file.bytes()[start..start + 4 * self.dim];
        debug_assert_eq!(bytes.as_ptr().align_offset(std::mem::align_of::<f32>()), 0);
        // SAFETY: the payload is `dim` little-endian f32s on a
        // little-endian host (the shim and `Snapshot::open` are gated on
        // that); the pointer is 4-aligned because both backings start
        // 8+-aligned and `MappedRows::new` only makes views whose
        // `offset` and `stride` are multiples of 4; the slice above is
        // bounds-checked; the borrow is tied to `&self`, which keeps the
        // `Arc`'d image alive.
        unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), self.dim) }
    }
}

impl From<VecSet> for SharedRows {
    fn from(set: VecSet) -> SharedRows {
        SharedRows::Owned(set)
    }
}

impl SharedRows {
    /// Opens a vector file: `.fvecs` maps zero-copy (falling back to a
    /// buffered streaming load where mapping is unavailable or the `mmap`
    /// call fails); `.bvecs` streams into RAM through
    /// [`crate::io::read_bvecs`], widening `u8 → f32` (widening cannot be
    /// zero-copy).
    ///
    /// Opening validates the framing that makes fixed-stride addressing
    /// sound — first and last row headers, plausibility of the dimension,
    /// and that the file size is an exact multiple of the row stride —
    /// and attaches path + byte offset to anything it rejects. Interior
    /// headers are audited on demand ([`SharedRows::verify`]), not at
    /// open: touching every page of a 500 MB file up front would defeat
    /// lazy loading.
    ///
    /// # Errors
    /// Unknown extensions (including `.ivecs`, which holds ids — read it
    /// with [`crate::io::read_ivecs`]), empty files, and open/framing
    /// failures with path + offset attached.
    pub fn open(path: impl AsRef<Path>) -> Result<SharedRows> {
        SharedRows::open_limit(path, None)
    }

    /// [`SharedRows::open`] serving at most `limit` rows (a mapped file is
    /// still mapped and validated whole; only the row count is capped).
    ///
    /// # Errors
    /// Same contract as [`SharedRows::open`]; `Some(0)` is
    /// [`VecsError::Empty`] on every backend, like an empty file.
    pub fn open_limit(path: impl AsRef<Path>, limit: Option<usize>) -> Result<SharedRows> {
        let path = path.as_ref();
        match path.extension().and_then(|e| e.to_str()) {
            Some("fvecs" | "bvecs") if limit == Some(0) => {
                Err(VecsError::Empty("vector file opened with limit 0"))
            }
            Some("fvecs") => match map_fvecs(path) {
                Ok(Some(mut rows)) => {
                    rows.rows = limit.map_or(rows.rows, |l| l.min(rows.rows));
                    Ok(SharedRows::Mapped(rows))
                }
                // No shim, or the map syscall itself failed (ENODEV on
                // some FUSE and network mounts, ENOMEM under pressure):
                // that is the documented automatic-fallback case, not
                // corruption — stream the file into RAM instead.
                // Structural errors (bad framing, empty file) propagate.
                Ok(None) | Err(VecsError::Io(_)) => {
                    Ok(SharedRows::Owned(crate::io::read_fvecs(path, limit)?))
                }
                Err(e) => Err(e),
            },
            Some("bvecs") => Ok(SharedRows::Owned(crate::io::read_bvecs(path, limit)?)),
            Some("ivecs") => Err(VecsError::Format(format!(
                "`{}` holds ids, not vectors: read it with io::read_ivecs",
                path.display()
            ))),
            other => Err(VecsError::Format(format!(
                "`{}`: unknown vector-file extension {other:?} (expected .fvecs/.bvecs)",
                path.display()
            ))),
        }
    }

    /// Opens the base file of fixture `name` under `DDC_DATA_DIR`
    /// ([`SharedRows::open_limit`]), falling back to `synth` when the
    /// fixture is absent (`ddc-serve --data sift1m` goes through this, so
    /// a mapped SIFT1M serves without ever being loaded).
    ///
    /// # Errors
    /// Open/framing failures on a *resolved* fixture; a missing fixture is
    /// not an error.
    pub fn open_fixture_or<F: FnOnce() -> VecSet>(
        name: &str,
        limit: Option<usize>,
        synth: F,
    ) -> Result<SharedRows> {
        match crate::io::resolve_fixture(name) {
            Some(fix) => SharedRows::open_limit(fix.base, limit),
            None => Ok(SharedRows::Owned(synth())),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SharedRows::Owned(s) => s.len(),
            SharedRows::Mapped(m) => m.rows,
        }
    }

    /// True when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        match self {
            SharedRows::Owned(s) => s.dim(),
            SharedRows::Mapped(m) => m.dim,
        }
    }

    /// Borrows row `i` (zero-copy on both arms).
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> &[f32] {
        match self {
            SharedRows::Owned(s) => s.get(i),
            SharedRows::Mapped(m) => m.row(i),
        }
    }

    /// A heap-resident copy of the matrix: the owned arm is cloned in one
    /// piece, a mapped view copied row by row.
    pub fn to_vecset(&self) -> VecSet {
        match self {
            SharedRows::Owned(s) => s.clone(),
            SharedRows::Mapped(m) => {
                let mut flat = Vec::with_capacity(m.rows * m.dim);
                for i in 0..m.rows {
                    flat.extend_from_slice(m.row(i));
                }
                VecSet::from_flat(m.dim, flat).expect("a mapped view has dim > 0")
            }
        }
    }

    /// Backend tag for logs and stats: `"ram"`, `"mmap"` for a mapped
    /// vector file, `"snapshot"` for a snapshot section.
    pub fn backend(&self) -> &'static str {
        match self {
            SharedRows::Owned(_) => "ram",
            SharedRows::Mapped(m) if m.header() > 0 => "mmap",
            SharedRows::Mapped(_) => "snapshot",
        }
    }

    /// The file the rows are served from; `None` when resident.
    pub fn source_path(&self) -> Option<&Path> {
        match self {
            SharedRows::Owned(_) => None,
            SharedRows::Mapped(m) => Some(&m.file.path),
        }
    }

    /// Heap bytes held for row data. The mapped arm answers **0** — that
    /// asymmetry is the whole point, and what `/stats` reports as
    /// `storage_resident_bytes`.
    pub fn resident_bytes(&self) -> usize {
        match self {
            SharedRows::Owned(s) => std::mem::size_of_val(s.as_flat()),
            SharedRows::Mapped(_) => 0,
        }
    }

    /// Bytes of address space mapped behind the rows — the whole file,
    /// *virtual*, not resident (0 when resident).
    pub fn mapped_bytes(&self) -> usize {
        match self {
            SharedRows::Owned(_) => 0,
            SharedRows::Mapped(m) => m.file.mapped_bytes(),
        }
    }

    /// Audits every served row header of a mapped vector file against its
    /// dimension — the full integrity pass that open deliberately skips.
    /// Sequential, touches every page once. Resident rows and snapshot
    /// sections carry no headers (a container's checksums are
    /// [`crate::Snapshot::verify`]'s to audit).
    ///
    /// # Errors
    /// [`VecsError::File`] naming the first offending row's byte offset.
    pub fn verify(&self) -> Result<()> {
        let SharedRows::Mapped(m) = self else {
            return Ok(());
        };
        if m.header() == 0 {
            return Ok(());
        }
        let bytes = m.file.bytes();
        for i in 0..m.rows {
            let off = m.offset - 4 + i * m.stride;
            let d = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
            if d != m.dim {
                return Err(corrupt_at(
                    &m.file.path,
                    off as u64,
                    format!("row {i} claims dimension {d}, expected {}", m.dim),
                ));
            }
        }
        Ok(())
    }

    /// Appends one row in place. Only the heap-resident arm can grow; a
    /// mapped file is immutable, so the live-mutation path requires owned
    /// rows (snapshot-booted engines reject appends with this error).
    ///
    /// # Errors
    /// [`VecsError::Dimension`] on a row-width mismatch,
    /// [`VecsError::Format`] on the mapped arm.
    pub fn push(&mut self, row: &[f32]) -> Result<()> {
        match self {
            SharedRows::Owned(s) => s.push(row),
            SharedRows::Mapped(_) => Err(VecsError::Format(
                "mapped rows are immutable and cannot grow".into(),
            )),
        }
    }

    /// Removes every row whose `dead` flag is set, in place and order
    /// preserving ([`VecSet::remove_rows`]). Like [`SharedRows::push`],
    /// only the heap-resident arm can change.
    ///
    /// # Errors
    /// [`VecsError::Format`] on the mapped arm or when the mask does not
    /// cover exactly the stored rows.
    pub fn remove_rows(&mut self, dead: &[bool]) -> Result<()> {
        if dead.len() != self.len() {
            return Err(VecsError::Format(format!(
                "removal mask covers {} rows, {} are stored",
                dead.len(),
                self.len()
            )));
        }
        match self {
            SharedRows::Owned(s) => {
                s.remove_rows(dead);
                Ok(())
            }
            SharedRows::Mapped(_) => Err(VecsError::Format(
                "mapped rows are immutable and cannot shrink".into(),
            )),
        }
    }
}

impl RowAccess for SharedRows {
    fn len(&self) -> usize {
        SharedRows::len(self)
    }

    fn dim(&self) -> usize {
        SharedRows::dim(self)
    }

    fn row(&self, i: usize) -> &[f32] {
        self.get(i)
    }
}

/// Maps the `.fvecs` file `path` whole and frames it. `Ok(None)` when the
/// platform cannot map; `Err(VecsError::Io)` when the `mmap` call fails.
fn map_fvecs(path: &Path) -> Result<Option<MappedRows>> {
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
    let header_at = |off: usize| {
        u32::from_le_bytes(map.bytes()[off..off + 4].try_into().expect("4 bytes")) as usize
    };
    let dim = header_at(0);
    if dim == 0 || dim > MAX_PLAUSIBLE_DIM {
        return Err(corrupt_at(
            path,
            0,
            format!("implausible row dimension {dim}"),
        ));
    }
    let stride = 4 + 4 * dim;
    if !size.is_multiple_of(stride) {
        return Err(corrupt_at(
            path,
            (size / stride * stride) as u64,
            format!(
                "file size {size} is not a multiple of the {stride}-byte row \
                 stride (dim {dim}): truncated or corrupt"
            ),
        ));
    }
    // Cheap last-row check: catches files whose tail is garbage of a
    // coincidentally-divisible length, without touching every page.
    let last_off = size - stride;
    let last_dim = header_at(last_off);
    if last_dim != dim {
        return Err(corrupt_at(
            path,
            last_off as u64,
            format!("last row claims dimension {last_dim}, first row {dim}"),
        ));
    }
    let file = Arc::new(FileBytes {
        backing: Backing::Mapped(map),
        path: path.to_path_buf(),
    });
    Ok(Some(
        MappedRows::new(file, 0, size, 4, dim).expect("size is a whole number of rows"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{read_bvecs, read_fvecs, write_bvecs, write_fvecs};

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
        let rows = SharedRows::open(&p).unwrap();
        assert_eq!(rows.len(), 17);
        assert_eq!(rows.dim(), 6);
        for i in 0..17 {
            assert_eq!(rows.get(i), set.get(i), "row {i}");
        }
        assert_eq!(rows.to_vecset(), set);
        if mmap_supported() {
            assert_eq!(rows.backend(), "mmap");
            assert_eq!(rows.resident_bytes(), 0);
            assert_eq!(rows.mapped_bytes(), 17 * (4 + 6 * 4));
            assert_eq!(rows.source_path().unwrap(), p.as_path());
            rows.verify().unwrap();
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn open_limit_caps_rows() {
        let set = sample(10, 3);
        let p = tmp("limit.fvecs");
        write_fvecs(&p, &set).unwrap();
        let rows = SharedRows::open_limit(&p, Some(4)).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows.get(3), set.get(3));
        // Limit above the row count is a no-op.
        assert_eq!(SharedRows::open_limit(&p, Some(99)).unwrap().len(), 10);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn open_limit_zero_is_empty_on_every_path() {
        // The mapped open and the streaming readers it falls back to give
        // the one answer an empty file gets.
        let set = sample(5, 3);
        let p = tmp("limit-zero.fvecs");
        write_fvecs(&p, &set).unwrap();
        assert!(matches!(
            SharedRows::open_limit(&p, Some(0)),
            Err(VecsError::Empty(_))
        ));
        assert!(matches!(read_fvecs(&p, Some(0)), Err(VecsError::Empty(_))));
        let b = tmp("limit-zero.bvecs");
        write_bvecs(&b, &set).unwrap();
        assert!(matches!(
            SharedRows::open_limit(&b, Some(0)),
            Err(VecsError::Empty(_))
        ));
        assert!(matches!(read_bvecs(&b, Some(0)), Err(VecsError::Empty(_))));
        std::fs::remove_file(&p).ok();
        std::fs::remove_file(&b).ok();
    }

    #[test]
    fn bvecs_store_widens_into_ram() {
        let set = VecSet::from_rows(2, &[vec![0.0, 255.0], vec![7.0, 3.0]]).unwrap();
        let p = tmp("widen.bvecs");
        write_bvecs(&p, &set).unwrap();
        let rows = SharedRows::open(&p).unwrap();
        assert!(
            matches!(&rows, SharedRows::Owned(s) if *s == set),
            "only .fvecs maps"
        );
        assert_eq!(rows.backend(), "ram");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn ivecs_store_is_rejected_with_guidance() {
        let p = tmp("ids.ivecs");
        crate::io::write_ivecs(&p, &[vec![1u32, 2, 3]]).unwrap();
        let err = SharedRows::open(&p).unwrap_err().to_string();
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
        let err = SharedRows::open(&p).unwrap_err();
        assert!(err.is_corrupt(), "{err}");
        assert!(err.to_string().contains("stride"), "{err}");

        // Zero-dim first header.
        let mut zero = good.clone();
        zero[0..4].copy_from_slice(&0u32.to_le_bytes());
        std::fs::write(&p, &zero).unwrap();
        let err = SharedRows::open(&p).unwrap_err().to_string();
        assert!(err.contains("implausible"), "{err}");

        // Corrupt interior header: open passes (lazy), verify pins it.
        let mut interior = good.clone();
        let stride = 4 + 4 * 4;
        interior[2 * stride..2 * stride + 4].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&p, &interior).unwrap();
        let rows = SharedRows::open(&p).unwrap();
        let err = rows.verify().unwrap_err();
        let VecsError::File { offset, .. } = &err else {
            panic!("wrong variant: {err}")
        };
        assert_eq!(*offset, 2 * stride as u64);

        // Corrupt last header is caught at open.
        let mut tail = good.clone();
        let last = 4 * stride;
        tail[last..last + 4].copy_from_slice(&9u32.to_le_bytes());
        std::fs::write(&p, &tail).unwrap();
        assert!(SharedRows::open(&p).is_err());

        // Empty file.
        std::fs::write(&p, []).unwrap();
        assert!(matches!(SharedRows::open(&p), Err(VecsError::Empty(_))));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn row_access_trait_is_uniform_across_backends() {
        let set = sample(9, 4);
        let p = tmp("trait.fvecs");
        write_fvecs(&p, &set).unwrap();
        let rows = SharedRows::open(&p).unwrap();
        let a: &dyn RowAccess = &set;
        let b: &dyn RowAccess = &rows;
        assert_eq!(a.len(), b.len());
        assert_eq!(a.dim(), b.dim());
        for i in 0..a.len() {
            assert_eq!(a.row(i), b.row(i));
        }
        std::fs::remove_file(&p).ok();
    }
}
