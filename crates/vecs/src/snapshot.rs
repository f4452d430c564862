//! Versioned, checksummed, memory-mappable engine snapshots.
//!
//! A snapshot is **one contiguous container file** holding everything an
//! engine needs to serve: the operator's pre-rotated row matrix, the
//! operator state blob (codebooks, codes, models, spectra), the spec
//! strings, and the serialized index structure. Every section starts on a
//! 64-byte boundary, so a little-endian host can map the file once and
//! serve `&[f32]` row slices **zero-copy** — opening is O(header), not
//! O(data), which is what turns a process restart from minutes of
//! PCA/OPQ/k-means/graph work into a single `mmap`.
//!
//! # Wire format (version 1, all integers little-endian)
//!
//! ```text
//! offset    size  field
//! ------    ----  -----------------------------------------------------
//!  0         8    magic  "DDCSNAP1"
//!  8         4    format version (this build reads exactly 1)
//! 12         4    compatible feature flags   (unknown bits tolerated)
//! 16         4    incompatible feature flags (unknown bits rejected)
//! 20         4    section count
//! 24         8    total file length in bytes
//! 32         4    whole-file CRC32 (over every byte from offset 64 on)
//! 36         4    header CRC32 (over the header with bytes 36..40 zeroed)
//! 40        24    reserved (zero; covered by the header CRC)
//! 64        32·n  section table, one entry per section:
//!                   0..8   tag (ASCII [a-z0-9], zero-padded)
//!                   8..16  byte offset of the payload (64-byte aligned)
//!                  16..24  payload length in bytes (unpadded)
//!                  24..28  payload CRC32
//!                  28..32  reserved (zero)
//! ...             zero padding to the next 64-byte boundary
//! ...             section payloads, each zero-padded to 64 bytes
//! ```
//!
//! # Integrity
//!
//! [`SnapshotWriter::finish`] writes atomically: the container is
//! assembled in a temp file in the destination directory, synced, and
//! `rename`d into place — a crash mid-save leaves the previous snapshot
//! (or nothing) behind, never a torn file. Every byte of a container is
//! covered by a checksum: the header by the header CRC, everything else by
//! the whole-file CRC, and each payload additionally by its per-section
//! CRC. [`Snapshot::open`] eagerly validates the header and section table
//! (magic, version, flags, file length, alignment, bounds, overlaps,
//! known tags) and attaches the offending path + byte offset to anything
//! it rejects; payload CRCs are checked lazily — [`Snapshot::section`]
//! verifies a payload the first time it is read, and [`Snapshot::verify`]
//! audits the whole file including the bulk row sections that zero-copy
//! serving deliberately does not pre-scan.
//!
//! # Forward compatibility
//!
//! The contract for future format revisions:
//!
//! * A reader accepts exactly its own `version`; any other version is
//!   rejected as *unsupported* (never misparsed).
//! * **Compatible** feature flags mark additions an old reader can safely
//!   ignore (e.g. an extra hint section). Unknown compatible bits are
//!   tolerated and surfaced via [`Snapshot::flags_compat`] — a
//!   round-trip preserves them.
//! * **Incompatible** feature flags mark changes an old reader must not
//!   guess at (e.g. a new row encoding). Any unknown incompatible bit is
//!   rejected as unsupported.
//! * Unknown section tags are rejected: a tag this build does not know is
//!   evidence of a newer writer, and serving half a container silently
//!   would be worse than refusing.
//!
//! ```
//! use ddc_vecs::snapshot::{Snapshot, SnapshotWriter};
//!
//! let mut path = std::env::temp_dir();
//! path.push(format!("ddc-snap-doc-{}.ddcsnap", std::process::id()));
//! let mut w = SnapshotWriter::new();
//! w.add_section("meta", b"hello".to_vec()).unwrap();
//! w.add_section("rows", vec![0u8; 32]).unwrap();
//! w.finish(&path).unwrap();
//!
//! let snap = Snapshot::open(&path).unwrap();
//! assert_eq!(snap.section("meta").unwrap(), b"hello");
//! let rows = snap.section_rows("rows", 4).unwrap();
//! assert_eq!((rows.len(), rows.dim()), (2, 4));
//! snap.verify().unwrap();
//! std::fs::remove_file(&path).ok();
//! ```

use crate::store::{
    corrupt_at, Advice, AlignedBytes, Backing, FileBytes, MappedRows, Mmap, SharedRows,
};
use crate::{Result, VecsError};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Container magic: "DDC snapshot, on-disk revision 1".
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"DDCSNAP1";
/// The format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Alignment of every section payload, chosen to match cache lines and to
/// guarantee `&[f32]`/`&[u32]` casts are aligned on any mapping base.
pub const SECTION_ALIGN: usize = 64;
/// Section tags this build understands (anything else is a newer writer).
pub const KNOWN_TAGS: [&str; 5] = ["meta", "rows", "dcostate", "index", "payl"];
/// Incompatible feature bit: the container carries generalized-metric
/// and/or per-row payload state (a `payl` section, or non-L2 spec strings
/// in `meta`) that a pre-metric reader must not serve as plain L2.
pub const FLAG_GENERALIZED: u32 = 0x1;
/// The incompatible-feature bits this build understands. Any other set
/// bit is evidence of a newer writer and rejects the container.
pub const KNOWN_INCOMPAT: u32 = FLAG_GENERALIZED;

const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 32;
/// Sanity bound on the section count — real containers have ≤ 4 sections;
/// the bound just keeps a corrupt count from driving a huge allocation.
const MAX_SECTIONS: usize = 64;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, the zlib polynomial) — table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC32 (IEEE) of `bytes` — the checksum every snapshot field uses.
/// Public so tests (and external tooling) can craft or audit containers.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

fn align_up(n: usize) -> usize {
    n.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// A tag is 1–8 ASCII lowercase letters or digits — fits the 8-byte field
/// with zero padding and never needs an encoding note.
fn validate_tag(tag: &str) -> std::result::Result<[u8; 8], String> {
    if tag.is_empty() || tag.len() > 8 {
        return Err(format!("section tag `{tag}` must be 1..=8 bytes"));
    }
    if !tag
        .bytes()
        .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit())
    {
        return Err(format!(
            "section tag `{tag}` must be ASCII lowercase letters or digits"
        ));
    }
    let mut out = [0u8; 8];
    out[..tag.len()].copy_from_slice(tag.as_bytes());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Assembles and atomically writes a snapshot container.
///
/// Sections are laid out in insertion order, each payload padded to a
/// [`SECTION_ALIGN`] boundary. [`SnapshotWriter::finish`] writes a temp
/// file next to the destination and renames it into place, so a crash
/// never leaves a torn container behind.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(String, [u8; 8], Vec<u8>)>,
    flags_compat: u32,
    flags_incompat: u32,
}

impl SnapshotWriter {
    /// An empty container under construction.
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Sets the compatible-feature flags word (see the module docs for the
    /// forward-compat contract; readers preserve unknown bits).
    pub fn set_compat_flags(&mut self, flags: u32) {
        self.flags_compat = flags;
    }

    /// Sets the incompatible-feature flags word. Readers reject any set
    /// bit they do not understand, so writers must only raise a bit when
    /// the container genuinely cannot be served by a reader without it
    /// (e.g. [`FLAG_GENERALIZED`] for non-L2 metrics / payload tags) —
    /// a needlessly raised bit locks old readers out of a container they
    /// could have served.
    pub fn set_incompat_flags(&mut self, flags: u32) {
        self.flags_incompat = flags;
    }

    /// Appends a section. Tags must be unique, 1–8 ASCII `[a-z0-9]` bytes.
    /// The writer accepts any well-formed tag (future revisions add
    /// sections this way); *readers* reject tags they do not know.
    ///
    /// # Errors
    /// [`VecsError::Format`] for malformed or duplicate tags.
    pub fn add_section(&mut self, tag: &str, payload: Vec<u8>) -> Result<()> {
        let raw = validate_tag(tag).map_err(VecsError::Format)?;
        if self.sections.iter().any(|(t, _, _)| t == tag) {
            return Err(VecsError::Format(format!("duplicate section tag `{tag}`")));
        }
        self.sections.push((tag.to_string(), raw, payload));
        Ok(())
    }

    /// Writes the container to `path` atomically (temp file + rename).
    ///
    /// # Errors
    /// I/O failures; an empty section list.
    pub fn finish(self, path: &Path) -> Result<()> {
        if self.sections.is_empty() {
            return Err(VecsError::Empty("snapshot with no sections"));
        }
        let n = self.sections.len();
        let data_start = align_up(HEADER_LEN + n * ENTRY_LEN);

        // Fix the layout: payload offsets, then the table that records it.
        let mut offsets = Vec::with_capacity(n);
        let mut cursor = data_start;
        for (_, _, payload) in &self.sections {
            offsets.push(cursor);
            cursor = align_up(cursor + payload.len());
        }
        let file_len = cursor as u64;

        let mut table = Vec::with_capacity(n * ENTRY_LEN);
        for ((_, raw, payload), &off) in self.sections.iter().zip(&offsets) {
            table.extend_from_slice(raw);
            table.extend_from_slice(&(off as u64).to_le_bytes());
            table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            table.extend_from_slice(&crc32(payload).to_le_bytes());
            table.extend_from_slice(&0u32.to_le_bytes());
        }

        // Stream body bytes to the temp file while folding them into the
        // whole-file CRC; the header is written last, once the CRC is
        // known.
        let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
        let result = (|| -> Result<()> {
            let mut file = std::fs::File::create(&tmp)?;
            let mut crc = 0xFFFF_FFFFu32;
            let mut write = |file: &mut std::fs::File, bytes: &[u8]| -> Result<()> {
                crc = crc32_update(crc, bytes);
                file.write_all(bytes)?;
                Ok(())
            };
            file.write_all(&[0u8; HEADER_LEN])?;
            write(&mut file, &table)?;
            let mut written = HEADER_LEN + table.len();
            for ((_, _, payload), &off) in self.sections.iter().zip(&offsets) {
                write(&mut file, &vec![0u8; off - written])?;
                write(&mut file, payload)?;
                written = off + payload.len();
            }
            write(&mut file, &vec![0u8; file_len as usize - written])?;
            let file_crc = crc ^ 0xFFFF_FFFF;

            let mut header = [0u8; HEADER_LEN];
            header[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
            header[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
            header[12..16].copy_from_slice(&self.flags_compat.to_le_bytes());
            header[16..20].copy_from_slice(&self.flags_incompat.to_le_bytes());
            header[20..24].copy_from_slice(&(n as u32).to_le_bytes());
            header[24..32].copy_from_slice(&file_len.to_le_bytes());
            header[32..36].copy_from_slice(&file_crc.to_le_bytes());
            // Bytes 36..40 are zero here, which is exactly the state the
            // header CRC is defined over.
            let hcrc = crc32(&header);
            header[36..40].copy_from_slice(&hcrc.to_le_bytes());
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            file.sync_all()?;
            Ok(())
        })();
        if let Err(e) = result {
            std::fs::remove_file(&tmp).ok();
            return Err(e);
        }
        std::fs::rename(&tmp, path).inspect_err(|_| {
            std::fs::remove_file(&tmp).ok();
        })?;
        // Make the rename itself durable where the platform allows
        // directory fsync; purely best-effort.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = std::fs::File::open(dir) {
                d.sync_all().ok();
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Snapshot (reader)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct SectionEntry {
    tag: String,
    /// Byte offset of this entry in the section table (error reporting).
    entry_offset: u64,
    offset: usize,
    len: usize,
    crc: u32,
}

struct SnapInner {
    file: Arc<FileBytes>,
    version: u32,
    flags_compat: u32,
    flags_incompat: u32,
    sections: Vec<SectionEntry>,
    /// Per-section "payload CRC already verified" latch, so lazy
    /// validation costs one pass per section, not one per read.
    verified: Vec<AtomicBool>,
}

/// An open snapshot container: cheap to clone (shared mapping), serves
/// checksummed byte sections and zero-copy row matrices.
///
/// See the module docs for the wire format, integrity, and
/// forward-compatibility contracts.
#[derive(Clone)]
pub struct Snapshot {
    inner: Arc<SnapInner>,
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("path", &self.inner.file.path)
            .field("backend", &self.backend())
            .field(
                "sections",
                &self
                    .inner
                    .sections
                    .iter()
                    .map(|s| (&s.tag, s.len))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Snapshot {
    /// Opens `path`, mapping it where the platform allows (heap-loading it
    /// otherwise), and eagerly validates the header and section table —
    /// O(header), not O(data). Payload checksums are verified lazily (per
    /// section on first read, or all at once by [`Snapshot::verify`]).
    ///
    /// # Errors
    /// [`VecsError::File`] with the path and byte offset of the first
    /// structural violation; version/flag/tag skew is reported as
    /// *unsupported* (see the forward-compat contract).
    pub fn open(path: impl AsRef<Path>) -> Result<Snapshot> {
        let path = path.as_ref();
        if cfg!(target_endian = "big") {
            return Err(VecsError::Format(
                "snapshot containers are little-endian; this host is big-endian".into(),
            ));
        }
        let mut file = std::fs::File::open(path)
            .map_err(|e| corrupt_at(path, 0, format!("open failed: {e}")))?;
        let size = file
            .metadata()
            .map_err(|e| corrupt_at(path, 0, format!("metadata: {e}")))?
            .len() as usize;
        if size < HEADER_LEN {
            return Err(corrupt_at(
                path,
                0,
                format!("{size} bytes is too small for a snapshot header"),
            ));
        }
        let backing = match Mmap::map(&file, size).map_err(VecsError::Io)? {
            Some(map) => Backing::Mapped(map),
            None => Backing::Heap(AlignedBytes::read_from(&mut file, size)?),
        };
        let image = Arc::new(FileBytes {
            backing,
            path: path.to_path_buf(),
        });
        let bytes = image.bytes();

        // Header. The CRC check comes right after the magic so a bit flip
        // in *any* header field — version, flags, counts, reserved — is
        // reported as header corruption, not misread as a real value.
        let header = &bytes[..HEADER_LEN];
        if header[0..8] != SNAPSHOT_MAGIC {
            return Err(corrupt_at(path, 0, "not a DDC snapshot (bad magic)"));
        }
        let stored_hcrc = read_u32(header, 36);
        let mut zeroed = [0u8; HEADER_LEN];
        zeroed.copy_from_slice(header);
        zeroed[36..40].fill(0);
        if crc32(&zeroed) != stored_hcrc {
            return Err(corrupt_at(path, 36, "header checksum mismatch"));
        }
        let version = read_u32(header, 8);
        if version != SNAPSHOT_VERSION {
            return Err(corrupt_at(
                path,
                8,
                format!(
                    "snapshot version {version} unsupported (this build reads \
                     version {SNAPSHOT_VERSION})"
                ),
            ));
        }
        let flags_compat = read_u32(header, 12);
        let flags_incompat = read_u32(header, 16);
        let unknown = flags_incompat & !KNOWN_INCOMPAT;
        if unknown != 0 {
            return Err(corrupt_at(
                path,
                16,
                format!(
                    "incompatible feature flags {unknown:#x} unsupported \
                     by this build"
                ),
            ));
        }
        let n = read_u32(header, 20) as usize;
        if n == 0 || n > MAX_SECTIONS {
            return Err(corrupt_at(
                path,
                20,
                format!("implausible section count {n}"),
            ));
        }
        let file_len = u64::from_le_bytes(header[24..32].try_into().expect("8 bytes"));
        if file_len != size as u64 {
            return Err(corrupt_at(
                path,
                24,
                format!(
                    "header claims {file_len} bytes, file has {size} \
                     (truncated or extended)"
                ),
            ));
        }
        let data_start = align_up(HEADER_LEN + n * ENTRY_LEN);
        if data_start > size {
            return Err(corrupt_at(
                path,
                20,
                format!("section table for {n} sections exceeds the file"),
            ));
        }

        // Section table: known tags only, unique, aligned, in-bounds,
        // non-overlapping.
        let mut sections = Vec::with_capacity(n);
        for i in 0..n {
            let entry_offset = (HEADER_LEN + i * ENTRY_LEN) as u64;
            let e = &bytes[entry_offset as usize..entry_offset as usize + ENTRY_LEN];
            let raw_tag = &e[0..8];
            let end = raw_tag.iter().position(|&b| b == 0).unwrap_or(8);
            let tag = std::str::from_utf8(&raw_tag[..end])
                .ok()
                .filter(|t| validate_tag(t).is_ok() && raw_tag[end..].iter().all(|&b| b == 0))
                .ok_or_else(|| corrupt_at(path, entry_offset, "malformed section tag"))?
                .to_string();
            if !KNOWN_TAGS.contains(&tag.as_str()) {
                return Err(corrupt_at(
                    path,
                    entry_offset,
                    format!(
                        "unknown section `{tag}`: written by an unsupported \
                         newer format revision"
                    ),
                ));
            }
            if sections.iter().any(|s: &SectionEntry| s.tag == tag) {
                return Err(corrupt_at(
                    path,
                    entry_offset,
                    format!("duplicate section `{tag}`"),
                ));
            }
            let offset = u64::from_le_bytes(e[8..16].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(e[16..24].try_into().expect("8 bytes"));
            let crc = read_u32(e, 24);
            if offset % SECTION_ALIGN as u64 != 0 {
                return Err(corrupt_at(
                    path,
                    entry_offset + 8,
                    format!("section `{tag}` offset {offset} is not {SECTION_ALIGN}-byte aligned"),
                ));
            }
            if offset < data_start as u64 || offset.checked_add(len).is_none_or(|e| e > size as u64)
            {
                return Err(corrupt_at(
                    path,
                    entry_offset + 8,
                    format!(
                        "section `{tag}` [{offset}, {offset}+{len}) is out of \
                         bounds for a {size}-byte file"
                    ),
                ));
            }
            sections.push(SectionEntry {
                tag,
                entry_offset,
                offset: offset as usize,
                len: len as usize,
                crc,
            });
        }
        let mut spans: Vec<(usize, usize, u64)> = sections
            .iter()
            .map(|s| (s.offset, s.offset + s.len, s.entry_offset))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[1].0 < w[0].1 {
                return Err(corrupt_at(
                    path,
                    w[1].2,
                    "section payloads overlap (corrupt table offsets)",
                ));
            }
        }

        let verified = sections.iter().map(|_| AtomicBool::new(false)).collect();
        Ok(Snapshot {
            inner: Arc::new(SnapInner {
                file: image,
                version,
                flags_compat,
                flags_incompat,
                sections,
                verified,
            }),
        })
    }

    /// The container file.
    pub fn path(&self) -> &Path {
        &self.inner.file.path
    }

    /// Format version of the open container (always [`SNAPSHOT_VERSION`]
    /// for a successfully opened one).
    pub fn version(&self) -> u32 {
        self.inner.version
    }

    /// The compatible-feature flags word, unknown bits included — the
    /// reader preserves what it does not understand.
    pub fn flags_compat(&self) -> u32 {
        self.inner.flags_compat
    }

    /// The incompatible-feature flags word. Every set bit is one this
    /// build understands ([`KNOWN_INCOMPAT`]) — [`Snapshot::open`] rejects
    /// anything else.
    pub fn flags_incompat(&self) -> u32 {
        self.inner.flags_incompat
    }

    /// Storage backend tag: `"mmap"` when the container is memory-mapped,
    /// `"heap"` on platforms without the mapping shim.
    pub fn backend(&self) -> &'static str {
        match self.inner.file.backing {
            Backing::Mapped(_) => "mmap",
            Backing::Heap(_) => "heap",
        }
    }

    /// Bytes of address space the container occupies when mapped (0 for
    /// the heap fallback, mirroring [`SharedRows::mapped_bytes`]).
    pub fn mapped_bytes(&self) -> usize {
        self.inner.file.mapped_bytes()
    }

    /// Section tags in container order, with payload sizes.
    pub fn sections(&self) -> Vec<(&str, usize)> {
        self.inner
            .sections
            .iter()
            .map(|s| (s.tag.as_str(), s.len))
            .collect()
    }

    fn entry(&self, tag: &str) -> Result<(usize, &SectionEntry)> {
        self.inner
            .sections
            .iter()
            .enumerate()
            .find(|(_, s)| s.tag == tag)
            .ok_or_else(|| {
                corrupt_at(
                    &self.inner.file.path,
                    HEADER_LEN as u64,
                    format!("container has no `{tag}` section"),
                )
            })
    }

    fn payload(&self, e: &SectionEntry) -> &[u8] {
        &self.inner.file.bytes()[e.offset..e.offset + e.len]
    }

    fn check_crc(&self, i: usize, e: &SectionEntry) -> Result<()> {
        if self.inner.verified[i].load(Ordering::Acquire) {
            return Ok(());
        }
        let got = crc32(self.payload(e));
        if got != e.crc {
            return Err(corrupt_at(
                &self.inner.file.path,
                e.offset as u64,
                format!(
                    "section `{}` checksum mismatch (stored {:#010x}, computed {got:#010x})",
                    e.tag, e.crc
                ),
            ));
        }
        self.inner.verified[i].store(true, Ordering::Release);
        Ok(())
    }

    /// Borrows a section payload, verifying its CRC on first access.
    ///
    /// # Errors
    /// A missing section or a checksum mismatch, with path + offset.
    pub fn section(&self, tag: &str) -> Result<&[u8]> {
        let (i, e) = self.entry(tag)?;
        self.check_crc(i, e)?;
        Ok(self.payload(e))
    }

    /// Serves a section as a zero-copy `dim`-column `f32` row matrix
    /// ([`SharedRows::Mapped`], which keeps the file image alive).
    /// Structure (length a whole number of rows, with the row stride
    /// computed without overflow) is validated here; the payload CRC is
    /// deliberately **not** — pre-scanning the bulk matrix would defeat
    /// O(ms) opening. Run [`Snapshot::verify`] for a full audit.
    ///
    /// # Errors
    /// A missing section or a length that cannot be a `dim`-column
    /// matrix.
    pub fn section_rows(&self, tag: &str, dim: usize) -> Result<SharedRows> {
        let (_, e) = self.entry(tag)?;
        let file = Arc::clone(&self.inner.file);
        let rows = MappedRows::new(file, e.offset, e.len, 0, dim).ok_or_else(|| {
            corrupt_at(
                &self.inner.file.path,
                e.offset as u64,
                format!(
                    "section `{tag}` ({} bytes) is not a whole number of \
                     {dim}-dimensional f32 rows",
                    e.len
                ),
            )
        })?;
        Ok(SharedRows::Mapped(rows))
    }

    /// Forwards an access-pattern hint for one section to the kernel
    /// (sequential for scan-shaped sections, random for graphs). No-op for
    /// unknown tags, heap backing, or unsupported platforms — hints never
    /// fail.
    pub fn advise(&self, tag: &str, advice: Advice) {
        if let Backing::Mapped(map) = &self.inner.file.backing {
            if let Ok((_, e)) = self.entry(tag) {
                map.advise(e.offset, e.len, advice);
            }
        }
    }

    /// Audits the whole container: the whole-file checksum (which covers
    /// the section table and every padding byte) plus every per-section
    /// CRC — the full-integrity pass that [`Snapshot::open`] deliberately
    /// skips. Sequential, touches every page once.
    ///
    /// # Errors
    /// [`VecsError::File`] naming the first mismatching region.
    pub fn verify(&self) -> Result<()> {
        let bytes = self.inner.file.bytes();
        let stored = read_u32(&bytes[..HEADER_LEN], 32);
        let got = crc32(&bytes[HEADER_LEN..]);
        if got != stored {
            return Err(corrupt_at(
                &self.inner.file.path,
                32,
                format!(
                    "whole-file checksum mismatch (stored {stored:#010x}, computed {got:#010x})"
                ),
            ));
        }
        for (i, e) in self.inner.sections.iter().enumerate() {
            self.check_crc(i, e)?;
        }
        Ok(())
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VecSet;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ddc-snap-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_sections_and_rows() {
        let p = tmp("roundtrip.ddcsnap");
        let rows: Vec<f32> = (0..24).map(|i| i as f32 * 0.5).collect();
        let row_bytes: Vec<u8> = rows.iter().flat_map(|v| v.to_le_bytes()).collect();
        let mut w = SnapshotWriter::new();
        w.add_section("meta", b"index=flat\n".to_vec()).unwrap();
        w.add_section("rows", row_bytes).unwrap();
        w.add_section("index", vec![7u8; 130]).unwrap();
        w.finish(&p).unwrap();

        let snap = Snapshot::open(&p).unwrap();
        assert_eq!(snap.version(), SNAPSHOT_VERSION);
        assert_eq!(snap.section("meta").unwrap(), b"index=flat\n");
        assert_eq!(snap.section("index").unwrap(), &[7u8; 130][..]);
        let shared = snap.section_rows("rows", 6).unwrap();
        assert_eq!((shared.len(), shared.dim()), (4, 6));
        assert_eq!(shared.to_vecset().as_flat(), &rows[..]);
        assert_eq!(shared.get(2), &rows[12..18]);
        assert_eq!(shared.resident_bytes(), 0);
        assert_eq!(shared.backend(), "snapshot");
        snap.verify().unwrap();
        // Hints are pure no-ops semantically.
        snap.advise("rows", Advice::Sequential);
        snap.advise("index", Advice::Random);
        assert_eq!(shared.to_vecset().as_flat(), &rows[..]);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn sections_are_64_byte_aligned() {
        let p = tmp("align.ddcsnap");
        let mut w = SnapshotWriter::new();
        w.add_section("meta", vec![1u8; 3]).unwrap();
        w.add_section("rows", vec![2u8; 65]).unwrap();
        w.add_section("dcostate", vec![3u8; 1]).unwrap();
        w.finish(&p).unwrap();
        let snap = Snapshot::open(&p).unwrap();
        for (tag, _) in snap.sections() {
            let (_, e) = snap.entry(tag).unwrap();
            assert_eq!(e.offset % SECTION_ALIGN, 0, "{tag}");
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn writer_rejects_bad_tags() {
        let mut w = SnapshotWriter::new();
        assert!(w.add_section("", vec![]).is_err());
        assert!(w.add_section("UPPER", vec![]).is_err());
        assert!(w.add_section("waytoolongtag", vec![]).is_err());
        w.add_section("meta", vec![]).unwrap();
        assert!(w.add_section("meta", vec![]).is_err());
    }

    #[test]
    fn known_incompat_flags_round_trip_and_unknown_bits_reject() {
        let p = tmp("incompat.ddcsnap");
        let mut w = SnapshotWriter::new();
        w.add_section("meta", b"m".to_vec()).unwrap();
        w.add_section("payl", 7u64.to_le_bytes().to_vec()).unwrap();
        w.set_incompat_flags(FLAG_GENERALIZED);
        w.finish(&p).unwrap();
        let snap = Snapshot::open(&p).unwrap();
        assert_eq!(snap.flags_incompat(), FLAG_GENERALIZED);
        assert_eq!(snap.section("payl").unwrap(), &7u64.to_le_bytes()[..]);

        // A future incompatible bit this build does not know: rejected
        // with the path and the flag field's byte offset, and the error
        // names only the unknown bits.
        let mut w = SnapshotWriter::new();
        w.add_section("meta", b"m".to_vec()).unwrap();
        w.set_incompat_flags(FLAG_GENERALIZED | 0x8000_0000);
        w.finish(&p).unwrap();
        let err = Snapshot::open(&p).unwrap_err();
        match err {
            VecsError::File { offset, detail, .. } => {
                assert_eq!(offset, 16);
                assert!(detail.contains("0x80000000"), "got {detail}");
                assert!(detail.contains("unsupported"), "got {detail}");
            }
            other => panic!("expected File error, got {other}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn flagless_containers_have_zero_incompat_flags() {
        // The L2-no-payload path must write byte-identical headers to
        // pre-metric builds: no incompatible bits.
        let p = tmp("flagless.ddcsnap");
        let mut w = SnapshotWriter::new();
        w.add_section("meta", b"m".to_vec()).unwrap();
        w.finish(&p).unwrap();
        let snap = Snapshot::open(&p).unwrap();
        assert_eq!(snap.flags_incompat(), 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn owned_shared_rows_match_vecset() {
        let set = VecSet::from_rows(3, &[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let shared = SharedRows::from(set.clone());
        assert_eq!((shared.len(), shared.dim()), (2, 3));
        assert_eq!(shared.get(1), set.get(1));
        assert_eq!(shared.to_vecset(), set);
        assert_eq!(shared.backend(), "ram");
        assert!(shared.resident_bytes() > 0);
    }
}
