//! Corruption battery for the snapshot container: every mutation of a
//! valid container — bit flips, truncation, extension, swapped offsets,
//! forged checksums, version/flag/tag skew — must be **rejected as an
//! error** (with the offending path and byte offset attached where the
//! format defines one) and must never panic.
//!
//! The gauntlet below runs the full read surface over each mutant:
//! `open`, `verify`, every `section` read, and a `section_rows` view —
//! between the header CRC, the whole-file CRC, and the per-section CRCs,
//! every byte of a container is covered by at least one check.

use ddc_vecs::snapshot::{crc32, Snapshot, SnapshotWriter, FLAG_GENERALIZED, SNAPSHOT_VERSION};
use ddc_vecs::VecsError;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const HEADER_LEN: usize = 64;
const ENTRY_LEN: usize = 32;
const TAGS: [&str; 4] = ["meta", "rows", "dcostate", "index"];

static UNIQ: AtomicUsize = AtomicUsize::new(0);

fn tmp() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ddc-snapcorrupt-{}-{}.ddcsnap",
        std::process::id(),
        UNIQ.fetch_add(1, Ordering::Relaxed)
    ));
    p
}

/// A 4-section reference container with distinct payload shapes:
/// text meta, an f32 row matrix, a small state blob, an index blob.
fn reference_bytes() -> Vec<u8> {
    let p = tmp();
    let mut w = SnapshotWriter::new();
    w.add_section("meta", b"ddc-engine v1\nindex=flat\ndco=exact\n".to_vec())
        .unwrap();
    let rows: Vec<u8> = (0..32).flat_map(|i| (i as f32).to_le_bytes()).collect();
    w.add_section("rows", rows).unwrap();
    w.add_section("dcostate", vec![0xAB; 24]).unwrap();
    w.add_section("index", vec![0xCD; 64]).unwrap();
    w.finish(&p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    std::fs::remove_file(&p).ok();
    bytes
}

/// A generalized-format container: the four classic sections plus a
/// `payl` payload-tag section, stamped with [`FLAG_GENERALIZED`] — the
/// shape a metric/filtering engine writes. The corruption sweeps below
/// run over this one too, so the payload section and the incompat-flag
/// field enjoy the same single-bit guarantee as the original format.
fn generalized_reference_bytes() -> Vec<u8> {
    let p = tmp();
    let mut w = SnapshotWriter::new();
    w.set_incompat_flags(FLAG_GENERALIZED);
    w.add_section("meta", b"ddc-engine v1\nindex=flat\ndco=exact\n".to_vec())
        .unwrap();
    let rows: Vec<u8> = (0..32).flat_map(|i| (i as f32).to_le_bytes()).collect();
    w.add_section("rows", rows).unwrap();
    w.add_section("dcostate", vec![0xAB; 24]).unwrap();
    w.add_section("index", vec![0xCD; 64]).unwrap();
    let payl: Vec<u8> = (0..16u64)
        .flat_map(|i| (i * 31 % 97).to_le_bytes())
        .collect();
    w.add_section("payl", payl).unwrap();
    w.finish(&p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    std::fs::remove_file(&p).ok();
    bytes
}

/// Like [`reference_bytes`] but with `rows` and `index` the same length,
/// so swapping their table offsets yields a structurally valid container
/// that only the per-section CRCs can catch.
fn equal_len_reference_bytes() -> Vec<u8> {
    let p = tmp();
    let mut w = SnapshotWriter::new();
    w.add_section("meta", b"m".to_vec()).unwrap();
    let rows: Vec<u8> = (0..16).flat_map(|i| (i as f32).to_le_bytes()).collect();
    w.add_section("rows", rows).unwrap();
    w.add_section("dcostate", vec![0xAB; 24]).unwrap();
    w.add_section("index", vec![0xCD; 64]).unwrap();
    w.finish(&p).unwrap();
    let bytes = std::fs::read(&p).unwrap();
    std::fs::remove_file(&p).ok();
    bytes
}

/// Runs the whole read surface over `bytes`; corrupt containers must
/// error somewhere in here and valid ones must sail through.
fn gauntlet(bytes: &[u8]) -> (PathBuf, Result<(), VecsError>) {
    gauntlet_with(bytes, &TAGS)
}

fn gauntlet_with(bytes: &[u8], tags: &[&str]) -> (PathBuf, Result<(), VecsError>) {
    let p = tmp();
    std::fs::write(&p, bytes).unwrap();
    let result = (|| {
        let snap = Snapshot::open(&p)?;
        snap.verify()?;
        for tag in tags {
            snap.section(tag)?;
        }
        let rows = snap.section_rows("rows", 4)?;
        let _ = rows.to_vecset();
        Ok(())
    })();
    std::fs::remove_file(&p).ok();
    (p, result)
}

/// Recomputes the whole-file and header CRCs after a deliberate mutation,
/// so the test exercises the *semantic* check a forged-but-checksummed
/// container would hit, not just the checksum.
fn fixup(bytes: &mut [u8]) {
    let crc = crc32(&bytes[HEADER_LEN..]);
    bytes[32..36].copy_from_slice(&crc.to_le_bytes());
    bytes[36..40].fill(0);
    let hcrc = crc32(&bytes[..HEADER_LEN]);
    bytes[36..40].copy_from_slice(&hcrc.to_le_bytes());
}

fn entry_offset_field(i: usize) -> usize {
    HEADER_LEN + i * ENTRY_LEN + 8
}

fn section_offset(bytes: &[u8], i: usize) -> u64 {
    let at = entry_offset_field(i);
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

fn expect_file_err(err: Result<(), VecsError>, path: &std::path::Path, offset: u64, needle: &str) {
    match err {
        Err(VecsError::File {
            path: p,
            offset: o,
            detail,
        }) => {
            assert_eq!(p, path, "error must name the container file");
            assert_eq!(
                o, offset,
                "error must carry the offending offset ({detail})"
            );
            assert!(
                detail.contains(needle),
                "`{detail}` should contain `{needle}`"
            );
        }
        other => panic!("expected a positioned File error, got {other:?}"),
    }
}

#[test]
fn reference_container_passes_the_gauntlet() {
    let bytes = reference_bytes();
    let (_, r) = gauntlet(&bytes);
    r.unwrap();
    let (_, r) = gauntlet(&equal_len_reference_bytes());
    r.unwrap();
}

/// The headline guarantee: flip **any single bit anywhere** in the
/// container — header, table, payloads, padding, stored checksums — and
/// the gauntlet rejects the file with a positioned error, never a panic,
/// never a silent success.
#[test]
fn every_single_bit_flip_is_rejected() {
    let bytes = reference_bytes();
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutant = bytes.clone();
            mutant[byte] ^= 1 << bit;
            let (_, r) = gauntlet(&mutant);
            let err = r.expect_err(&format!("flip of byte {byte} bit {bit} must be rejected"));
            assert!(
                err.is_corrupt(),
                "byte {byte} bit {bit}: {err} should be a corruption error"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Seeded multi-bit corruption: any 1–3 distinct bit flips are caught
    /// (CRC32 guarantees detection of all ≤3-bit errors at this file
    /// size; larger bursts are caught with overwhelming probability).
    #[test]
    fn random_multi_bit_flips_are_rejected(
        raw_flips in proptest::collection::vec((0usize..512, 0u32..8), 1..=3)
    ) {
        let mut flips = raw_flips;
        flips.sort_unstable();
        flips.dedup(); // repeated flips of one bit would cancel out
        let mut mutant = reference_bytes();
        prop_assume!(mutant.len() == 512); // layout sanity for the strategy range
        for &(byte, bit) in &flips {
            mutant[byte] ^= 1 << bit;
        }
        let (_, r) = gauntlet(&mutant);
        prop_assert!(r.is_err(), "flips {flips:?} must be rejected");
        prop_assert!(r.unwrap_err().is_corrupt());
    }

    /// Random truncation points: a shortened container is always rejected
    /// with the path and a defined offset (0 for a headless stub, 24 —
    /// the file-length field — otherwise).
    #[test]
    fn random_truncations_are_rejected(cut in 0usize..512) {
        let bytes = reference_bytes();
        prop_assume!(cut < bytes.len());
        let (p, r) = gauntlet(&bytes[..cut]);
        let expected_offset = if cut < HEADER_LEN { 0 } else { 24 };
        match r {
            Err(VecsError::File { path, offset, .. }) => {
                prop_assert_eq!(path, p);
                prop_assert_eq!(offset, expected_offset);
            }
            other => return Err(TestCaseError::fail(format!("cut {cut}: got {other:?}"))),
        }
    }
}

#[test]
fn truncation_at_section_boundaries_is_rejected() {
    let bytes = reference_bytes();
    let mut cuts = vec![0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1];
    for i in 0..TAGS.len() {
        let off = section_offset(&bytes, i) as usize;
        cuts.extend([off, off + 1]); // at and just past each payload start
    }
    for cut in cuts {
        let (p, r) = gauntlet(&bytes[..cut]);
        let expected = if cut < HEADER_LEN { 0 } else { 24 };
        expect_file_err(r, &p, expected, "");
    }
}

#[test]
fn extended_files_are_rejected() {
    let mut bytes = reference_bytes();
    bytes.extend_from_slice(&[0u8; 64]);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, 24, "truncated or extended");
}

#[test]
fn swapped_offsets_of_unequal_sections_fail_bounds_checks() {
    let mut bytes = reference_bytes();
    // Swap the offset fields of `rows` (entry 1, 128 bytes) and `index`
    // (entry 3, 64 bytes): rows now points past what fits before EOF.
    let (a, b) = (entry_offset_field(1), entry_offset_field(3));
    for i in 0..8 {
        bytes.swap(a + i, b + i);
    }
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, a as u64, "out of bounds");
}

#[test]
fn swapped_offsets_of_equal_sections_fail_section_checksums() {
    let mut bytes = equal_len_reference_bytes();
    // Same-length sections: the swap is structurally flawless (aligned,
    // in-bounds, non-overlapping) and the outer checksums are refreshed —
    // only the per-section CRC can notice each tag now points at the
    // other's payload.
    let (a, b) = (entry_offset_field(1), entry_offset_field(3));
    for i in 0..8 {
        bytes.swap(a + i, b + i);
    }
    fixup(&mut bytes);
    let rows_now_at = section_offset(&bytes, 1);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, rows_now_at, "checksum mismatch");
}

#[test]
fn forged_section_crc_is_rejected_at_the_section() {
    let mut bytes = reference_bytes();
    let crc_field = HEADER_LEN + 2 * ENTRY_LEN + 24; // dcostate's stored CRC
    bytes[crc_field] ^= 0xFF;
    fixup(&mut bytes);
    let dcostate_at = section_offset(&bytes, 2);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, dcostate_at, "section `dcostate` checksum mismatch");
}

#[test]
fn padding_corruption_is_caught_by_the_whole_file_checksum() {
    let mut bytes = reference_bytes();
    // meta is 35 bytes; its 64-byte slot leaves padding no section claims.
    let meta_at = section_offset(&bytes, 0) as usize;
    bytes[meta_at + 40] ^= 0x01;
    // Refresh only the header CRC: the whole-file CRC is left stale, which
    // is exactly what `verify` exists to catch (no section read would).
    let stale = &bytes[32..36].to_vec();
    fixup(&mut bytes);
    bytes[32..36].copy_from_slice(stale);
    bytes[36..40].fill(0);
    let hcrc = crc32(&bytes[..HEADER_LEN]);
    bytes[36..40].copy_from_slice(&hcrc.to_le_bytes());

    let p = tmp();
    std::fs::write(&p, &bytes).unwrap();
    let snap = Snapshot::open(&p).unwrap();
    for tag in TAGS {
        snap.section(tag).unwrap(); // payloads themselves are intact
    }
    let err = snap.verify().unwrap_err();
    drop(snap);
    std::fs::remove_file(&p).ok();
    expect_file_err(Err(err), &p, 32, "whole-file checksum mismatch");
}

#[test]
fn future_versions_are_rejected_as_unsupported() {
    for version in [0u32, SNAPSHOT_VERSION + 1, u32::MAX] {
        let mut bytes = reference_bytes();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        fixup(&mut bytes);
        let (p, r) = gauntlet(&bytes);
        expect_file_err(r, &p, 8, "unsupported");
    }
}

#[test]
fn unknown_incompatible_flags_are_rejected() {
    let mut bytes = reference_bytes();
    bytes[16..20].copy_from_slice(&0x8000_0001u32.to_le_bytes());
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, 16, "incompatible feature flags");
}

const GENERALIZED_TAGS: [&str; 5] = ["meta", "rows", "dcostate", "index", "payl"];

/// The generalized container is valid as written, and the single-bit-flip
/// guarantee extends over its **entire** span — in particular every bit
/// of the `payl` payload-tag section and of its table entry. A flipped
/// payload tag would silently corrupt filtered search results, so it must
/// be caught by a checksum before any engine sees it.
#[test]
fn generalized_container_survives_gauntlet_and_payload_flips_are_rejected() {
    let bytes = generalized_reference_bytes();
    let (_, r) = gauntlet_with(&bytes, &GENERALIZED_TAGS);
    r.unwrap();

    // Sweep the payl table entry (entry 4) and the whole payl payload.
    let entry_at = HEADER_LEN + 4 * ENTRY_LEN;
    let payl_at = section_offset(&bytes, 4) as usize;
    let mut spans = vec![(entry_at, entry_at + ENTRY_LEN), (payl_at, payl_at + 128)];
    // Plus the incompat-flag field itself: a flipped flag bit must not
    // open as a different format.
    spans.push((16, 20));
    for (lo, hi) in spans {
        for byte in lo..hi {
            for bit in 0..8 {
                let mut mutant = bytes.clone();
                mutant[byte] ^= 1 << bit;
                let (_, r) = gauntlet_with(&mutant, &GENERALIZED_TAGS);
                let err = r.expect_err(&format!("flip of byte {byte} bit {bit} must be rejected"));
                assert!(
                    err.is_corrupt(),
                    "byte {byte} bit {bit}: {err} should be a corruption error"
                );
            }
        }
    }
}

/// Compat-flag skew, both directions:
/// * a container stamped only with [`FLAG_GENERALIZED`] opens in this
///   build (the bit is known);
/// * the same container with an *additional* unknown incompat bit — what
///   a generalized snapshot looks like to a reader predating that bit —
///   is rejected at the flag field (path + offset 16) naming the bits;
/// * a flag-free container (the old format) still opens: pre-metric
///   snapshots keep working, implicitly as L2.
#[test]
fn incompat_flag_skew_rejects_unknown_bits_and_keeps_old_containers() {
    let bytes = generalized_reference_bytes();
    let (_, r) = gauntlet_with(&bytes, &GENERALIZED_TAGS);
    r.unwrap();

    let mut skewed = bytes.clone();
    skewed[16..20].copy_from_slice(&(FLAG_GENERALIZED | 0x4000_0000).to_le_bytes());
    fixup(&mut skewed);
    let (p, r) = gauntlet_with(&skewed, &GENERALIZED_TAGS);
    expect_file_err(r, &p, 16, "incompatible feature flags");
    // The message names only the bits this build cannot honor, so an
    // operator can tell which feature the container needs.
    skewed[16..20].copy_from_slice(&(FLAG_GENERALIZED | 0x4000_0000).to_le_bytes());
    fixup(&mut skewed);
    let p2 = tmp();
    std::fs::write(&p2, &skewed).unwrap();
    let err = Snapshot::open(&p2).unwrap_err();
    std::fs::remove_file(&p2).ok();
    assert!(err.to_string().contains("0x40000000"), "{err}");

    // Old-format container: no incompat flags, no payl section — opens.
    let (_, r) = gauntlet(&reference_bytes());
    r.unwrap();
}

#[test]
fn unknown_compatible_flags_round_trip_unharmed() {
    // The forward-compat contract: compatible bits this build does not
    // know are tolerated and preserved, not dropped or rejected.
    let p = tmp();
    let mut w = SnapshotWriter::new();
    w.set_compat_flags(0xDEAD_BEEF);
    w.add_section("meta", b"x".to_vec()).unwrap();
    w.finish(&p).unwrap();
    let snap = Snapshot::open(&p).unwrap();
    assert_eq!(snap.flags_compat(), 0xDEAD_BEEF);
    snap.verify().unwrap();
    drop(snap);
    std::fs::remove_file(&p).ok();

    // The same, forged onto an existing container.
    let mut bytes = reference_bytes();
    bytes[12..16].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
    fixup(&mut bytes);
    let (_, r) = gauntlet(&bytes);
    r.unwrap();
}

#[test]
fn unknown_section_tags_are_rejected_as_newer_format() {
    let mut bytes = reference_bytes();
    // Rewrite dcostate's tag to something a future writer might use.
    let tag_field = HEADER_LEN + 2 * ENTRY_LEN;
    let mut raw = [0u8; 8];
    raw[..8].copy_from_slice(b"future01");
    bytes[tag_field..tag_field + 8].copy_from_slice(&raw);
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(
        r,
        &p,
        tag_field as u64,
        "unknown section `future01`: written by an unsupported newer format revision",
    );
}

#[test]
fn malformed_and_duplicate_tags_are_rejected() {
    // Uppercase bytes in the tag field.
    let mut bytes = reference_bytes();
    let tag_field = HEADER_LEN + ENTRY_LEN;
    bytes[tag_field..tag_field + 4].copy_from_slice(b"ROWS");
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, tag_field as u64, "malformed section tag");

    // A tag with bytes after the zero terminator.
    let mut bytes = reference_bytes();
    bytes[tag_field + 5] = b'x'; // "rows\0x..."
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, tag_field as u64, "malformed section tag");

    // Entry 2 renamed to duplicate entry 1's tag.
    let mut bytes = reference_bytes();
    let e2 = HEADER_LEN + 2 * ENTRY_LEN;
    bytes[e2..e2 + 8].fill(0);
    bytes[e2..e2 + 4].copy_from_slice(b"rows");
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, e2 as u64, "duplicate section `rows`");
}

#[test]
fn implausible_section_counts_are_rejected() {
    for count in [0u32, 65, u32::MAX] {
        let mut bytes = reference_bytes();
        bytes[20..24].copy_from_slice(&count.to_le_bytes());
        fixup(&mut bytes);
        let (p, r) = gauntlet(&bytes);
        expect_file_err(r, &p, 20, "implausible section count");
    }
    // A count of 5 on a 4-section container walks into payload bytes and
    // finds a garbage entry — rejected at that entry, not misparsed.
    let mut bytes = reference_bytes();
    bytes[20..24].copy_from_slice(&5u32.to_le_bytes());
    fixup(&mut bytes);
    let (_, r) = gauntlet(&bytes);
    assert!(r.unwrap_err().is_corrupt());
}

#[test]
fn misaligned_and_overlapping_offsets_are_rejected() {
    // Knock `rows` off its 64-byte boundary.
    let mut bytes = reference_bytes();
    let field = entry_offset_field(1);
    let off = section_offset(&bytes, 1) + 4;
    bytes[field..field + 8].copy_from_slice(&off.to_le_bytes());
    fixup(&mut bytes);
    let (p, r) = gauntlet(&bytes);
    expect_file_err(r, &p, field as u64, "not 64-byte aligned");

    // Point `dcostate` into the middle of `rows`'s span.
    let mut bytes = reference_bytes();
    let rows_at = section_offset(&bytes, 1);
    let field = entry_offset_field(2);
    bytes[field..field + 8].copy_from_slice(&(rows_at + 64).to_le_bytes());
    fixup(&mut bytes);
    let (_, r) = gauntlet(&bytes);
    let err = r.unwrap_err();
    assert!(
        err.to_string().contains("overlap") || err.to_string().contains("checksum"),
        "{err}"
    );
}

#[test]
fn missing_sections_and_bad_row_shapes_carry_offsets() {
    // A valid container that simply lacks the section asked for.
    let p = tmp();
    let mut w = SnapshotWriter::new();
    w.add_section("meta", b"only".to_vec()).unwrap();
    w.finish(&p).unwrap();
    let snap = Snapshot::open(&p).unwrap();
    let err = snap.section("dcostate").unwrap_err();
    expect_file_err(
        Err(err),
        &p,
        HEADER_LEN as u64,
        "container has no `dcostate` section",
    );

    // Row views reject dimensions that do not divide the payload.
    drop(snap);
    std::fs::remove_file(&p).ok();
    let bytes = reference_bytes();
    let p2 = tmp();
    std::fs::write(&p2, &bytes).unwrap();
    let snap = Snapshot::open(&p2).unwrap();
    let rows_at = section_offset(&bytes, 1);
    let err = snap.section_rows("rows", 5).unwrap_err();
    expect_file_err(
        Err(err),
        &p2,
        rows_at,
        "not a whole number of 5-dimensional f32 rows",
    );
    let err = snap.section_rows("rows", 0).unwrap_err();
    expect_file_err(Err(err), &p2, rows_at, "f32 rows");
    drop(snap);
    std::fs::remove_file(&p2).ok();
}
