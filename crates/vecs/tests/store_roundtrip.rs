//! Property tests for the out-of-core storage layer: for arbitrary
//! content, the eager RAM readers and the zero-copy mmap behind
//! [`SharedRows::open`] must return **bit-identical** rows, and both must
//! reject truncated, corrupt-header, zero-dimension, and empty inputs.

use ddc_vecs::io::{read_bvecs, read_fvecs, read_fvecs_from, write_bvecs, write_fvecs};
use ddc_vecs::store::mmap_supported;
use ddc_vecs::{SharedRows, VecSet, VecsError};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(tag: &str, case: usize) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ddc-store-prop-{}-{tag}-{case}",
        std::process::id()
    ));
    p
}

fn bits(set: &VecSet) -> Vec<u32> {
    set.as_flat().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// fvecs: write → read back from the file into RAM, from its bytes
    /// through any `Read`, and through the mmap; every path returns the
    /// same bits (including NaN payloads, which survive because nothing
    /// here interprets the floats).
    #[test]
    fn fvecs_three_readers_agree_bitwise(
        dim in 1usize..8,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| {
                        let x = ((seed as f32) + (i * dim + j) as f32) * 0.37 - 5.0;
                        if (i + j) % 17 == 0 { f32::NAN } else { x }
                    })
                    .collect()
            })
            .collect();
        let set = VecSet::from_rows(dim, &rows).unwrap();
        let path = tmp("f", n * 100 + dim * 10);
        let path = path.with_extension("fvecs");
        write_fvecs(&path, &set).unwrap();

        let ram = read_fvecs(&path, None).unwrap();
        prop_assert_eq!(bits(&ram), bits(&set));
        let bytes = std::fs::read(&path).unwrap();
        let from_bytes = read_fvecs_from(&bytes[..], None).unwrap();
        prop_assert_eq!(bits(&from_bytes), bits(&set));

        let store = SharedRows::open(&path).unwrap();
        prop_assert_eq!(store.len(), n);
        prop_assert_eq!(store.dim(), dim);
        for i in 0..n {
            prop_assert_eq!(
                store.get(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                set.get(i).iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }
        if mmap_supported() {
            prop_assert_eq!(store.backend(), "mmap");
        }

        std::fs::remove_file(&path).ok();
    }

    /// bvecs: byte payloads widen identically through the eager reader
    /// and the store, which streams them into RAM (zero-copy needs `f32`
    /// payloads, so bvecs never map).
    #[test]
    fn bvecs_ram_and_store_agree(
        dim in 1usize..8,
        n in 1usize..24,
        seed in 0u64..1000,
    ) {
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..dim).map(|j| ((seed as usize + i * 7 + j * 3) % 256) as f32).collect())
            .collect();
        let set = VecSet::from_rows(dim, &rows).unwrap();
        let path = tmp("b", n * 100 + dim * 10).with_extension("bvecs");
        write_bvecs(&path, &set).unwrap();

        let ram = read_bvecs(&path, None).unwrap();
        prop_assert_eq!(&ram, &set);

        let store = SharedRows::open(&path).unwrap();
        prop_assert!(matches!(&store, SharedRows::Owned(s) if *s == set));

        std::fs::remove_file(&path).ok();
    }

    /// Truncating a well-formed fvecs file anywhere inside a frame makes
    /// both readers reject it (clean row boundaries shorten instead), and
    /// file-based errors name the path.
    #[test]
    fn truncation_rejected_by_all_readers(
        dim in 1usize..6,
        n in 2usize..10,
        cut in 1usize..20,
    ) {
        let set = VecSet::from_rows(
            dim,
            &(0..n).map(|i| vec![i as f32; dim]).collect::<Vec<_>>(),
        )
        .unwrap();
        let path = tmp("t", n * 100 + dim * 10 + cut).with_extension("fvecs");
        write_fvecs(&path, &set).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let stride = 4 + dim * 4;
        let cut = cut.min(bytes.len() - 1);
        std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
        let on_boundary = cut % stride == 0;

        let ram = read_fvecs(&path, None);
        let store = SharedRows::open(&path);
        if on_boundary {
            // A cut at a row boundary is just a shorter valid file.
            prop_assert_eq!(ram.unwrap().len(), n - cut / stride);
            let store = store.unwrap();
            prop_assert_eq!(store.len(), n - cut / stride);
            if mmap_supported() {
                prop_assert_eq!(store.backend(), "mmap");
            }
        } else {
            let err = ram.unwrap_err();
            prop_assert!(err.is_corrupt(), "ram reader: {err}");
            prop_assert!(err.to_string().contains("ddc-store-prop"), "{err}");
            let err = store.unwrap_err();
            prop_assert!(err.is_corrupt(), "store: {err}");
        }
        std::fs::remove_file(&path).ok();
    }
}

/// Zero-dimension headers are rejected by every reader.
#[test]
fn zero_dim_rejected_by_all_readers() {
    let path = tmp("z", 0).with_extension("fvecs");
    std::fs::write(&path, 0u32.to_le_bytes()).unwrap();
    assert!(read_fvecs(&path, None).unwrap_err().is_corrupt());
    assert!(SharedRows::open(&path).unwrap_err().is_corrupt());
    std::fs::remove_file(&path).ok();
}

/// Empty files are an error on every reader — none may silently yield
/// an empty dataset.
#[test]
fn empty_file_rejected_by_all_readers() {
    let path = tmp("e", 0).with_extension("fvecs");
    std::fs::write(&path, []).unwrap();
    assert!(matches!(read_fvecs(&path, None), Err(VecsError::Empty(_))));
    assert!(matches!(SharedRows::open(&path), Err(VecsError::Empty(_))));
    let bvecs = path.with_extension("bvecs");
    std::fs::write(&bvecs, []).unwrap();
    assert!(matches!(read_bvecs(&bvecs, None), Err(VecsError::Empty(_))));
    std::fs::remove_file(&bvecs).ok();
    std::fs::remove_file(&path).ok();
}

/// A corrupt interior header (wrong dim mid-file, stride preserved) is
/// caught by the decoding reader immediately and by the mapped backend's
/// audit pass.
#[test]
fn corrupt_interior_header_rejected_by_all_readers() {
    let dim = 3usize;
    let set = VecSet::from_rows(
        dim,
        &(0..6).map(|i| vec![i as f32; dim]).collect::<Vec<_>>(),
    )
    .unwrap();
    let path = tmp("c", 0).with_extension("fvecs");
    write_fvecs(&path, &set).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let stride = 4 + dim * 4;
    bytes[2 * stride..2 * stride + 4].copy_from_slice(&11u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let err = read_fvecs(&path, None).unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(
        err.to_string().contains(&format!("byte {}", 2 * stride)),
        "{err}"
    );
    if mmap_supported() {
        let err = SharedRows::open(&path).unwrap().verify().unwrap_err();
        assert!(
            err.to_string().contains(&format!("byte {}", 2 * stride)),
            "{err}"
        );
    }
    std::fs::remove_file(&path).ok();
}
