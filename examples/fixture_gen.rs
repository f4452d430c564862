//! fixture_gen: write a synthetic dataset to disk in the TEXMEX layout,
//! so the out-of-core paths (`SharedRows::open`, `ddc-serve --data`) have a
//! real file to map without downloading anything.
//!
//! ```bash
//! cargo run --release --example fixture_gen -- --dir /tmp/ddc-data --name demo --n 20000 --dim 32
//! DDC_DATA_DIR=/tmp/ddc-data ddc-serve --data demo       # serves the mapped file
//! ```
//!
//! Emits `<dir>/<name>/<name>_base.fvecs`, `..._query.fvecs`, and
//! `..._learn.fvecs` — exactly what `ddc_vecs::io::resolve_fixture`
//! expects for a custom fixture name.

use ddc::vecs::io::write_fvecs;
use ddc::vecs::{SharedRows, SynthSpec};

#[path = "common/mod.rs"]
mod common;
use common::arg;

fn main() {
    let dir = arg("dir", "fixtures");
    let name = arg("name", "synth");
    let n: usize = arg("n", "20000").parse().expect("--n must be an integer");
    let dim: usize = arg("dim", "32").parse().expect("--dim must be an integer");
    let seed: u64 = arg("seed", "42")
        .parse()
        .expect("--seed must be an integer");

    let mut spec = SynthSpec::tiny_test(dim, n, seed);
    spec.name = name.clone();
    spec.n_queries = 100.min(n);
    spec.n_train_queries = 1000.min(n);
    println!("generating {name} ({n} x {dim}d, seed {seed})...");
    let w = spec.generate();

    let root = std::path::Path::new(&dir).join(&name);
    std::fs::create_dir_all(&root).expect("create fixture directory");
    let base = root.join(format!("{name}_base.fvecs"));
    write_fvecs(&base, &w.base).expect("write base");
    write_fvecs(root.join(format!("{name}_query.fvecs")), &w.queries).expect("write queries");
    write_fvecs(root.join(format!("{name}_learn.fvecs")), &w.train_queries).expect("write learn");

    // Prove the artifact round-trips through the out-of-core path before
    // declaring success.
    let rows = SharedRows::open(&base).expect("reopen what we wrote");
    assert_eq!((rows.len(), rows.dim()), (n, dim));
    println!(
        "wrote {} ({} rows x {}d, {} KiB, reopened via {} backend)",
        base.display(),
        rows.len(),
        rows.dim(),
        (rows.mapped_bytes().max(rows.resident_bytes())) / 1024,
        rows.backend(),
    );
    println!("use it: DDC_DATA_DIR={dir} ddc-serve --data {name}");
}
