//! [`EngineStats`]: what an engine is, in one struct.

/// A point-in-time snapshot of what an engine is made of and what it
/// costs in memory (returned by [`crate::Engine::stats`]). Work done is
/// the server's ledger, not the engine's: every search result carries its
/// own counters.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Index kind tag (`"flat"`, `"ivf"`, `"hnsw"`).
    pub index_kind: &'static str,
    /// Operator display name (`"DDCres"`, ...).
    pub dco_name: &'static str,
    /// SIMD kernel backend selected at startup
    /// ([`ddc_linalg::kernels::backend_name`]).
    pub kernel_backend: &'static str,
    /// Spec form of the engine's metric (`"l2"`, `"ip"`, `"cosine"`,
    /// `"wl2:..."` — [`ddc_linalg::Metric::spec_value`]).
    pub metric: String,
    /// Whether per-row payload tags are attached (filtered search
    /// available).
    pub payloads: bool,
    /// Points served.
    pub len: usize,
    /// Original-space dimensionality.
    pub dim: usize,
    /// Index-structure bytes (graph links / centroids + posting lists).
    pub index_bytes: usize,
    /// Operator bytes beyond its vector copy (rotations, norms,
    /// codebooks, classifiers — [`ddc_core::Dco::extra_bytes`]).
    pub dco_extra_bytes: usize,
    /// The operator's transformed vector copy: `len · dim · 4` bytes.
    pub vector_bytes: usize,
}

impl EngineStats {
    /// Total resident bytes: vectors + index structure + operator extras.
    pub fn total_bytes(&self) -> usize {
        self.vector_bytes + self.index_bytes + self.dco_extra_bytes
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mb = |b: usize| b as f64 / (1024.0 * 1024.0);
        writeln!(
            f,
            "{}-{} over {} x {}d [{} kernels, {} metric]",
            self.index_kind, self.dco_name, self.len, self.dim, self.kernel_backend, self.metric
        )?;
        write!(
            f,
            "  memory: {:.2} MiB vectors + {:.2} MiB index + {:.2} MiB operator = {:.2} MiB",
            mb(self.vector_bytes),
            mb(self.index_bytes),
            mb(self.dco_extra_bytes),
            mb(self.total_bytes())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_display_and_totals() {
        let stats = EngineStats {
            index_kind: "hnsw",
            dco_name: "DDCres",
            kernel_backend: "scalar",
            metric: "cosine".into(),
            payloads: false,
            len: 1000,
            dim: 32,
            index_bytes: 4096,
            dco_extra_bytes: 2048,
            vector_bytes: 128_000,
        };
        assert_eq!(stats.total_bytes(), 134_144);
        let text = stats.to_string();
        assert!(text.contains("hnsw-DDCres"));
        assert!(text.contains("1000 x 32d"));
        assert!(text.contains("cosine metric"));
    }
}
