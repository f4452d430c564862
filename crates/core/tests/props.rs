//! Property-based tests on the DCO decision semantics.

use ddc_core::{
    AdSampling, AdSamplingConfig, Dco, DdcRes, DdcResConfig, Decision, Exact, QueryDco,
};
use ddc_vecs::SynthSpec;
use proptest::prelude::*;

fn workload(seed: u64) -> ddc_vecs::Workload {
    let mut spec = SynthSpec::tiny_test(16, 200, seed);
    spec.alpha = 1.2;
    spec.generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pruning is monotone in τ: if a candidate survives (goes exact) at
    /// threshold τ, it must also survive at any larger τ′ ≥ τ.
    #[test]
    fn ddcres_pruning_monotone_in_tau(seed in 0u64..20, id in 0u32..200, scale in 1.0f32..4.0) {
        let w = workload(seed);
        let res = DdcRes::build(&w.base, DdcResConfig {
            init_d: 4,
            delta_d: 4,
            ..Default::default()
        }).unwrap();
        let q = w.queries.get(0);
        let mut eval = res.begin(q);
        let tau = ddc_linalg::kernels::l2_sq(w.base.get(id as usize), q) * 0.8 + 0.1;
        let at_tau = eval.test(id, tau).is_pruned();
        let at_bigger = eval.test(id, tau * scale).is_pruned();
        // pruned(τ·scale) ⇒ pruned(τ) for scale ≥ 1.
        if at_bigger {
            prop_assert!(at_tau, "pruned at larger τ but not smaller");
        }
    }

    /// ADSampling has the same monotonicity.
    #[test]
    fn adsampling_pruning_monotone_in_tau(seed in 0u64..20, id in 0u32..200, scale in 1.0f32..4.0) {
        let w = workload(seed);
        let ads = AdSampling::build(&w.base, AdSamplingConfig {
            delta_d: 4,
            ..Default::default()
        }).unwrap();
        let q = w.queries.get(1);
        let mut eval = ads.begin(q);
        let tau = ddc_linalg::kernels::l2_sq(w.base.get(id as usize), q) * 0.8 + 0.1;
        let at_tau = eval.test(id, tau).is_pruned();
        let at_bigger = eval.test(id, tau * scale).is_pruned();
        if at_bigger {
            prop_assert!(at_tau);
        }
    }

    /// Exact results through `test` equal `exact()` regardless of τ.
    #[test]
    fn exact_results_do_not_depend_on_tau(seed in 0u64..20, id in 0u32..200, tau in 0.1f32..1e5) {
        let w = workload(seed);
        let res = DdcRes::build(&w.base, DdcResConfig {
            init_d: 4,
            delta_d: 4,
            ..Default::default()
        }).unwrap();
        let q = w.queries.get(2);
        let mut eval = res.begin(q);
        let reference = eval.exact(id);
        if let Decision::Exact(d) = eval.test(id, tau) {
            prop_assert!((d - reference).abs() < 1e-2 * reference.max(1.0));
        }
    }

    /// The exact baseline never prunes, for any τ.
    #[test]
    fn exact_dco_never_prunes(seed in 0u64..20, id in 0u32..200, tau in -1e3f32..1e3) {
        let w = workload(seed);
        let dco = Exact::build(&w.base);
        let mut eval = dco.begin(w.queries.get(0));
        prop_assert!(!eval.test(id, tau).is_pruned());
    }

    /// Counters add up: candidates = pruned + exact; dims ≤ full.
    #[test]
    fn counter_arithmetic(seed in 0u64..20, tau_rank in 5usize..50) {
        let w = workload(seed);
        let res = DdcRes::build(&w.base, DdcResConfig {
            init_d: 4,
            delta_d: 4,
            ..Default::default()
        }).unwrap();
        let q = w.queries.get(0);
        let tau = ddc_vecs::metric_oracle::tau_at_rank(&w.base, q, tau_rank, &ddc_linalg::Metric::L2);
        let mut eval = res.begin(q);
        for id in 0..w.base.len() as u32 {
            eval.test(id, tau);
        }
        let c = eval.counters();
        prop_assert_eq!(c.candidates, c.pruned + c.exact);
        prop_assert!(c.dims_scanned <= c.dims_full);
        prop_assert_eq!(c.dims_full, c.candidates * 16);
    }
}
