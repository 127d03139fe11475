//! Integration tests for the model-storage hierarchy: the `gfaas-store`
//! tier stack wired through the cluster's load path.
//!
//! The two contracts under test, end to end:
//!
//! * **Byte identity** — `store=flat` (the default) must reproduce the
//!   paper pipeline bit for bit, across scenarios, policies, autoscale
//!   and batching cells. The flat gate is what lets every published
//!   number survive this subsystem.
//! * **Conservation & determinism** — the tiered store is a modelled
//!   resource: host-tier bytes never exceed capacity, every counter is
//!   a pure function of (config, seed), and demoted models actually
//!   come back from the host tier instead of the origin.

use gfaas_core::{Cluster, ClusterConfig, PolicySpec, RunMetrics, StoreStats};
use gfaas_models::ModelRegistry;
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;
use proptest::prelude::*;

/// One fully configured smoke-scale cell, returning the run metrics and
/// the store's own counters (which the `run_*_on_trace` helpers do not
/// expose).
fn run_cell(
    scenario: &str,
    seed: u64,
    replacement: &str,
    batching: &str,
    autoscale: Option<&str>,
    store: &str,
) -> (RunMetrics, StoreStats) {
    let trace = find(scenario)
        .expect("scenario registered")
        .trace(&Scale::smoke(), seed);
    let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
    cfg.replacement = replacement.parse().expect("replacement spec");
    cfg.batching = batching.parse().expect("batching spec");
    cfg.autoscale = autoscale.map(|s| s.parse().expect("autoscale spec"));
    cfg.store = store.parse().expect("store spec");
    let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
    let metrics = cluster.run(&trace);
    let stats = cluster.store_stats();
    (metrics, stats)
}

const AUTOSCALE: &str = "queue:min=2,max=8,up=6,down=1,cadence=2";

// ---------------------------------------------------------------------
// Flat-vs-default byte identity
// ---------------------------------------------------------------------

/// An explicit `store=flat` run is the default config, bit for bit —
/// across scenarios and the autoscale/batching cells. A divergence here
/// means the flat gate leaked a store call into the paper pipeline.
#[test]
fn flat_store_is_byte_identical_to_the_default_config() {
    let cells: &[(&str, &str, Option<&str>)] = &[
        ("none", "lru", None),
        ("none", "lru", Some(AUTOSCALE)),
        ("coalesce", "lru", None),
        ("adaptive", "tinylfu", Some(AUTOSCALE)),
    ];
    for scenario in ["paper", "diurnal", "churn"] {
        for &(batching, replacement, autoscale) in cells {
            let trace = find(scenario).unwrap().trace(&Scale::smoke(), 11);
            let run = |explicit_flat: bool| -> RunMetrics {
                let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
                cfg.replacement = replacement.parse().unwrap();
                cfg.batching = batching.parse().unwrap();
                cfg.autoscale = autoscale.map(|s| s.parse().unwrap());
                if explicit_flat {
                    cfg.store = "flat".parse().unwrap();
                }
                Cluster::new(cfg, ModelRegistry::table1()).run(&trace)
            };
            let default_run = run(false);
            let flat_run = run(true);
            assert_eq!(
                default_run, flat_run,
                "{scenario}/{batching}/{replacement}: explicit flat diverged from default"
            );
            assert_eq!(format!("{default_run:?}"), format!("{flat_run:?}"));
        }
    }
}

/// The flat store never touches tier state: every counter stays zero.
#[test]
fn flat_store_reports_no_tier_activity() {
    let (_, stats) = run_cell("churn", 11, "lru", "none", Some(AUTOSCALE), "flat");
    assert_eq!(stats, StoreStats::default());
}

// ---------------------------------------------------------------------
// Capacity conservation (property)
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the cell — seed, host size, origin bandwidth, autoscale
    /// on/off, batching on/off — the host tier conserves bytes: usage
    /// never exceeds capacity, residency implies usage, and every entry
    /// ever displaced was first staged (demotion or prefetch).
    #[test]
    fn tiered_store_conserves_host_capacity(
        seed in 0u64..500,
        host_g in prop_oneof![Just(1u64), Just(4), Just(16), Just(64)],
        bw in prop_oneof![Just("1G"), Just("4G")],
        autoscale in any::<bool>(),
        batching in prop_oneof![Just("none"), Just("adaptive")],
    ) {
        let store = format!("tiered:host={host_g}G,origin_bw={bw}");
        let (metrics, s) = run_cell(
            "churn",
            seed,
            "lru",
            batching,
            autoscale.then_some(AUTOSCALE),
            &store,
        );
        prop_assert!(metrics.completed > 0, "cell completed nothing");
        prop_assert_eq!(s.host_capacity, host_g << 30);
        prop_assert!(
            s.host_bytes_used <= s.host_capacity,
            "host tier over capacity: {} > {}",
            s.host_bytes_used,
            s.host_capacity
        );
        prop_assert_eq!(s.host_models == 0, s.host_bytes_used == 0);
        // Every displaced host entry was first staged by one of the three
        // insert paths: demotion, prefetch, or a demand fetch passing
        // through the host tier on its way to HBM.
        prop_assert!(
            s.host_evictions <= s.demotions + s.prefetches + s.origin_loads,
            "displaced more entries than were ever staged"
        );
    }
}

// ---------------------------------------------------------------------
// Determinism with background transfers
// ---------------------------------------------------------------------

/// Prefetches ride the same virtual clock as everything else: two
/// identically seeded tiered runs — prefetch and scale-up staging on,
/// autoscaler churning the fleet — agree on every metric and every
/// store counter, bit for bit.
#[test]
fn tiered_runs_are_seed_deterministic_with_prefetch() {
    let cell = || {
        run_cell(
            "diurnal",
            23,
            "lru",
            "none",
            Some(AUTOSCALE),
            "tiered:host=8G,origin_bw=1G,prefetch=2,hot=4",
        )
    };
    let (m1, s1) = cell();
    let (m2, s2) = cell();
    assert_eq!(m1, m2, "metrics diverged between identical tiered runs");
    assert_eq!(s1, s2, "store counters diverged between identical runs");
    // The cell must actually exercise the background path, or the
    // assertions above are vacuous.
    assert!(s1.demotions > 0, "cell never demoted");
}

// ---------------------------------------------------------------------
// Demote-then-rehit
// ---------------------------------------------------------------------

/// Evicted models come back from the host tier: with a host cache big
/// enough to hold the churned working set, re-misses are host hits and
/// origin traffic drops; with a token 1-byte host tier nothing can
/// stage, so every miss crosses the origin link.
#[test]
fn demoted_models_rehit_from_host_not_origin() {
    let (_, with_host) = run_cell("churn", 11, "lru", "none", None, "tiered:host=64G");
    let (_, without) = run_cell("churn", 11, "lru", "none", None, "tiered:host=1");
    assert!(with_host.demotions > 0, "churn cell never evicted");
    assert!(
        with_host.host_hits > 0,
        "no demoted model was re-served from the host tier"
    );
    assert_eq!(without.host_hits, 0, "1-byte host tier served a hit");
    assert!(
        without.host_rejects > 0,
        "1-byte host tier accepted a staged model"
    );
    assert!(
        with_host.origin_loads < without.origin_loads,
        "host cache did not divert origin traffic ({} >= {})",
        with_host.origin_loads,
        without.origin_loads
    );
}

// ---------------------------------------------------------------------
// tinylfu:auto pinning
// ---------------------------------------------------------------------

/// The auto-tuned TinyLFU holds its own against hand tuning on the two
/// cells the presets were tuned for: drift's hand choice is the
/// stable-regime default, churn's is the churn preset. On each cell
/// `auto` must (a) never lose to the cell's *mis*-tuned preset — the
/// whole point of auto is not having to know the workload — and (b) land
/// within noise of the cell's correctly hand-tuned preset. The pinned
/// regression is the regime detector latching the wrong parameter set.
///
/// Paper scale, not smoke: at 60 requests the decay window never fills,
/// so every TinyLFU parameterisation is bit-identical there and a smoke
/// assertion would be vacuous.
#[test]
fn tinylfu_auto_matches_hand_tuned_presets() {
    const DEFAULTS: &str = "tinylfu";
    const CHURN_TUNED: &str = "tinylfu:0.3,256,front=1";
    let seeds = [11u64, 23, 47];
    // (scenario, the preset a human would pick for it, the mis-pick)
    for (scenario, right, wrong) in [
        ("drift", DEFAULTS, CHURN_TUNED),
        ("churn", CHURN_TUNED, DEFAULTS),
    ] {
        let miss = |replacement: &str| -> f64 {
            let mut sum = 0.0;
            for &seed in &seeds {
                let trace = find(scenario).unwrap().trace(&Scale::paper(), seed);
                let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
                cfg.replacement = replacement.parse().unwrap();
                let m = Cluster::new(cfg, ModelRegistry::table1()).run(&trace);
                sum += m.miss_ratio;
            }
            sum / seeds.len() as f64
        };
        let auto = miss("tinylfu:auto");
        let mistuned = miss(wrong);
        let tuned = miss(right);
        assert!(
            auto <= mistuned,
            "{scenario}: tinylfu:auto miss {auto:.4} loses to the mis-tuned preset \
             {wrong:?} at {mistuned:.4}"
        );
        assert!(
            auto <= tuned + 0.0075,
            "{scenario}: tinylfu:auto miss {auto:.4} not within noise of hand-tuned \
             {right:?} at {tuned:.4}"
        );
    }
}
