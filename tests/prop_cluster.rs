//! Property tests over the whole cluster: conservation laws and bounds
//! that must hold for *any* workload, policy, and seed.

use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::zoo::{Family, ModelSpec};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::SimTime;
use gfaas_trace::{Trace, TraceRequest};
use proptest::prelude::*;

fn toy_registry(n: usize) -> ModelRegistry {
    let specs: Vec<ModelSpec> = (0..n)
        .map(|i| ModelSpec {
            name: Box::leak(format!("m{i}").into_boxed_str()),
            occupancy_mib: 80 + (i as u64 % 5) * 40,
            load_secs: 0.5 + (i % 3) as f64 * 0.5,
            infer_secs_b32: 0.4 + (i % 4) as f64 * 0.3,
            family: Family::ResNet,
        })
        .collect();
    ModelRegistry::from_specs(specs)
}

fn arb_policy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::bare("lb")),
        Just(PolicySpec::bare("lalb")),
        (0u32..50).prop_map(|limit| PolicySpec::parse(&format!("lalbo3:{limit}")).unwrap()),
    ]
}

fn arb_trace(nmodels: u32) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..120_000u64, 0..nmodels), 1..120).prop_map(|reqs| {
        Trace::new(
            reqs.into_iter()
                .map(|(ms, m)| TraceRequest {
                    at: SimTime::from_micros(ms * 1000),
                    function: m,
                    model: m,
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: every request completes exactly once; hits + misses
    /// equal completions; all ratios live in [0, 1].
    #[test]
    fn conservation_and_bounds(
        policy in arb_policy(),
        trace in arb_trace(6),
        gpus in 1usize..5,
    ) {
        let mut cluster = Cluster::new(
            ClusterConfig::test(gpus, 500, policy),
            toy_registry(6),
        );
        let m = cluster.run(&trace);
        prop_assert_eq!(m.completed as usize, trace.len());
        prop_assert!((m.hit_ratio + m.miss_ratio - 1.0).abs() < 1e-9);
        for v in [m.miss_ratio, m.hit_ratio, m.false_miss_ratio, m.sm_utilization] {
            prop_assert!((0.0..=1.0).contains(&v), "ratio out of range: {v}");
        }
        prop_assert!(m.avg_duplicates >= 0.0 && m.avg_duplicates <= gpus as f64);
        prop_assert!(m.avg_latency_secs <= m.max_latency_secs + 1e-9);
        prop_assert!(m.latency_variance >= 0.0);
        // The run cannot end before the last arrival plus one inference.
        let last_arrival = trace.requests().last().unwrap().at.as_secs_f64();
        prop_assert!(m.makespan_secs >= last_arrival);
    }

    /// False misses never exceed misses, and a single-GPU cluster can
    /// never produce a false miss (there is no "other GPU").
    #[test]
    fn false_misses_are_a_subset_of_misses(
        policy in arb_policy(),
        trace in arb_trace(4),
    ) {
        let mut cluster = Cluster::new(
            ClusterConfig::test(1, 400, policy),
            toy_registry(4),
        );
        let m = cluster.run(&trace);
        prop_assert!(m.false_misses <= m.misses);
        prop_assert_eq!(m.false_misses, 0, "single GPU cannot false-miss");
    }

    /// Determinism: identical inputs give identical metrics.
    #[test]
    fn identical_runs_identical_metrics(
        policy in arb_policy(),
        trace in arb_trace(5),
    ) {
        let run = || {
            Cluster::new(ClusterConfig::test(3, 400, policy.clone()), toy_registry(5)).run(&trace)
        };
        prop_assert_eq!(run(), run());
    }

    /// The first request for each model in a fresh cluster is always a
    /// miss; total misses are at least the number of distinct models.
    #[test]
    fn cold_start_misses_lower_bound(
        policy in arb_policy(),
        trace in arb_trace(6),
    ) {
        let distinct = {
            let mut m: Vec<u32> = trace.requests().iter().map(|r| r.model).collect();
            m.sort_unstable();
            m.dedup();
            m.len() as u64
        };
        let mut cluster = Cluster::new(
            ClusterConfig::test(4, 1000, policy),
            toy_registry(6),
        );
        let m = cluster.run(&trace);
        prop_assert!(m.misses >= distinct, "misses {} < distinct {}", m.misses, distinct);
    }

    /// Adding GPUs never loses requests and keeps ratios sane (smoke test
    /// for the scheduler across cluster sizes).
    #[test]
    fn scales_across_cluster_sizes(trace in arb_trace(8), gpus in 1usize..9) {
        let mut cluster = Cluster::new(
            ClusterConfig::test(gpus, 700, PolicySpec::bare("lalbo3")),
            toy_registry(8),
        );
        let m = cluster.run(&trace);
        prop_assert_eq!(m.completed as usize, trace.len());
    }
}
