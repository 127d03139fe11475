//! Autoscaling correctness across the scenario registry: conservation,
//! determinism, fleet bounds, and the headline elasticity claim.
//!
//! * For any smoke scenario, seed, and paper policy, an autoscaled run
//!   completes every request exactly once (scale-down draining loses
//!   nothing, scale-up double-dispatches nothing), is byte-deterministic,
//!   and keeps the online fleet inside the configured `[min, max]` band.
//! * On the `diurnal` scenario at paper scale (the ROADMAP's motivating
//!   case), the default queue-pressure autoscaler must cut provisioned
//!   GPU-seconds below the fixed 12-GPU testbed while improving both
//!   average and p95 latency — the elasticity claim `fig_autoscale`
//!   reports.

use gfaas_bench::{paper_policies, run_configured_on_trace, REPORT_SEEDS};
use gfaas_core::{AutoscaleSpec, Cluster, ClusterConfig, PolicySpec};
use gfaas_models::ModelRegistry;
use gfaas_workload::{registry, scenario::find, Scale};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation + determinism + bounds over every smoke scenario.
    #[test]
    fn autoscaled_smoke_runs_conserve_requests_and_respect_bounds(
        seed in any::<u64>(),
        policy_idx in 0usize..3,
    ) {
        let scale = Scale::smoke();
        let spec: AutoscaleSpec = "queue:min=2,max=6,up=4,down=1,cadence=2".parse().unwrap();
        let policy = paper_policies()[policy_idx].clone();
        for sc in registry() {
            let trace = sc.trace(&scale, seed);
            let run = || {
                let mut cfg = ClusterConfig::paper_testbed(policy.clone());
                cfg.num_gpus = 4; // initial fleet inside the band
                cfg.autoscale = Some(spec.clone());
                let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
                let metrics = cluster.run(&trace);
                let bounds = cluster.online_bounds();
                (metrics, bounds)
            };
            let (m1, bounds1) = run();
            let (m2, bounds2) = run();
            prop_assert_eq!(
                m1.completed as usize,
                trace.len(),
                "{} seed {}: requests dropped or double-dispatched",
                sc.name,
                seed
            );
            prop_assert_eq!(&m1, &m2, "{} seed {}: not deterministic", sc.name, seed);
            prop_assert_eq!(bounds1, bounds2);
            let (low, high) = bounds1;
            prop_assert!(
                (2..=6).contains(&low) && (2..=6).contains(&high) && low <= high,
                "{} seed {}: fleet left the [2, 6] band: ({low}, {high})",
                sc.name,
                seed
            );
            prop_assert!(m1.gpu_seconds_provisioned > 0.0);
        }
    }
}

/// The acceptance bar for the elasticity claim: on `diurnal` at paper
/// scale over the report seeds, the default queue-pressure autoscaler
/// must beat the fixed testbed on all three axes at once — fewer
/// provisioned GPU-seconds (seed mean), and equal-or-better average and
/// p95 latency (every seed).
#[test]
fn diurnal_autoscaling_cuts_gpu_seconds_at_equal_or_better_latency() {
    let scale = Scale::paper();
    let scenario = find("diurnal").expect("diurnal scenario registered");
    let policy = PolicySpec::bare("lalbo3");
    let replacement = PolicySpec::bare("lru");
    let autoscale = AutoscaleSpec::default();

    let (mut fixed_gpu_s, mut auto_gpu_s) = (0.0f64, 0.0f64);
    let mut scale_events = 0u64;
    for &seed in &REPORT_SEEDS {
        let trace = scenario.trace(&scale, seed);
        let fixed = run_configured_on_trace(&policy, &replacement, None, &trace);
        let auto = run_configured_on_trace(&policy, &replacement, Some(&autoscale), &trace);
        assert_eq!(auto.completed, fixed.completed, "seed {seed}");
        assert!(
            auto.avg_latency_secs <= fixed.avg_latency_secs,
            "seed {seed}: avg {} vs fixed {}",
            auto.avg_latency_secs,
            fixed.avg_latency_secs
        );
        assert!(
            auto.p95_latency_secs <= fixed.p95_latency_secs,
            "seed {seed}: p95 {} vs fixed {}",
            auto.p95_latency_secs,
            fixed.p95_latency_secs
        );
        fixed_gpu_s += fixed.gpu_seconds_provisioned;
        auto_gpu_s += auto.gpu_seconds_provisioned;
        scale_events += auto.scale_up_events + auto.scale_down_events;
    }
    assert!(
        auto_gpu_s < fixed_gpu_s,
        "elasticity must cut provisioned GPU-seconds: {auto_gpu_s} vs {fixed_gpu_s}"
    );
    assert!(scale_events > 0, "the sinusoid must trigger scale events");
}
