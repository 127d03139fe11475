//! Dynamic-batching correctness across the scenario registry:
//! conservation, determinism, throughput monotonicity, and the headline
//! coalescing claim.
//!
//! * For any smoke scenario, seed, and batching policy, a batched run
//!   completes every trace request *exactly once* (verified per request
//!   id through the datastore latency mirror — coalescing neither drops
//!   nor double-serves), and is byte-deterministic.
//! * On the smoke `burst` scenario, `coalesce` never lowers completed
//!   requests per busy GPU-second vs per-request dispatch.
//! * On `burst` at paper scale over the report seeds, the default
//!   `coalesce` policy must lift busy-time throughput by ≥ 19% without
//!   worsening p95 — the claim `fig_batching` reports.

use std::sync::Arc;

use gfaas_bench::{run, AveragedMetrics, REPORT_SEEDS};
use gfaas_core::{Cluster, ClusterConfig, PolicySpec, RunMetrics};
use gfaas_faas::Datastore;
use gfaas_models::ModelRegistry;
use gfaas_trace::Trace;
use gfaas_workload::{registry, scenario::find, Scale};
use proptest::prelude::*;

/// The paper testbed under LALBO3 with the given batching spec.
fn batched(batching: &str) -> ClusterConfig {
    ClusterConfig {
        batching: batching.parse().unwrap(),
        ..ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"))
    }
}

/// Runs a paper-testbed cluster on `trace` with the datastore mirror on,
/// returning the metrics and the datastore.
fn run_mirrored(batching: &str, trace: &Trace, crash_rate: f64) -> (RunMetrics, Arc<Datastore>) {
    let mut cfg = batched(batching);
    cfg.report_to_datastore = true;
    cfg.crash_rate = crash_rate;
    let ds = Arc::new(Datastore::new());
    let mut cluster = Cluster::new(cfg, ModelRegistry::table1()).with_datastore(Arc::clone(&ds));
    (cluster.run(trace), ds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Conservation + determinism over every smoke scenario and batching
    /// policy: every trace id completes exactly once.
    #[test]
    fn batched_smoke_runs_serve_every_request_exactly_once(
        seed in any::<u64>(),
        batching_idx in 0usize..3,
    ) {
        let scale = Scale::smoke();
        let batching = ["none", "coalesce", "adaptive"][batching_idx];
        for sc in registry() {
            let trace = sc.trace(&scale, seed);
            let (m1, ds) = run_mirrored(batching, &trace, 0.0);
            let (m2, _) = run_mirrored(batching, &trace, 0.0);
            prop_assert_eq!(
                m1.completed as usize,
                trace.len(),
                "{} seed {seed} {batching}: completion count off",
                sc.name
            );
            prop_assert_eq!(&m1, &m2, "{} seed {seed} {batching}: not deterministic", sc.name);
            // Exactly once: `completed == len` bounds the total, and a
            // latency key per id proves each request finished at least
            // once.
            for id in 0..trace.len() as u64 {
                prop_assert!(
                    ds.get(format!("/latency/{id}")).is_some(),
                    "{} seed {seed} {batching}: request {id} never completed",
                    sc.name
                );
            }
            // Coalescing accounting stays coherent.
            prop_assert_eq!(
                m1.invocations >= 1 && m1.invocations <= m1.completed,
                true,
                "{} seed {seed} {batching}: invocations {} vs completed {}",
                sc.name,
                m1.invocations,
                m1.completed
            );
        }
    }

    /// Conservation holds under failure injection too: a crashed batch
    /// retries whole and still completes every request exactly once.
    #[test]
    fn batched_runs_survive_crashes(seed in any::<u64>()) {
        let trace = find("burst").unwrap().trace(&Scale::smoke(), seed);
        let (m, ds) = run_mirrored("coalesce", &trace, 0.2);
        prop_assert_eq!(m.completed as usize, trace.len());
        for id in 0..trace.len() as u64 {
            let key = format!("/latency/{id}");
            prop_assert!(ds.get(&key).is_some(), "request {} never completed", id);
        }
    }

    /// `coalesce` never lowers completed requests per *busy* GPU-second
    /// vs per-request dispatch on the smoke `burst` scenario: coalescing
    /// only merges work (amortising invocation overhead and sharing
    /// uploads), and holds consume no GPU time.
    #[test]
    fn coalescing_never_lowers_smoke_burst_throughput(seed in any::<u64>()) {
        let trace = find("burst").unwrap().trace(&Scale::smoke(), seed);
        let none = run(batched("none"), &trace).0;
        let coalesce = run(batched("coalesce"), &trace).0;
        prop_assert_eq!(coalesce.completed, none.completed);
        let thr = |m: &RunMetrics| m.completed as f64 / m.gpu_busy_seconds.max(1e-9);
        prop_assert!(
            thr(&coalesce) >= thr(&none),
            "seed {seed}: coalesce {} < none {} req/busy-gpu-s",
            thr(&coalesce),
            thr(&none)
        );
    }
}

/// The acceptance bar for the batching claim: on `burst` at paper scale
/// over the report seeds, the default `coalesce` policy lifts completed
/// requests per busy GPU-second by ≥ 19% (seed mean; `fig_batching`
/// prints +20%) while *improving* the seed-mean p95, and `adaptive` must
/// not trail far behind.
#[test]
fn burst_coalescing_lifts_throughput_without_hurting_p95() {
    let scale = Scale::paper();
    let scenario = find("burst").expect("burst scenario registered");

    let mode = |batching: &str| -> AveragedMetrics {
        let runs: Vec<RunMetrics> = REPORT_SEEDS
            .iter()
            .map(|&s| run(batched(batching), &scenario.trace(&scale, s)).0)
            .collect();
        AveragedMetrics::from_runs(&runs)
    };
    let none = mode("none");
    let coalesce = mode("coalesce");
    let adaptive = mode("adaptive");

    assert_eq!(none.completed, coalesce.completed);
    let gain = coalesce.requests_per_busy_gpu_second() / none.requests_per_busy_gpu_second();
    assert!(
        gain >= 1.19,
        "coalesce busy-throughput gain {:.4} below the 1.19 bar",
        gain
    );
    assert!(
        coalesce.p95_latency_secs <= none.p95_latency_secs,
        "coalesce p95 {} must not exceed the per-request baseline {}",
        coalesce.p95_latency_secs,
        none.p95_latency_secs
    );
    assert!(
        coalesce.avg_effective_batch > 2.0,
        "burst queues must actually coalesce (eff batch {})",
        coalesce.avg_effective_batch
    );
    let adaptive_gain =
        adaptive.requests_per_busy_gpu_second() / none.requests_per_busy_gpu_second();
    assert!(
        adaptive_gain >= 1.15,
        "adaptive busy-throughput gain {:.4} below the 1.15 bar",
        adaptive_gain
    );
    assert!(adaptive.p95_latency_secs <= none.p95_latency_secs);
}

/// A coalescing cap can leave later same-model requests in a GPU's local
/// queue behind other models' requests, and the wait estimator's
/// per-model groups must follow that order or the batched wait charges
/// the wrong groups. This cell reaches that case early in the run;
/// debug builds assert the incremental estimate against the naive queue
/// walk on every call, so the run itself is the check.
#[test]
fn capped_coalescing_keeps_the_wait_estimate_in_sync() {
    let trace = find("paper").unwrap().trace(&Scale::paper(), 11);
    let m = run(batched("coalesce:max=2"), &trace).0;
    assert_eq!(m.completed as usize, trace.len());
}
