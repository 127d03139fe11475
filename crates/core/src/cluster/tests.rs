//! Cluster behaviour end to end: the paper's scheduling and caching
//! arms, crashes, tenants, autoscaling, batching, the policy surface,
//! and the snapshot, checkpoint and lookahead machinery.

use gfaas_models::zoo::{Family, ModelSpec};
use gfaas_snap::SnapError;
use gfaas_trace::TraceRequest;

use super::*;
use crate::scheduler::Dispatch;

/// A registry of `n` identical small models: 100 MiB, 1 s load, 1 s
/// inference at batch 32 — easy arithmetic for assertions.
fn toy_registry(n: usize) -> ModelRegistry {
    let specs: Vec<ModelSpec> = (0..n)
        .map(|i| ModelSpec {
            name: Box::leak(format!("toy{i}").into_boxed_str()),
            occupancy_mib: 100,
            load_secs: 1.0,
            infer_secs_b32: 1.0,
            family: Family::ResNet,
        })
        .collect();
    ModelRegistry::from_specs(specs)
}

fn trace_of(reqs: &[(f64, u32)]) -> Trace {
    Trace::new(
        reqs.iter()
            .map(|&(s, m)| TraceRequest {
                at: SimTime::from_secs_f64(s),
                function: m,
                model: m,
            })
            .collect(),
    )
}

fn spec(s: &str) -> PolicySpec {
    PolicySpec::parse(s).expect("valid policy spec")
}

fn cluster(gpus: usize, mem_mib: u64, policy: &str, nmodels: usize) -> Cluster {
    Cluster::new(
        ClusterConfig::test(gpus, mem_mib, spec(policy)),
        toy_registry(nmodels),
    )
}

#[test]
fn single_request_is_a_cold_miss() {
    let mut c = cluster(1, 1000, "lalb", 1);
    let m = c.run(&trace_of(&[(0.0, 0)]));
    assert_eq!(m.completed, 1);
    assert_eq!(m.miss_ratio, 1.0);
    assert_eq!(m.false_miss_ratio, 0.0, "cold miss is not a false miss");
    // Latency = load (1 s) + inference (1 s).
    assert!((m.avg_latency_secs - 2.0).abs() < 1e-6);
}

#[test]
fn repeat_requests_hit_the_cache() {
    let mut c = cluster(1, 1000, "lalb", 1);
    let m = c.run(&trace_of(&[(0.0, 0), (10.0, 0), (20.0, 0)]));
    assert_eq!(m.completed, 3);
    assert!((m.miss_ratio - 1.0 / 3.0).abs() < 1e-9);
    // Hits take only the 1 s inference.
    assert!((m.max_latency_secs - 2.0).abs() < 1e-6);
}

#[test]
fn lalb_routes_to_the_gpu_with_the_model() {
    // Two GPUs; model 0 lands on one of them; a later request for
    // model 0 must hit even though the other GPU is idle (and longest
    // idle, which would attract an LB dispatch).
    let mut c = cluster(2, 1000, "lalb", 2);
    let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
    assert_eq!(m.completed, 3);
    assert_eq!(m.misses, 2, "only the two cold loads miss");
    assert_eq!(m.false_misses, 0);
}

#[test]
fn lb_ignores_locality_and_false_misses() {
    // Two GPUs. Request A(m0) → gpu0. B(m1) → gpu1. C(m0) arrives when
    // both idle; LB picks the longest-idle GPU = gpu0 — which *does*
    // hold m0... so use 3 GPUs to force the false miss deterministically:
    // gpu2 has been idle longest (never used) and lacks m0.
    let mut c = cluster(3, 1000, "lb", 2);
    let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
    assert_eq!(m.completed, 3);
    assert_eq!(m.misses, 3, "LB sends the repeat to the cold GPU");
    assert_eq!(m.false_misses, 1, "the repeat was cached elsewhere");
}

#[test]
fn lalb_waits_on_busy_holder_when_faster_than_loading() {
    // One GPU holds model 0 and is busy with a 1 s inference; load
    // time is 1 s. A second request for model 0 arrives mid-inference:
    // remaining wait (~0.5 s) < load (1 s) → join the local queue, hit.
    let mut c = cluster(2, 1000, "lalb", 1);
    let m = c.run(&trace_of(&[(0.0, 0), (2.5, 0)]));
    // First: load 1s + infer 1s, busy [0,2]... arrives 2.5 when idle.
    // Make it overlap instead:
    assert_eq!(m.completed, 2);
    let mut c2 = cluster(2, 1000, "lalb", 1);
    let m2 = c2.run(&trace_of(&[(0.0, 0), (1.5, 0)]));
    // At t=1.5 gpu0 is inferring until t=2 (wait 0.5 < load 1).
    assert_eq!(m2.misses, 1, "second request waits for the busy holder");
    assert_eq!(c2.local_moves(), 1);
    // First request: load+infer = 2 s latency. Second: starts at t=2
    // off the local queue, finishes t=3 → latency 1.5 s.
    assert!((m2.max_latency_secs - 2.0).abs() < 1e-6);
    assert!((m2.avg_latency_secs - 1.75).abs() < 1e-6);
}

#[test]
fn lalb_prefers_idle_miss_when_busy_holder_is_slow() {
    // gpu0 holds model 0 but has a long local backlog; a cold load on
    // idle gpu1 (1 s) beats waiting. Build backlog with three quick
    // requests for model 0 arriving together, then the probe.
    let mut c = cluster(2, 1000, "lalb", 1);
    let m = c.run(&trace_of(&[(0.0, 0), (0.1, 0), (0.2, 0), (0.3, 0)]));
    // t=0: miss on gpu0 (load until 1, infer until 2).
    // t=0.1: holder busy, wait = 1.9 > load 1 → miss on gpu1.
    // t=0.2: holders both busy; waits (1.8, 1.9-ish)... with both busy
    // and no idle GPU nothing dispatches until one frees.
    assert_eq!(m.completed, 4);
    assert_eq!(m.misses, 2, "duplicate replica created by load balancing");
    assert_eq!(
        m.false_misses, 1,
        "the replica is a false miss by definition"
    );
}

#[test]
fn o3_dispatches_later_hit_ahead_of_head() {
    // gpu0 holds m0, gpu1 holds m1; both become idle at t≈2. Queue at
    // that moment: [m2 (cold), m0]. With O3, gpu0 should serve m0
    // first (hit), skipping m2; m2 then loads on gpu1's... gpu1 scans:
    // no m1 request; LLB places m2 as a miss there.
    let mut c = cluster(2, 1000, "lalbo3", 3);
    let m = c.run(&trace_of(&[(0.0, 0), (0.0, 1), (1.5, 2), (1.6, 0)]));
    assert_eq!(m.completed, 4);
    // Misses: m0 cold, m1 cold, m2 cold = 3. The m0 repeat must hit.
    assert_eq!(m.misses, 3);
    assert_eq!(m.hit_ratio, 0.25);
}

#[test]
fn lalb_without_o3_serves_in_order() {
    // Same workload as the O3 test but limit 0: when gpu0 frees up,
    // the head (m2, cold) is placed there first, and m0's repeat then
    // replicates m0 onto gpu1 because waiting behind m2's load+infer
    // (2 s) is slower than a fresh 1 s load. In-order service costs a
    // fourth miss — and it is a false miss — exactly the behaviour O3
    // dispatch eliminates (compare `o3_dispatches_later_hit_ahead_of_head`).
    let mut c = cluster(2, 1000, "lalb", 3);
    let m = c.run(&trace_of(&[(0.0, 0), (0.0, 1), (1.5, 2), (1.6, 0)]));
    assert_eq!(m.completed, 4);
    assert_eq!(m.misses, 4);
    assert_eq!(m.false_misses, 1);
}

#[test]
fn starvation_limit_bounds_visits() {
    // One m1 request queues at the head while a long stream of m0
    // hits arrives behind it (m0 is resident, m1 is not). O3 keeps
    // skipping the m1 head in favour of the m0 hits, incrementing its
    // visit counter each pass; once the counter reaches the limit the
    // head must be dispatched regardless. We read the per-request
    // latency back through the datastore mirror.
    let run = |limit: u32| {
        let mut cfg = ClusterConfig::test(1, 250, spec(&format!("lalbo3:{limit}")));
        cfg.report_to_datastore = true;
        let ds = Arc::new(Datastore::new());
        let mut c = Cluster::new(cfg, toy_registry(2)).with_datastore(Arc::clone(&ds));
        let mut reqs = vec![(0.0, 0), (0.1, 1)]; // id 0 = m0, id 1 = m1
        for i in 0..20 {
            reqs.push((0.2 + i as f64 * 0.01, 0));
        }
        let m = c.run(&trace_of(&reqs));
        assert_eq!(m.completed, 22);
        let lat: f64 = String::from_utf8(ds.get("/latency/1").unwrap().value.to_vec())
            .unwrap()
            .parse()
            .unwrap();
        lat
    };
    // Limit 2: m1 is skipped twice (t=2, t=3 passes), then force-
    // dispatched: load 4→5, infer 5→6 → latency ≈ 5.9 s.
    let bounded = run(2);
    assert!((bounded - 5.9).abs() < 0.01, "bounded latency {bounded}");
    // A huge limit starves m1 behind all 20 hits: served at t≈22.
    let starved = run(1000);
    assert!(starved > 20.0, "starved latency {starved}");
}

#[test]
fn eviction_under_memory_pressure() {
    // GPU fits two 100 MiB models; touch three models round-robin.
    let mut c = cluster(1, 250, "lalb", 3);
    let m = c.run(&trace_of(&[
        (0.0, 0),
        (10.0, 1),
        (20.0, 2), // evicts m0 (LRU)
        (30.0, 0), // miss again (was evicted), evicts m1
    ]));
    assert_eq!(m.completed, 4);
    assert_eq!(m.misses, 4);
    assert_eq!(c.evictions(), 2);
}

#[test]
fn duplicates_metric_tracks_hot_model() {
    let mut c = cluster(3, 1000, "lb", 2);
    // Hot model 0 gets replicated by LB across GPUs.
    let m = c.run(&trace_of(&[
        (0.0, 0),
        (0.1, 0),
        (0.2, 0),
        (10.0, 0),
        (10.1, 0),
    ]));
    assert_eq!(m.completed, 5);
    assert!(m.avg_duplicates > 0.5, "duplicates {:?}", m.avg_duplicates);
}

#[test]
fn deterministic_given_seed() {
    let t = trace_of(&[(0.0, 0), (0.5, 1), (1.0, 2), (1.5, 0), (2.0, 1)]);
    let m1 = cluster(2, 250, "lalbo3", 3).run(&t);
    let m2 = cluster(2, 250, "lalbo3", 3).run(&t);
    assert_eq!(m1, m2);
}

#[test]
fn saturated_queue_eventually_drains() {
    // 50 requests for 5 models on 1 small GPU: heavy thrash, but all
    // must complete and the makespan must be finite and consistent.
    let reqs: Vec<(f64, u32)> = (0..50).map(|i| (i as f64 * 0.01, (i % 5) as u32)).collect();
    let mut c = cluster(1, 250, "lalbo3", 5);
    let m = c.run(&trace_of(&reqs));
    assert_eq!(m.completed, 50);
    assert!(m.makespan_secs > 50.0, "50 × ≥1 s of serial inference");
    assert!(m.queue_peak > 10);
}

#[test]
fn datastore_mirroring_writes_keys() {
    let ds = Arc::new(Datastore::new());
    let mut cfg = ClusterConfig::test(1, 1000, spec("lalb"));
    cfg.report_to_datastore = true;
    let mut c = Cluster::new(cfg, toy_registry(1)).with_datastore(Arc::clone(&ds));
    c.run(&trace_of(&[(0.0, 0)]));
    assert_eq!(
        ds.get("/gpu/0/status").unwrap().value,
        bytes::Bytes::from_static(b"idle")
    );
    assert!(ds.get("/gpu/0/lru").is_some());
    assert!(ds.get("/latency/0").is_some());
}

#[test]
fn heterogeneous_gpu_uses_its_own_profile() {
    // One GPU scaled to half load and half inference time: a cold
    // request costs 0.5 + 0.5 = 1 s instead of 2 s.
    let mut cfg = ClusterConfig::test(1, 1000, spec("lalb"));
    cfg.hetero_specs = Some(vec![gfaas_gpu::GpuSpec::test(1000).with_scales(0.5, 0.5)]);
    let mut c = Cluster::new(cfg, toy_registry(1));
    let m = c.run(&trace_of(&[(0.0, 0)]));
    assert!(
        (m.avg_latency_secs - 1.0).abs() < 1e-6,
        "{}",
        m.avg_latency_secs
    );
}

#[test]
fn heterogeneous_estimation_prefers_fast_busy_holder() {
    // gpu0 (fast, holds m0, busy) vs gpu1 (slow, idle). The fast
    // holder's estimated wait (0.25 s remaining) beats a slow cold
    // load (1 s) → the repeat request queues locally and hits.
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
    cfg.hetero_specs = Some(vec![
        gfaas_gpu::GpuSpec::test(1000).with_scales(0.5, 0.5),
        gfaas_gpu::GpuSpec::test(1000),
    ]);
    let mut c = Cluster::new(cfg, toy_registry(1));
    // First m0 at t=0 → fast gpu0 (ids tie-break): busy until t=1.0.
    // Second m0 at t=0.75: gpu0 wait 0.25 < load-on-gpu1 1.0 → wait.
    let m = c.run(&trace_of(&[(0.0, 0), (0.75, 0)]));
    assert_eq!(m.misses, 1, "repeat must wait for the fast holder");
    assert_eq!(c.local_moves(), 1);
}

#[test]
fn tenant_cap_serialises_one_tenant() {
    // Tenant 0 (even functions) capped at 1 concurrent request; three
    // of its requests arrive together on a 3-GPU cluster. They must
    // run one at a time even though GPUs are free.
    let mut cfg = ClusterConfig::test(3, 1000, spec("lalbo3"));
    cfg.num_tenants = 2;
    cfg.tenant_max_inflight = Some(1);
    let mut c = Cluster::new(cfg, toy_registry(1));
    let m = c.run(&trace_of(&[(0.0, 0), (0.0, 0), (0.0, 0)]));
    assert_eq!(m.completed, 3);
    // Serialised: 2 s (cold) + 1 s + 1 s → last completes at t=4,
    // so max latency is 4 s (vs 2 s if run in parallel).
    assert!(
        (m.max_latency_secs - 4.0).abs() < 1e-6,
        "{}",
        m.max_latency_secs
    );
}

#[test]
fn tenant_cap_does_not_starve_other_tenants() {
    // Tenant 0 floods; tenant 1's single request (odd function rank)
    // must still be served promptly on a free GPU.
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
    cfg.num_tenants = 2;
    cfg.tenant_max_inflight = Some(1);
    cfg.report_to_datastore = true;
    let ds = Arc::new(Datastore::new());
    let mut c = Cluster::new(cfg, toy_registry(2)).with_datastore(Arc::clone(&ds));
    // ids: 0..4 are tenant 0 (function 0 → model 0); id 5 is tenant 1.
    let m = c.run(&trace_of(&[
        (0.0, 0),
        (0.0, 0),
        (0.0, 0),
        (0.0, 0),
        (0.0, 0),
        (0.1, 1),
    ]));
    assert_eq!(m.completed, 6);
    let lat: f64 = String::from_utf8(ds.get("/latency/5").unwrap().value.to_vec())
        .unwrap()
        .parse()
        .unwrap();
    // Tenant 1's request cold-loads immediately on the second GPU:
    // ~2 s, not behind tenant 0's ~6 s backlog.
    assert!(lat < 2.5, "tenant 1 latency {lat}");
}

#[test]
fn crashes_are_retried_and_complete() {
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
    cfg.crash_rate = 0.3;
    cfg.seed = 5;
    let mut c = Cluster::new(cfg, toy_registry(3));
    let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.8, (i % 3) as u32)).collect();
    let m = c.run(&trace_of(&reqs));
    // Every request completes exactly once despite crashes.
    assert_eq!(m.completed, 40);
    assert!(c.crashes() > 0, "30% crash rate must fire at least once");
    // A crashed model was evicted, so crashes inflate the miss count
    // beyond the distinct-model minimum.
    assert!(m.misses > 3);
    // Ratios stay sane.
    assert!(m.miss_ratio <= 1.0 && m.hit_ratio <= 1.0);
}

#[test]
fn crash_free_config_never_crashes() {
    let mut c = cluster(2, 1000, "lalbo3", 2);
    let m = c.run(&trace_of(&[(0.0, 0), (1.0, 1), (2.0, 0)]));
    assert_eq!(c.crashes(), 0);
    assert_eq!(m.completed, 3);
}

#[test]
fn crash_latency_includes_the_retry() {
    // With crash_rate 1.0 nothing would ever complete (every attempt
    // crashes); use a rate that certainly fires on the first draw for
    // this seed but lets the retry through. Probe seeds for one where
    // exactly the first attempt crashes.
    for seed in 0..50u64 {
        let mut cfg = ClusterConfig::test(1, 1000, spec("lalb"));
        cfg.crash_rate = 0.5;
        cfg.seed = seed;
        let mut c = Cluster::new(cfg, toy_registry(1));
        let m = c.run(&trace_of(&[(0.0, 0)]));
        assert_eq!(m.completed, 1);
        if c.crashes() == 1 {
            // load 1s + partial inference + reload 1s + inference 1s
            // → latency strictly above the crash-free 2 s.
            assert!(m.avg_latency_secs > 2.0, "latency {}", m.avg_latency_secs);
            return;
        }
    }
    panic!("no seed in 0..50 produced exactly one crash");
}

#[test]
fn sm_utilization_counts_inference_only() {
    // One request: load 1 s + infer 1 s → SM busy 1 of 2 s.
    let mut c = cluster(1, 1000, "lalb", 1);
    let m = c.run(&trace_of(&[(0.0, 0)]));
    assert!((m.sm_utilization - 0.5).abs() < 1e-6);
}

// ------------------------------------------------------------------
// Autoscaling
// ------------------------------------------------------------------

#[test]
fn fixed_cluster_reports_full_fleet_gpu_seconds() {
    let mut c = cluster(2, 1000, "lalb", 1);
    let m = c.run(&trace_of(&[(0.0, 0)]));
    assert!(
        (m.gpu_seconds_provisioned - 2.0 * m.makespan_secs).abs() < 1e-9,
        "{} vs {}",
        m.gpu_seconds_provisioned,
        m.makespan_secs
    );
    assert_eq!(m.scale_up_events, 0);
    assert_eq!(m.scale_down_events, 0);
    assert_eq!(c.online_bounds(), (2, 2));
}

#[test]
fn queue_pressure_scales_up_then_releases_the_quiet_fleet() {
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
    cfg.autoscale = Some("queue:min=1,max=4,up=3,down=0,cadence=1".parse().unwrap());
    let mut c = Cluster::new(cfg, toy_registry(4));
    // A 12-request burst at t=0 swamps the 2-GPU initial fleet; a
    // long quiet gap then lets the autoscaler release capacity before
    // a final straggler arrives.
    let mut reqs: Vec<(f64, u32)> = (0..12).map(|i| (0.0, (i % 4) as u32)).collect();
    reqs.push((40.0, 0));
    let m = c.run(&trace_of(&reqs));
    assert_eq!(m.completed, 13, "no request lost across scale events");
    assert!(m.scale_up_events >= 2, "burst must provision GPUs");
    assert!(m.scale_down_events >= 1, "quiet gap must release GPUs");
    let (low, high) = c.online_bounds();
    assert!(high > 2 && high <= 4, "high watermark {high}");
    assert_eq!(low, 1, "fleet must drain to the configured minimum");
    // Elasticity must cost less than keeping the peak fleet all run.
    assert!(m.gpu_seconds_provisioned < 4.0 * m.makespan_secs);
    assert!(m.gpu_seconds_provisioned > 0.0);
}

#[test]
fn autoscaled_runs_are_deterministic() {
    let run = || {
        let mut cfg = ClusterConfig::test(2, 500, spec("lalbo3"));
        cfg.autoscale = Some("queue:min=1,max=4,up=2,down=0,cadence=1".parse().unwrap());
        let mut c = Cluster::new(cfg, toy_registry(5));
        let reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.2, (i % 5) as u32)).collect();
        c.run(&trace_of(&reqs))
    };
    assert_eq!(run(), run());
}

#[test]
fn draining_gpu_finishes_in_flight_and_local_queue_then_goes_offline() {
    /// Returns `Down(1)` on its first step, then holds — pinning the
    /// drain to an instant where both GPUs are busy, so the victim
    /// must wind down real work.
    #[derive(Debug)]
    struct DrainOnce {
        fired: bool,
    }
    impl crate::autoscale::Autoscaler for DrainOnce {
        fn name(&self) -> String {
            "drain-once".into()
        }
        fn cadence(&self) -> SimDuration {
            SimDuration::from_secs_f64(1.5)
        }
        fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision {
            if self.fired {
                return ScaleDecision::Hold;
            }
            self.fired = true;
            assert_eq!(view.busy_gpus(), 3, "drain must hit a fully busy fleet");
            ScaleDecision::Down(1)
        }
    }

    let mut cfg = ClusterConfig::test(3, 1000, spec("lalb"));
    cfg.autoscale = Some("queue:min=1,max=3,up=9,down=0,cadence=1".parse().unwrap());
    let mut c = Cluster::new(cfg, toy_registry(3));
    c.set_autoscaler(Box::new(DrainOnce { fired: false }));
    // t=0: m0 → gpu0 (load 1 + infer 1). t=0.1: m1 → gpu1. t=1.2:
    // m0 again — gpu0's remaining wait (0.8 s) beats a 1 s load, so
    // idle gpu2's pass queues it locally at gpu0. t=1.3: cold m2
    // occupies gpu2, so the tick at t=1.5 sees all three GPUs busy
    // and drains the tie-break victim gpu0 — which must still serve
    // both its in-flight request and the locally queued hit before
    // going offline. A final m2 repeat at t=3.5 hits the survivor.
    let m = c.run(&trace_of(&[
        (0.0, 0),
        (0.1, 1),
        (1.2, 0),
        (1.3, 2),
        (3.5, 2),
    ]));
    assert_eq!(m.completed, 5, "drained requests are not lost");
    assert_eq!(c.local_moves(), 1, "the repeat queued at the busy holder");
    assert_eq!(m.misses, 3, "the locally queued request still hits");
    assert_eq!(m.scale_down_events, 1);
    assert_eq!(c.online_bounds(), (2, 3));
    assert_eq!(c.online_gpus(), 2);
    // Drain evictions clear the victim's device without polluting the
    // replacement-policy eviction count.
    assert_eq!(c.evictions(), 0);
    assert_eq!(c.units[0].device.resident_count(), 0);
    assert_eq!(c.units[0].state, UnitState::Offline);
}

#[test]
#[should_panic(expected = "set_autoscaler")]
fn set_autoscaler_requires_an_autoscale_config() {
    let mut c = cluster(1, 1000, "lalb", 1);
    c.set_autoscaler(
        crate::autoscale::AutoscaleSpec::default()
            .build()
            .expect("default spec builds"),
    );
}

// ------------------------------------------------------------------
// The pluggable policy surface
// ------------------------------------------------------------------

#[test]
fn spec_strings_drive_the_cluster() {
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
    cfg.policy = "lalbo3:25".parse().unwrap();
    cfg.replacement = "tinylfu:0.9".parse().unwrap();
    let mut c = Cluster::new(cfg, toy_registry(2));
    assert_eq!(c.scheduler_name(), "LALBO3");
    assert_eq!(c.evictor_name(), "tinylfu");
    let m = c.run(&trace_of(&[(0.0, 0), (1.0, 1), (10.0, 0)]));
    assert_eq!(m.completed, 3);
}

#[test]
fn try_new_surfaces_bad_specs_and_configs() {
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
    cfg.policy = crate::policy::PolicySpec::bare("belady");
    assert!(Cluster::try_new(cfg, toy_registry(1)).is_err());
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
    cfg.batch_size = 0;
    assert!(matches!(
        Cluster::try_new(cfg, toy_registry(1)),
        Err(ConfigError::ZeroBatch)
    ));
}

#[test]
#[should_panic(expected = "invalid cluster config")]
fn new_panics_on_invalid_config() {
    let mut cfg = ClusterConfig::test(4, 1000, spec("lalb"));
    cfg.gpus_per_node = 3; // does not divide 4
    let _ = Cluster::new(cfg, toy_registry(1));
}

#[test]
fn injected_policy_objects_match_the_spec_path() {
    // For every paper scheduler × evictor pair, the spec path (the
    // config's specs resolved through the builtin registry) resolves
    // to the paper's names and runs bit-identically to directly
    // injected policy objects (`with_policies`).
    use crate::cache::{FifoEvictor, LruEvictor, RandomEvictor};
    use crate::scheduler::{LalbScheduler, LbScheduler};
    let t = trace_of(&[(0.0, 0), (0.3, 1), (0.9, 2), (1.5, 0), (2.0, 1), (2.2, 2)]);
    type BuildScheduler = fn() -> Box<dyn SchedulerPolicy>;
    type BuildEvictor = fn(u64) -> Box<dyn Evictor>;
    let schedulers: [(&str, &str, BuildScheduler); 4] = [
        ("lb", "LB", || Box::new(LbScheduler)),
        ("lalb", "LALB", || Box::new(LalbScheduler::new(0))),
        ("lalbo3", "LALBO3", || Box::new(LalbScheduler::new(25))),
        ("lalbo3:7", "LALBO3(limit=7)", || {
            Box::new(LalbScheduler::new(7))
        }),
    ];
    let evictors: [(&str, BuildEvictor); 3] = [
        ("lru", |_| Box::new(LruEvictor::default())),
        ("fifo", |_| Box::new(FifoEvictor::default())),
        ("random", |seed| Box::new(RandomEvictor::new(seed))),
    ];
    for (sched_spec, sched_name, sched) in schedulers {
        for (ev_spec, evictor) in evictors {
            let mut cfg = ClusterConfig::test(2, 250, spec(sched_spec));
            cfg.replacement = spec(ev_spec);
            let seed = cfg.seed;
            let mut via_spec = Cluster::new(cfg.clone(), toy_registry(3));
            assert_eq!(via_spec.scheduler_name(), sched_name);
            assert_eq!(via_spec.evictor_name(), ev_spec);
            let mut injected =
                Cluster::with_policies(cfg, toy_registry(3), sched(), evictor(seed)).unwrap();
            assert_eq!(
                injected.run(&t),
                via_spec.run(&t),
                "{sched_spec} x {ev_spec}"
            );
        }
    }
}

// ------------------------------------------------------------------
// Request batching
// ------------------------------------------------------------------

/// A test cluster with the given batching spec.
fn batched_cluster(gpus: usize, nmodels: usize, batching: &str) -> Cluster {
    let mut cfg = ClusterConfig::test(gpus, 1000, spec("lalb"));
    cfg.batching = batching.parse().unwrap();
    Cluster::new(cfg, toy_registry(nmodels))
}

#[test]
fn coalesce_merges_a_same_model_backlog_into_one_invocation() {
    // Four m0 requests arrive together on one GPU. Per-request: load
    // 1 s + 4 sequential 1 s inferences (done at 2, 3, 4, 5). With
    // coalescing, the three requests queued behind the lead join its
    // invocation when the load completes: one batch-128 inference =
    // 0.1 + 0.9 × 4 = 3.7 s, everyone done at 4.7 s.
    let mut c = batched_cluster(1, 1, "coalesce:max=8,wait=0.05");
    assert_eq!(c.batcher_name(), "coalesce(max=8)");
    let m = c.run(&trace_of(&[(0.0, 0), (0.01, 0), (0.02, 0), (0.03, 0)]));
    assert_eq!(m.completed, 4);
    assert_eq!(m.invocations, 1, "one coalesced invocation");
    assert_eq!(m.avg_effective_batch, 4.0);
    assert_eq!(m.batched_requests, 4);
    assert_eq!(m.effective_batch_hist, vec![(4, 1)]);
    assert_eq!(m.misses, 1, "riders share the lead's upload");
    assert!((m.makespan_secs - 4.7).abs() < 1e-6, "{}", m.makespan_secs);
    // Busy time: 1 s load + 3.7 s inference.
    assert!((m.gpu_busy_seconds - 4.7).abs() < 1e-6);
}

#[test]
fn held_batch_launches_early_when_it_fills() {
    // m0's cold load+infer occupies the GPU until t=2 while two more
    // m0 requests queue up. At t=2 the dispatch coalesces both (take
    // 2 < max 3) and holds until 2.5; the arrival at t=2.2 fills the
    // batch, which launches immediately: 3-request inference =
    // 0.1 + 0.9 × 3 = 2.8 s → makespan 5.0, not 2.5 + 2.8.
    let mut c = batched_cluster(1, 1, "coalesce:max=3,wait=0.5");
    let m = c.run(&trace_of(&[(0.0, 0), (1.5, 0), (1.6, 0), (2.2, 0)]));
    assert_eq!(m.completed, 4);
    assert_eq!(m.effective_batch_hist, vec![(1, 1), (3, 1)]);
    assert_eq!(m.batched_requests, 3);
    assert!((m.makespan_secs - 5.0).abs() < 1e-6, "{}", m.makespan_secs);
}

#[test]
fn hold_timer_fires_when_no_one_joins() {
    // As above but nothing arrives during the hold: the BatchHold
    // timer fires at t=2.5 and launches the partial 2-request batch
    // (0.1 + 0.9 × 2 = 1.9 s) → makespan 4.4.
    let mut c = batched_cluster(1, 1, "coalesce:max=3,wait=0.5");
    let m = c.run(&trace_of(&[(0.0, 0), (1.5, 0), (1.6, 0)]));
    assert_eq!(m.completed, 3);
    assert_eq!(m.effective_batch_hist, vec![(1, 1), (2, 1)]);
    assert_eq!(m.batched_requests, 2);
    assert!((m.makespan_secs - 4.4).abs() < 1e-6, "{}", m.makespan_secs);
}

#[test]
fn batching_none_is_identical_to_the_paper_path() {
    let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.11, (i % 5) as u32)).collect();
    let t = trace_of(&reqs);
    let legacy = cluster(3, 400, "lalbo3", 5).run(&t);
    let mut cfg = ClusterConfig::test(3, 400, spec("lalbo3"));
    cfg.batching = "none".parse().unwrap();
    let none = Cluster::new(cfg, toy_registry(5)).run(&t);
    assert_eq!(legacy, none);
}

#[test]
fn batched_runs_are_deterministic_and_conserve_requests() {
    let reqs: Vec<(f64, u32)> = (0..80).map(|i| (i as f64 * 0.07, (i % 6) as u32)).collect();
    let t = trace_of(&reqs);
    for spec in [
        "coalesce:max=4,wait=0.05",
        "adaptive:slo=20,max=8,wait=0.05",
    ] {
        let a = batched_cluster(3, 6, spec).run(&t);
        let b = batched_cluster(3, 6, spec).run(&t);
        assert_eq!(a, b, "{spec}");
        assert_eq!(a.completed, 80, "{spec}");
        assert!(a.batched_requests > 0, "{spec} must coalesce something");
    }
}

#[test]
fn coalescing_respects_the_tenant_inflight_cap() {
    // §VI isolation must hold through the batching layer: with a
    // 1-request tenant cap, a coalesced dispatch may not pull the
    // capped tenant's queued requests into its batch (the forming
    // batch itself counts toward the cap). The three requests
    // serialise exactly like the per-request dispatch test:
    // 2 s (cold) + 1 s + 1 s → max latency 4 s.
    let mut cfg = ClusterConfig::test(3, 1000, spec("lalbo3"));
    cfg.num_tenants = 2;
    cfg.tenant_max_inflight = Some(1);
    cfg.batching = "coalesce:max=8,wait=0.05".parse().unwrap();
    let mut c = Cluster::new(cfg, toy_registry(1));
    let m = c.run(&trace_of(&[(0.0, 0), (0.0, 0), (0.0, 0)]));
    assert_eq!(m.completed, 3);
    assert_eq!(m.batched_requests, 0, "the cap forbids coalescing here");
    assert!(
        (m.max_latency_secs - 4.0).abs() < 1e-6,
        "{}",
        m.max_latency_secs
    );
}

#[test]
fn batching_survives_crashes_without_losing_requests() {
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalbo3"));
    cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
    cfg.crash_rate = 0.3;
    cfg.seed = 5;
    let mut c = Cluster::new(cfg, toy_registry(3));
    let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.3, (i % 3) as u32)).collect();
    let m = c.run(&trace_of(&reqs));
    assert_eq!(m.completed, 40, "crashed batches retry whole");
    assert!(c.crashes() > 0);
}

#[test]
fn draining_gpu_with_held_batch_finishes_before_going_offline() {
    // A GPU drained *mid-hold* must still launch and finish its held
    // batch before going offline.
    #[derive(Debug)]
    struct DrainAll;
    impl crate::autoscale::Autoscaler for DrainAll {
        fn name(&self) -> String {
            "drain-all".into()
        }
        fn cadence(&self) -> SimDuration {
            SimDuration::from_secs_f64(2.2)
        }
        fn step(&mut self, _view: &ScaleView<'_>) -> ScaleDecision {
            ScaleDecision::Down(1)
        }
    }
    let mut cfg = ClusterConfig::test(2, 1000, spec("lalb"));
    cfg.batching = "coalesce:max=4,wait=0.5".parse().unwrap();
    cfg.autoscale = Some(
        "queue:min=1,max=2,up=99,down=0,cadence=2.2"
            .parse()
            .unwrap(),
    );
    let mut c = Cluster::new(cfg, toy_registry(2));
    c.set_autoscaler(Box::new(DrainAll));
    // gpu0 runs m0 until t=2 while two more m0 requests queue; at t=2
    // they form a held batch (release 2.5). gpu1 runs m1 work and is
    // busy again at the t=2.2 tick, so the victim order (both busy,
    // stalest idle_since first) drains gpu0 — mid-hold. The hold must
    // still fire, run its batch on the draining GPU, and only then
    // take it offline.
    let m = c.run(&trace_of(&[
        (0.0, 0),
        (0.1, 1),
        (1.5, 0),
        (1.6, 0),
        (2.15, 1),
    ]));
    assert_eq!(m.completed, 5, "held requests survive the drain");
    assert_eq!(m.scale_down_events, 1);
    assert_eq!(m.effective_batch_hist, vec![(1, 3), (2, 1)]);
    assert_eq!(c.units[0].state, UnitState::Offline);
    assert!(c.units[0].holding.is_none());
    assert_eq!(c.online_gpus(), 1);
}

#[test]
fn injected_custom_batcher_overrides_the_spec() {
    /// Merges everything available, never holds.
    #[derive(Debug)]
    struct TakeAll;
    impl crate::batching::BatchPolicy for TakeAll {
        fn name(&self) -> String {
            "take-all".into()
        }
        fn plan(&mut self, view: &crate::batching::BatchView) -> crate::batching::BatchPlan {
            crate::batching::BatchPlan {
                max_requests: 1 + view.available,
                hold: None,
            }
        }
    }
    let mut c = batched_cluster(1, 1, "none");
    c.set_batcher(Box::new(TakeAll));
    assert_eq!(c.batcher_name(), "take-all");
    let m = c.run(&trace_of(&[(0.0, 0), (0.01, 0), (0.02, 0)]));
    assert_eq!(m.completed, 3);
    assert_eq!(m.invocations, 1);
    assert_eq!(m.avg_effective_batch, 3.0);
}

#[test]
fn custom_scheduler_plugs_into_the_cluster() {
    /// Dispatches the queue head to the *lowest-id* idle GPU,
    /// ignoring locality and idle time — not a builtin policy.
    #[derive(Debug)]
    struct FirstGpu;
    impl SchedulerPolicy for FirstGpu {
        fn name(&self) -> String {
            "first-gpu".into()
        }
        fn idle_order(&mut self, _ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
            idle.sort();
        }
        fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
            if ctx.queue_len() == 0 {
                return Dispatch::None;
            }
            let r = ctx.take_queued(0);
            if ctx.is_cached(gpu, r.model) {
                Dispatch::Hit(r)
            } else {
                Dispatch::Miss(r)
            }
        }
    }

    let cfg = ClusterConfig::test(3, 1000, spec("lalb"));
    let mut c = Cluster::with_policies(
        cfg,
        toy_registry(2),
        Box::new(FirstGpu),
        Box::new(crate::cache::LruEvictor::default()),
    )
    .unwrap();
    assert_eq!(c.scheduler_name(), "first-gpu");
    // Requests arriving while all GPUs idle always land on gpu0.
    let m = c.run(&trace_of(&[(0.0, 0), (10.0, 1), (20.0, 0)]));
    assert_eq!(m.completed, 3);
    // gpu0 evicted nothing (1000 MiB fits both models), served all
    // three: the repeat of m0 is a hit because gpu0 still holds it.
    assert_eq!(m.misses, 2);
}

// ------------------------------------------------------------------
// Versioned state: snapshot / rollback / checkpoint / lookahead
// ------------------------------------------------------------------

/// A busy little workload: 30 requests over 6 models on 3 GPUs with
/// 300 MiB each (evictions!), batching and autoscaling enabled — every
/// journaled component carries non-trivial state.
pub(super) fn snap_fixture() -> (ClusterConfig, Trace) {
    let mut cfg = ClusterConfig::test(3, 300, spec("lalbo3"));
    cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
    cfg.autoscale = Some("queue:min=2,max=4,up=6,down=1".parse().unwrap());
    let reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.13, (i % 6) as u32)).collect();
    (cfg, trace_of(&reqs))
}

pub(super) fn snap_cluster(cfg: &ClusterConfig) -> Cluster {
    Cluster::new(cfg.clone(), toy_registry(6))
}

#[test]
fn run_until_then_resume_is_byte_identical_to_a_full_run() {
    let (cfg, t) = snap_fixture();
    let full = snap_cluster(&cfg).run(&t);
    let mut paused = snap_cluster(&cfg);
    paused.run_until(&t, SimTime::from_secs_f64(3.0));
    assert!(paused.metrics.completed() > 0, "the pause point is mid-run");
    assert!(paused.metrics.completed() < 30);
    paused.run_until(&t, SimTime::from_secs_f64(5.0));
    assert_eq!(paused.resume(&t), full, "pausing must not perturb the run");
}

#[test]
fn rollback_restores_byte_identical_state() {
    let (cfg, t) = snap_fixture();
    let mut c = snap_cluster(&cfg);
    c.run_until(&t, SimTime::from_secs_f64(1.3));
    let before = c.checkpoint(&t);
    let id = c.snapshot();
    assert_eq!(c.journal_depth(), 1);
    c.run_until(&t, SimTime::from_secs_f64(2.9));
    assert_ne!(c.checkpoint(&t), before, "the run advanced past the pin");
    assert!(c.rollback(id));
    // The checkpoint codec serialises every field of mutable state, so
    // byte equality here is the strongest restore check we can make.
    assert_eq!(c.checkpoint(&t), before, "rollback must be byte-exact");
    // The pin survives rollback: advance and rewind a second time.
    c.run_until(&t, SimTime::from_secs_f64(4.2));
    assert!(c.rollback(id));
    assert_eq!(c.checkpoint(&t), before);
    // A rolled-back cluster finishes exactly like an unperturbed one.
    let full = snap_cluster(&cfg).run(&t);
    assert_eq!(c.resume(&t), full);
}

#[test]
fn commit_retires_pins_and_rollback_of_retired_pin_fails() {
    let (cfg, t) = snap_fixture();
    let mut c = snap_cluster(&cfg);
    c.run_until(&t, SimTime::from_secs_f64(1.0));
    let old = c.snapshot();
    c.run_until(&t, SimTime::from_secs_f64(1.5));
    let new = c.snapshot();
    assert_eq!(c.journal_depth(), 2);
    // Committing the newer pin retires it *and* everything older.
    assert!(c.commit(new));
    assert_eq!(c.journal_depth(), 0);
    assert!(!c.rollback(old), "retired pins must not restore");
    assert!(!c.rollback(new));
    assert!(!c.commit(new), "double-commit is rejected");
    let stats = c.journal_stats();
    assert_eq!(stats.snapshots, 2);
    assert_eq!(stats.commits, 1);
    assert_eq!(stats.rollbacks, 0, "failed rollbacks do not count");
}

#[test]
fn plain_runs_never_touch_the_journal() {
    // Zero-cost guarantee: without snapshots or lookahead, the
    // journal stays empty for the whole run.
    let (cfg, t) = snap_fixture();
    let mut c = snap_cluster(&cfg);
    c.run(&t);
    let stats = c.journal_stats();
    assert_eq!(stats.snapshots, 0);
    assert_eq!(stats.rollbacks, 0);
    assert_eq!(stats.commits, 0);
    assert_eq!(c.journal_depth(), 0);
}

#[test]
fn checkpoint_restore_warm_start_is_byte_identical() {
    let (cfg, t) = snap_fixture();
    let full = snap_cluster(&cfg).run(&t);
    let mut c = snap_cluster(&cfg);
    c.run_until(&t, SimTime::from_secs_f64(1.9));
    let bytes = c.checkpoint(&t);
    // Restore into a *fresh* cluster with the same config and warm-start.
    let mut warm = snap_cluster(&cfg);
    warm.restore(&bytes, &t).unwrap();
    assert_eq!(warm.checkpoint(&t), bytes, "restore round-trips the wire");
    assert_eq!(warm.resume(&t), full, "warm start reproduces the full run");
    // The original paused cluster agrees too.
    assert_eq!(c.resume(&t), full);
}

#[test]
fn restore_rejects_foreign_and_corrupt_checkpoints() {
    let (cfg, t) = snap_fixture();
    let mut c = snap_cluster(&cfg);
    c.run_until(&t, SimTime::from_secs_f64(1.0));
    let bytes = c.checkpoint(&t);

    // Wrong config: different fleet size.
    let mut other = Cluster::new(ClusterConfig::test(4, 300, spec("lalbo3")), toy_registry(6));
    assert!(matches!(
        other.restore(&bytes, &t),
        Err(SnapError::ConfigMismatch)
    ));

    // Wrong trace: one extra request.
    let mut reqs: Vec<(f64, u32)> = (0..30).map(|i| (i as f64 * 0.13, (i % 6) as u32)).collect();
    reqs.push((9.9, 0));
    assert!(matches!(
        snap_cluster(&cfg).restore(&bytes, &trace_of(&reqs)),
        Err(SnapError::TraceMismatch)
    ));

    // Truncated payload.
    assert!(snap_cluster(&cfg)
        .restore(&bytes[..bytes.len() - 3], &t)
        .is_err());

    // Corrupt magic.
    let mut bad = bytes.clone();
    bad[0] ^= 0xff;
    assert!(matches!(
        snap_cluster(&cfg).restore(&bad, &t),
        Err(SnapError::BadMagic)
    ));

    // A failed restore leaves the target untouched and runnable.
    let full = snap_cluster(&cfg).run(&t);
    let mut target = snap_cluster(&cfg);
    assert!(target.restore(&bad, &t).is_err());
    assert_eq!(target.run(&t), full);

    // Truncated anywhere, a checkpoint taken at 2 s must be rejected
    // by a target paused at 1 s without touching it: the target then
    // resumes exactly like an untouched twin.
    let mut later = snap_cluster(&cfg);
    later.run_until(&t, SimTime::from_secs_f64(2.0));
    let later_bytes = later.checkpoint(&t);
    let paused = || {
        let mut c = snap_cluster(&cfg);
        c.run_until(&t, SimTime::from_secs_f64(1.0));
        c
    };
    let twin = paused().resume(&t);
    let stride = (later_bytes.len() / 40).max(1);
    let cuts = (0..later_bytes.len()).step_by(stride);
    for cut in cuts.chain([later_bytes.len() - 1]) {
        let mut target = paused();
        assert!(
            target.restore(&later_bytes[..cut], &t).is_err(),
            "cut at {cut}"
        );
        assert_eq!(target.resume(&t), twin, "cut at {cut}");
    }
}

/// A test cluster driven by the lookahead what-if scheduler.
fn lookahead_cluster(gpus: usize, mem_mib: u64, nmodels: usize, k: usize) -> Cluster {
    let cfg = ClusterConfig::test(gpus, mem_mib, spec("lalbo3"));
    Cluster::with_policies(
        cfg,
        toy_registry(nmodels),
        Box::new(crate::scheduler::LookaheadScheduler::new(k, 8, 25)),
        Box::new(crate::cache::LruEvictor::default()),
    )
    .unwrap()
}

#[test]
fn lookahead_serves_every_request_and_retires_every_fork() {
    let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
    let t = trace_of(&reqs);
    let mut c = lookahead_cluster(3, 300, 5, 4);
    assert_eq!(c.scheduler_name(), "Lookahead(k=4,h=8)");
    let m = c.run(&t);
    assert_eq!(m.completed, 60);
    let stats = c.journal_stats();
    assert!(stats.snapshots > 0, "contended placements must speculate");
    assert_eq!(
        stats.snapshots, stats.rollbacks,
        "every fork is rolled back, none leaks"
    );
    assert_eq!(c.journal_depth(), 0, "no frames survive the run");
}

#[test]
fn lookahead_runs_are_deterministic() {
    let reqs: Vec<(f64, u32)> = (0..60).map(|i| (i as f64 * 0.09, (i % 5) as u32)).collect();
    let t = trace_of(&reqs);
    let a = lookahead_cluster(3, 300, 5, 4).run(&t);
    let b = lookahead_cluster(3, 300, 5, 4).run(&t);
    assert_eq!(a, b);
}

#[test]
fn lookahead_with_k1_executes_without_forking() {
    // k=1 keeps only the first candidate arm: placement is decided
    // without speculation, so the journal must stay untouched.
    let reqs: Vec<(f64, u32)> = (0..40).map(|i| (i as f64 * 0.11, (i % 4) as u32)).collect();
    let t = trace_of(&reqs);
    let mut c = lookahead_cluster(2, 300, 4, 1);
    let m = c.run(&t);
    assert_eq!(m.completed, 40);
    assert_eq!(c.journal_stats().snapshots, 0);
}

#[test]
fn speculation_does_not_perturb_the_chosen_timeline() {
    // The lookahead run must itself be a valid simulation: conserve
    // requests and, like every policy, produce identical metrics when
    // paused and resumed (the fork/rollback machinery composes with
    // the user-facing snapshot API).
    let reqs: Vec<(f64, u32)> = (0..50).map(|i| (i as f64 * 0.08, (i % 5) as u32)).collect();
    let t = trace_of(&reqs);
    let full = lookahead_cluster(3, 300, 5, 4).run(&t);
    let mut paused = lookahead_cluster(3, 300, 5, 4);
    paused.run_until(&t, SimTime::from_secs_f64(2.0));
    assert_eq!(paused.resume(&t), full);
}
