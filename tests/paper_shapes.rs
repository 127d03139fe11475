//! Result-shape regression tests: the paper's qualitative findings must
//! hold on every build. These encode *who wins and by roughly what
//! factor*, not absolute numbers (EXPERIMENTS.md records those).

use gfaas_bench::{paper_trace, run};
use gfaas_core::{ClusterConfig, PolicySpec, RunMetrics};
use gfaas_trace::Trace;

const SEED: u64 = 11;

/// The paper testbed under the scheduler spec `policy`.
fn testbed(policy: &str, trace: &Trace) -> RunMetrics {
    run(ClusterConfig::paper_testbed(policy.parse().unwrap()), trace).0
}

#[test]
fn lalb_beats_lb_by_a_large_factor_everywhere() {
    for ws in [15, 25, 35] {
        let trace = paper_trace(ws, SEED);
        let lb = testbed("lb", &trace);
        let lalb = testbed("lalb", &trace);
        // Paper: 79–98% latency reduction → at least 5x here.
        assert!(
            lalb.avg_latency_secs * 5.0 < lb.avg_latency_secs,
            "ws{ws}: LALB {:.2}s vs LB {:.2}s",
            lalb.avg_latency_secs,
            lb.avg_latency_secs
        );
        // Paper: 65–94% miss-ratio reduction → at least 2x here.
        assert!(
            lalb.miss_ratio * 2.0 < lb.miss_ratio,
            "ws{ws}: miss {:.3} vs {:.3}",
            lalb.miss_ratio,
            lb.miss_ratio
        );
    }
}

#[test]
fn o3_wins_at_the_large_working_set() {
    let trace = paper_trace(35, SEED);
    let lalb = testbed("lalb", &trace);
    let o3 = testbed("lalbo3", &trace);
    // Paper Fig 7: out-of-order dispatch sharply cuts latency and misses
    // at WS35.
    assert!(
        o3.avg_latency_secs < lalb.avg_latency_secs * 0.8,
        "O3 {:.2}s vs LALB {:.2}s",
        o3.avg_latency_secs,
        lalb.avg_latency_secs
    );
    assert!(o3.miss_ratio <= lalb.miss_ratio * 1.02);
    // Paper: the larger limit also *reduces* latency variance.
    assert!(o3.latency_variance < lalb.latency_variance * 0.6);
}

#[test]
fn miss_ratio_degrades_with_working_set_for_lalb() {
    // Paper Fig 4b: locality gets harder as the working set grows.
    let m15 = testbed("lalb", &paper_trace(15, SEED));
    let m35 = testbed("lalb", &paper_trace(35, SEED));
    assert!(
        m35.miss_ratio > m15.miss_ratio,
        "ws35 {:.3} should exceed ws15 {:.3}",
        m35.miss_ratio,
        m15.miss_ratio
    );
}

#[test]
fn lb_has_the_worst_false_miss_ratio() {
    // Paper Fig 5: LB up to ~96%; locality-aware schedulers much lower.
    for ws in [15, 35] {
        let trace = paper_trace(ws, SEED);
        let lb = testbed("lb", &trace);
        let lalb = testbed("lalb", &trace);
        let o3 = testbed("lalbo3", &trace);
        assert!(
            lb.false_miss_ratio > 0.6,
            "LB false-miss {:.3}",
            lb.false_miss_ratio
        );
        assert!(lalb.false_miss_ratio < lb.false_miss_ratio, "ws{ws}");
        assert!(o3.false_miss_ratio < lb.false_miss_ratio, "ws{ws}");
    }
}

#[test]
fn locality_reduces_hot_model_duplicates() {
    // Paper Fig 6: LB churns the most replicas of the hottest model.
    let trace = paper_trace(15, SEED);
    let lb = testbed("lb", &trace);
    let lalb = testbed("lalb", &trace);
    assert!(
        lalb.avg_duplicates < lb.avg_duplicates,
        "LALB {:.2} vs LB {:.2}",
        lalb.avg_duplicates,
        lb.avg_duplicates
    );
    // Bounded by the GPU count.
    assert!(lb.avg_duplicates <= 12.0);
}

#[test]
fn o3_limit_sweep_is_beneficial_and_saturates() {
    // Paper Fig 7: latency and miss ratio fall as the limit grows, then
    // flatten. Check endpoint ordering and saturation.
    let trace = paper_trace(35, SEED);
    let at = |limit: u32| testbed(&format!("lalbo3:{limit}"), &trace);
    let l0 = at(0);
    let l25 = at(25);
    let l45 = at(45);
    assert!(l25.avg_latency_secs < l0.avg_latency_secs);
    assert!(
        l45.avg_latency_secs <= l25.avg_latency_secs * 1.1,
        "saturation"
    );
    assert!(l45.latency_variance < l0.latency_variance * 0.5);
}

#[test]
fn sm_utilization_anticorrelates_with_miss_ratio() {
    // Paper Fig 4c: utilisation is highest where misses are fewest,
    // because SMs idle during model uploads.
    let trace = paper_trace(25, SEED);
    let lb = testbed("lb", &trace);
    let o3 = testbed("lalbo3", &trace);
    assert!(o3.miss_ratio < lb.miss_ratio);
    assert!(
        o3.sm_utilization > lb.sm_utilization,
        "O3 util {:.3} vs LB {:.3}",
        o3.sm_utilization,
        lb.sm_utilization
    );
    // 100% is unreachable (§V-C).
    assert!(o3.sm_utilization < 1.0);
}

#[test]
fn headline_speedup_is_double_digit() {
    // Abstract: "a speedup of 48x compared to the default, load balancing
    // only schedulers". Require at least ~20x on the averaged grid.
    let trace = paper_trace(25, SEED);
    let lb = testbed("lb", &trace);
    let o3 = testbed("lalbo3", &trace);
    let speedup = lb.avg_latency_secs / o3.avg_latency_secs;
    assert!(speedup > 20.0, "speedup {speedup:.1}x");
}

#[test]
fn runs_are_deterministic() {
    let trace = paper_trace(35, SEED);
    let a = testbed("lalbo3", &trace);
    let b = testbed("lalbo3", &trace);
    assert_eq!(a, b);
}

#[test]
fn replacement_policy_ablation_keeps_lalbo3_ahead() {
    // §VI: locality-aware scheduling helps regardless of the replacement
    // policy.
    let trace = paper_trace(25, SEED);
    for repl in ["lru", "fifo", "random"].map(PolicySpec::bare) {
        let mut lb_cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lb"));
        lb_cfg.replacement = repl.clone();
        let lb = run(lb_cfg, &trace).0;
        let mut o3_cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        o3_cfg.replacement = repl.clone();
        let o3 = run(o3_cfg, &trace).0;
        assert!(
            o3.avg_latency_secs * 3.0 < lb.avg_latency_secs,
            "{repl}: O3 {:.2}s vs LB {:.2}s",
            o3.avg_latency_secs,
            lb.avg_latency_secs
        );
    }
}

#[test]
fn estimation_ablation_shapes() {
    use gfaas_core::config::BusyWaitPolicy;
    let trace = paper_trace(25, SEED);
    let run_bw = |bw: BusyWaitPolicy| {
        let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        cfg.busy_wait = bw;
        run(cfg, &trace).0
    };
    let est = run_bw(BusyWaitPolicy::Estimate);
    let never = run_bw(BusyWaitPolicy::Never);
    let always = run_bw(BusyWaitPolicy::Always);
    // The paper's co-design: estimation beats both degenerate rules.
    assert!(est.avg_latency_secs < never.avg_latency_secs);
    assert!(est.avg_latency_secs < always.avg_latency_secs);
    // Never-wait replicates more → more misses than estimation.
    assert!(never.miss_ratio > est.miss_ratio);
    // Always-wait trades misses for convoys → fewest misses, worst latency.
    assert!(always.miss_ratio < est.miss_ratio);
}
