//! Fork cost against global-queue depth.
//!
//! A pin should cost what the fork touches, not what the cluster holds.
//! This bench pauses a paper-testbed cluster whose global queue holds
//! about 10^2, 10^4 or 10^5 requests (a burst that arrives within the
//! first simulated second) and times one fork through the public API:
//! `snapshot(); run_until(now + Δ); rollback(id); commit(id)`.
//!
//! The policy is LB, which dispatches from the queue head, so the
//! replayed Δ does the same work at every depth: any growth with depth
//! is the pin's own cost. `GFAAS_BENCH_SMOKE` shrinks the depths to
//! 10^2 and 10^3 (the CI mode).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_trace::{Trace, TraceRequest};

/// Simulated time each fork replays.
const DELTA: SimDuration = SimDuration::from_secs(1);

/// Where the cluster pauses: the burst is over, the queue still deep.
const PAUSE: SimTime = SimTime::from_secs(2);

fn depths() -> Vec<(&'static str, u64)> {
    if std::env::var_os("GFAAS_BENCH_SMOKE").is_some() {
        return vec![("1e2", 100), ("1e3", 1_000)];
    }
    vec![("1e2", 100), ("1e4", 10_000), ("1e5", 100_000)]
}

/// `n` requests spread evenly over the first simulated second, cycling
/// through the registry's models.
fn burst(n: u64, models: u32) -> Trace {
    Trace::new(
        (0..n)
            .map(|i| TraceRequest {
                at: SimTime::from_micros(i * 1_000_000 / n),
                function: i as u32 % models,
                model: i as u32 % models,
            })
            .collect(),
    )
}

fn fork_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("fork_cost");
    for (label, depth) in depths() {
        let registry = ModelRegistry::table1();
        let trace = burst(depth, registry.len() as u32);
        let mut cluster = Cluster::new(
            ClusterConfig::paper_testbed(PolicySpec::bare("lb")),
            registry,
        );
        cluster.run_until(&trace, PAUSE);
        group.bench_with_input(BenchmarkId::new("lb", label), &trace, |b, t| {
            b.iter(|| {
                let id = cluster.snapshot();
                cluster.run_until(t, PAUSE + DELTA);
                assert!(cluster.rollback(id) && cluster.commit(id));
            })
        });
    }
    group.finish();
}

criterion_group!(benches, fork_cost);
criterion_main!(benches);
