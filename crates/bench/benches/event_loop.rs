//! Event-loop throughput at trace scales beyond the paper testbed.
//!
//! The report binaries run at most ~4 × 10^4 requests per cell; the
//! ROADMAP's target is 10^5–10^6-request traces. This bench drives the
//! full `Cluster::run` event loop on `paper`-preset traces of exactly
//! 10^5 and 10^6 requests, parameterised over scale × policy × batching,
//! so `cargo bench --bench event_loop` tracks the hot path the
//! indexed-queue refactor optimises. Claims about host time come from the
//! repository benchmark instead (`perfbench` runs of two commits, paired
//! by `bench_counters compare`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfaas_bench::run;
use gfaas_core::ClusterConfig;
use gfaas_trace::Trace;
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

/// The two trace volumes the ROADMAP targets: 10^5 and 10^6 requests.
const SCALES: [(&str, Scale); 2] = [
    (
        "1e5",
        Scale {
            name: "bench-1e5",
            requests_per_min: 25_000,
            minutes: 4,
            working_set: 35,
        },
    ),
    (
        "1e6",
        Scale {
            name: "bench-1e6",
            requests_per_min: 50_000,
            minutes: 20,
            working_set: 35,
        },
    ),
];

fn bench_trace(scale: &Scale) -> Trace {
    find("paper")
        .expect("paper scenario is registered")
        .trace(scale, 11)
}

/// The scales to measure: the ROADMAP pair, or a single 10^3-request
/// trace when `GFAAS_BENCH_SMOKE` is set (the CI mode — it proves the
/// harness runs end to end without paying for a 10^6-request trace).
fn scales() -> Vec<(&'static str, Scale)> {
    if std::env::var_os("GFAAS_BENCH_SMOKE").is_some() {
        return vec![(
            "1e3",
            Scale {
                name: "bench-1e3",
                requests_per_min: 1_000,
                minutes: 1,
                working_set: 35,
            },
        )];
    }
    SCALES.to_vec()
}

fn event_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_loop");
    // One full 10^6-request run per sample is already heavyweight; scale
    // the measurement budget down accordingly.
    group.sample_size(10);
    for (label, scale) in &scales() {
        let trace = bench_trace(scale);
        for policy in ["lb", "lalbo3:25"] {
            for batching in ["none", "coalesce"] {
                let cfg = ClusterConfig {
                    batching: batching.parse().expect("valid batching spec"),
                    ..ClusterConfig::paper_testbed(policy.parse().expect("valid policy spec"))
                };
                group.bench_with_input(
                    BenchmarkId::new(format!("{policy}/{batching}"), label),
                    &trace,
                    |b, t| b.iter(|| run(cfg.clone(), t).0),
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, event_loop);
criterion_main!(benches);
