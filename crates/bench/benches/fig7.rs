//! Criterion bench for the Fig 7 sweep cells: LALB+O3 at the extreme
//! limits on the WS-35 workload. The O3 scan is the scheduler's most
//! expensive path (per-request visit accounting across the global queue),
//! so this doubles as a regression guard on scheduling cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfaas_bench::{paper_trace, run};
use gfaas_core::{ClusterConfig, PolicySpec};
use std::hint::black_box;

fn bench_fig7(c: &mut Criterion) {
    let trace = paper_trace(35, 11);
    let mut group = c.benchmark_group("fig7");
    group.sample_size(10);
    for limit in [0u32, 25, 45] {
        let policy = PolicySpec::parse(&format!("lalbo3:{limit}")).expect("valid limit");
        group.bench_with_input(BenchmarkId::new("o3_limit", limit), &policy, |b, p| {
            b.iter(|| black_box(run(ClusterConfig::paper_testbed(p.clone()), black_box(&trace)).0))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
