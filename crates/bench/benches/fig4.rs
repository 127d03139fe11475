//! Criterion bench for the Fig 4 experiment grid: one full 6-minute,
//! 12-GPU trace run per scheduler. Measures the simulator's wall-clock
//! cost of regenerating a figure cell (the figure's *values* come from the
//! `fig4_comparison` report binary).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfaas_bench::{paper_trace, run_on_trace};
use gfaas_core::PolicySpec;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4");
    group.sample_size(10);
    for (name, key) in [("LB", "lb"), ("LALB", "lalb"), ("LALBO3", "lalbo3")] {
        let policy = PolicySpec::bare(key);
        for ws in [15usize, 35] {
            let trace = paper_trace(ws, 11);
            group.bench_with_input(BenchmarkId::new(name, ws), &trace, |b, trace| {
                b.iter(|| black_box(run_on_trace(&policy, black_box(trace))))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
