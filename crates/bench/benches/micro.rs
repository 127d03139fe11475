//! Microbenchmarks of the engine's hot components: cache-manager
//! operations, the discrete-event queue, trace generation, datastore
//! mirroring into the etcd-like store, and the tensor kernels (the
//! live-inference path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gfaas_core::{CacheManager, Evictor, PolicyRegistry, PolicySpec};
use gfaas_faas::mirror::DatastoreMirror;
use gfaas_faas::Datastore;
use gfaas_gpu::{GpuId, ModelId};
use gfaas_obs::{ObsEvent, Recorder};
use gfaas_sim::event::EventQueue;
use gfaas_sim::rng::DetRng;
use gfaas_sim::time::{SimDuration, SimTime};
use gfaas_tensor::ops::{conv2d, matmul, Conv2dParams};
use gfaas_tensor::Tensor;
use gfaas_trace::AzureTraceConfig;
use std::hint::black_box;
use std::sync::Arc;

/// The paper's LRU evictor, named by its spec.
fn lru() -> Box<dyn Evictor> {
    PolicyRegistry::builtin()
        .evictor(&PolicySpec::bare("lru"), 1)
        .expect("builtin evictor")
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("micro/cache_touch_lru", |b| {
        let gpus: Vec<GpuId> = (0..12).map(GpuId).collect();
        let mut mgr = CacheManager::with_evictor(gpus.clone(), lru());
        for g in &gpus {
            for m in 0..4 {
                mgr.insert(*g, ModelId(g.0 as u32 * 4 + m));
            }
        }
        let mut i = 0u32;
        b.iter(|| {
            let g = GpuId((i % 12) as u16);
            mgr.touch(g, ModelId(g.0 as u32 * 4 + (i % 4)));
            i = i.wrapping_add(1);
            black_box(&mgr);
        })
    });

    c.bench_function("micro/cache_miss_with_eviction", |b| {
        let mut mgr = CacheManager::with_evictor([GpuId(0)], lru());
        let mut next = 0u32;
        for _ in 0..4 {
            mgr.insert(GpuId(0), ModelId(next));
            next += 1;
        }
        b.iter(|| {
            let victims = mgr
                .select_victims(GpuId(0), 100, 0, |_| 100, &[])
                .expect("evictable");
            black_box(&victims);
            mgr.insert(GpuId(0), ModelId(next));
            next = next.wrapping_add(1);
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("micro/event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::with_capacity(1024);
            for i in 0..1000u32 {
                // Pseudo-random times to exercise heap churn.
                q.schedule(SimTime::from_micros((i as u64 * 7919) % 4096), i);
            }
            let mut acc = 0u32;
            while let Some((_, v)) = q.pop() {
                acc ^= v;
            }
            black_box(acc)
        })
    });
}

fn bench_trace_gen(c: &mut Criterion) {
    let mut group = c.benchmark_group("micro/trace_gen");
    for ws in [15usize, 35] {
        group.bench_with_input(BenchmarkId::new("ws", ws), &ws, |b, &ws| {
            b.iter(|| black_box(AzureTraceConfig::paper(ws, 7).generate()))
        });
    }
    group.finish();
}

/// The datastore mirror's traffic, one request per iteration: a fresh
/// `/latency/{id}` key into a store that grows all run long, plus five
/// status overwrites per six requests, i.e. 1.83 puts per request like
/// the `faas_full_stack` benchmark's `faas.datastore_puts_per_req`.
fn bench_datastore(c: &mut Criterion) {
    c.bench_function("micro/datastore_mirror_puts", |b| {
        let ds = Arc::new(Datastore::new());
        let mut mirror = DatastoreMirror::new(Arc::clone(&ds));
        let mut req = 0u64;
        b.iter(|| {
            let gpu = GpuId((req % 12) as u16);
            let status = match req % 6 {
                0 => None,
                n if n % 2 == 1 => Some(ObsEvent::InvocationDone {
                    gpu,
                    batch: req,
                    requests: 1,
                }),
                _ => Some(ObsEvent::Dispatch {
                    gpu,
                    lead: req,
                    model: ModelId(7),
                    hit: true,
                    false_miss: false,
                    coalesced: 1,
                }),
            };
            if let Some(ev) = status {
                mirror.record(SimTime::ZERO, &ev);
            }
            let done = ObsEvent::Completion {
                req,
                gpu,
                batch: req,
                model: ModelId(7),
                latency: SimDuration::from_micros(req * 7919 % 5_000_000),
            };
            mirror.record(SimTime::ZERO, &done);
            req += 1;
        });
        black_box(ds.get("/gpu/0/status"));
    });
}

fn bench_tensor(c: &mut Criterion) {
    let mut rng = DetRng::new(5);
    let a = Tensor::from_fn(&[64, 128], |_| rng.range_f64(-1.0, 1.0) as f32);
    let b2 = Tensor::from_fn(&[128, 64], |_| rng.range_f64(-1.0, 1.0) as f32);
    c.bench_function("micro/matmul_64x128x64", |b| {
        b.iter(|| black_box(matmul(black_box(&a), black_box(&b2))))
    });

    let input = Tensor::from_fn(&[1, 3, 32, 32], |_| rng.range_f64(0.0, 1.0) as f32);
    let weight = Tensor::from_fn(&[16, 3, 3, 3], |_| rng.range_f64(-0.2, 0.2) as f32);
    let params = Conv2dParams {
        stride: 1,
        padding: 1,
    };
    c.bench_function("micro/conv2d_3x32x32_to_16", |b| {
        b.iter(|| black_box(conv2d(black_box(&input), black_box(&weight), None, params)))
    });

    let net = gfaas_tensor::nets::mini_resnet(10, 3);
    let batch = gfaas_models::live::synthetic_batch(gfaas_models::live::InputKind::Cifar, 4, 1);
    c.bench_function("micro/mini_resnet_forward_b4", |b| {
        b.iter(|| black_box(net.forward(black_box(&batch))))
    });
}

criterion_group!(
    benches,
    bench_cache,
    bench_event_queue,
    bench_trace_gen,
    bench_datastore,
    bench_tensor
);
criterion_main!(benches);
