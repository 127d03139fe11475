//! Dynamic request batching end to end, configured purely with
//! `PolicySpec` strings.
//!
//! ```text
//! cargo run --release --example dynamic_batching
//! ```
//!
//! Builds the paper's 12-GPU testbed three times — per-request dispatch
//! (`none`), greedy coalescing (`coalesce:max=8,wait=0.05`), and
//! SLO-aware adaptive sizing (`adaptive:slo=30,max=32,wait=0.05`) — and
//! replays the same bursty trace through each, showing what coalescing
//! does to latency, misses, effective batch, and GPU busy time.

use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::ModelRegistry;
use gfaas_workload::{scenario::find, Scale};

fn main() {
    let scale = Scale::paper();
    let trace = find("burst")
        .expect("burst scenario registered")
        .trace(&scale, 11);
    println!(
        "Replaying `burst` at paper scale ({} requests over {} min) under LALBO3\n",
        trace.len(),
        scale.minutes
    );
    println!(
        "{:<34} {:>9} {:>8} {:>7} {:>7} {:>9} {:>9}",
        "batching", "avg_lat", "p95", "miss", "eff_b", "busy_s", "req/busy"
    );

    // The whole batching axis is a config string: `none` is the paper's
    // per-request dispatch, the other two engage gfaas-core::batching.
    for spec in [
        "none",
        "coalesce:max=8,wait=0.05",
        "adaptive:slo=30,max=32,wait=0.05",
    ] {
        let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        cfg.batching = spec.parse().expect("valid batching spec");
        let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
        let name = cluster.batcher_name();
        let m = cluster.run(&trace);
        println!(
            "{:<34} {:>8.2}s {:>7.2}s {:>7.3} {:>7.2} {:>8.0}s {:>9.4}",
            name,
            m.avg_latency_secs,
            m.p95_latency_secs,
            m.miss_ratio,
            m.avg_effective_batch,
            m.gpu_busy_seconds,
            m.completed as f64 / m.gpu_busy_seconds
        );
    }

    println!(
        "\nCoalescing merges same-model queue backlogs into single GPU invocations\n\
         (the registry's latency model is affine in batch size), so each completed\n\
         request costs fewer busy GPU-seconds; `adaptive` additionally caps each\n\
         batch so its predicted service time fits the latency SLO.\n\
         See `cargo run --release -p gfaas-bench --bin fig_batching` for the full\n\
         multi-seed study."
    );
}
