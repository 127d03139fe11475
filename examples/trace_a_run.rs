//! Trace one simulated run end to end with every recorder attached.
//!
//! ```text
//! cargo run --release --example trace_a_run
//! ```
//!
//! Builds the paper's 12-GPU testbed, attaches the observability layer
//! via `ClusterConfig::record` (lifecycle ledger + Perfetto exporter +
//! 30 s time-series sampler, 10 s SLO), replays the `flash_crowd`
//! scenario, and then shows what each recorder captured: where request
//! time actually went (queued vs hold vs load vs inference — segments
//! that sum exactly to the reported latency), which Algorithm-2 arm
//! served each request, the sampled cluster time series, and a
//! ready-to-open Perfetto trace written to `/tmp/gfaas_trace.json`.

use gfaas_core::{Cluster, ClusterConfig, PolicySpec, RecordSpec};
use gfaas_models::ModelRegistry;
use gfaas_workload::{scenario::find, Scale};

fn main() {
    let scale = Scale::paper();
    let trace = find("flash_crowd")
        .expect("flash_crowd scenario registered")
        .trace(&scale, 11);

    let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
    // The whole observability layer is one config field; `off` (the
    // default) keeps the run byte-identical and recorder-free.
    cfg.record = "ledger,perfetto,sample=30,slo=10"
        .parse::<RecordSpec>()
        .expect("valid record spec");

    let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
    let m = cluster.run(&trace);
    println!(
        "flash_crowd / LALBO3: {} requests, avg {:.2}s, p95 {:.2}s, miss {:.3}\n",
        m.completed, m.avg_latency_secs, m.p95_latency_secs, m.miss_ratio
    );

    // --- Ledger: per-request latency decomposition --------------------
    let ledger = cluster.ledger().expect("ledger recorder attached");
    println!(
        "Where the time went ({} requests, {} SLO misses at 10s):",
        ledger.completed(),
        ledger.slo_misses()
    );
    println!("  mean segments: {}", ledger.segment_summary());
    println!("Algorithm-2 arms:");
    let total = ledger.completed().max(1) as f64;
    for (arm, n) in ledger.arm_counts() {
        println!("  {arm:<12} {n:>6}  ({:.1}%)", 100.0 * n as f64 / total);
    }
    let slowest = ledger
        .rows()
        .iter()
        .filter(|r| r.completed)
        .max_by_key(|r| r.latency)
        .expect("completed requests exist");
    println!(
        "  slowest: request {} on {:?} — queued {:.2}s, load {:.2}s, infer {:.2}s\n",
        slowest.req,
        slowest.gpu.expect("completed requests have a GPU"),
        slowest.queued.as_secs_f64(),
        slowest.load.as_secs_f64(),
        slowest.infer.as_secs_f64(),
    );

    // --- Sampler: the cluster as a time series ------------------------
    let series = cluster.time_series().expect("sampler recorder attached");
    println!("Cluster time series (30s windows):");
    println!(
        "  {:>6} {:>6} {:>5} {:>9} {:>10}",
        "t(s)", "queue", "busy", "arrivals", "miss_ewma"
    );
    for row in series.rows() {
        println!(
            "  {:>6.0} {:>6} {:>5} {:>9} {:>10.3}",
            row.t.as_secs_f64(),
            row.queue_depth,
            row.busy,
            row.arrivals,
            row.miss_ewma
        );
    }

    // --- Perfetto: scrub the run visually -----------------------------
    let json = cluster.perfetto_json().expect("perfetto recorder attached");
    let path = "/tmp/gfaas_trace.json";
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\nWrote {} ({} bytes) — open it in https://ui.perfetto.dev\n\
             (one track per GPU: load + inference slices; counter tracks\n\
             for queue depth, hot replicas, provisioned GPUs).",
            path,
            json.len()
        ),
        Err(e) => println!("\n(could not write {path}: {e})"),
    }
}
