//! Trace replay: run any workload trace through the cluster.
//!
//! Usage:
//! ```text
//! cargo run --release --example trace_replay -- [POLICY] [WS|trace.csv]
//! ```
//!
//! * `POLICY` — `lb`, `lalb`, or `lalbo3` (default `lalbo3`).
//! * second argument — either a working-set size (a synthetic Azure-like
//!   trace is generated) or a path to a CSV trace with columns
//!   `time_secs,function,model` (e.g. an extract of the real Azure
//!   Functions trace mapped to Table I model ids).
//!
//! The example also writes the replayed trace back out as CSV next to the
//! metrics so runs are fully reproducible artifacts.

use std::fs::File;
use std::io::BufReader;

use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::ModelRegistry;
use gfaas_trace::{AzureTraceConfig, Trace};

fn parse_policy(s: &str) -> PolicySpec {
    match s {
        "lb" | "lalb" | "lalbo3" => PolicySpec::bare(s),
        other => {
            eprintln!("unknown policy {other:?}; expected lb | lalb | lalbo3");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let policy = parse_policy(args.get(1).map(String::as_str).unwrap_or("lalbo3"));
    let source = args.get(2).map(String::as_str).unwrap_or("25");

    let trace: Trace = if source.ends_with(".csv") {
        let file = File::open(source).unwrap_or_else(|e| {
            eprintln!("cannot open {source}: {e}");
            std::process::exit(2);
        });
        Trace::read_csv(BufReader::new(file)).unwrap_or_else(|e| {
            eprintln!("cannot parse {source}: {e}");
            std::process::exit(2);
        })
    } else {
        let ws: usize = source.parse().unwrap_or_else(|_| {
            eprintln!("expected a working-set size or a .csv path, got {source:?}");
            std::process::exit(2);
        });
        AzureTraceConfig::paper(ws, 7).generate()
    };

    let stats = trace.stats();
    println!(
        "trace: {} requests, working set {}, {} models, {:.0} req/min over {:.0} s",
        stats.total, stats.working_set, stats.distinct_models, stats.rate_per_min, stats.span_secs
    );
    println!(
        "top-15 share: {:.1}% (the paper's Azure trace: 56%)\n",
        stats.top15_share * 100.0
    );

    let mut cluster = Cluster::new(
        ClusterConfig::paper_testbed(policy),
        ModelRegistry::table1(),
    );
    let m = cluster.run(&trace);

    println!("policy {}:", cluster.scheduler_name());
    println!("  avg latency      {:.2} s", m.avg_latency_secs);
    println!("  p/max latency    {:.2} s", m.max_latency_secs);
    println!("  miss ratio       {:.3}", m.miss_ratio);
    println!("  false-miss ratio {:.3}", m.false_miss_ratio);
    println!("  SM utilisation   {:.3}", m.sm_utilization);
    println!("  hot duplicates   {:.2}", m.avg_duplicates);
    println!("  evictions        {}", cluster.evictions());
    println!("  local-queue hits {}", cluster.local_moves());

    // Persist the exact workload for reproduction.
    let out = std::env::temp_dir().join("gfaas_replayed_trace.csv");
    if let Ok(f) = File::create(&out) {
        if trace.write_csv(f).is_ok() {
            println!("\ntrace written to {}", out.display());
        }
    }
}
