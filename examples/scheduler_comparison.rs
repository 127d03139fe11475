//! Scheduler comparison: the paper's headline result in one screen.
//!
//! Runs the same workload under LB, LALB, and LALB+O3 and prints a
//! side-by-side comparison — a single-workload slice of Fig 4 plus the
//! abstract's headline speedup ("a speedup of 48x compared to the
//! default, load balancing only schedulers").
//!
//! ```text
//! cargo run --release -p gfaas-bench --example scheduler_comparison -- [WS]
//! ```

use gfaas_core::{Cluster, ClusterConfig, PolicySpec, RunMetrics};
use gfaas_models::ModelRegistry;
use gfaas_trace::AzureTraceConfig;

fn main() {
    let ws: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);
    let trace = AzureTraceConfig::paper(ws, 7).generate();
    println!(
        "workload: working set {ws}, {} requests over 6 minutes, 12 GPUs\n",
        trace.len()
    );

    let mut results: Vec<(String, RunMetrics)> = Vec::new();
    for policy in ["lb", "lalb", "lalbo3"].map(PolicySpec::bare) {
        let mut cluster = Cluster::new(
            ClusterConfig::paper_testbed(policy),
            ModelRegistry::table1(),
        );
        results.push((cluster.scheduler_name(), cluster.run(&trace)));
    }

    println!(
        "{:>10} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "policy", "avg_lat(s)", "miss_ratio", "sm_util", "dup", "speedup"
    );
    let lb_latency = results[0].1.avg_latency_secs;
    for (name, m) in &results {
        println!(
            "{:>10} {:>12.2} {:>12.3} {:>10.3} {:>10.2} {:>9.1}x",
            name,
            m.avg_latency_secs,
            m.miss_ratio,
            m.sm_utilization,
            m.avg_duplicates,
            lb_latency / m.avg_latency_secs
        );
    }
    println!("\n(the paper's abstract reports locality-aware scheduling reaching a");
    println!("48x speedup over the default load-balancing scheduler)");
}
