//! Ablation: Algorithm 2's finish-time estimation.
//!
//! The co-design claim of the paper is that scheduling needs the GPU
//! Managers' estimated finish times: a request whose model sits on a busy
//! GPU should wait there *iff* the wait beats a cold load. This ablation
//! replaces that comparison with the two degenerate rules:
//!
//! * `Never`  — never wait on a busy holder (always replicate): locality
//!   only on idle GPUs, extra misses and duplicates;
//! * `Always` — always wait on the busy holder (locality without load
//!   balance): hot GPUs build convoys while others idle.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin ablation_estimation
//! ```

use gfaas_bench::{paper_trace, TablePrinter, REPORT_SEEDS, WORKING_SETS};
use gfaas_core::config::BusyWaitPolicy;
use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::ModelRegistry;

fn run(busy_wait: BusyWaitPolicy, ws: usize) -> (f64, f64, f64) {
    let mut lat = 0.0;
    let mut miss = 0.0;
    let mut dup = 0.0;
    for &s in &REPORT_SEEDS {
        let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        cfg.busy_wait = busy_wait;
        let m = Cluster::new(cfg, ModelRegistry::table1()).run(&paper_trace(ws, s));
        lat += m.avg_latency_secs;
        miss += m.miss_ratio;
        dup += m.avg_duplicates;
    }
    let n = REPORT_SEEDS.len() as f64;
    (lat / n, miss / n, dup / n)
}

fn main() {
    println!("Ablation — finish-time estimation in Algorithm 2 (LALBO3)\n");
    let t = TablePrinter::new(&[4, 10, 12, 12, 12]);
    println!(
        "{}",
        t.header(&["WS", "busy_wait", "avg_lat(s)", "miss_ratio", "duplicates"])
    );
    for ws in WORKING_SETS {
        for bw in [
            BusyWaitPolicy::Estimate,
            BusyWaitPolicy::Never,
            BusyWaitPolicy::Always,
        ] {
            let (lat, miss, dup) = run(bw, ws);
            println!(
                "{}",
                t.row(&[
                    ws.to_string(),
                    format!("{bw:?}"),
                    format!("{lat:.2}"),
                    format!("{miss:.3}"),
                    format!("{dup:.2}"),
                ])
            );
        }
        println!();
    }
    println!("Expected shape: Estimate dominates. Never inflates misses/duplicates");
    println!("(replication); Always inflates latency (convoys on hot GPUs).");
}
