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

use gfaas_bench::{paper_trace, sweep, TablePrinter, REPORT_SEEDS, WORKING_SETS};
use gfaas_core::config::BusyWaitPolicy;
use gfaas_core::{ClusterConfig, PolicySpec};

fn main() {
    println!("Ablation — finish-time estimation in Algorithm 2 (LALBO3)\n");
    let t = TablePrinter::new(&[4, 10, 12, 12, 12]);
    println!(
        "{}",
        t.header(&["WS", "busy_wait", "avg_lat(s)", "miss_ratio", "duplicates"])
    );
    for ws in WORKING_SETS {
        let traces = REPORT_SEEDS.map(|s| paper_trace(ws, s));
        for busy_wait in [
            BusyWaitPolicy::Estimate,
            BusyWaitPolicy::Never,
            BusyWaitPolicy::Always,
        ] {
            let cfg = ClusterConfig {
                busy_wait,
                ..ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"))
            };
            let m = sweep(&cfg, &traces).0;
            println!(
                "{}",
                t.row(&[
                    ws.to_string(),
                    format!("{busy_wait:?}"),
                    format!("{:.2}", m.avg_latency_secs),
                    format!("{:.3}", m.miss_ratio),
                    format!("{:.2}", m.avg_duplicates),
                ])
            );
        }
        println!();
    }
    println!("Expected shape: Estimate dominates. Never inflates misses/duplicates");
    println!("(replication); Always inflates latency (convoys on hot GPUs).");
}
