//! Ablation (§VI "Cache Replacement Policy"): LRU vs FIFO vs random vs
//! TinyLFU eviction under LB and LALB+O3.
//!
//! The paper argues its design "can easily support other cache replacement
//! policies" and that locality-aware scheduling helps regardless of the
//! policy. This ablation quantifies both claims: every policy benefits
//! from LALB+O3 over LB, and LRU retains an edge on the *static* paper
//! trace because the hot models' recency tracks their popularity (the
//! frequency-decay TinyLFU row pays off under the drifting workloads of
//! the `scenarios` matrix instead — see `scenarios --replacement tinylfu`).
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin ablation_replacement
//! ```

use gfaas_bench::{paper_trace, sweep, TablePrinter, REPORT_SEEDS, WORKING_SETS};
use gfaas_core::{ClusterConfig, PolicySpec};

fn main() {
    println!("Ablation — cache replacement policy under LB and LALBO3\n");
    let t = TablePrinter::new(&[4, 8, 8, 12, 12]);
    println!(
        "{}",
        t.header(&["WS", "sched", "repl", "avg_lat(s)", "miss_ratio"])
    );
    let spec = |s: &str| PolicySpec::parse(s).expect("builtin spec");
    for ws in WORKING_SETS {
        let traces = REPORT_SEEDS.map(|s| paper_trace(ws, s));
        for (policy, pname) in [(spec("lb"), "LB"), (spec("lalbo3"), "LALBO3")] {
            for repl in ["lru", "fifo", "random", "tinylfu"] {
                let cfg = ClusterConfig {
                    replacement: spec(repl),
                    ..ClusterConfig::paper_testbed(policy.clone())
                };
                let m = sweep(&cfg, &traces).0;
                println!(
                    "{}",
                    t.row(&[
                        ws.to_string(),
                        pname.to_string(),
                        repl.to_string(),
                        format!("{:.2}", m.avg_latency_secs),
                        format!("{:.3}", m.miss_ratio),
                    ])
                );
            }
        }
        println!();
    }
    println!("Expected shape: LALBO3 beats LB under every replacement policy;");
    println!("LRU ≤ FIFO ≤ Random in miss ratio under locality-aware scheduling.");
}
