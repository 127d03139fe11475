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

use gfaas_bench::{paper_trace, run, TablePrinter, REPORT_SEEDS, WORKING_SETS};
use gfaas_core::{ClusterConfig, PolicySpec};

fn averaged(policy: &PolicySpec, replacement: &PolicySpec, ws: usize) -> (f64, f64) {
    let mut lat = 0.0;
    let mut miss = 0.0;
    for &s in &REPORT_SEEDS {
        let cfg = ClusterConfig {
            replacement: replacement.clone(),
            ..ClusterConfig::paper_testbed(policy.clone())
        };
        let m = run(cfg, &paper_trace(ws, s)).0;
        lat += m.avg_latency_secs;
        miss += m.miss_ratio;
    }
    let n = REPORT_SEEDS.len() as f64;
    (lat / n, miss / n)
}

fn main() {
    println!("Ablation — cache replacement policy under LB and LALBO3\n");
    let t = TablePrinter::new(&[4, 8, 8, 12, 12]);
    println!(
        "{}",
        t.header(&["WS", "sched", "repl", "avg_lat(s)", "miss_ratio"])
    );
    let spec = |s: &str| PolicySpec::parse(s).expect("builtin spec");
    for ws in WORKING_SETS {
        for (policy, pname) in [(spec("lb"), "LB"), (spec("lalbo3"), "LALBO3")] {
            for repl in ["lru", "fifo", "random", "tinylfu"] {
                let (lat, miss) = averaged(&policy, &spec(repl), ws);
                println!(
                    "{}",
                    t.row(&[
                        ws.to_string(),
                        pname.to_string(),
                        repl.to_string(),
                        format!("{lat:.2}"),
                        format!("{miss:.3}"),
                    ])
                );
            }
        }
        println!();
    }
    println!("Expected shape: LALBO3 beats LB under every replacement policy;");
    println!("LRU ≤ FIFO ≤ Random in miss ratio under locality-aware scheduling.");
}
