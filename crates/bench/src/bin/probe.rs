//! Scratch probe: sensitivity of the Fig 4 shapes to trace burstiness.
//! Not part of the documented experiment set; used for calibration.

use gfaas_bench::{paper_policies, policy_name, run, WORKING_SETS};
use gfaas_core::ClusterConfig;
use gfaas_trace::AzureTraceConfig;

fn main() {
    for headroom in [3072u64, 3584, 4096] {
        println!("=== headroom {headroom} MiB, burstiness 1.0 ===");
        for ws in WORKING_SETS {
            for policy in paper_policies() {
                let mut lat = 0.0;
                let mut miss = 0.0;
                let mut fm = 0.0;
                let mut dup = 0.0;
                let seeds = [11u64, 23, 47];
                for &s in &seeds {
                    let cfg = AzureTraceConfig::paper(ws, s);
                    let mut cc = ClusterConfig::paper_testbed(policy.clone());
                    cc.mem_headroom_mib = headroom;
                    let m = run(cc, &cfg.generate()).0;
                    lat += m.avg_latency_secs;
                    miss += m.miss_ratio;
                    fm += m.false_miss_ratio;
                    dup += m.avg_duplicates;
                }
                let n = seeds.len() as f64;
                println!(
                    "ws{ws:2} {:8} lat {:8.2}  miss {:.3}  false {:.3}  dup {:.2}",
                    policy_name(&policy),
                    lat / n,
                    miss / n,
                    fm / n,
                    dup / n
                );
            }
        }
    }
}
