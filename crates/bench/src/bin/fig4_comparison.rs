//! Fig 4 (a, b, c): average latency, cache miss ratio, and SM utilisation
//! for LB / LALB / LALB+O3 across working sets {15, 25, 35}.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig4_comparison
//! ```

use gfaas_bench::{
    paper_policies, paper_trace, policy_name, reduction_pct, sweep, AveragedMetrics, TablePrinter,
    REPORT_SEEDS, WORKING_SETS,
};
use gfaas_core::ClusterConfig;

fn main() {
    println!("Fig 4 — scheduler comparison on the paper testbed (12x RTX 2080,");
    println!(
        "Azure-like trace, 325 req/min x 6 min, batch 32, {} seeds averaged)\n",
        REPORT_SEEDS.len()
    );

    let t = TablePrinter::new(&[4, 8, 14, 12, 10, 12, 12]);
    println!(
        "{}",
        t.header(&[
            "WS",
            "policy",
            "avg_lat(s)",
            "miss_ratio",
            "sm_util",
            "lat_red(%)",
            "miss_red(%)",
        ])
    );

    for ws in WORKING_SETS {
        let traces = REPORT_SEEDS.map(|s| paper_trace(ws, s));
        let mut baseline: Option<AveragedMetrics> = None;
        for policy in paper_policies() {
            let m = sweep(&ClusterConfig::paper_testbed(policy.clone()), &traces).0;
            let (lat_red, miss_red) = match &baseline {
                Some(b) => (
                    reduction_pct(b.avg_latency_secs, m.avg_latency_secs),
                    reduction_pct(b.miss_ratio, m.miss_ratio),
                ),
                None => (0.0, 0.0),
            };
            println!(
                "{}",
                t.row(&[
                    ws.to_string(),
                    policy_name(&policy),
                    format!("{:.2}", m.avg_latency_secs),
                    format!("{:.3}", m.miss_ratio),
                    format!("{:.3}", m.sm_utilization),
                    format!("{:.1}", lat_red),
                    format!("{:.1}", miss_red),
                ])
            );
            if policy.key() == "lb" {
                baseline = Some(m);
            }
        }
        println!();
    }

    println!("Paper reference points:");
    println!("  LALB  vs LB latency reduction: 97.74% (WS15), 93.33% (WS25), ~79.4% (WS35)");
    println!("  LALB  vs LB miss-ratio reduction: 94.11% (WS15), 65.21% (WS35)");
    println!("  LALBO3 vs LB (WS35): latency -96.93%, miss ratio -81.15%");
    println!("  SM utilisation: consistent across WS; LALBO3 highest; LB lowest");
}
