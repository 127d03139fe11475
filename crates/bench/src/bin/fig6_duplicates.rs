//! Fig 6: time-averaged number of duplicates of the most popular model.
//!
//! Duplicates of hot models let concurrent requests hit in parallel, but
//! too many pollute the cache. The metric is the time-weighted average
//! number of GPUs simultaneously holding the trace's hottest model
//! (bounded by the GPU count, 12).
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig6_duplicates
//! ```

use gfaas_bench::{
    paper_policies, paper_trace, policy_name, reduction_pct, sweep, TablePrinter, REPORT_SEEDS,
    WORKING_SETS,
};
use gfaas_core::ClusterConfig;

fn main() {
    println!(
        "Fig 6 — average duplicates of the top-1 model (12 GPUs, {} seeds averaged)\n",
        REPORT_SEEDS.len()
    );
    let t = TablePrinter::new(&[4, 8, 12, 14]);
    println!(
        "{}",
        t.header(&["WS", "policy", "duplicates", "red_vs_LB(%)"])
    );
    for ws in WORKING_SETS {
        let traces = REPORT_SEEDS.map(|s| paper_trace(ws, s));
        let mut lb = 0.0;
        for policy in paper_policies() {
            let m = sweep(&ClusterConfig::paper_testbed(policy.clone()), &traces).0;
            if policy.key() == "lb" {
                lb = m.avg_duplicates;
            }
            println!(
                "{}",
                t.row(&[
                    ws.to_string(),
                    policy_name(&policy),
                    format!("{:.2}", m.avg_duplicates),
                    format!("{:.1}", reduction_pct(lb, m.avg_duplicates)),
                ])
            );
        }
        println!();
    }
    println!("Paper reference points: LB keeps the most duplicates (locality-blind");
    println!("replication); LALB reduces them by ~49% (WS15) and ~35% (WS35);");
    println!("LALBO3 by ~49% (WS15) and ~33% (WS35).");
}
