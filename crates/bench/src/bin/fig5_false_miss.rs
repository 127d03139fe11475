//! Fig 5: false-miss ratio per scheduler and working set.
//!
//! A false miss is a scheduling decision that dispatches a request as a
//! cache miss even though its model is resident on another GPU. The
//! default LB scheduler is blind to residency, so nearly every one of its
//! misses is false (the paper reports up to ~96%); the locality-aware
//! schedulers miss mostly on genuinely absent models.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig5_false_miss
//! ```

use gfaas_bench::{
    paper_policies, paper_trace, policy_name, reduction_pct, sweep, TablePrinter, REPORT_SEEDS,
    WORKING_SETS,
};
use gfaas_core::ClusterConfig;

fn main() {
    println!(
        "Fig 5 — false-miss ratio (false misses / misses), {} seeds averaged\n",
        REPORT_SEEDS.len()
    );
    let t = TablePrinter::new(&[4, 8, 12, 14]);
    println!(
        "{}",
        t.header(&["WS", "policy", "false_miss", "red_vs_LB(%)"])
    );
    for ws in WORKING_SETS {
        let traces = REPORT_SEEDS.map(|s| paper_trace(ws, s));
        let mut lb = 0.0;
        for policy in paper_policies() {
            let m = sweep(&ClusterConfig::paper_testbed(policy.clone()), &traces).0;
            if policy.key() == "lb" {
                lb = m.false_miss_ratio;
            }
            println!(
                "{}",
                t.row(&[
                    ws.to_string(),
                    policy_name(&policy),
                    format!("{:.3}", m.false_miss_ratio),
                    format!("{:.1}", reduction_pct(lb, m.false_miss_ratio)),
                ])
            );
        }
        println!();
    }
    println!("Paper reference points: LB worst (up to ~96%); at WS15 LALB/LALBO3");
    println!("reduce the false-miss ratio by 34.4%/35.4%; at WS35 the reductions shrink.");
}
