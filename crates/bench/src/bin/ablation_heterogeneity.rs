//! Ablation (§VI "Heterogeneity of GPUs"): mixed GPU types.
//!
//! The paper claims its design inherently supports heterogeneous GPUs by
//! profiling each type separately and feeding the per-type times to the
//! scheduler. This ablation compares three 12-GPU clusters — all-RTX 2080,
//! mixed 2080/2080 Ti, and all-2080 Ti — under LB and LALB+O3.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin ablation_heterogeneity
//! ```

use gfaas_bench::{paper_trace, policy_name, run, TablePrinter, REPORT_SEEDS};
use gfaas_core::{ClusterConfig, PolicySpec};
use gfaas_gpu::GpuSpec;

fn fleet(name: &str, specs: Vec<GpuSpec>) -> (&str, Vec<GpuSpec>) {
    (name, specs)
}

fn main() {
    println!("Ablation — heterogeneous GPU fleets (WS25)\n");
    let fleets = [
        fleet("12x2080", vec![GpuSpec::rtx2080(); 12]),
        fleet("6+6mix", {
            let mut v = vec![GpuSpec::rtx2080(); 6];
            v.extend(vec![GpuSpec::rtx2080ti(); 6]);
            v
        }),
        fleet("12x2080Ti", vec![GpuSpec::rtx2080ti(); 12]),
    ];

    let t = TablePrinter::new(&[10, 8, 12, 12, 10]);
    println!(
        "{}",
        t.header(&["fleet", "sched", "avg_lat(s)", "miss_ratio", "sm_util"])
    );
    for (name, specs) in &fleets {
        for policy in ["lb", "lalbo3"].map(PolicySpec::bare) {
            let mut lat = 0.0;
            let mut miss = 0.0;
            let mut util = 0.0;
            for &s in &REPORT_SEEDS {
                let mut cfg = ClusterConfig::paper_testbed(policy.clone());
                cfg.hetero_specs = Some(specs.clone());
                let m = run(cfg, &paper_trace(25, s)).0;
                lat += m.avg_latency_secs;
                miss += m.miss_ratio;
                util += m.sm_utilization;
            }
            let n = REPORT_SEEDS.len() as f64;
            println!(
                "{}",
                t.row(&[
                    name.to_string(),
                    policy_name(&policy),
                    format!("{:.2}", lat / n),
                    format!("{:.3}", miss / n),
                    format!("{:.3}", util / n),
                ])
            );
        }
        println!();
    }
    println!("Expected shape: faster fleets lower latency under both schedulers;");
    println!("LALBO3 keeps its large margin over LB on every fleet, showing the");
    println!("profiled per-type times compose with locality-aware scheduling.");
}
