//! Fig 7: sensitivity of LALB+O3 to the out-of-order dispatch limit.
//!
//! The paper sweeps the starvation limit from 0 (pure LALB) to 45 on the
//! WS-35 workload and plots average latency (left axis) and cache miss
//! ratio (right axis); it also reports that the larger limit *reduces*
//! latency variance (fewer misses beat less queue-jumping unfairness).
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig7_o3_sensitivity
//! ```

use gfaas_bench::{paper_trace, reduction_pct, sweep, TablePrinter, REPORT_SEEDS};
use gfaas_core::{ClusterConfig, PolicySpec};

/// The paper's x-axis.
const LIMITS: [u32; 10] = [0, 5, 10, 15, 20, 25, 30, 35, 40, 45];
/// Fig 7 uses the largest working set, where O3 matters most.
const WORKING_SET: usize = 35;

fn main() {
    println!(
        "Fig 7 — O3 limit sweep on WS{WORKING_SET} ({} seeds averaged)\n",
        REPORT_SEEDS.len()
    );
    let t = TablePrinter::new(&[6, 12, 12, 14]);
    println!(
        "{}",
        t.header(&["limit", "avg_lat(s)", "miss_ratio", "lat_variance"])
    );
    let traces = REPORT_SEEDS.map(|s| paper_trace(WORKING_SET, s));
    let mut base: Option<(f64, f64, f64)> = None;
    let mut last: Option<(f64, f64, f64)> = None;
    for limit in LIMITS {
        let policy = PolicySpec::parse(&format!("lalbo3:{limit}")).expect("valid limit");
        let m = sweep(&ClusterConfig::paper_testbed(policy), &traces).0;
        println!(
            "{}",
            t.row(&[
                limit.to_string(),
                format!("{:.2}", m.avg_latency_secs),
                format!("{:.3}", m.miss_ratio),
                format!("{:.2}", m.latency_variance),
            ])
        );
        let triple = (m.avg_latency_secs, m.miss_ratio, m.latency_variance);
        if base.is_none() {
            base = Some(triple);
        }
        last = Some(triple);
    }
    let (b, l) = (base.unwrap(), last.unwrap());
    println!("\nlimit 45 vs limit 0 (= LALB):");
    println!(
        "  latency reduction:  {:.1}%  (paper: 85.1%)",
        reduction_pct(b.0, l.0)
    );
    println!(
        "  miss-ratio reduction: {:.1}%  (paper: 45.8%)",
        reduction_pct(b.1, l.1)
    );
    println!(
        "  variance reduction: {:.1}%  (paper: 95.9%)",
        reduction_pct(b.2, l.2)
    );
}
