//! Scenario tour: compose a custom workload from parts, then sweep the
//! named registry.
//!
//! ```text
//! cargo run --release --example workload_scenarios
//! ```
//!
//! Part 1 builds a workload the registry does *not* ship — a flash crowd
//! landing on top of bursty on-off arrivals — straight from the
//! composable pieces, and shows what it does to LALB+O3. Part 2 replays
//! every registered scenario under the paper's three schedulers.

use gfaas_bench::{policy_name, run_on_trace, ScenarioSuite};
use gfaas_core::PolicySpec;
use gfaas_workload::{registry, Arrival, ModelMapping, Popularity, Scale, WorkloadSpec};

fn main() {
    // Part 1: a one-off composed workload — no fork of the Azure
    // generator required.
    let spec = WorkloadSpec {
        arrival: Arrival::OnOff {
            base_rate_per_min: 150.0,
            burst_rate_per_min: 900.0,
            mean_base_secs: 40.0,
            mean_burst_secs: 15.0,
        },
        popularity: Popularity::FlashCrowd {
            working_set: 25,
            alpha: 1.2176,
            crowd_function: 25,
            start_secs: 120.0,
            duration_secs: 120.0,
            crowd_share: 0.4,
        },
        mapping: ModelMapping::InterleavedSizes { num_models: 22 },
        horizon_secs: 360.0,
        seed: 11,
    };
    let trace = spec.generate();
    let s = trace.stats();
    println!("custom spec: bursty arrivals + mid-trace flash crowd");
    println!(
        "  {} requests, {} functions, minute CV {:.2}, top-15 share {:.0}%",
        s.total,
        s.working_set,
        s.minute_cv,
        s.top15_share * 100.0
    );
    for policy in ["lb", "lalbo3"].map(PolicySpec::bare) {
        let m = run_on_trace(&policy, &trace);
        println!(
            "  {:<7} avg {:6.2} s   p95 {:6.2} s   miss {:.3}",
            policy_name(&policy),
            m.avg_latency_secs,
            m.p95_latency_secs,
            m.miss_ratio
        );
    }

    // Part 2: the named registry, one seed, paper scale.
    println!(
        "\nregistry sweep ({} scenarios, paper scale, seed 11):",
        registry().len()
    );
    let mut suite = ScenarioSuite::new(Scale::paper(), vec![11]);
    suite.policies = vec![PolicySpec::bare("lb"), PolicySpec::bare("lalbo3")];
    for cell in suite.run().cells {
        println!(
            "  {:<12} {:<7} avg {:6.2} s   p95 {:6.2} s   miss {:.3}",
            cell.scenario,
            cell.policy_name,
            cell.metrics.avg_latency_secs,
            cell.metrics.p95_latency_secs,
            cell.metrics.miss_ratio
        );
    }
}
