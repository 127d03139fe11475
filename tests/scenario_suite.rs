//! End-to-end checks of the scenario subsystem through the umbrella
//! crate: the suite runner is deterministic, its `paper` cells agree with
//! the fig4 pipeline, and composed specs drive the cluster directly.

use gfaas::bench::{run, run_replicated, ScenarioSuite, REPORT_SEEDS};
use gfaas::core::{ClusterConfig, PolicySpec};
use gfaas::workload::{Arrival, ModelMapping, Popularity, WorkloadSpec};

#[test]
fn suite_matrix_covers_every_cell_deterministically() {
    let suite = ScenarioSuite::smoke();
    let a = suite.run().cells;
    assert_eq!(a.len(), 6 * 3);
    let b = suite.run().cells;
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.metrics, y.metrics, "{} {}", x.scenario, x.policy_name);
        assert!(x.metrics.avg_latency_secs > 0.0);
        assert!(x.metrics.makespan_secs > 0.0);
        assert!(x.metrics.p50_latency_secs <= x.metrics.p95_latency_secs);
        assert!(x.metrics.p95_latency_secs <= x.metrics.p99_latency_secs);
    }
}

#[test]
fn paper_scenario_cells_equal_fig4_numbers() {
    // The suite and the fig4 pipeline (`run_replicated`) build their
    // clusters separately. Their `paper` cells must stay bit-equal.
    let mut suite = ScenarioSuite::paper_default();
    suite.scenarios.retain(|s| s.name == "paper");
    for (policy, cell) in gfaas::bench::paper_policies().iter().zip(suite.run().cells) {
        assert_eq!(cell.policy_name, gfaas::bench::policy_name(policy));
        let fig4 = run_replicated(policy, 25, &REPORT_SEEDS);
        assert_eq!(cell.metrics, fig4, "{}", cell.policy_name);
    }
}

#[test]
fn composed_spec_feeds_cluster_run_unchanged() {
    let spec = WorkloadSpec {
        arrival: Arrival::Poisson {
            rate_per_min: 120.0,
        },
        popularity: Popularity::Zipf {
            working_set: 15,
            alpha: 1.2176,
        },
        mapping: ModelMapping::InterleavedSizes { num_models: 22 },
        horizon_secs: 120.0,
        seed: 5,
    };
    let trace = spec.generate();
    let m = run(
        ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3")),
        &trace,
    )
    .0;
    assert_eq!(m.completed, trace.len() as u64);
    assert!(m.avg_latency_secs > 0.0);
}
