//! Determinism smoke test: the whole pipeline — trace synthesis, the
//! DES engine, scheduling, caching, metric accumulation — must be a pure
//! function of (config, seed). Two identically-seeded runs have to agree
//! on every metric bit-for-bit, or none of the paper's figures are
//! reproducible.

use gfaas_core::{Cluster, ClusterConfig, PolicySpec, RunMetrics};
use gfaas_models::ModelRegistry;
use gfaas_trace::AzureTraceConfig;

fn run_once(policy: &PolicySpec, working_set: usize, seed: u64) -> RunMetrics {
    let trace = AzureTraceConfig::paper(working_set, seed).generate();
    let mut cluster = Cluster::new(
        ClusterConfig::paper_testbed(policy.clone()),
        ModelRegistry::table1(),
    );
    cluster.run(&trace)
}

#[test]
fn same_seed_byte_identical_metrics() {
    for policy in ["lb", "lalb", "lalbo3"].map(PolicySpec::bare) {
        let a = run_once(&policy, 25, 42);
        let b = run_once(&policy, 25, 42);
        assert_eq!(a, b, "{policy:?}: metrics diverged between identical runs");
        // PartialEq could in principle tolerate differences Debug would
        // show (it cannot today, but keep the stronger check cheap):
        // compare the full rendering too, byte for byte.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn different_seed_different_metrics() {
    // Not a tautology: a buggy engine that ignored the trace would pass
    // the identity test above. Distinct seeds must actually reach the
    // metrics.
    let a = run_once(&PolicySpec::bare("lalb"), 25, 42);
    let c = run_once(&PolicySpec::bare("lalb"), 25, 43);
    assert_ne!(a, c, "different seeds produced identical metrics");
}
