//! Exercises the runtime invariant sanitizer (`gfaas_core::simcheck`)
//! end to end. Compiled only with `--features simcheck`; the checks
//! themselves are assertions inside the cluster event loop, so these
//! tests "pass" by running representative configurations to completion
//! — a conservation or capacity violation panics with the failing
//! quantity, and the queue-integral mirror is compared to the published
//! `avg_queue_depth` bit for bit at the end of every run.
//!
//! The byte-identity half of the contract (a `simcheck` build reports
//! the same metrics as a default build) cannot be tested in one process
//! — the feature is compile-time — so CI diffs a smoke-report run under
//! both builds instead.
#![cfg(feature = "simcheck")]

use gfaas_core::{AutoscaleSpec, Cluster, ClusterConfig, PolicySpec};
use gfaas_models::ModelRegistry;
use gfaas_trace::AzureTraceConfig;
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

#[test]
fn paper_policies_pass_the_sanitizer() {
    for policy in ["lb", "lalb", "lalbo3"].map(PolicySpec::bare) {
        let trace = AzureTraceConfig::paper(25, 42).generate();
        let mut cluster = Cluster::new(
            ClusterConfig::paper_testbed(policy),
            ModelRegistry::table1(),
        );
        let m = cluster.run(&trace);
        assert!(m.completed > 0);
    }
}

#[test]
fn elastic_tiered_batched_cell_passes_the_sanitizer() {
    // The densest configuration: autoscaling exercises the ScaleTick
    // audit and drain/crash requeue paths, the tiered store exercises
    // the host-tier capacity check, batching exercises hold-slot
    // accounting in the conservation sum.
    let trace = find("churn")
        .expect("scenario registered")
        .trace(&Scale::smoke(), 11);
    let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
    cfg.autoscale = Some(AutoscaleSpec::default());
    cfg.store = "tiered:host=8G,origin_bw=1G,prefetch=2,hot=4"
        .parse()
        .expect("store spec");
    cfg.batching = "coalesce".parse().expect("batching spec");
    let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
    let m = cluster.run(&trace);
    assert!(m.completed > 0);
}
