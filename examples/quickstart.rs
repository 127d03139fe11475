//! Quickstart: deploy a GPU inference function and run a workload.
//!
//! Walks the full public API surface once:
//! 1. stand up the FaaS substrate (Datastore + Gateway),
//! 2. register a GPU-enabled inference function (the Gateway performs the
//!    paper's transparent interface replacement),
//! 3. build the 12-GPU cluster with the locality-aware scheduler,
//! 4. run a small Azure-like workload and read the metrics — including
//!    the GPU status and latency records the cluster mirrors into the
//!    same etcd-like Datastore the real system would use.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_faas::{Datastore, FunctionSpec, Gateway, Runtime};
use gfaas_models::ModelRegistry;
use gfaas_trace::AzureTraceConfig;

fn main() {
    // --- 1. FaaS substrate -------------------------------------------------
    let datastore = Arc::new(Datastore::new());
    let gateway = Gateway::new(Arc::clone(&datastore));

    // --- 2. Register inference functions -----------------------------------
    // The user ships a Dockerfile with a GPU-enable flag; the Gateway
    // assigns the GpuRedirect runtime, replacing torch.load()/model() with
    // redirection to the GPU Manager.
    let registry = ModelRegistry::table1();
    for (i, name) in ["resnet50", "vgg16", "squeezenet1.1"].iter().enumerate() {
        let runtime = gateway
            .register(FunctionSpec::gpu_inference(
                format!("classify-{i}"),
                name.to_string(),
                32,
            ))
            .expect("function registers");
        assert_eq!(runtime, Runtime::GpuRedirect);
        println!("registered classify-{i} -> {name} ({runtime:?})");
    }
    println!(
        "gateway now serves {} functions; datastore holds {} keys\n",
        gateway.list().len(),
        datastore.len()
    );

    // --- 3. The GPU cluster ------------------------------------------------
    let mut config = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
    config.report_to_datastore = true;
    let mut cluster = Cluster::new(config, registry).with_datastore(Arc::clone(&datastore));

    // --- 4. Run a workload -------------------------------------------------
    let trace = AzureTraceConfig::paper(15, 7).generate();
    println!(
        "replaying {} requests over {:.0} s of virtual time...",
        trace.len(),
        trace.stats().span_secs
    );
    let metrics = cluster.run(&trace);

    println!("\nresults (LALB+O3 on 12 simulated RTX 2080s):");
    println!("  completed:        {}", metrics.completed);
    println!("  avg latency:      {:.2} s", metrics.avg_latency_secs);
    println!("  cache miss ratio: {:.3}", metrics.miss_ratio);
    println!("  SM utilisation:   {:.3}", metrics.sm_utilization);
    println!("  makespan:         {:.1} s", metrics.makespan_secs);

    // The components coordinated through the datastore, like the paper's
    // etcd deployment: GPU statuses and per-request latencies are there.
    let statuses = datastore.range("/gpu/");
    println!(
        "\ndatastore mirror: {} GPU keys, e.g. {} = {:?}",
        statuses.len(),
        statuses[0].key,
        String::from_utf8_lossy(&statuses[0].value)
    );
    let latencies = datastore.range("/latency/");
    println!("  {} per-request latency records", latencies.len());
}
