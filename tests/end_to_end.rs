//! End-to-end integration: FaaS substrate + trace + cluster + metrics.

use std::sync::Arc;

use gfaas_core::obs::ledger::LedgerRecorder;
use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_faas::{Datastore, FunctionSpec, Gateway, Runtime};
use gfaas_models::ModelRegistry;
use gfaas_trace::{AzureTraceConfig, Trace};
use gfaas_workload::{scenario::find, Scale};

#[test]
fn gateway_to_cluster_to_datastore() {
    let ds = Arc::new(Datastore::new());
    let gateway = Gateway::new(Arc::clone(&ds));
    // Register one function per zoo model through the Gateway.
    let registry = ModelRegistry::table1();
    for id in registry.ids() {
        let name = registry.spec(id).name;
        let rt = gateway
            .register(FunctionSpec::gpu_inference(format!("fn-{name}"), name, 32))
            .unwrap();
        assert_eq!(rt, Runtime::GpuRedirect);
    }
    assert_eq!(gateway.list().len(), 22);
    assert_eq!(ds.range("/functions/").len(), 22);

    // Run a workload with datastore mirroring on.
    let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
    cfg.report_to_datastore = true;
    let mut cluster = Cluster::new(cfg, registry).with_datastore(Arc::clone(&ds));
    let trace = AzureTraceConfig::paper(15, 3).generate();
    let m = cluster.run(&trace);

    assert_eq!(m.completed as usize, trace.len());
    // Every GPU reported a final status, every request a latency.
    for g in 0..12 {
        let kv = ds.get(format!("/gpu/{g}/status")).expect("status key");
        assert_eq!(kv.value.as_ref(), b"idle", "all GPUs idle after drain");
    }
    assert_eq!(ds.range("/latency/").len(), trace.len());
    // The mean of mirrored latencies equals the reported average.
    let sum: f64 = ds
        .range("/latency/")
        .iter()
        .map(|kv| String::from_utf8_lossy(&kv.value).parse::<f64>().unwrap())
        .sum();
    let mean = sum / trace.len() as f64;
    assert!((mean - m.avg_latency_secs).abs() < 1e-3);
}

#[test]
fn csv_trace_round_trips_through_the_cluster() {
    let trace = AzureTraceConfig::paper(25, 9).generate();
    let mut buf = Vec::new();
    trace.write_csv(&mut buf).unwrap();
    let parsed = Trace::read_csv(std::io::BufReader::new(&buf[..])).unwrap();
    assert_eq!(parsed.len(), trace.len());

    let run = |t: &Trace| {
        Cluster::new(
            ClusterConfig::paper_testbed(PolicySpec::bare("lalb")),
            ModelRegistry::table1(),
        )
        .run(t)
    };
    let a = run(&trace);
    let b = run(&parsed);
    // CSV timestamps are µs-exact, so the runs are identical.
    assert_eq!(a, b);
}

#[test]
fn watch_observes_gpu_status_transitions() {
    let ds = Arc::new(Datastore::new());
    let watcher = ds.watch("/gpu/");
    let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalb"));
    cfg.report_to_datastore = true;
    let mut cluster = Cluster::new(cfg, ModelRegistry::table1()).with_datastore(Arc::clone(&ds));
    cluster.run(&AzureTraceConfig::paper(15, 5).generate());
    let events = watcher.drain();
    assert!(!events.is_empty());
    // Status events alternate busy/idle per GPU; ensure both appear.
    let busy = events.iter().any(|e| e.value.as_ref() == b"busy");
    let idle = events.iter().any(|e| e.value.as_ref() == b"idle");
    assert!(busy && idle);
    // Revisions are monotone in delivery order.
    for pair in events.windows(2) {
        assert!(pair[0].revision < pair[1].revision);
    }
}

#[test]
fn all_policies_complete_every_request() {
    let trace = AzureTraceConfig::paper(35, 13).generate();
    for policy in ["lb", "lalb", "lalbo3"].map(PolicySpec::bare) {
        let m = Cluster::new(
            ClusterConfig::paper_testbed(policy.clone()),
            ModelRegistry::table1(),
        )
        .run(&trace);
        assert_eq!(m.completed as usize, trace.len(), "{policy}");
        assert!(m.makespan_secs >= 360.0 - 60.0, "{policy}");
        assert!(m.sm_utilization > 0.0 && m.sm_utilization <= 1.0);
    }
}

/// FNV-1a over every `(key, value, create_revision, mod_revision,
/// version)` in key order: one number for the whole mirrored datastore.
fn datastore_digest(ds: &Datastore) -> u64 {
    let mut bytes = Vec::new();
    for kv in ds.range("") {
        bytes.extend_from_slice(kv.key.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(&kv.value);
        bytes.push(0);
        for n in [kv.create_revision.0, kv.mod_revision.0, kv.version] {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
    }
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// The whole mirrored datastore of a bursty full-stack run is pinned:
/// every key, value and revision, bare and with a ledger recorder set
/// before the datastore is attached.
#[test]
fn mirrored_datastore_is_pinned() {
    let scale = Scale {
        requests_per_min: 400,
        minutes: 3,
        working_set: 35,
        ..Scale::smoke()
    };
    let trace = find("burst").expect("burst scenario").trace(&scale, 7);
    for with_ledger in [false, true] {
        let mut cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        cfg.replacement = PolicySpec::bare("tinylfu");
        cfg.batching = PolicySpec::bare("coalesce");
        cfg.autoscale = Some("queue:min=4,max=16,up=12,down=2".parse().unwrap());
        cfg.report_to_datastore = true;
        let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
        if with_ledger {
            cluster.set_recorder(Box::new(LedgerRecorder::new(None).0));
        }
        let ds = Arc::new(Datastore::new());
        let watcher = ds.watch("/gpu/");
        let mut cluster = cluster.with_datastore(Arc::clone(&ds));
        let m = cluster.run(&trace);
        // The run exercises every mirrored transition.
        assert_eq!(m.completed as usize, trace.len());
        assert!(cluster.self_profile().holds_parked > 0, "no batch was held");
        assert!(m.misses > 0 && m.scale_up_events > 0 && m.scale_down_events > 0);
        let puts = watcher.drain();
        for v in ["busy", "idle", "offline", ""] {
            assert!(
                puts.iter().any(|e| e.value.as_ref() == v.as_bytes()),
                "no {v:?} put"
            );
        }
        assert_eq!(ds.revision().0, 2437, "ledger {with_ledger}");
        assert_eq!(
            datastore_digest(&ds),
            0x9655_7215_75c2_1bcc,
            "ledger {with_ledger}"
        );
    }
}
