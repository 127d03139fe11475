//! Observability-layer contracts (PR 7):
//!
//! * **Recorder neutrality** — attaching every recorder must not change
//!   a single metric bit. Recording is a read-only tap on the event
//!   loop: the `RunMetrics` of a recorded run are byte-identical to the
//!   unrecorded run for every smoke scenario, including batching and
//!   autoscaling cells (those exercise the hold/ObsTick interleavings
//!   where a buggy tap would perturb event order).
//! * **Perfetto schema** — the exported Chrome trace-event JSON parses,
//!   timestamps are monotone per track, and begin/end slices balance,
//!   so the file opens in `ui.perfetto.dev` rather than erroring there.
//! * **Ledger exactness** — per-request lifecycle segments
//!   (queued + hold + load + inference) sum *tick-exactly* to the
//!   latency the metrics pipeline reports; the decomposition is an
//!   identity, not an approximation.
//! * **Sampler cadence** — time-series rows land on the configured
//!   cadence with sequential window ids.

use gfaas_bench::run;
use gfaas_core::obs::ledger::LedgerRecorder;
use gfaas_core::obs::perfetto::validate_chrome_trace;
use gfaas_core::{AutoscaleSpec, Cluster, ClusterConfig, PolicySpec, RecordSpec, RunMetrics};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::SimDuration;
use gfaas_workload::scenario::{find, registry};
use gfaas_workload::Scale;

fn record_all() -> RecordSpec {
    RecordSpec {
        ledger: true,
        perfetto: true,
        sample_secs: Some(5.0),
        slo_secs: Some(10.0),
    }
}

fn recorded_flash_crowd(seed: u64) -> (RunMetrics, Cluster) {
    let trace = find("flash_crowd")
        .expect("flash_crowd scenario registered")
        .trace(&Scale::smoke(), seed);
    let cfg = ClusterConfig {
        record: record_all(),
        ..ClusterConfig::paper_testbed("lalbo3".parse().unwrap())
    };
    run(cfg, &trace)
}

#[test]
fn recorders_are_metric_neutral_across_smoke_registry() {
    let batchings = ["none", "coalesce", "adaptive"];
    let autoscale = AutoscaleSpec::default();
    for (i, sc) in registry().iter().enumerate() {
        let trace = sc.trace(&Scale::smoke(), 11);
        // Rotate batching policies and alternate the autoscaler across
        // scenarios so every subsystem gets a recorded cell without
        // running the full cross product.
        let plain_cfg = ClusterConfig {
            batching: PolicySpec::bare(batchings[i % batchings.len()]),
            autoscale: (i % 2 == 1).then(|| autoscale.clone()),
            ..ClusterConfig::paper_testbed("lalbo3".parse().unwrap())
        };
        let recorded_cfg = ClusterConfig {
            record: record_all(),
            ..plain_cfg.clone()
        };
        let plain = run(plain_cfg.clone(), &trace).0;
        let recorded = run(recorded_cfg, &trace).0;
        assert_eq!(
            plain,
            recorded,
            "{}/{}/autoscale={}: recording changed the metrics",
            sc.name,
            plain_cfg.batching.key(),
            plain_cfg.autoscale.is_some(),
        );
        // Byte-for-byte, not just PartialEq.
        assert_eq!(format!("{plain:?}"), format!("{recorded:?}"));
    }
}

#[test]
fn perfetto_export_is_valid_chrome_trace() {
    let (_, cluster) = recorded_flash_crowd(11);
    let json = cluster.perfetto_json().expect("perfetto recorder attached");
    let check = validate_chrome_trace(&json)
        .unwrap_or_else(|e| panic!("flash_crowd trace failed validation: {e}"));
    assert!(check.events > 0, "empty trace");
    assert_eq!(check.begins, check.ends, "unbalanced duration slices");
    assert!(
        check.counters > 0,
        "no counter samples (queue depth / hot replicas / provisioned GPUs)"
    );
    // At least one track per GPU (smoke testbed has several) plus the
    // cluster counter tracks.
    assert!(
        check.tracks >= 3,
        "suspiciously few tracks: {}",
        check.tracks
    );
}

#[test]
fn ledger_segments_sum_exactly_to_latency() {
    let (metrics, cluster) = recorded_flash_crowd(23);
    let ledger = cluster.ledger().expect("ledger recorder attached");
    assert_eq!(
        ledger.completed() as u64,
        metrics.completed,
        "ledger row count disagrees with the metrics pipeline"
    );
    assert!(ledger.completed() > 0, "smoke run completed nothing");
    for row in ledger.rows() {
        if !row.completed {
            continue;
        }
        // Tick-exact identity, not an epsilon comparison: the segments
        // are carved out of the same SimTime arithmetic the metrics use.
        assert_eq!(
            row.segments_sum(),
            row.latency,
            "request {}: queued {:?} + hold {:?} + load {:?} + infer {:?} != latency {:?}",
            row.req,
            row.queued,
            row.hold,
            row.load,
            row.infer,
            row.latency,
        );
        assert_eq!(
            row.slo_miss,
            row.latency.as_secs_f64() > 10.0,
            "request {}: slo_miss flag disagrees with the 10s SLO",
            row.req,
        );
    }
}

#[test]
fn hand_attached_ledger_flags_its_own_slo() {
    // The ledger judges misses against its own SLO, so one attached
    // through `set_recorder` flags them without `record.slo_secs`.
    let trace = find("flash_crowd").unwrap().trace(&Scale::smoke(), 11);
    let slo = SimDuration::from_secs_f64(3.0);
    let (rec, handle) = LedgerRecorder::new(Some(slo));
    let mut cluster = Cluster::new(ClusterConfig::default(), ModelRegistry::table1());
    cluster.set_recorder(Box::new(rec));
    cluster.run(&trace);
    let ledger = handle.snapshot();
    let slower = ledger.rows().iter().filter(|r| r.latency > slo).count();
    assert!(slower > 0, "no request slower than {slo:?}");
    assert_eq!(ledger.slo_misses(), slower);
}

#[test]
fn sampler_rows_follow_cadence() {
    let (metrics, cluster) = recorded_flash_crowd(47);
    let series = cluster.time_series().expect("sampler recorder attached");
    let rows = series.rows();
    assert!(
        rows.len() >= 2,
        "expected multiple 5s windows, got {}",
        rows.len()
    );
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row.window, i, "window ids must be sequential");
        if i > 0 {
            assert!(
                row.t > rows[i - 1].t,
                "sample times must be strictly increasing"
            );
        }
    }
    // Every row except a possible end-of-run flush lands on the cadence.
    for row in &rows[..rows.len() - 1] {
        let t = row.t.as_secs_f64();
        let rem = t % 5.0;
        assert!(
            rem.abs() < 1e-9 || (5.0 - rem).abs() < 1e-9,
            "sample at {t}s is off the 5s cadence"
        );
    }
    // Window accumulators cover the whole run: every request completes
    // in this engine, so windowed arrivals can't exceed completions.
    let total_arrivals: u64 = rows.iter().map(|r| r.arrivals).sum();
    assert!(total_arrivals <= metrics.completed);
    // Per-GPU detail exists for every window.
    assert!(!series.gpu_rows().is_empty());
    assert_eq!(
        series.gpu_rows().iter().map(|g| g.window).max(),
        Some(rows.len() - 1)
    );
}
