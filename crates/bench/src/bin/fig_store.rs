//! The storage-hierarchy report: host-cache size × origin bandwidth
//! sweep for the tiered model store, against the flat baseline.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig_store            # paper scale, 3 seeds
//! cargo run --release -p gfaas-bench --bin fig_store -- --smoke # CI: smoke scale, 1 seed
//! ```
//!
//! Two workloads are swept, both on the `diurnal` scenario:
//!
//! * **diurnal** — the paper's fixed 12-GPU testbed. Tiering only pays
//!   here through capacity evictions demoting into the host cache, so
//!   the gap vs flat is modest.
//! * **storm** — the same trace on an elastic fleet (queue-pressure
//!   autoscaler). Every diurnal peak provisions cold GPUs and triggers a
//!   cold-start storm of compulsory misses; the tiered store's
//!   demote-on-evict and scale-up hot-set prefetch turn many of those
//!   into host-cache hits instead of origin fetches.
//!
//! Each tiered row reports the store's own counters (host hits, origin
//! loads, prefetches, in-flight joins, demotions) next to the usual
//! latency/miss metrics, so the mechanism behind a latency delta is
//! visible in the same table. The binary exits non-zero if a tiered
//! storm run never touches its host cache — the wiring gate CI runs in
//! smoke mode.

use gfaas_bench::{run, AveragedMetrics, TablePrinter, REPORT_SEEDS};
use gfaas_core::{AutoscaleSpec, ClusterConfig, PolicySpec, StoreSpec, StoreStats};
use gfaas_trace::Trace;
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

fn usage() -> ! {
    eprintln!("usage: fig_store [--smoke]");
    std::process::exit(2);
}

/// Per-store row of one sweep table: seed-averaged metrics plus the
/// store counters summed across seeds.
struct Row {
    label: String,
    metrics: AveragedMetrics,
    stats: StoreStats,
}

fn sweep(
    policy: &PolicySpec,
    autoscale: Option<&AutoscaleSpec>,
    stores: &[(String, StoreSpec)],
    traces: &[Trace],
) -> Vec<Row> {
    stores
        .iter()
        .map(|(label, store)| {
            let mut runs = Vec::with_capacity(traces.len());
            let mut stats = StoreStats::default();
            for trace in traces {
                let cfg = ClusterConfig {
                    autoscale: autoscale.cloned(),
                    store: store.clone(),
                    ..ClusterConfig::paper_testbed(policy.clone())
                };
                let (m, cluster) = run(cfg, trace);
                let s = cluster.store_stats();
                runs.push(m);
                stats.host_hits += s.host_hits;
                stats.origin_loads += s.origin_loads;
                stats.prefetches += s.prefetches;
                stats.prefetch_joins += s.prefetch_joins;
                stats.demotions += s.demotions;
                stats.host_evictions += s.host_evictions;
            }
            Row {
                label: label.clone(),
                metrics: AveragedMetrics::from_runs(&runs),
                stats,
            }
        })
        .collect()
}

fn print_table(title: &str, rows: &[Row]) {
    println!("{title}");
    let t = TablePrinter::new(&[26, 11, 9, 9, 7, 9, 9, 6, 6, 6]);
    println!(
        "{}",
        t.header(&[
            "store",
            "avg_lat(s)",
            "p95(s)",
            "p99(s)",
            "miss",
            "host_hit",
            "origin",
            "pref",
            "join",
            "demote",
        ])
    );
    for r in rows {
        let m = &r.metrics;
        println!(
            "{}",
            t.row(&[
                r.label.clone(),
                format!("{:.2}", m.avg_latency_secs),
                format!("{:.2}", m.p95_latency_secs),
                format!("{:.2}", m.p99_latency_secs),
                format!("{:.3}", m.miss_ratio),
                r.stats.host_hits.to_string(),
                r.stats.origin_loads.to_string(),
                r.stats.prefetches.to_string(),
                r.stats.prefetch_joins.to_string(),
                r.stats.demotions.to_string(),
            ])
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    for a in &args {
        match a.as_str() {
            "--smoke" => smoke = true,
            _ => usage(),
        }
    }
    let (scale, seeds, autoscale): (Scale, Vec<u64>, AutoscaleSpec) = if smoke {
        (
            Scale::smoke(),
            vec![REPORT_SEEDS[0]],
            "queue:min=2,max=8,up=6,down=1,cadence=2".parse().unwrap(),
        )
    } else {
        (
            Scale::paper(),
            REPORT_SEEDS.to_vec(),
            "queue:min=4,max=12,up=10,down=2,cadence=5".parse().unwrap(),
        )
    };
    let policy: PolicySpec = "lalbo3".parse().expect("builtin spec");
    let sc = find("diurnal").expect("diurnal scenario registered");
    let traces: Vec<Trace> = seeds.iter().map(|&s| sc.trace(&scale, s)).collect();

    // The sweep grid: the flat baseline, then host-cache size × origin
    // bandwidth. Latencies matter through two knobs: a bigger host cache
    // keeps more demoted/prefetched models a cheap PCIe hop away, and a
    // fatter origin link drains cold fetches (and the prefetches queued
    // behind them) faster.
    let mut stores: Vec<(String, StoreSpec)> = vec![("flat".into(), StoreSpec::default())];
    for host in ["8G", "64G"] {
        for bw in ["1G", "2G"] {
            let spec = format!("tiered:host={host},origin_bw={bw}");
            stores.push((spec.clone(), spec.parse().expect("grid spec parses")));
        }
    }

    println!(
        "Storage hierarchy — diurnal / {policy} ({} scale, {} seed(s))\n",
        scale.name,
        seeds.len()
    );
    let fixed = sweep(&policy, None, &stores, &traces);
    print_table("fixed 12-GPU testbed (evict-demote only):", &fixed);
    let storm = sweep(&policy, Some(&autoscale), &stores, &traces);
    print_table(
        &format!("cold-start storm (autoscale {autoscale}):"),
        &storm,
    );

    // The wiring gate: a tiered storm run that never serves a byte from
    // its host cache means demotion/prefetch never engaged — fail loudly.
    let touched = storm
        .iter()
        .skip(1)
        .any(|r| r.stats.host_hits > 0 || r.stats.prefetches > 0);
    if !touched {
        eprintln!("FAIL: no tiered storm run touched the host tier");
        std::process::exit(1);
    }

    // The headline: the best tiered config vs flat on the storm cell,
    // at equal HBM capacity (same fleet, same traces).
    let flat = &storm[0].metrics;
    let best = storm
        .iter()
        .skip(1)
        .min_by(|a, b| {
            a.metrics
                .p95_latency_secs
                .total_cmp(&b.metrics.p95_latency_secs)
        })
        .expect("grid is non-empty");
    println!(
        "storm cell, best tiered ({}) vs flat: p95 {:.2}s vs {:.2}s, avg {:.2}s vs {:.2}s, miss {:.3} vs {:.3}",
        best.label,
        best.metrics.p95_latency_secs,
        flat.p95_latency_secs,
        best.metrics.avg_latency_secs,
        flat.avg_latency_secs,
        best.metrics.miss_ratio,
        flat.miss_ratio,
    );
    if best.metrics.p95_latency_secs <= flat.p95_latency_secs
        || best.metrics.avg_latency_secs <= flat.avg_latency_secs
        || best.metrics.miss_ratio <= flat.miss_ratio
    {
        println!("host cache wins the cold-start storm at equal HBM capacity.");
    } else {
        println!("note: no tiered config beat flat on this grid.");
    }
}
