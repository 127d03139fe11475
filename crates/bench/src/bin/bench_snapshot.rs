//! Emits the committed perf-trajectory snapshot (`BENCH_pr*.json`).
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin bench_snapshot            # print JSON
//! cargo run --release -p gfaas-bench --bin bench_snapshot -- \
//!     --baseline BENCH_pr6_baseline.json --out BENCH_pr6.json
//! cargo run --release -p gfaas-bench --bin bench_snapshot -- --smoke # CI volumes
//! ```
//!
//! The snapshot measures what `cargo bench --bench event_loop` measures —
//! full `Cluster::run` event-loop throughput on 10^5- and 10^6-request
//! traces (ns/request, peak queue depth) — plus the end-to-end
//! `scenarios --scale production` sweep (wall ms, cells/sec). With
//! `--baseline <file>` a previously captured snapshot is embedded
//! verbatim and end-to-end/event-loop speedups are computed against it,
//! so each PR's committed `BENCH_pr*.json` records both sides of its
//! perf delta. `--smoke` shrinks the volumes for CI smoke runs.

use std::time::Instant;

use gfaas_bench::{run, ScenarioSuite, REPORT_SEEDS};
use gfaas_core::ClusterConfig;
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

struct EventLoopPoint {
    label: &'static str,
    requests: u64,
    ns_per_request: f64,
    queue_peak: usize,
    wall_ms: f64,
}

fn measure_event_loop(label: &'static str, scale: &Scale, runs: usize) -> EventLoopPoint {
    let trace = find("paper")
        .expect("paper scenario is registered")
        .trace(scale, 11);
    let cfg = ClusterConfig::paper_testbed("lalbo3:25".parse().unwrap());
    let mut best_ns = f64::INFINITY;
    let mut queue_peak = 0;
    let mut requests = 0;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let metrics = run(cfg.clone(), &trace).0;
        let elapsed = start.elapsed();
        let ns = elapsed.as_nanos() as f64 / trace.len().max(1) as f64;
        best_ns = best_ns.min(ns);
        queue_peak = metrics.queue_peak;
        requests = metrics.completed;
    }
    EventLoopPoint {
        label,
        requests,
        ns_per_request: best_ns,
        queue_peak,
        wall_ms: best_ns * trace.len() as f64 / 1e6,
    }
}

/// The storage-hierarchy datapoint: event-loop throughput with the
/// tiered store active on the same trace the flat points use, so the
/// snapshot records what the tier stack costs per request. The flat
/// points above stay byte-comparable with pre-store snapshots.
fn measure_tiered_event_loop(scale: &Scale, runs: usize) -> f64 {
    let trace = find("paper")
        .expect("paper scenario is registered")
        .trace(scale, 11);
    let cfg = ClusterConfig {
        store: "tiered".parse().unwrap(),
        ..ClusterConfig::paper_testbed("lalbo3:25".parse().unwrap())
    };
    let mut best_ns = f64::INFINITY;
    for _ in 0..runs.max(1) {
        let start = Instant::now();
        let _ = run(cfg.clone(), &trace);
        let ns = start.elapsed().as_nanos() as f64 / trace.len().max(1) as f64;
        best_ns = best_ns.min(ns);
    }
    best_ns
}

/// Pulls `"key": <number>` out of a flat JSON snapshot without a parser
/// (the snapshot format is this binary's own output).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let mut from = 0;
    // The baseline's own nested "baseline" block (if any) comes after the
    // top-level keys, so the first occurrence is the one we want.
    while let Some(at) = text[from..].find(&needle) {
        let rest = &text[from + at + needle.len()..];
        let num: String = rest
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-' || *c == 'e' || *c == '+')
            .collect();
        if let Ok(v) = num.parse() {
            return Some(v);
        }
        from += at + needle.len();
    }
    None
}

fn indent(text: &str, by: &str) -> String {
    text.trim_end()
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{by}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let mut smoke = false;
    let mut baseline: Option<String> = None;
    let mut out: Option<String> = None;
    let mut threads = 1usize;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--baseline" => baseline = it.next(),
            "--out" => out = it.next(),
            "--threads" => {
                threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("bad --threads (want a positive integer)");
                        std::process::exit(2);
                    });
            }
            other => {
                eprintln!(
                    "unknown arg {other:?}\nusage: bench_snapshot [--smoke] \
                     [--baseline <json>] [--out <json>] [--threads N]"
                );
                std::process::exit(2);
            }
        }
    }

    // Event-loop points: 10^5 and 10^6 requests (10^3 / 10^4 in smoke).
    let (small, large) = if smoke {
        (
            Scale {
                name: "bench-1e3",
                requests_per_min: 1_000,
                minutes: 1,
                working_set: 35,
            },
            Scale {
                name: "bench-1e4",
                requests_per_min: 10_000,
                minutes: 1,
                working_set: 35,
            },
        )
    } else {
        (
            Scale {
                name: "bench-1e5",
                requests_per_min: 25_000,
                minutes: 4,
                working_set: 35,
            },
            Scale {
                name: "bench-1e6",
                requests_per_min: 50_000,
                minutes: 20,
                working_set: 35,
            },
        )
    };
    let small_label = if smoke { "1e3" } else { "1e5" };
    let large_label = if smoke { "1e4" } else { "1e6" };
    let points = [
        measure_event_loop(small_label, &small, 3),
        measure_event_loop(large_label, &large, 1),
    ];
    let tiered_ns = measure_tiered_event_loop(&small, 3);

    // End-to-end sweep: the acceptance metric is `scenarios --scale
    // production` wall clock (the smoke suite in CI).
    let mut suite = if smoke {
        ScenarioSuite::smoke()
    } else {
        ScenarioSuite::new(Scale::production(), REPORT_SEEDS.to_vec())
    };
    suite.threads = threads;
    let start = Instant::now();
    let report = suite.run();
    let suite_wall = start.elapsed();
    let cells = report.cells.len();
    let suite_ms = suite_wall.as_secs_f64() * 1e3;
    let cells_per_sec = cells as f64 / suite_wall.as_secs_f64().max(1e-9);

    let mut json = String::from("{\n");
    json.push_str("  \"schema\": 1,\n");
    json.push_str(&format!("  \"smoke\": {smoke},\n"));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str("  \"event_loop\": {\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{ \"requests\": {}, \"ns_per_request\": {:.1}, \
             \"queue_peak\": {}, \"wall_ms\": {:.1} }}{}\n",
            p.label,
            p.requests,
            p.ns_per_request,
            p.queue_peak,
            p.wall_ms,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"store\": {{ \"label\": \"{}\", \"flat_ns_per_request\": {:.1}, \
         \"tiered_ns_per_request\": {:.1}, \"tiered_over_flat\": {:.2} }},\n",
        small_label,
        points[0].ns_per_request,
        tiered_ns,
        tiered_ns / points[0].ns_per_request.max(1e-9)
    ));
    json.push_str(&format!(
        "  \"suite\": {{ \"scale\": \"{}\", \"cells\": {}, \"wall_ms\": {:.1}, \
         \"cells_per_sec\": {:.2} }}",
        suite.scale.name, cells, suite_ms, cells_per_sec
    ));

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let base_suite_ms = json_number(&text, "wall_ms");
        let base_large = text
            .find(&format!("\"{large_label}\""))
            .and_then(|at| json_number(&text[at..], "ns_per_request"));
        json.push_str(",\n  \"speedup\": {");
        let mut parts = Vec::new();
        if let Some(b) = base_suite_ms {
            // The baseline's first wall_ms key is its large event-loop
            // point; find the suite block's instead.
            let suite_b = text
                .find("\"suite\"")
                .and_then(|at| json_number(&text[at..], "wall_ms"))
                .unwrap_or(b);
            parts.push(format!(
                " \"scenarios_end_to_end\": {:.2}",
                suite_b / suite_ms.max(1e-9)
            ));
        }
        if let Some(b) = base_large {
            parts.push(format!(
                " \"event_loop_{}\": {:.2}",
                large_label,
                b / points[1].ns_per_request.max(1e-9)
            ));
        }
        json.push_str(&parts.join(","));
        json.push_str(" },\n");
        json.push_str(&format!("  \"baseline\": {}\n", indent(&text, "  ")));
    } else {
        json.push('\n');
    }
    json.push_str("}\n");

    match out {
        Some(path) => {
            std::fs::write(&path, &json).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2);
            });
            println!("wrote {path}");
            print!("{json}");
        }
        None => print!("{json}"),
    }
}
