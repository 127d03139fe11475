//! A fully recorded single-cell run: lifecycle ledger, Perfetto trace,
//! and sampled time series for one scenario/policy/seed — the
//! observability layer's demo and its own CI gate.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig_timeline                 # flash_crowd / lalbo3 / seed 11
//! cargo run --release -p gfaas-bench --bin fig_timeline -- --smoke      # CI: smoke scale
//! cargo run --release -p gfaas-bench --bin fig_timeline -- \
//!     --scenario burst --policy lalb --batching adaptive --out /tmp/trace.json
//! ```
//!
//! The run always executes with every recorder attached (`--record all`
//! semantics plus an SLO for miss marking), prints the request-latency
//! decomposition (queued/hold/load/inference — segments that sum exactly
//! to the reported latency), the Algorithm-2 arm breakdown, and the
//! sampler's per-window table, then validates the Perfetto JSON
//! (parseable, monotonic timestamps, balanced begin/end slices) and
//! exits non-zero if the trace is malformed — so running this binary
//! *is* the telemetry smoke test. `--out` keeps the JSON for
//! `ui.perfetto.dev`.

use gfaas_bench::{parse_cli_spec, parse_cli_store, run, SpecKind, TablePrinter};
use gfaas_core::obs::perfetto::validate_chrome_trace;
use gfaas_core::{ClusterConfig, RecordSpec};
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: fig_timeline [--smoke] [--scenario NAME] [--policy SPEC] [--batching SPEC]\n\
         \x20                  [--store SPEC] [--seed S] [--sample SECS] [--slo SECS]\n\
         \x20                  [--out FILE] [--ledger-out FILE] [--series-out FILE]"
    );
    std::process::exit(2);
}

fn write_file(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(2);
    }
    println!("wrote {what} to {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut scenario = "flash_crowd".to_string();
    let mut cfg = ClusterConfig::default();
    let mut seed: u64 = 11;
    let mut sample_secs: f64 = RecordSpec::DEFAULT_SAMPLE_SECS;
    let mut slo_secs: f64 = 10.0;
    let mut out: Option<String> = None;
    let mut ledger_out: Option<String> = None;
    let mut series_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scenario" => {
                let Some(v) = it.next() else { usage() };
                scenario = v.clone();
            }
            "--policy" => {
                let Some(v) = it.next() else { usage() };
                cfg.policy = parse_cli_spec(v, SpecKind::Scheduler).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                });
            }
            "--batching" => {
                let Some(v) = it.next() else { usage() };
                cfg.batching = parse_cli_spec(v, SpecKind::Batcher).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                });
            }
            "--store" => {
                let Some(v) = it.next() else { usage() };
                cfg.store = parse_cli_store(v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                });
            }
            "--seed" => {
                let Some(v) = it.next() else { usage() };
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --seed {v:?}");
                    usage();
                });
            }
            "--sample" => {
                let Some(v) = it.next() else { usage() };
                sample_secs = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --sample {v:?}");
                    usage();
                });
            }
            "--slo" => {
                let Some(v) = it.next() else { usage() };
                slo_secs = v.parse().unwrap_or_else(|_| {
                    eprintln!("bad --slo {v:?}");
                    usage();
                });
            }
            "--out" => {
                let Some(v) = it.next() else { usage() };
                out = Some(v.clone());
            }
            "--ledger-out" => {
                let Some(v) = it.next() else { usage() };
                ledger_out = Some(v.clone());
            }
            "--series-out" => {
                let Some(v) = it.next() else { usage() };
                series_out = Some(v.clone());
            }
            _ => usage(),
        }
    }
    let scale = if smoke {
        Scale::smoke()
    } else {
        Scale::paper()
    };
    let sc = find(&scenario).unwrap_or_else(|| {
        eprintln!("unknown scenario {scenario:?}");
        usage();
    });
    // Short smoke horizons would otherwise sample only once at the end.
    if smoke && sample_secs >= RecordSpec::DEFAULT_SAMPLE_SECS {
        sample_secs = 10.0;
    }
    cfg.record = RecordSpec {
        ledger: true,
        perfetto: true,
        sample_secs: Some(sample_secs),
        slo_secs: Some(slo_secs),
    };
    let trace = sc.trace(&scale, seed);
    println!(
        "Timeline — {scenario} / {} / batching {} / seed {seed} ({} scale, --record {})\n",
        cfg.policy,
        cfg.batching.key(),
        scale.name,
        cfg.record
    );

    let (m, cluster) = run(cfg, &trace);
    println!(
        "metrics: {} completed, avg {:.3} s, p95 {:.3} s, miss {:.3}, queue avg {:.2}",
        m.completed, m.avg_latency_secs, m.p95_latency_secs, m.miss_ratio, m.avg_queue_depth
    );
    println!("profile: {}\n", cluster.self_profile());

    // --- Per-request latency decomposition -----------------------------
    let ledger = cluster.ledger().expect("ledger recorder attached");
    let seg = ledger.segment_summary();
    println!(
        "lifecycle ledger — {} rows, {} completed, {} SLO misses (slo={slo_secs}s)",
        ledger.rows().len(),
        ledger.completed(),
        ledger.slo_misses()
    );
    println!("  mean segments (s): {seg}");
    // Load-time split by serving tier: where miss uploads were actually
    // fed from. Hits never load, so they carry no tier; under the flat
    // store every load is an origin load by definition.
    {
        let mut tiers: Vec<(String, usize, f64)> = Vec::new();
        for row in ledger.rows().iter().filter(|r| r.completed) {
            let label = match row.tier {
                Some(t) => t.label().into_owned(),
                None => continue,
            };
            match tiers.iter_mut().find(|(l, _, _)| *l == label) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += row.load.as_secs_f64();
                }
                None => tiers.push((label, 1, row.load.as_secs_f64())),
            }
        }
        tiers.sort_by(|a, b| a.0.cmp(&b.0));
        let tier_t = TablePrinter::new(&[12, 10, 12]);
        println!(
            "{}",
            tier_t.header(&["load_tier", "requests", "load_s_sum"])
        );
        for (label, n, secs) in &tiers {
            println!(
                "{}",
                tier_t.row(&[label.clone(), n.to_string(), format!("{secs:.2}")])
            );
        }
    }
    let arm_t = TablePrinter::new(&[12, 10, 8]);
    println!("{}", arm_t.header(&["arm", "requests", "share"]));
    let total = ledger.completed().max(1) as f64;
    for (arm, n) in ledger.arm_counts() {
        println!(
            "{}",
            arm_t.row(&[
                arm.to_string(),
                n.to_string(),
                format!("{:.3}", n as f64 / total),
            ])
        );
    }
    if let Some(path) = &ledger_out {
        write_file(path, &ledger.to_csv(), "lifecycle ledger CSV");
    }
    println!();

    // --- Sampled time series -------------------------------------------
    let series = cluster.time_series().expect("sampler recorder attached");
    println!(
        "time series — {} windows at {sample_secs}s cadence",
        series.rows().len()
    );
    let ts_t = TablePrinter::new(&[8, 9, 7, 6, 9, 9, 7, 10]);
    println!(
        "{}",
        ts_t.header(&[
            "t(s)",
            "queue",
            "busy",
            "gpus",
            "arrivals",
            "complete",
            "eff_b",
            "miss_ewma",
        ])
    );
    for row in series.rows() {
        println!(
            "{}",
            ts_t.row(&[
                format!("{:.0}", row.t.as_secs_f64()),
                row.queue_depth.to_string(),
                row.busy.to_string(),
                row.online.to_string(),
                row.arrivals.to_string(),
                row.completions.to_string(),
                format!("{:.2}", row.eff_batch),
                format!("{:.3}", row.miss_ewma),
            ])
        );
    }
    if let Some(path) = &series_out {
        write_file(path, &series.to_csv(), "time-series CSV");
    }
    println!();

    // --- Perfetto trace: always validated; this binary is the CI gate --
    let json = cluster.perfetto_json().expect("perfetto recorder attached");
    match validate_chrome_trace(&json) {
        Ok(check) => {
            println!(
                "perfetto trace — {} events ({} begin / {} end slices, {} counter samples) \
                 across {} tracks; timestamps monotonic, slices balanced",
                check.events, check.begins, check.ends, check.counters, check.tracks
            );
        }
        Err(e) => {
            eprintln!("perfetto trace INVALID: {e}");
            std::process::exit(1);
        }
    }
    if let Some(path) = &out {
        write_file(path, &json, "Perfetto trace (open in ui.perfetto.dev)");
    }
}
