//! Dynamic request batching vs per-request dispatch — the throughput
//! study the paper's fixed batch-32 evaluation never runs.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig_batching               # burst + flash_crowd, paper + production
//! cargo run --release -p gfaas-bench --bin fig_batching -- --smoke    # CI: smoke scale, 1 seed
//! cargo run --release -p gfaas-bench --bin fig_batching -- --batching coalesce:max=8,wait=0.02
//! ```
//!
//! For each scale and scenario, LALB+O3 runs on identical traces under
//! `none` (the paper's per-request dispatch — byte-identical to every
//! published number), `coalesce` (greedy same-model merging), and
//! `adaptive` (SLO-aware batch sizing). Reported per mode: latency
//! (avg/p95), miss ratio, effective batch, provisioned GPU-seconds, and
//! completed requests per GPU-second — the claim under test being that
//! coalescing lifts throughput per GPU-second without hurting tail
//! latency.

use gfaas_bench::cli::{seeds, Flags};
use gfaas_bench::{parse_cli_spec, sweep, AveragedMetrics, SpecKind, TablePrinter, REPORT_SEEDS};
use gfaas_core::{ClusterConfig, PolicySpec};
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

/// The scenarios whose queue pressure gives coalescing something to
/// merge: MMPP bursts and the flash-crowd hot spot.
const SCENARIOS: [&str; 2] = ["burst", "flash_crowd"];

fn usage() -> ! {
    eprintln!(
        "usage: fig_batching [--smoke] [--seeds a,b,c] [--batching spec]...\n\
         \x20      batching specs: none | coalesce[:max=M,wait=S] | adaptive[:slo=T,max=M,wait=S]\n\
         \x20      (--batching repeats; the first use replaces the default mode list)"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse(&args, &["seeds", "batching"], &["smoke"], usage);
    let smoke = flags.has("smoke");
    let mut seeds = flags
        .get("seeds", seeds)
        .unwrap_or_else(|| REPORT_SEEDS.to_vec());
    // The spec grammar uses commas (`max=8,wait=0.05`), so the flag
    // repeats instead of taking a comma-joined list; any use replaces the
    // builtin mode list.
    let mut batchings = flags.all("batching", |v| parse_cli_spec(v, SpecKind::Batcher));
    if batchings.is_empty() {
        batchings = ["none", "coalesce", "adaptive"]
            .map(PolicySpec::bare)
            .to_vec();
    }
    let scales: Vec<Scale> = if smoke {
        seeds.truncate(1);
        vec![Scale::smoke()]
    } else {
        vec![Scale::paper(), Scale::production()]
    };

    println!(
        "Batching study — {} under LALBO3, {} seed(s)\n\
         Modes: {}\n",
        SCENARIOS.join(" + "),
        seeds.len(),
        batchings
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );

    let t = TablePrinter::new(&[12, 12, 10, 11, 11, 8, 7, 11, 11, 12, 9]);
    println!(
        "{}",
        t.header(&[
            "scale",
            "scenario",
            "batching",
            "avg_lat(s)",
            "p95(s)",
            "miss",
            "eff_b",
            "gpu_s",
            "busy_s",
            "req/busy_s",
            "thr_gain",
        ])
    );
    for scale in &scales {
        for scenario in SCENARIOS {
            let sc = find(scenario).expect("scenario registered");
            let traces: Vec<_> = seeds.iter().map(|&s| sc.trace(scale, s)).collect();
            let mut baseline: Option<AveragedMetrics> = None;
            for batching in &batchings {
                let cfg = ClusterConfig {
                    batching: batching.clone(),
                    ..ClusterConfig::default()
                };
                let m = sweep(&cfg, &traces).0;
                let gain = baseline.as_ref().map(|b| {
                    100.0
                        * (m.requests_per_busy_gpu_second() / b.requests_per_busy_gpu_second()
                            - 1.0)
                });
                println!(
                    "{}",
                    t.row(&[
                        scale.name.to_string(),
                        scenario.to_string(),
                        batching.key().to_string(),
                        format!("{:.2}", m.avg_latency_secs),
                        format!("{:.2}", m.p95_latency_secs),
                        format!("{:.3}", m.miss_ratio),
                        format!("{:.2}", m.avg_effective_batch),
                        format!("{:.0}", m.gpu_seconds_provisioned),
                        format!("{:.0}", m.gpu_busy_seconds),
                        format!("{:.4}", m.requests_per_busy_gpu_second()),
                        gain.map_or("-".to_string(), |g| format!("{g:+.0}%")),
                    ])
                );
                if baseline.is_none() {
                    baseline = Some(m);
                }
            }
            println!();
        }
    }
    println!(
        "`req/busy_s` is completed requests per GPU-second of *busy* time (uploads +\n\
         inference actually executed) — the hardware cost per request that coalescing\n\
         amortises; `gpu_s` is the provisioned fleet-time (12 x makespan) for context.\n\
         `thr_gain` is the req/busy_s lift over the first mode's baseline. The batching\n\
         claim holds when coalescing lifts throughput without raising p95."
    );
}
