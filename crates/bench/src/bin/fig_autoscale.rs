//! Fixed testbed vs queue-pressure autoscaling — the elasticity study
//! the paper's fixed 12-GPU evaluation never runs.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig_autoscale               # diurnal, paper + production scales
//! cargo run --release -p gfaas-bench --bin fig_autoscale -- --smoke    # CI: smoke scale, 1 seed
//! cargo run --release -p gfaas-bench --bin fig_autoscale -- --autoscale queue:min=4,max=24,up=8,down=1
//! ```
//!
//! For each scale, the `diurnal` scenario (one full sinusoidal day-cycle,
//! ±80% of the mean rate) runs under LALB+O3 on (a) the paper's fixed
//! 12-GPU testbed and (b) the same testbed with the queue-pressure
//! autoscaler. Reported per mode: latency (avg/p95), miss ratio,
//! provisioned GPU-seconds, and scale events — the claim under test being
//! that elastic capacity cuts GPU-seconds at equal-or-better latency.

use gfaas_bench::{run, AveragedMetrics, TablePrinter, REPORT_SEEDS};
use gfaas_core::{AutoscaleSpec, ClusterConfig, RunMetrics};
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

fn usage() -> ! {
    eprintln!("usage: fig_autoscale [--smoke] [--autoscale spec] [--seeds a,b,c]");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut autoscale = AutoscaleSpec::default();
    let mut seeds: Vec<u64> = REPORT_SEEDS.to_vec();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--autoscale" => {
                let Some(spec) = it.next() else { usage() };
                autoscale = spec.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                });
            }
            "--seeds" => {
                let Some(list) = it.next() else { usage() };
                seeds = list
                    .split(',')
                    .map(|s| {
                        s.trim().parse().unwrap_or_else(|_| {
                            eprintln!("bad seed {s:?}");
                            usage();
                        })
                    })
                    .collect();
            }
            _ => usage(),
        }
    }
    let scales: Vec<Scale> = if smoke {
        seeds.truncate(1);
        vec![Scale::smoke()]
    } else {
        vec![Scale::paper(), Scale::production()]
    };

    let scenario = find("diurnal").expect("diurnal scenario registered");

    println!(
        "Autoscaling study — `diurnal` under LALBO3, {} seed(s)\n\
         Fixed fleet: the paper's 12 GPUs. Elastic: {autoscale}\n",
        seeds.len()
    );

    let t = TablePrinter::new(&[12, 10, 11, 11, 8, 11, 9, 9]);
    println!(
        "{}",
        t.header(&[
            "scale",
            "mode",
            "avg_lat(s)",
            "p95(s)",
            "miss",
            "gpu_s",
            "up/down",
            "saved",
        ])
    );
    for scale in scales {
        let traces: Vec<_> = seeds.iter().map(|&s| scenario.trace(&scale, s)).collect();
        let mode = |autoscale: Option<&AutoscaleSpec>| -> AveragedMetrics {
            let runs: Vec<RunMetrics> = traces
                .iter()
                .map(|tr| {
                    let cfg = ClusterConfig {
                        autoscale: autoscale.cloned(),
                        ..ClusterConfig::default()
                    };
                    run(cfg, tr).0
                })
                .collect();
            AveragedMetrics::from_runs(&runs)
        };
        let fixed = mode(None);
        let auto = mode(Some(&autoscale));
        let saved = 1.0 - auto.gpu_seconds_provisioned / fixed.gpu_seconds_provisioned.max(1e-9);
        for (name, m, saved) in [
            ("fixed-12", &fixed, None),
            ("autoscale", &auto, Some(saved)),
        ] {
            println!(
                "{}",
                t.row(&[
                    scale.name.to_string(),
                    name.to_string(),
                    format!("{:.2}", m.avg_latency_secs),
                    format!("{:.2}", m.p95_latency_secs),
                    format!("{:.3}", m.miss_ratio),
                    format!("{:.0}", m.gpu_seconds_provisioned),
                    format!("{:.1}/{:.1}", m.scale_up_events, m.scale_down_events),
                    saved.map_or("-".to_string(), |s| format!("{:.0}%", 100.0 * s)),
                ])
            );
        }
        println!();
    }
    println!(
        "`saved` is the relative cut in provisioned GPU-seconds vs the fixed fleet;\n\
         the elasticity claim holds when it is positive at equal-or-better latency."
    );
}
