//! The policy × scenario matrix: every scheduler against every workload
//! in the `gfaas-workload` registry.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin scenarios            # paper scale, 3 seeds
//! cargo run --release -p gfaas-bench --bin scenarios -- --smoke # CI: 1 seed, 1 minute
//! cargo run --release -p gfaas-bench --bin scenarios -- --scale production
//! cargo run --release -p gfaas-bench --bin scenarios -- --seeds 1,2,3
//! # one matrix cell in isolation, on a non-default evictor:
//! cargo run --release -p gfaas-bench --bin scenarios -- \
//!     --policy lalbo3:25 --scenario drift --replacement tinylfu
//! # the same matrix on an elastic fleet (queue-pressure autoscaler):
//! cargo run --release -p gfaas-bench --bin scenarios -- \
//!     --autoscale queue:min=4,max=16,up=12,down=2
//! ```
//!
//! `--policy` and `--replacement` take registry specs (`lb`, `lalb`,
//! `lalbo3[:limit]`; `lru`, `fifo`, `random`, `tinylfu[:decay]`);
//! `--policy` and `--scenario` accept comma-separated lists;
//! `--autoscale` takes a `gfaas-core` autoscale spec and adds provisioned
//! GPU-seconds and scale-event columns to the matrix. The `paper` rows at
//! paper scale with default policies reproduce `fig4_comparison`'s WS 25
//! numbers exactly (same traces, same seeds, same cluster).

use gfaas_bench::{parse_cli_spec, parse_cli_store, run, ScenarioSuite, SpecKind, TablePrinter};
use gfaas_core::{AutoscaleSpec, ClusterConfig, PolicySpec, RecordSpec};
use gfaas_workload::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: scenarios [--smoke] [--scale paper|production|hyperscale] [--seeds a,b,c]\n\
         \x20                [--policy spec[,spec...]] [--scenario name[,name...]]\n\
         \x20                [--replacement spec]\n\
         \x20                [--batching none|coalesce[:max=M,wait=S]|adaptive[:slo=T,max=M,wait=S]]\n\
         \x20                [--autoscale queue:min=M,max=N,up=U,down=D[,cadence=S]]\n\
         \x20                [--store flat|tiered[:host=B,origin_bw=R,...]]\n\
         \x20                [--azure-data invocations_per_function.csv]\n\
         \x20                [--threads N]\n\
         \x20                [--record ledger|perfetto|sample[=secs]|slo=secs|all]\n\
         \x20                [--trace-out FILE]\n\
         --record re-runs the (single) configured cell with recorders attached\n\
         after the matrix; it needs exactly one scenario, one policy, and one\n\
         seed (and no --azure-data). --trace-out writes the Perfetto JSON."
    );
    std::process::exit(2);
}

/// Everything parsed off the command line: the sweep plus the optional
/// recorded re-run of its single cell.
struct Cli {
    suite: ScenarioSuite,
    record: Option<RecordSpec>,
    trace_out: Option<String>,
}

fn cli_spec(s: &str, kind: SpecKind) -> PolicySpec {
    parse_cli_spec(s, kind).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

fn parse_suite(args: &[String]) -> Cli {
    // Collect flags first, then build, so flag order never matters
    // (`--seeds 5 --smoke` and `--smoke --seeds 5` both honour seed 5).
    let mut smoke = false;
    let mut scale: Option<Scale> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut policies: Option<Vec<PolicySpec>> = None;
    let mut scenarios: Option<Vec<String>> = None;
    let mut config = ClusterConfig::default();
    let mut azure_real: Option<gfaas_trace::AzureFunctionsDataset> = None;
    let mut threads: Option<usize> = None;
    let mut record: Option<RecordSpec> = None;
    let mut trace_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("paper") => Some(Scale::paper()),
                    Some("production") => Some(Scale::production()),
                    Some("hyperscale") => Some(Scale::hyperscale()),
                    other => {
                        eprintln!("bad --scale {other:?}");
                        usage();
                    }
                }
            }
            "--threads" => {
                let Some(n) = it.next() else { usage() };
                threads = Some(n.parse().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                    eprintln!("bad --threads {n:?} (want a positive integer)");
                    usage();
                }));
            }
            "--seeds" => {
                let Some(list) = it.next() else { usage() };
                seeds = Some(
                    list.split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                eprintln!("bad seed {s:?}");
                                usage();
                            })
                        })
                        .collect(),
                );
            }
            "--policy" => {
                let Some(list) = it.next() else { usage() };
                policies = Some(
                    list.split(',')
                        .map(|s| cli_spec(s, SpecKind::Scheduler))
                        .collect(),
                );
            }
            "--scenario" => {
                let Some(list) = it.next() else { usage() };
                scenarios = Some(list.split(',').map(|s| s.trim().to_string()).collect());
            }
            "--replacement" => {
                let Some(spec) = it.next() else { usage() };
                config.replacement = cli_spec(spec, SpecKind::Evictor);
            }
            "--batching" => {
                let Some(spec) = it.next() else { usage() };
                config.batching = cli_spec(spec, SpecKind::Batcher);
            }
            "--autoscale" => {
                let Some(spec) = it.next() else { usage() };
                config.autoscale = Some(spec.parse::<AutoscaleSpec>().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                }));
            }
            "--store" => {
                let Some(spec) = it.next() else { usage() };
                config.store = parse_cli_store(spec).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                });
            }
            "--azure-data" => {
                // Registers the `azure_real` replay scenario from a real
                // Azure Functions per-minute CSV.
                let Some(path) = it.next() else { usage() };
                let file = std::fs::File::open(path).unwrap_or_else(|e| {
                    eprintln!("cannot open {path}: {e}");
                    usage();
                });
                let ds =
                    gfaas_trace::AzureFunctionsDataset::read_csv(std::io::BufReader::new(file))
                        .unwrap_or_else(|e| {
                            eprintln!("{e}");
                            usage();
                        });
                azure_real = Some(ds);
            }
            "--record" => {
                let Some(spec) = it.next() else { usage() };
                record = Some(spec.parse::<RecordSpec>().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage();
                }));
            }
            "--trace-out" => {
                let Some(path) = it.next() else { usage() };
                trace_out = Some(path.clone());
            }
            _ => usage(),
        }
    }
    let mut suite = if smoke {
        ScenarioSuite::smoke()
    } else {
        ScenarioSuite::paper_default()
    };
    if let Some(scale) = scale {
        suite.scale = scale;
    }
    if let Some(seeds) = seeds {
        suite.seeds = seeds;
    }
    if let Some(policies) = policies {
        suite.policies = policies;
    }
    suite.config = config;
    suite.azure_real = azure_real;
    if let Some(threads) = threads {
        suite.threads = threads;
    }
    if let Some(names) = scenarios {
        // `azure_real` is a known name exactly when a dataset was
        // supplied; the filter then also applies to it.
        let mut known: Vec<&str> = suite.scenarios.iter().map(|s| s.name).collect();
        if suite.azure_real.is_some() {
            known.push("azure_real");
        }
        for n in &names {
            if !known.contains(&n.as_str()) {
                eprintln!("unknown scenario {n:?} (known: {known:?})");
                usage();
            }
        }
        suite
            .scenarios
            .retain(|s| names.iter().any(|n| n == s.name));
        if !names.iter().any(|n| n == "azure_real") {
            suite.azure_real = None;
        }
    }
    if let Some(record) = &record {
        if record.is_off() {
            eprintln!("--record off records nothing; drop the flag instead");
            usage();
        }
        if suite.scenarios.len() != 1
            || suite.policies.len() != 1
            || suite.seeds.len() != 1
            || suite.azure_real.is_some()
        {
            eprintln!(
                "--record needs exactly one cell: one --scenario, one --policy, one seed \
                 (got {} scenario(s), {} policy(ies), {} seed(s){})",
                suite.scenarios.len(),
                suite.policies.len(),
                suite.seeds.len(),
                if suite.azure_real.is_some() {
                    ", plus --azure-data"
                } else {
                    ""
                }
            );
            usage();
        }
    } else if trace_out.is_some() {
        eprintln!("--trace-out requires --record perfetto (or all)");
        usage();
    }
    Cli {
        suite,
        record,
        trace_out,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_suite(&args);
    let suite = cli.suite;
    let scale = suite.scale;
    println!(
        "Scenario suite — {} scale ({} req/min x {} min, WS {}), {} seed(s)\n",
        scale.name,
        scale.requests_per_min,
        scale.minutes,
        scale.working_set,
        suite.seeds.len()
    );
    let config = &suite.config;
    if config.replacement != PolicySpec::bare("lru") {
        println!("Replacement policy: {}\n", config.replacement);
    }
    let batched = config.batching != PolicySpec::bare("none");
    if batched {
        println!("Batching: {}\n", config.batching);
    }
    let autoscaled = config.autoscale.is_some();
    if let Some(autoscale) = &config.autoscale {
        println!("Autoscale: {autoscale}\n");
    }
    if !config.store.is_flat() {
        println!("Store: {}\n", config.store);
    }

    let report = suite.run();

    // Workload shapes first, so the matrix below has context.
    let shape = TablePrinter::new(&[12, 9, 6, 8, 10, 10]);
    println!(
        "{}",
        shape.header(&["scenario", "requests", "fns", "top15", "req/min", "minuteCV"])
    );
    for (name, s) in report.scenario_stats {
        println!(
            "{}",
            shape.row(&[
                name.to_string(),
                s.total.to_string(),
                s.working_set.to_string(),
                format!("{:.3}", s.top15_share),
                format!("{:.0}", s.rate_per_min),
                format!("{:.3}", s.minute_cv),
            ])
        );
    }
    println!();

    // The batched matrix carries effective-batch columns, the autoscaled
    // one provisioned GPU-seconds and scale events; the default layout is
    // untouched so published rows stay byte-identical.
    let mut widths = vec![12, 8, 11, 11, 11, 11, 10, 11, 9];
    let mut header = vec![
        "scenario",
        "policy",
        "avg_lat(s)",
        "p50(s)",
        "p95(s)",
        "p99(s)",
        "miss",
        "false_miss",
        "sm_util",
    ];
    if batched {
        widths.extend([7, 9]);
        header.extend(["eff_b", "batched"]);
    }
    if autoscaled {
        widths.extend([10, 9]);
        header.extend(["gpu_s", "up/down"]);
    }
    let t = TablePrinter::new(&widths);
    println!("{}", t.header(&header));
    let matrix_metrics = report.cells.first().map(|c| c.metrics.clone());
    let mut last = "";
    for cell in report.cells {
        if !last.is_empty() && last != cell.scenario {
            println!();
        }
        last = cell.scenario;
        let m = &cell.metrics;
        let mut row = vec![
            cell.scenario.to_string(),
            cell.policy_name.clone(),
            format!("{:.2}", m.avg_latency_secs),
            format!("{:.2}", m.p50_latency_secs),
            format!("{:.2}", m.p95_latency_secs),
            format!("{:.2}", m.p99_latency_secs),
            format!("{:.3}", m.miss_ratio),
            format!("{:.3}", m.false_miss_ratio),
            format!("{:.3}", m.sm_utilization),
        ];
        if batched {
            row.push(format!("{:.2}", m.avg_effective_batch));
            row.push(format!("{:.0}", m.batched_requests));
        }
        if autoscaled {
            row.push(format!("{:.0}", m.gpu_seconds_provisioned));
            row.push(format!(
                "{:.1}/{:.1}",
                m.scale_up_events, m.scale_down_events
            ));
        }
        println!("{}", t.row(&row));
    }

    if suite.is_paper_default() {
        println!("\nNote: the `paper` rows reproduce fig4_comparison's WS 25 numbers exactly.");
    }

    // `--record`: re-run the single configured cell with recorders
    // attached. The recorded metrics must match the matrix cell exactly —
    // recording is observability, never perturbation — and the check runs
    // on every invocation.
    if let Some(record) = cli.record {
        let scenario = &suite.scenarios[0];
        let seed = suite.seeds[0];
        let trace = scenario.trace(&suite.scale, seed);
        let cfg = ClusterConfig {
            policy: suite.policies[0].clone(),
            record,
            ..suite.config.clone()
        };
        let (metrics, cluster) = run(cfg, &trace);
        println!(
            "\nRecorded cell {}/{} seed {} (--record {record}):",
            scenario.name, suite.policies[0], seed
        );
        let recorded_avg = gfaas_bench::AveragedMetrics::from_runs(std::slice::from_ref(&metrics));
        if let Some(expected) = matrix_metrics {
            assert_eq!(
                recorded_avg, expected,
                "recorded run diverged from the unrecorded matrix cell"
            );
            println!("  metrics: byte-identical to the matrix cell above");
        }
        if let Some(ledger) = cluster.ledger() {
            println!(
                "  ledger:  {} completed, {} SLO misses; mean segments (s): {}",
                ledger.completed(),
                ledger.slo_misses(),
                ledger.segment_summary()
            );
        }
        if let Some(series) = cluster.time_series() {
            println!("  sampler: {} windows", series.rows().len());
        }
        if let Some(json) = cluster.perfetto_json() {
            println!("  perfetto: {} trace bytes", json.len());
            if let Some(path) = &cli.trace_out {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(2);
                }
                println!("  wrote {path} (open in ui.perfetto.dev)");
            }
        } else if cli.trace_out.is_some() {
            eprintln!("--trace-out given but --record did not include perfetto");
            std::process::exit(2);
        }
        println!("  profile: {}", cluster.self_profile());
    }
}
