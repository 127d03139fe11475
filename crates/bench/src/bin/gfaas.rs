//! `gfaas` — command-line front end for the experiment harness.
//!
//! ```text
//! gfaas run [--policy SPEC] [--ws N] [--seed S] [--seeds a,b,c]
//!           [--gpus N] [--headroom MIB] [--burstiness F]
//!           [--replacement SPEC] [--tenants N] [--tenant-cap N]
//!           [--record SPEC] [--trace-out FILE] [--ledger-out FILE]
//!           [--series-out FILE]
//! gfaas trace [--ws N] [--seed S] [--out FILE]   # emit a CSV workload
//! ```
//!
//! Table I and the Fig 4 grid have their own report binaries
//! (`table1_profiles`, `fig4_comparison`).
//!
//! Policy SPECs are registry keys with optional arguments: schedulers
//! `lb`, `lalb`, `lalbo3[:limit]`; replacements `lru`, `fifo`, `random`,
//! `tinylfu[:decay]` — anything `gfaas_core::PolicyRegistry::builtin()`
//! knows.
//!
//! `--record` attaches the observability layer (see `gfaas_obs`):
//! `ledger`, `perfetto`, `sample[=secs]`, `slo=secs`, `all`. A recorded
//! run requires exactly one seed; `--trace-out` writes the Perfetto
//! JSON, `--ledger-out` the per-request lifecycle CSV, and
//! `--series-out` the sampled time-series CSV.
//!
//! Checkpoints (see `gfaas_core::snap`): `--checkpoint-at SECS
//! --checkpoint-out FILE` pauses the run at virtual time SECS, writes
//! the versioned-state checkpoint, then resumes to completion (the
//! printed metrics are byte-identical to an unpaused run). A later
//! invocation with identical flags plus `--warm-start FILE` restores
//! the checkpoint and replays only the remainder — same metrics, no
//! re-simulation of the prefix. Both require exactly one seed.

use std::collections::BTreeMap;

use gfaas_bench::{parse_cli_spec, parse_cli_store, SpecKind};
use gfaas_core::{Cluster, ClusterConfig, PolicyRegistry, PolicySpec, RunMetrics};
use gfaas_models::ModelRegistry;
use gfaas_trace::AzureTraceConfig;

fn usage() -> ! {
    eprintln!(
        "usage: gfaas <run|trace> [flags]\n\
         run flags: --policy lb|lalb|lalbo3[:limit]  --ws N  --seed S  --seeds a,b,c\n\
         \x20          --gpus N  --headroom MIB  --burstiness F\n\
         \x20          --replacement lru|fifo|random|tinylfu[:decay]\n\
         \x20          --store flat|tiered[:host=B,origin_bw=R,...]\n\
         \x20          --tenants N  --tenant-cap N\n\
         \x20          --record ledger|perfetto|sample[=secs]|slo=secs|all\n\
         \x20          --trace-out FILE  --ledger-out FILE  --series-out FILE\n\
         \x20          --checkpoint-at SECS --checkpoint-out FILE  --warm-start FILE\n\
         trace flags: --ws N  --seed S  --out FILE"
    );
    std::process::exit(2);
}

/// The flags `gfaas run` reads.
const RUN_FLAGS: &[&str] = &[
    "policy",
    "replacement",
    "store",
    "ws",
    "seed",
    "seeds",
    "burstiness",
    "gpus",
    "headroom",
    "tenants",
    "tenant-cap",
    "record",
    "trace-out",
    "ledger-out",
    "series-out",
    "checkpoint-at",
    "checkpoint-out",
    "warm-start",
];

/// The flags `gfaas trace` reads.
const TRACE_FLAGS: &[&str] = &["ws", "seed", "out"];

/// Parses `--key value` pairs, rejecting any key not in `known` (the
/// flags the subcommand actually reads) with the usage text.
fn parse_flags(args: &[String], known: &[&str]) -> BTreeMap<String, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            eprintln!("unexpected argument {a:?}");
            usage();
        };
        if !known.contains(&key) {
            eprintln!("unknown flag --{key}");
            usage();
        }
        let Some(value) = it.next() else {
            eprintln!("flag --{key} needs a value");
            usage();
        };
        flags.insert(key.to_string(), value.clone());
    }
    flags
}

fn get<T: std::str::FromStr>(flags: &BTreeMap<String, String>, key: &str, default: T) -> T {
    match flags.get(key) {
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("bad value for --{key}: {v:?}");
            usage();
        }),
        None => default,
    }
}

fn cli_spec(s: &str, kind: SpecKind) -> PolicySpec {
    parse_cli_spec(s, kind).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

/// Resolves `--policy` against the registry (default `lalbo3`).
fn policy_of(flags: &BTreeMap<String, String>) -> PolicySpec {
    cli_spec(
        flags.get("policy").map(String::as_str).unwrap_or("lalbo3"),
        SpecKind::Scheduler,
    )
}

/// Resolves `--replacement` against the registry (default `lru`).
fn replacement_of(flags: &BTreeMap<String, String>) -> PolicySpec {
    cli_spec(
        flags
            .get("replacement")
            .map(String::as_str)
            .unwrap_or("lru"),
        SpecKind::Evictor,
    )
}

/// Resolves `--store` against the registry (default `flat`).
fn store_of(flags: &BTreeMap<String, String>) -> gfaas_core::StoreSpec {
    parse_cli_store(flags.get("store").map(String::as_str).unwrap_or("flat")).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage();
    })
}

fn print_metrics(name: &str, m: &RunMetrics) {
    println!("{name}:");
    println!("  completed         {}", m.completed);
    println!("  avg latency       {:.3} s", m.avg_latency_secs);
    println!(
        "  p50 / p95 / p99 latency {:.3} / {:.3} / {:.3} s",
        m.p50_latency_secs, m.p95_latency_secs, m.p99_latency_secs
    );
    println!("  latency variance  {:.3}", m.latency_variance);
    println!("  max latency       {:.3} s", m.max_latency_secs);
    println!("  miss ratio        {:.4}", m.miss_ratio);
    println!("  false-miss ratio  {:.4}", m.false_miss_ratio);
    println!("  SM utilisation    {:.4}", m.sm_utilization);
    println!("  hot duplicates    {:.3}", m.avg_duplicates);
    println!("  makespan          {:.1} s", m.makespan_secs);
    println!("  queue peak        {}", m.queue_peak);
    println!("  queue avg         {:.3}", m.avg_queue_depth);
}

fn write_file(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(2);
    }
    eprintln!("wrote {what} to {path}");
}

fn cmd_run(flags: BTreeMap<String, String>) {
    let policy = policy_of(&flags);
    let replacement = replacement_of(&flags);
    let store = store_of(&flags);
    let policy_name = PolicyRegistry::builtin()
        .scheduler_name(&policy)
        .expect("validated above");
    let ws: usize = get(&flags, "ws", 25);
    let seeds: Vec<u64> = match flags.get("seeds") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad seed {s:?}");
                    usage();
                })
            })
            .collect(),
        None => vec![get(&flags, "seed", 11u64)],
    };
    let record: gfaas_core::RecordSpec = match flags.get("record") {
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("{e}");
            usage();
        }),
        None => gfaas_core::RecordSpec::default(),
    };
    for (flag, needs) in [
        ("trace-out", "perfetto"),
        ("ledger-out", "ledger"),
        ("series-out", "sample"),
    ] {
        if flags.contains_key(flag) && record.is_off() {
            eprintln!("--{flag} requires --record {needs}");
            usage();
        }
    }
    if !record.is_off() && seeds.len() > 1 {
        eprintln!("--record needs exactly one seed (got {})", seeds.len());
        usage();
    }
    if flags.contains_key("checkpoint-out") && !flags.contains_key("checkpoint-at") {
        eprintln!("--checkpoint-out requires --checkpoint-at SECS");
        usage();
    }
    if flags.contains_key("warm-start") && flags.contains_key("checkpoint-at") {
        eprintln!("--warm-start and --checkpoint-at are mutually exclusive");
        usage();
    }
    if (flags.contains_key("checkpoint-at") || flags.contains_key("warm-start")) && seeds.len() > 1
    {
        eprintln!("checkpointing needs exactly one seed (got {})", seeds.len());
        usage();
    }
    let mut runs = Vec::new();
    for &seed in &seeds {
        let mut tc = AzureTraceConfig::paper(ws, seed);
        tc.burstiness = get(&flags, "burstiness", tc.burstiness);
        let trace = tc.generate();
        let mut cfg = ClusterConfig::paper_testbed(policy.clone());
        cfg.num_gpus = get(&flags, "gpus", cfg.num_gpus);
        cfg.mem_headroom_mib = get(&flags, "headroom", cfg.mem_headroom_mib);
        cfg.num_tenants = get(&flags, "tenants", cfg.num_tenants);
        if let Some(cap) = flags.get("tenant-cap") {
            cfg.tenant_max_inflight = Some(cap.parse().unwrap_or_else(|_| {
                eprintln!("bad --tenant-cap {cap:?}");
                usage();
            }));
        }
        cfg.replacement = replacement.clone();
        cfg.store = store.clone();
        cfg.record = record;
        let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
        let m = if let Some(path) = flags.get("warm-start") {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read checkpoint {path}: {e}");
                std::process::exit(2);
            });
            // The checkpoint header pins config and trace digests, so a
            // warm start under different flags fails here, loudly.
            cluster.restore(&bytes, &trace).unwrap_or_else(|e| {
                eprintln!("cannot warm-start from {path}: {e}");
                std::process::exit(2);
            });
            eprintln!("warm-started from {path} ({} bytes)", bytes.len());
            cluster.resume(&trace)
        } else if let Some(at) = flags.get("checkpoint-at") {
            let secs: f64 = at.parse().unwrap_or_else(|_| {
                eprintln!("bad --checkpoint-at {at:?}");
                usage();
            });
            cluster.run_until(&trace, gfaas_sim::time::SimTime::from_secs_f64(secs));
            let bytes = cluster.checkpoint(&trace);
            if let Some(path) = flags.get("checkpoint-out") {
                if let Err(e) = std::fs::write(path, &bytes) {
                    eprintln!("cannot write checkpoint to {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!(
                    "wrote checkpoint at t={secs}s to {path} ({} bytes)",
                    bytes.len()
                );
            }
            cluster.resume(&trace)
        } else {
            cluster.run(&trace)
        };
        if !store.is_flat() {
            let s = cluster.store_stats();
            println!(
                "store {}: host_hits {} origin {} prefetches {} joins {} demotions {}",
                cluster.store_name(),
                s.host_hits,
                s.origin_loads,
                s.prefetches,
                s.prefetch_joins,
                s.demotions
            );
        }
        if let Some(json) = cluster.perfetto_json() {
            if let Some(path) = flags.get("trace-out") {
                write_file(path, &json, "Perfetto trace");
            } else {
                eprintln!(
                    "note: perfetto trace recorded ({} bytes); pass --trace-out FILE to keep it",
                    json.len()
                );
            }
        }
        if let Some(ledger) = cluster.ledger() {
            if let Some(path) = flags.get("ledger-out") {
                write_file(path, &ledger.to_csv(), "lifecycle ledger");
            }
            let seg = ledger.segment_summary();
            println!(
                "ledger: {} completed, {} SLO misses; mean segments (s): {}",
                ledger.completed(),
                ledger.slo_misses(),
                seg
            );
        }
        if let Some(series) = cluster.time_series() {
            if let Some(path) = flags.get("series-out") {
                write_file(path, &series.to_csv(), "time series");
            }
            println!("sampler: {} windows recorded", series.rows().len());
        }
        runs.push(m);
    }
    if runs.len() == 1 {
        print_metrics(&format!("{policy_name} ws{ws} seed{}", seeds[0]), &runs[0]);
    } else {
        let avg = gfaas_bench::AveragedMetrics::from_runs(&runs);
        println!(
            "{} ws{ws} over {} seeds: lat {:.3} s  miss {:.4}  false {:.4}  util {:.4}  dup {:.3}",
            policy_name,
            runs.len(),
            avg.avg_latency_secs,
            avg.miss_ratio,
            avg.false_miss_ratio,
            avg.sm_utilization,
            avg.avg_duplicates
        );
    }
}

fn cmd_trace(flags: BTreeMap<String, String>) {
    let ws: usize = get(&flags, "ws", 25);
    let seed: u64 = get(&flags, "seed", 11);
    let trace = AzureTraceConfig::paper(ws, seed).generate();
    match flags.get("out") {
        Some(path) => {
            let f = std::fs::File::create(path).unwrap_or_else(|e| {
                eprintln!("cannot create {path}: {e}");
                std::process::exit(2);
            });
            trace.write_csv(f).expect("write CSV");
            let s = trace.stats();
            eprintln!(
                "wrote {} requests (ws {}, {:.0} req/min) to {path}",
                s.total, s.working_set, s.rate_per_min
            );
        }
        None => {
            trace
                .write_csv(std::io::stdout().lock())
                .expect("write CSV");
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(parse_flags(&args[1..], RUN_FLAGS)),
        Some("trace") => cmd_trace(parse_flags(&args[1..], TRACE_FLAGS)),
        _ => usage(),
    }
}
