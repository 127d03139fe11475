//! `gfaas` — command-line front end for the experiment harness.
//!
//! ```text
//! gfaas run [--policy SPEC] [--ws N] [--seed S] [--seeds a,b,c]
//!           [--gpus N] [--headroom MIB] [--burstiness F]
//!           [--replacement SPEC] [--store SPEC] [--tenants N] [--tenant-cap N]
//!           [--record SPEC] [--trace-out FILE] [--ledger-out FILE]
//!           [--series-out FILE]
//! gfaas trace [--ws N] [--seed S] [--out FILE]   # emit a CSV workload
//! ```
//!
//! Table I and the Fig 4 grid have their own report binaries
//! (`table1_profiles`, `fig4_comparison`).
//!
//! Policy SPECs are registry keys with optional arguments: schedulers
//! `lb`, `lalb`, `lalbo3[:limit]`, `lookahead[:k=4,horizon=8]`;
//! replacements `lru`, `fifo`, `random`,
//! `tinylfu[:auto | decay[,window][,front=k]]` — anything
//! `gfaas_core::PolicyRegistry::builtin()` knows. `--store` takes a
//! `gfaas_core::StoreSpec` (`flat`, `tiered[:host=B,origin_bw=R,…]`).
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

use gfaas_bench::cli::{fail, ranged, seeds, Flags};
use gfaas_bench::{parse_cli_spec, sweep, SpecKind};
use gfaas_core::{
    Cluster, ClusterConfig, PolicyRegistry, PolicySpec, RecordSpec, RunMetrics, StoreSpec,
};
use gfaas_models::ModelRegistry;
use gfaas_trace::azure::{AzureTraceConfig, AZURE_TOTAL_FUNCTIONS, PAPER_BURSTINESS};
use gfaas_trace::MAX_BURSTINESS;

fn usage() -> ! {
    eprintln!(
        "usage: gfaas <run|trace> [flags]\n\
         run flags: --policy lb|lalb|lalbo3[:limit]|lookahead[:k=4,horizon=8]\n\
         \x20          --ws N  --seed S  --seeds a,b,c\n\
         \x20          --gpus N  --headroom MIB  --burstiness F\n\
         \x20          --replacement lru|fifo|random|tinylfu[:auto|decay[,window][,front=k]]\n\
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

/// Reads `--ws`: a working set the Azure function population can hold.
fn working_set(flags: &Flags) -> usize {
    let fits = |n: &usize| (1..=AZURE_TOTAL_FUNCTIONS).contains(n);
    let ws = flags.get("ws", ranged(fits, "want 1 to the Azure function count"));
    ws.unwrap_or(25)
}

fn print_store_stats(cluster: &Cluster) {
    if !cluster.config().store.is_flat() {
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
}

fn cmd_run(flags: Flags) {
    let policy = flags
        .get("policy", |s| parse_cli_spec(s, SpecKind::Scheduler))
        .unwrap_or_else(|| PolicySpec::bare("lalbo3"));
    let replacement = flags
        .get("replacement", |s| parse_cli_spec(s, SpecKind::Evictor))
        .unwrap_or_else(|| PolicySpec::bare("lru"));
    let store: StoreSpec = flags.value("store").unwrap_or_default();
    let policy_name = PolicyRegistry::builtin()
        .scheduler_name(&policy)
        .expect("validated above");
    let ws = working_set(&flags);
    let seeds: Vec<u64> = flags
        .get("seeds", seeds)
        .unwrap_or_else(|| vec![flags.value("seed").unwrap_or(11)]);
    let non_negative = |x: &f64| x.is_finite() && *x >= 0.0;
    let want = "want a finite number >= 0";
    let bursty = |x: &f64| (0.0..=MAX_BURSTINESS).contains(x);
    let burstiness = flags.get("burstiness", ranged(bursty, "want a number from 0 to 16"));
    let checkpoint_at = flags.get("checkpoint-at", ranged(non_negative, want));
    let record: RecordSpec = flags.value("record").unwrap_or_default();
    for (flag, needs) in [
        ("trace-out", "perfetto"),
        ("ledger-out", "ledger"),
        ("series-out", "sample"),
    ] {
        if flags.has(flag) && record.is_off() {
            eprintln!("--{flag} requires --record {needs}");
            usage();
        }
    }
    if !record.is_off() && seeds.len() > 1 {
        eprintln!("--record needs exactly one seed (got {})", seeds.len());
        usage();
    }
    if flags.has("checkpoint-out") && !flags.has("checkpoint-at") {
        eprintln!("--checkpoint-out requires --checkpoint-at SECS");
        usage();
    }
    if flags.has("warm-start") && flags.has("checkpoint-at") {
        eprintln!("--warm-start and --checkpoint-at are mutually exclusive");
        usage();
    }
    if (flags.has("checkpoint-at") || flags.has("warm-start")) && seeds.len() > 1 {
        eprintln!("checkpointing needs exactly one seed (got {})", seeds.len());
        usage();
    }
    let paper = |seed| AzureTraceConfig {
        burstiness: burstiness.unwrap_or(PAPER_BURSTINESS),
        ..AzureTraceConfig::paper(ws, seed)
    };
    let traces: Vec<_> = seeds.iter().map(|&s| paper(s).generate()).collect();
    let mut cfg = ClusterConfig::paper_testbed(policy);
    cfg.num_gpus = flags.value("gpus").unwrap_or(cfg.num_gpus);
    cfg.mem_headroom_mib = flags.value("headroom").unwrap_or(cfg.mem_headroom_mib);
    cfg.num_tenants = flags.value("tenants").unwrap_or(cfg.num_tenants);
    cfg.tenant_max_inflight = flags.value("tenant-cap").or(cfg.tenant_max_inflight);
    cfg.replacement = replacement;
    cfg.store = store;
    cfg.record = record;
    let mut cluster = Cluster::try_new(cfg.clone(), ModelRegistry::table1())
        .unwrap_or_else(|e| fail(usage, format!("invalid cluster config: {e}")));
    let [trace] = &traces[..] else {
        let (avg, clusters) = sweep(&cfg, &traces);
        clusters.iter().for_each(print_store_stats);
        println!(
            "{} ws{ws} over {} seeds: lat {:.3} s  miss {:.4}  false {:.4}  util {:.4}  dup {:.3}",
            policy_name,
            avg.runs,
            avg.avg_latency_secs,
            avg.miss_ratio,
            avg.false_miss_ratio,
            avg.sm_utilization,
            avg.avg_duplicates
        );
        return;
    };
    let m = if let Some(path) = flags.text("warm-start") {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read checkpoint {path}: {e}");
            std::process::exit(2);
        });
        // The checkpoint header pins config and trace digests, so a
        // warm start under different flags fails here, loudly.
        cluster.restore(&bytes, trace).unwrap_or_else(|e| {
            eprintln!("cannot warm-start from {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("warm-started from {path} ({} bytes)", bytes.len());
        cluster.resume(trace)
    } else if let Some(secs) = checkpoint_at {
        cluster.run_until(trace, gfaas_sim::time::SimTime::from_secs_f64(secs));
        let bytes = cluster.checkpoint(trace);
        if let Some(path) = flags.text("checkpoint-out") {
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("cannot write checkpoint to {path}: {e}");
                std::process::exit(2);
            }
            eprintln!(
                "wrote checkpoint at t={secs}s to {path} ({} bytes)",
                bytes.len()
            );
        }
        cluster.resume(trace)
    } else {
        cluster.run(trace)
    };
    print_store_stats(&cluster);
    if let Some(json) = cluster.perfetto_json() {
        if let Some(path) = flags.text("trace-out") {
            write_file(path, &json, "Perfetto trace");
        } else {
            eprintln!(
                "note: perfetto trace recorded ({} bytes); pass --trace-out FILE to keep it",
                json.len()
            );
        }
    }
    if let Some(ledger) = cluster.ledger() {
        if let Some(path) = flags.text("ledger-out") {
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
        if let Some(path) = flags.text("series-out") {
            write_file(path, &series.to_csv(), "time series");
        }
        println!("sampler: {} windows recorded", series.rows().len());
    }
    print_metrics(&format!("{policy_name} ws{ws} seed{}", seeds[0]), &m);
}

fn cmd_trace(flags: Flags) {
    let ws = working_set(&flags);
    let seed: u64 = flags.value("seed").unwrap_or(11);
    let trace = AzureTraceConfig::paper(ws, seed).generate();
    match flags.text("out") {
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
        Some("run") => cmd_run(Flags::parse(&args[1..], RUN_FLAGS, &[], usage)),
        Some("trace") => cmd_trace(Flags::parse(&args[1..], TRACE_FLAGS, &[], usage)),
        _ => usage(),
    }
}
