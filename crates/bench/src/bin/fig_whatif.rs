//! The what-if scheduling report: speculative lookahead vs greedy LALBO3
//! on the bursty scenarios where a one-shot placement decision pays for
//! its greed.
//!
//! ```text
//! cargo run --release -p gfaas-bench --bin fig_whatif            # paper scale, 3 seeds
//! cargo run --release -p gfaas-bench --bin fig_whatif -- --smoke # CI: smoke scale, 1 seed
//! ```
//!
//! Two scenarios are swept — `burst` (MMPP on/off arrivals) and
//! `flash_crowd` (a sudden hot-model spike) — under greedy LALBO3 and a
//! small `lookahead:k,horizon` grid. The lookahead policy forks the
//! cluster per candidate placement (hit on an idle replica, wait at a
//! busy holder, cold miss here), replays the next `horizon` pending
//! events inside each fork through the `gfaas-snap` journal, scores the
//! outcomes, rolls every fork back byte-identically, and executes the
//! winner. Each row reports the usual latency/throughput metrics plus
//! the journal's own counters (forks = snapshots taken; every fork must
//! be rolled back), so the speculation volume behind a latency delta is
//! visible in the same table.
//!
//! The binary exits non-zero — the CI gate — if (a) any lookahead cell's
//! forks don't all retire, or (b) no lookahead config beats LALBO3 on
//! p95 latency or makespan-throughput on at least one scenario.

use gfaas_bench::cli::Flags;
use gfaas_bench::{sweep, AveragedMetrics, TablePrinter, REPORT_SEEDS};
use gfaas_core::snap::JournalStats;
use gfaas_core::{ClusterConfig, PolicySpec};
use gfaas_trace::Trace;
use gfaas_workload::scenario::find;
use gfaas_workload::Scale;

fn usage() -> ! {
    eprintln!("usage: fig_whatif [--smoke]");
    std::process::exit(2);
}

/// One policy row of a scenario table: seed-averaged metrics plus the
/// journal counters summed across seeds.
struct Row {
    label: String,
    metrics: AveragedMetrics,
    journal: JournalStats,
}

fn throughput(m: &AveragedMetrics) -> f64 {
    if m.makespan_secs <= 0.0 {
        0.0
    } else {
        m.completed / m.makespan_secs
    }
}

fn print_table(title: &str, rows: &[Row]) {
    println!("{title}");
    let t = TablePrinter::new(&[22, 11, 9, 9, 9, 7, 11, 9, 10]);
    println!(
        "{}",
        t.header(&[
            "policy",
            "avg_lat(s)",
            "p95(s)",
            "p99(s)",
            "mksp(s)",
            "miss",
            "req/s",
            "forks",
            "rollbacks",
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
                format!("{:.1}", m.makespan_secs),
                format!("{:.3}", m.miss_ratio),
                format!("{:.2}", throughput(m)),
                r.journal.snapshots.to_string(),
                r.journal.rollbacks.to_string(),
            ])
        );
    }
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = Flags::parse(&args, &[], &["smoke"], usage).has("smoke");
    let (scale, seeds): (Scale, Vec<u64>) = if smoke {
        (Scale::smoke(), vec![REPORT_SEEDS[0]])
    } else {
        (Scale::paper(), REPORT_SEEDS.to_vec())
    };

    // The policy axis: the greedy baseline first, then the lookahead grid
    // (candidate count × replay depth).
    let policies: Vec<(String, PolicySpec)> = ["lalbo3"]
        .into_iter()
        .map(str::to_string)
        .chain(
            [(2usize, 8usize), (4, 8), (4, 16)]
                .into_iter()
                .map(|(k, h)| format!("lookahead:k={k},horizon={h}")),
        )
        .map(|s| (s.clone(), s.parse().expect("builtin spec")))
        .collect();

    println!(
        "What-if scheduling — lookahead vs LALBO3 ({} scale, {} seed(s), seeds {:?})\n",
        scale.name,
        seeds.len(),
        seeds
    );

    let mut lookahead_wins = false;
    let mut forks_leak = false;
    let mut total_forks = 0u64;
    for name in ["burst", "flash_crowd"] {
        let sc = find(name).expect("scenario registered");
        let traces: Vec<Trace> = seeds.iter().map(|&s| sc.trace(&scale, s)).collect();
        let rows: Vec<Row> = policies
            .iter()
            .map(|(label, policy)| {
                let cfg = ClusterConfig::paper_testbed(policy.clone());
                let (metrics, clusters) = sweep(&cfg, &traces);
                let mut journal = JournalStats::default();
                for j in clusters.iter().map(|c| c.journal_stats()) {
                    journal.snapshots += j.snapshots;
                    journal.rollbacks += j.rollbacks;
                }
                Row {
                    label: label.clone(),
                    metrics,
                    journal,
                }
            })
            .collect();
        print_table(&format!("{name}:"), &rows);

        let base = &rows[0];
        debug_assert_eq!(base.journal.snapshots, 0, "greedy never speculates");
        for r in &rows[1..] {
            total_forks += r.journal.snapshots;
            if r.journal.snapshots != r.journal.rollbacks {
                eprintln!(
                    "FAIL: {name}/{}: {} forks but {} rollbacks — a fork leaked",
                    r.label, r.journal.snapshots, r.journal.rollbacks
                );
                forks_leak = true;
            }
        }
        // The headline: the best lookahead config vs the greedy baseline.
        let best = rows[1..]
            .iter()
            .min_by(|a, b| {
                a.metrics
                    .p95_latency_secs
                    .total_cmp(&b.metrics.p95_latency_secs)
            })
            .expect("grid is non-empty");
        let wins_p95 = best.metrics.p95_latency_secs < base.metrics.p95_latency_secs;
        let wins_tput = throughput(&best.metrics) > throughput(&base.metrics);
        println!(
            "{name}: best lookahead ({}) vs lalbo3: p95 {:.2}s vs {:.2}s, \
             avg {:.2}s vs {:.2}s, {:.2} vs {:.2} req/s{}",
            best.label,
            best.metrics.p95_latency_secs,
            base.metrics.p95_latency_secs,
            best.metrics.avg_latency_secs,
            base.metrics.avg_latency_secs,
            throughput(&best.metrics),
            throughput(&base.metrics),
            if wins_p95 || wins_tput {
                " — lookahead wins"
            } else {
                ""
            }
        );
        println!();
        lookahead_wins |= wins_p95 || wins_tput;
    }

    if forks_leak {
        std::process::exit(1);
    }
    if total_forks == 0 {
        eprintln!("FAIL: no lookahead cell ever speculated — the journal is not being exercised");
        std::process::exit(1);
    }
    if smoke {
        // At smoke scale (60 requests) every cell ties; the smoke gate
        // only proves the wiring — forks happen and all retire. The win
        // criterion is judged at paper scale.
        println!("smoke gate: {total_forks} forks taken, all rolled back.");
        return;
    }
    if !lookahead_wins {
        eprintln!("FAIL: no lookahead config beat LALBO3 on either scenario");
        std::process::exit(1);
    }
    println!("speculative lookahead beats greedy LALBO3 on at least one bursty scenario.");
}
