//! The counter gate and the paired comparison over the repository
//! benchmark (see [`gfaas_bench::counters`] and [`gfaas_bench::compare`]).
//!
//! ```text
//! # one traced and one untraced 1-second run per workload, seed 1
//! for w in paper_ladder faas_full_stack whatif_burst; do for t in 1 0; do
//!   cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload $w --seed 1 --seconds 1 --trace $t > /tmp/$w.$t.txt
//! done; done
//! cargo run --release -p gfaas-bench --bin bench_counters -- \
//!     check BENCH_counters.json paper_ladder=/tmp/paper_ladder.1.txt ...
//! ```
//!
//! `check <committed.json> <workload>=<output>...` exits 1 and prints
//! every changed counter with its layer when a fresh run's counters are
//! not exactly the committed ones. `write <out.json> <workload>=<output>...`
//! writes the committed file from fresh runs. A workload may be named
//! more than once; its runs' counters are concatenated (the traced run
//! carries the per-layer counters, the untraced one the `sim_*` results).
//!
//! `compare <BENCHMARK.json> parent=<output> change=<output>...` pairs the
//! i-th `parent=` run with the i-th `change=` run (`--trace 0` runs of one
//! workload, taken alternately) and prints each end-to-end metric's
//! quartiles, wins and verdict. It exits 1 when a metric is `worse` or the
//! change fails a larger share of requests, and 2 on runs it cannot pair.

use gfaas_bench::compare::{compare, end_to_end};
use gfaas_bench::counters::{diff, parse_committed, read_run, render, Counters, Run};

fn usage() -> ! {
    eprintln!(
        "usage: bench_counters check <committed.json> <workload>=<perfbench output>...\n       \
         bench_counters write <out.json> <workload>=<perfbench output>...\n       \
         bench_counters compare <BENCHMARK.json> parent=<perfbench output> change=<perfbench output>..."
    );
    std::process::exit(2);
}

fn refuse(error: String) -> ! {
    eprintln!("bench_counters: {error}");
    std::process::exit(2);
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Reads each `<workload>=<file>` run, grouping counters by workload in
/// first-mention order.
fn read_runs(args: &[String]) -> Result<Vec<(String, Counters)>, String> {
    let mut runs: Vec<(String, Counters)> = Vec::new();
    for arg in args {
        let (workload, path) = arg.split_once('=').ok_or(format!("bad run `{arg}`"))?;
        let counters = read_run(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        match runs.iter_mut().find(|(w, _)| w == workload) {
            Some((_, all)) => all.extend(counters),
            None => runs.push((workload.to_string(), counters)),
        }
    }
    Ok(runs)
}

/// Reads each `parent=<file>` and `change=<file>` run, in order.
fn read_pairs(args: &[String]) -> Result<(Vec<Run>, Vec<Run>), String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    for arg in args {
        let bad = || format!("bad run `{arg}`: name it parent=<file> or change=<file>");
        let (side, path) = arg.split_once('=').ok_or_else(bad)?;
        let side = match side {
            "parent" => &mut parent,
            "change" => &mut change,
            _ => return Err(bad()),
        };
        side.push(Run::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?);
    }
    Ok((parent, change))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [mode, file, runs @ ..] = args.as_slice() else {
        usage();
    };
    match mode.as_str() {
        "write" => {
            let fresh = read_runs(runs).unwrap_or_else(|e| refuse(e));
            std::fs::write(file, render(&fresh)).unwrap_or_else(|e| refuse(format!("{file}: {e}")));
            println!("wrote {} workloads' counters to {file}", fresh.len());
        }
        "check" => {
            let fresh = read_runs(runs).unwrap_or_else(|e| refuse(e));
            let committed = read(file)
                .and_then(|text| parse_committed(&text).map_err(|e| format!("{file}: {e}")))
                .unwrap_or_else(|e| refuse(e));
            let changes = diff(&committed, &fresh);
            if changes.is_empty() {
                let n: usize = committed.iter().map(|(_, c)| c.len()).sum();
                println!("all {n} counters match {file} exactly");
            } else {
                for change in &changes {
                    println!("{change}");
                }
                println!(
                    "{} counter change(s) against {file}; a meant change rewrites it (`write`)",
                    changes.len()
                );
                std::process::exit(1);
            }
        }
        "compare" => {
            let metrics = read(file)
                .and_then(|text| end_to_end(&text).map_err(|e| format!("{file}: {e}")))
                .unwrap_or_else(|e| refuse(e));
            let (parent, change) = read_pairs(runs).unwrap_or_else(|e| refuse(e));
            let comparison = compare(&metrics, &parent, &change).unwrap_or_else(|e| refuse(e));
            print!("{comparison}");
            if comparison.regressed() {
                println!("regressed: a metric is worse, or more requests failed");
                std::process::exit(1);
            }
        }
        _ => usage(),
    }
}
