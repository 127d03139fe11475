//! The counter gate over the repository benchmark (see
//! [`gfaas_bench::counters`]).
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

use gfaas_bench::counters::{diff, parse_committed, read_run, render, Counters};

fn usage() -> ! {
    eprintln!(
        "usage: bench_counters check <committed.json> <workload>=<perfbench output>...\n       \
         bench_counters write <out.json> <workload>=<perfbench output>..."
    );
    std::process::exit(2);
}

/// Reads each `<workload>=<file>` run, grouping counters by workload in
/// first-mention order.
fn read_runs(args: &[String]) -> Result<Vec<(String, Counters)>, String> {
    let mut runs: Vec<(String, Counters)> = Vec::new();
    for arg in args {
        let (workload, path) = arg.split_once('=').ok_or(format!("bad run `{arg}`"))?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let counters = read_run(&text).map_err(|e| format!("{path}: {e}"))?;
        match runs.iter_mut().find(|(w, _)| w == workload) {
            Some((_, all)) => all.extend(counters),
            None => runs.push((workload.to_string(), counters)),
        }
    }
    Ok(runs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [mode, file, runs @ ..] = args.as_slice() else {
        usage();
    };
    let fresh = read_runs(runs).unwrap_or_else(|e| {
        eprintln!("bench_counters: {e}");
        std::process::exit(2);
    });
    match mode.as_str() {
        "write" => {
            std::fs::write(file, render(&fresh)).unwrap_or_else(|e| {
                eprintln!("bench_counters: {file}: {e}");
                std::process::exit(2);
            });
            println!("wrote {} workloads' counters to {file}", fresh.len());
        }
        "check" => {
            let committed = std::fs::read_to_string(file)
                .map_err(|e| e.to_string())
                .and_then(|text| parse_committed(&text))
                .unwrap_or_else(|e| {
                    eprintln!("bench_counters: {file}: {e}");
                    std::process::exit(2);
                });
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
        _ => usage(),
    }
}
