//! The report CLIs read their command lines through `gfaas_bench::cli`:
//! a malformed one, or a number out of its range, exits 2 with the
//! binary's usage text on stderr before anything runs (and never
//! panics), and a `--policy` list keeps multi-field specs whole.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

#[test]
fn malformed_command_lines_exit_2_with_usage() {
    let cases: [(&str, &[&[&str]]); 7] = [
        (
            env!("CARGO_BIN_EXE_scenarios"),
            &[
                &["--smoke", "--wat"],
                &["--smoke", "--seeds"],
                &["--seeds", "1,x"],
                &["--scale", "huge"],
                &["--policy", "lalbo3,belady"],
                &["--smoke", "--policy", "lookahead:k=4,horizon=0"],
                &["--threads", "0"],
                &["--store", "s3"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_fig_timeline"),
            &[
                &["--wat"],
                &["--smoke", "--seed"],
                &["--seed", "x"],
                &["--batching", "coalesce:max=0"],
                &["--smoke", "--sample", "0"],
                &["--smoke", "--sample", "NaN"],
                &["--smoke", "--slo", "NaN"],
                &["--smoke", "--slo", "-1"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_fig_batching"),
            &[
                &["--wat"],
                &["--batching"],
                &["--batching", "none", "--batching", "coalesce:64"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_fig_autoscale"),
            &[
                &["--wat"],
                &["--autoscale"],
                &["--autoscale", "queue:min=0"],
            ],
        ),
        (
            env!("CARGO_BIN_EXE_fig_whatif"),
            &[&["--wat"], &["--smoke", "extra"]],
        ),
        (
            env!("CARGO_BIN_EXE_fig_store"),
            &[&["--wat"], &["--smoke", "extra"]],
        ),
        (
            env!("CARGO_BIN_EXE_gfaas"),
            &[
                &[],
                &["run", "--wat", "1"],
                &["run", "--ws"],
                &["run", "--ws", "x"],
                &["run", "--ws", "x", "--ws", "15"],
                &["run", "--store", "tiered:origin_bw=1e307G"],
                &["trace", "--seed", "-1"],
                &["run", "--gpus", "0"],
                &["run", "--ws", "0"],
                &["trace", "--ws", "0"],
                &["run", "--burstiness", "inf"],
                &["run", "--burstiness", "NaN"],
                &["run", "--burstiness", "1000"],
                &["run", "--burstiness", "1e300"],
                &["run", "--headroom", "10000"],
                &["run", "--headroom", "6900"],
                &["run", "--checkpoint-at", "NaN"],
                &["run", "--checkpoint-at", "-5"],
            ],
        ),
    ];
    for (bin, invocations) in cases {
        for args in invocations {
            let out = run(bin, args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
            assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
            assert!(!stderr.contains("panicked"), "{bin} {args:?}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} printed to stdout");
        }
    }
}

#[test]
fn scenarios_policy_list_keeps_multi_field_specs_whole() {
    let args = [
        "--smoke",
        "--scenario",
        "burst",
        "--policy",
        "lalbo3,lookahead:k=4,horizon=16",
    ];
    let out = run(env!("CARGO_BIN_EXE_scenarios"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let policies: Vec<&str> = stdout
        .lines()
        .filter_map(|row| {
            let mut cols = row.split_whitespace();
            (cols.next() == Some("burst"))
                .then(|| cols.next())
                .flatten()
        })
        .filter(|col| !col.starts_with(char::is_numeric))
        .collect();
    assert_eq!(policies, ["LALBO3", "Lookahead(k=4,h=16)"], "{stdout}");
}
