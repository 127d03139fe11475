//! The counter gate: the work a benchmark run does, compared exactly.
//!
//! `perfbench` reports two kinds of per-workload metrics. Host timings
//! (`*_ns_per_req`, `*_ns`, `setup_s`, `peak_rss_mib`, the time share
//! `sched.host_share`) move with the machine and its load. Everything
//! else — event and pass counts per request, estimator and evictor
//! calls, forks, checkpoint bytes, and the simulated `sim_*` results —
//! is fixed by the seed. Those *counters* are committed in
//! `BENCH_counters.json`, and the `bench_counters` binary diffs a fresh
//! run against them exactly, so a change that makes the simulator do
//! more (or different) work fails even when wall time hides it.

use std::fmt::Write as _;

use gfaas_obs::json::{self, Value};

/// One workload's counters, in the order the benchmark reports them.
pub type Counters = Vec<(String, f64)>;

/// True for the host-time and memory metrics, which vary between runs;
/// every other benchmark metric is a counter.
pub fn is_timing(name: &str) -> bool {
    name.ends_with("_ns_per_req")
        || name.ends_with("_ns")
        || matches!(name, "sched.host_share" | "setup_s" | "peak_rss_mib")
}

/// The layer a counter belongs to: its `layer.` prefix, or `sim` for the
/// end-to-end simulated results (`sim_*`).
pub fn layer(name: &str) -> &str {
    match name.split_once('.') {
        Some((layer, _)) => layer,
        None => name.split('_').next().unwrap_or(name),
    }
}

/// One benchmark run as its standard output reports it: the workload
/// its `workload <name> seed <n>:` line names, the requests attempted
/// and failed, and every metric, host timings included, in report order.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The benchmark workload the run measured.
    pub workload: String,
    /// Requests the run attempted.
    pub attempted: u64,
    /// Requests the run lost.
    pub failed: u64,
    /// Every metric's value, by name.
    pub metrics: Vec<(String, f64)>,
}

impl Run {
    /// Reads a run from its standard output, whose last line is the JSON
    /// object `{"correct", "attempted", "failed", "metrics": {..}}`. A
    /// run whose output checks failed is refused: none of its numbers is
    /// worth comparing.
    pub fn parse(output: &str) -> Result<Run, String> {
        let workload = output
            .lines()
            .find_map(|l| Some(l.strip_prefix("workload ")?.split_once(" seed ")?.0))
            .ok_or("benchmark output has no `workload <name> seed <n>:` line")?;
        let line = output
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or("empty benchmark output")?;
        let run = json::parse(line).map_err(|e| e.to_string())?;
        if run.get("correct") != Some(&Value::Bool(true)) {
            return Err("the benchmark run is not `correct`".into());
        }
        let count = |key: &str| match run.get(key).and_then(Value::as_f64) {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => Ok(n as u64),
            _ => Err(format!("benchmark output has no `{key}` count")),
        };
        let Some(Value::Obj(metrics)) = run.get("metrics") else {
            return Err("benchmark output has no `metrics` object".into());
        };
        let metrics = metrics
            .iter()
            .map(|(name, m)| match m.get("value").and_then(Value::as_f64) {
                Some(value) => Ok((name.clone(), value)),
                None => Err(format!("{name} has no value")),
            })
            .collect::<Result<_, String>>()?;
        Ok(Run {
            workload: workload.to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// The counters of one benchmark run, from its standard output (see
/// [`Run::parse`]): every metric but the host timings.
pub fn read_run(output: &str) -> Result<Counters, String> {
    let run = Run::parse(output)?;
    Ok(run
        .metrics
        .into_iter()
        .filter(|(name, _)| !is_timing(name))
        .collect())
}

/// Renders the committed counter file: one object per workload, every
/// value at full precision (Rust's shortest round-trip form), so
/// reading it back gives the same `f64`s bit for bit.
pub fn render(workloads: &[(String, Counters)]) -> String {
    let mut out = String::from("{\n");
    for (i, (workload, counters)) in workloads.iter().enumerate() {
        let _ = writeln!(out, "  {:?}: {{", workload);
        for (j, (name, value)) in counters.iter().enumerate() {
            let sep = if j + 1 < counters.len() { "," } else { "" };
            let _ = writeln!(out, "    {name:?}: {value:?}{sep}");
        }
        let sep = if i + 1 < workloads.len() { "," } else { "" };
        let _ = writeln!(out, "  }}{sep}");
    }
    out.push_str("}\n");
    out
}

/// Reads a file written by [`render`].
pub fn parse_committed(text: &str) -> Result<Vec<(String, Counters)>, String> {
    let Value::Obj(workloads) = json::parse(text).map_err(|e| e.to_string())? else {
        return Err("the counter file is not a JSON object".into());
    };
    workloads
        .into_iter()
        .map(|(workload, counters)| {
            let Value::Obj(counters) = counters else {
                return Err(format!("{workload}: counters are not an object"));
            };
            let counters = counters
                .into_iter()
                .map(|(name, v)| match v.as_f64() {
                    Some(x) => Ok((name, x)),
                    None => Err(format!("{workload}: {name} is not a number")),
                })
                .collect::<Result<_, _>>()?;
            Ok((workload, counters))
        })
        .collect()
}

/// Every difference between the committed counters and a fresh run's,
/// one line each, naming the workload and the counter's layer. Empty
/// when the two agree exactly.
pub fn diff(committed: &[(String, Counters)], fresh: &[(String, Counters)]) -> Vec<String> {
    let mut out = Vec::new();
    for (workload, want) in committed {
        let Some((_, got)) = fresh.iter().find(|(w, _)| w == workload) else {
            out.push(format!("{workload}: no fresh run"));
            continue;
        };
        for (name, old) in want {
            match got.iter().find(|(n, _)| n == name) {
                Some((_, new)) if new.to_bits() == old.to_bits() => {}
                Some((_, new)) => out.push(format!(
                    "{workload}: [{}] {name} changed: {old:?} -> {new:?}",
                    layer(name)
                )),
                None => out.push(format!(
                    "{workload}: [{}] {name} is missing from the fresh run",
                    layer(name)
                )),
            }
        }
        for (name, new) in got {
            if !want.iter().any(|(n, _)| n == name) {
                out.push(format!(
                    "{workload}: [{}] {name} is new: {new:?}",
                    layer(name)
                ));
            }
        }
    }
    for (workload, _) in fresh {
        if !committed.iter().any(|(w, _)| w == workload) {
            out.push(format!("{workload}: not in the committed counters"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUN: &str = "workload x seed 1:\n  table lines\n\
        {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
        \"bench.untraced_ns_per_req\": {\"value\": 812.5, \"unit\": \"ns\"}, \
        \"sched.host_share\": {\"value\": 0.4, \"unit\": \"ratio\"}, \
        \"cluster.passes_per_req\": {\"value\": 2.0, \"unit\": \"1/req\"}, \
        \"snap.fork_ns\": {\"value\": 406.5, \"unit\": \"ns\"}, \
        \"sim_p99_s\": {\"value\": 7.980330500000001, \"unit\": \"s\"}}}\n";

    fn counters() -> Vec<(String, Counters)> {
        vec![("x".to_string(), read_run(RUN).unwrap())]
    }

    #[test]
    fn timings_are_not_counters() {
        let names: Vec<_> = counters()[0].1.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(names, ["cluster.passes_per_req", "sim_p99_s"]);
        assert!(is_timing("host_ns_per_req") && is_timing("peak_rss_mib"));
        assert!(!is_timing("snap.checkpoint_bytes") && !is_timing("sim_p50_s"));
    }

    #[test]
    fn layers_come_from_the_name() {
        assert_eq!(layer("cluster.passes_per_req"), "cluster");
        assert_eq!(layer("sim_capacity_rpm"), "sim");
    }

    #[test]
    fn the_committed_file_round_trips_bit_for_bit() {
        let c = counters();
        assert_eq!(parse_committed(&render(&c)).unwrap(), c);
        assert!(diff(&c, &c).is_empty());
    }

    #[test]
    fn any_change_is_reported_with_its_layer() {
        let c = counters();
        let mut fresh = c.clone();
        fresh[0].1[1].1 = f64::from_bits(fresh[0].1[1].1.to_bits() + 1);
        fresh[0].1.push(("cache.evictions_per_req".into(), 0.5));
        let report = diff(&c, &fresh);
        assert_eq!(report.len(), 2, "{report:?}");
        assert!(report[0].contains("[sim] sim_p99_s changed"));
        assert!(report[1].contains("[cache] cache.evictions_per_req is new"));
        assert_eq!(diff(&c, &[]), ["x: no fresh run"]);
    }

    #[test]
    fn incorrect_or_truncated_runs_are_refused() {
        assert!(read_run(&RUN.replace("true", "false")).is_err());
        assert!(read_run("").is_err());
        assert!(read_run("{\"correct\": true").is_err());
    }
}
