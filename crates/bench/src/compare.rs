//! Paired comparison of two commits' benchmark runs: the one method for
//! claims about host time and the other end-to-end metrics.
//!
//! Host time on a shared machine drifts between runs, so single runs of
//! two commits show nothing. Run `perfbench --trace 0` of the parent and
//! of the change alternately, N times each, at the same `--seconds`; the
//! i-th parent run pairs with the i-th change run. For each end-to-end
//! metric of `BENCHMARK.json`, in its order, [`compare`] reports both
//! sides' quartiles, the pairs the change wins (strictly better in the
//! metric's direction; ties count for neither side) and one [`Verdict`]:
//!
//! 1. `unresolved` when the parent's own spread, (q3 − q1) / median,
//!    exceeds the metric's bound, unless every change run is better than
//!    every parent run;
//! 2. else `worse` when the change's median is worse than the parent's by
//!    more than bound × the parent's median;
//! 3. else `gain` when there are at least ten pairs, the change wins at
//!    least nine tenths of them, and its median is better than the
//!    parent's by more than the parent's q3 − q1;
//! 4. else `same`.
//!
//! Quartiles interpolate linearly between closest ranks (numpy's
//! default), and the median is the second quartile. The comparison has
//! [`regressed`](Comparison::regressed) when a metric is `worse` or the
//! change fails a larger share of its requests than the parent.

use std::fmt;

use gfaas_obs::json::{self, Value};

use crate::counters::Run;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, ratios of misses, memory).
    Lower,
    /// Larger values are better (capacity).
    Higher,
}

impl Better {
    /// How much better `to` is than `from` (negative when worse).
    fn gain(self, from: f64, to: f64) -> f64 {
        match self {
            Better::Lower => from - to,
            Better::Higher => to - from,
        }
    }
}

/// One end-to-end metric of `BENCHMARK.json`: its name, direction and
/// the relative amount by which it may worsen.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// The metric's name in the benchmark's output.
    pub name: String,
    /// Which direction is an improvement.
    pub better: Better,
    /// The largest worsening, as a fraction of the parent's median, that
    /// is not a regression.
    pub bound: f64,
}

/// The `end_to_end` metrics of a `BENCHMARK.json`, in its order.
pub fn end_to_end(benchmark: &str) -> Result<Vec<EndToEnd>, String> {
    let doc = json::parse(benchmark).map_err(|e| e.to_string())?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("no `end_to_end` list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("an end-to-end metric has no name")?;
            let better = match m.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("{name}: `better` is not \"lower\" or \"higher\"")),
            };
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| b.is_finite() && *b >= 0.0)
                .ok_or(format!("{name}: `bound` is not a number ≥ 0"))?;
            Ok(EndToEnd {
                name: name.to_string(),
                better,
                bound,
            })
        })
        .collect()
}

/// The first quartile, median and third quartile of `xs`, interpolating
/// linearly between closest ranks.
///
/// # Panics
/// If `xs` is empty.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len() - 1;
    let at = |p: f64| {
        let rank = p * last as f64;
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(last);
        sorted[lo] + (rank - lo as f64) * (sorted[hi] - sorted[lo])
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// What the runs show about one metric (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The parent's own runs spread wider than the bound.
    Unresolved,
    /// The change's median is worse than the parent's beyond the bound.
    Worse,
    /// The change wins nine tenths of at least ten pairs, by more than
    /// the parent's spread.
    Gain,
    /// None of the above.
    Same,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Unresolved => "unresolved",
            Verdict::Worse => "worse",
            Verdict::Gain => "gain",
            Verdict::Same => "same",
        })
    }
}

/// One end-to-end metric over every pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The metric compared.
    pub metric: EndToEnd,
    /// The parent's quartiles.
    pub parent: [f64; 3],
    /// The change's quartiles.
    pub change: [f64; 3],
    /// Pairs in which the change is strictly better.
    pub wins: usize,
    /// The rule's verdict.
    pub verdict: Verdict,
}

/// Requests lost against requests attempted, summed over one side's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failures {
    /// Requests lost.
    pub failed: u64,
    /// Requests attempted.
    pub attempted: u64,
}

impl Failures {
    fn of(runs: &[Run]) -> Self {
        Failures {
            failed: runs.iter().map(|r| r.failed).sum(),
            attempted: runs.iter().map(|r| r.attempted).sum(),
        }
    }

    /// True when this side loses a larger share of its requests than
    /// `other` (compared by cross-multiplying, so no share rounds).
    fn larger_share_than(self, other: Failures) -> bool {
        u128::from(self.failed) * u128::from(other.attempted)
            > u128::from(other.failed) * u128::from(self.attempted)
    }
}

/// The comparison of one workload's paired runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The workload every run measured.
    pub workload: String,
    /// Pairs compared.
    pub pairs: usize,
    /// One row per end-to-end metric, in the benchmark's order.
    pub rows: Vec<Row>,
    /// The parent's lost requests.
    pub parent_failures: Failures,
    /// The change's lost requests.
    pub change_failures: Failures,
}

impl Comparison {
    /// True when a metric is `worse` or the change fails a larger share
    /// of its requests than the parent.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
            || self.change_failures.larger_share_than(self.parent_failures)
    }
}

/// Compares the i-th `parent` run with the i-th `change` run on every
/// metric in `metrics`. Refuses runs that cannot be paired: unequal or
/// zero counts, runs of more than one workload, or a run without one of
/// the metrics (a `--trace 1` run reports per-layer metrics instead).
pub fn compare(metrics: &[EndToEnd], parent: &[Run], change: &[Run]) -> Result<Comparison, String> {
    if parent.len() != change.len() || parent.is_empty() {
        return Err(format!(
            "need as many change runs as parent runs, at least one each; got {} parent and {} change",
            parent.len(),
            change.len()
        ));
    }
    let workload = &parent[0].workload;
    if let Some(other) = parent
        .iter()
        .chain(change)
        .find(|r| r.workload != *workload)
    {
        return Err(format!(
            "runs of more than one workload: {workload} and {}",
            other.workload
        ));
    }
    let values = |runs: &[Run], name: &str| {
        runs.iter()
            .map(|r| {
                let value = r.metrics.iter().find(|(n, _)| n == name).map(|m| m.1);
                value.ok_or(format!(
                    "a {workload} run has no `{name}`; compare reads `--trace 0` runs"
                ))
            })
            .collect::<Result<Vec<f64>, String>>()
    };
    let mut rows = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let (p, c) = (values(parent, &metric.name)?, values(change, &metric.name)?);
        let better = |from: f64, to: f64| metric.better.gain(from, to) > 0.0;
        let (pq, cq) = (quartiles(&p), quartiles(&c));
        let wins = p.iter().zip(&c).filter(|&(&a, &b)| better(a, b)).count();
        let spread = pq[2] - pq[0];
        let allowed = metric.bound * pq[1].abs();
        let gap = metric.better.gain(pq[1], cq[1]);
        let separated = p.iter().all(|&a| c.iter().all(|&b| better(a, b)));
        let verdict = if spread > allowed && !separated {
            Verdict::Unresolved
        } else if -gap > allowed {
            Verdict::Worse
        } else if p.len() >= 10 && 10 * wins >= 9 * p.len() && gap > spread {
            Verdict::Gain
        } else {
            Verdict::Same
        };
        rows.push(Row {
            metric: metric.clone(),
            parent: pq,
            change: cq,
            wins,
            verdict,
        });
    }
    Ok(Comparison {
        workload: workload.clone(),
        pairs: parent.len(),
        rows,
        parent_failures: Failures::of(parent),
        change_failures: Failures::of(change),
    })
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let quartiles = |q: &[f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
        writeln!(f, "workload {}: {} pairs", self.workload, self.pairs)?;
        writeln!(
            f,
            "  {:<18} {:<6} {:>38} {:>38} {:>7}  verdict",
            "metric", "better", "parent q1 / median / q3", "change q1 / median / q3", "wins"
        )?;
        for row in &self.rows {
            let better = match row.metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            writeln!(
                f,
                "  {:<18} {:<6} {:>38} {:>38} {:>7}  {}",
                row.metric.name,
                better,
                quartiles(&row.parent),
                quartiles(&row.change),
                format!("{}/{}", row.wins, self.pairs),
                row.verdict
            )?;
        }
        let (p, c) = (self.parent_failures, self.change_failures);
        writeln!(
            f,
            "  failed/attempted: parent {}/{}, change {}/{}",
            p.failed, p.attempted, c.failed, c.attempted
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{"end_to_end": [
        {"name": "host_ns_per_req", "unit": "ns", "better": "lower", "bound": 0.24},
        {"name": "sim_capacity_rpm", "unit": "req/min", "better": "higher", "bound": 0.15}
    ]}"#;

    /// Ten parent host times: quartiles 995.75 / 1000 / 1004.25, so the
    /// parent's spread is 8.5 ns, far inside the 24% bound.
    const HOST: [f64; 10] = [
        1000.0, 1010.0, 990.0, 1005.0, 995.0, 1020.0, 980.0, 1002.0, 998.0, 1000.0,
    ];

    fn run(workload: &str, host: f64, rpm: f64, failed: u64) -> Run {
        Run {
            workload: workload.into(),
            attempted: 1000,
            failed,
            metrics: vec![
                ("host_ns_per_req".into(), host),
                ("sim_capacity_rpm".into(), rpm),
            ],
        }
    }

    fn side(host: &[f64], rpm: f64) -> Vec<Run> {
        host.iter().map(|&h| run("w", h, rpm, 0)).collect()
    }

    fn verdicts(parent: &[Run], change: &[Run]) -> (Vec<Verdict>, bool) {
        let metrics = end_to_end(BENCHMARK).unwrap();
        let c = compare(&metrics, parent, change).unwrap();
        (c.rows.iter().map(|r| r.verdict).collect(), c.regressed())
    }

    fn shifted(by: impl Fn(f64) -> f64) -> Vec<f64> {
        HOST.iter().map(|&h| by(h)).collect()
    }

    #[test]
    fn quartiles_interpolate_between_closest_ranks() {
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
        assert_eq!(quartiles(&[2.0, 1.0]), [1.25, 1.5, 1.75]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.5, 2.0, 2.5]);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.75, 2.5, 3.25]);
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [2.0, 3.0, 4.0]);
        assert_eq!(quartiles(&HOST), [995.75, 1000.0, 1004.25]);
    }

    #[test]
    fn no_shift_is_the_same() {
        let parent = side(&HOST, 300.0);
        let c = compare(&end_to_end(BENCHMARK).unwrap(), &parent, &parent).unwrap();
        assert_eq!(c.rows[0].wins, 0, "ties count for neither side");
        assert_eq!(verdicts(&parent, &parent), (vec![Verdict::Same; 2], false));
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_spread() {
        let parent = side(&HOST, 300.0);
        let faster = side(&shifted(|h| h - 50.0), 300.0);
        assert_eq!(verdicts(&parent, &faster).0[0], Verdict::Gain);
        // Faster in eight pairs of ten: no gain, and no regression either.
        let mut eight = shifted(|h| h - 50.0);
        eight[0] += 100.0;
        eight[1] += 100.0;
        assert_eq!(verdicts(&parent, &side(&eight, 300.0)).0[0], Verdict::Same);
        // Faster in every pair, but by less than the parent's spread.
        let slight = side(&shifted(|h| h - 5.0), 300.0);
        assert_eq!(verdicts(&parent, &slight).0[0], Verdict::Same);
        // Nine pairs are too few, however large the gap.
        assert_eq!(verdicts(&parent[..9], &faster[..9]).0[0], Verdict::Same);
    }

    #[test]
    fn a_shift_beyond_the_bound_is_worse_and_regresses() {
        let parent = side(&HOST, 300.0);
        let within = side(&shifted(|h| h * 1.2), 300.0);
        assert_eq!(verdicts(&parent, &within), (vec![Verdict::Same; 2], false));
        let beyond = side(&shifted(|h| h * 1.3), 300.0);
        assert_eq!(
            verdicts(&parent, &beyond),
            (vec![Verdict::Worse, Verdict::Same], true)
        );
    }

    #[test]
    fn higher_is_better_where_the_benchmark_says_so() {
        let parent = side(&HOST, 300.0);
        let more = side(&HOST, 330.0);
        let c = compare(&end_to_end(BENCHMARK).unwrap(), &parent, &more).unwrap();
        assert_eq!((c.rows[1].wins, c.rows[1].verdict), (10, Verdict::Gain));
        let fewer = side(&HOST, 240.0);
        assert_eq!(
            verdicts(&parent, &fewer),
            (vec![Verdict::Same, Verdict::Worse], true)
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_runs_separate() {
        // Quartiles 825 / 1000 / 1175: a 35% spread against a 24% bound.
        let wide = [
            600.0, 1400.0, 700.0, 1300.0, 800.0, 1200.0, 900.0, 1100.0, 1000.0, 1000.0,
        ];
        let parent = side(&wide, 300.0);
        assert_eq!(verdicts(&parent, &parent).0[0], Verdict::Unresolved);
        let mut below = side(&wide, 300.0);
        below.iter_mut().for_each(|r| r.metrics[0].1 -= 50.0);
        assert_eq!(verdicts(&parent, &below).0[0], Verdict::Unresolved);
        let separated = side(&[500.0; 10], 300.0);
        assert_eq!(verdicts(&parent, &separated).0[0], Verdict::Gain);
    }

    #[test]
    fn a_larger_failed_share_regresses() {
        let parent = side(&HOST, 300.0);
        let mut change = parent.clone();
        change[3].failed = 1;
        assert_eq!(verdicts(&parent, &change), (vec![Verdict::Same; 2], true));
        assert!(
            !verdicts(&change, &change).1,
            "an equal share is no regression"
        );
        let c = compare(&end_to_end(BENCHMARK).unwrap(), &parent, &change).unwrap();
        assert!(c
            .to_string()
            .contains("failed/attempted: parent 0/10000, change 1/10000"));
    }

    #[test]
    fn runs_that_cannot_be_paired_are_refused() {
        let metrics = end_to_end(BENCHMARK).unwrap();
        let parent = side(&HOST, 300.0);
        assert!(compare(&metrics, &parent, &parent[..9]).is_err());
        assert!(compare(&metrics, &[], &[]).is_err());
        let mut mixed = parent.clone();
        mixed[4] = run("v", 1000.0, 300.0, 0);
        assert!(compare(&metrics, &parent, &mixed).is_err());
        let mut traced = parent.clone();
        traced[2].metrics = vec![("cluster.passes_per_req".into(), 2.0)];
        assert!(compare(&metrics, &parent, &traced).is_err());
    }

    #[test]
    fn runs_are_read_with_their_timings_and_incorrect_ones_refused() {
        let out = "fork probe:\nworkload paper_ladder seed 3:\n  host_ns_per_req 783.9 ns\n\
            {\"correct\": true, \"attempted\": 6528000, \"failed\": 2, \"metrics\": {\
            \"host_ns_per_req\": {\"value\": 783.9, \"unit\": \"ns\"}, \
            \"sim_capacity_rpm\": {\"value\": 421.875, \"unit\": \"req/min\"}}}\n";
        let run = Run::parse(out).unwrap();
        assert_eq!(run.workload, "paper_ladder");
        assert_eq!((run.attempted, run.failed), (6_528_000, 2));
        assert_eq!(run.metrics[0], ("host_ns_per_req".to_string(), 783.9));
        assert!(Run::parse(&out.replace("true", "false")).is_err());
        assert!(Run::parse(&out.replace("workload paper_ladder seed 3:", "")).is_err());
    }

    #[test]
    fn the_benchmark_declares_a_direction_and_bound_for_every_metric() {
        assert!(
            end_to_end(r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 0.1}]}"#).is_err()
        );
        assert!(end_to_end(r#"{"end_to_end": [{"name": "x", "better": "lower"}]}"#).is_err());
        assert!(end_to_end(r#"{"workloads": []}"#).is_err());
    }
}
