//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_ladder --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One invocation generates a workload's traces from `--seed`, simulates
//! them single-threaded in this process, checks the outputs, and prints a
//! table followed by one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` times untraced runs for `--seconds` and reports the
//!   end-to-end metrics: host cost (`host_ns_per_req`, `setup_s`,
//!   `peak_rss_mib`) and the simulated latency, cache, cost and SLO
//!   capacity (`sim_*`).
//! * `--trace 1` alternates untraced runs with two traced passes (see
//!   [`spans`]) for `--seconds` and reports the per-layer metrics, the
//!   tracing overhead, the mirroring ablation and the fork-cost probe.
//!
//! An operation is one simulated request. A request that never completes
//! is a failure; a run whose output checks fail counts every request as
//! failed.

mod spans;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;

use gfaas_sim::SimTime;
use spans::{Pass, Seam, Tally, ROOT};
use workload::{Mode, Outcome, Timing, Workload, MINUTES, SLO_P99_S};

/// Completed requests a report run needs so that p99 has at least 100
/// samples beyond it.
const MIN_REPORT_SAMPLES: u64 = 10_000;
/// Simulated minutes at which the fork-cost probe pauses the run.
const PROBE_EVERY_MIN: usize = 4;
/// `snapshot()` + `rollback()` pairs timed at each probe pause.
const PROBE_PAIRS: usize = 32;
/// Timed repetitions a run makes even when `--seconds` runs out first.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or(format!(
                    "unknown workload {value:?} (known: {})",
                    workload::NAMES.join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("bad --seconds")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Requests attempted and lost, and every failed output check, over the
/// whole invocation.
#[derive(Default)]
struct Audit {
    attempted: u64,
    lost: u64,
    failures: Vec<String>,
}

impl Audit {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Counts a run's requests and checks conservation, fork retirement,
    /// datastore coverage and metric sanity.
    fn note(&mut self, o: &Outcome) {
        let m = &o.metrics;
        self.attempted += o.requests as u64;
        self.lost += (o.requests as u64).saturating_sub(m.completed);
        self.check(m.completed == o.requests as u64, || {
            format!("completed {} of {} requests", m.completed, o.requests)
        });
        self.check(
            o.journal.snapshots == o.journal.rollbacks && o.journal.commits == 0,
            || format!("what-if forks not all retired: {:?}", o.journal),
        );
        if o.mirrored {
            self.check(o.ds_revision >= m.completed, || {
                format!(
                    "datastore revision {} < completed {}",
                    o.ds_revision, m.completed
                )
            });
        }
        self.check((0.0..=1.0).contains(&m.miss_ratio), || {
            format!("miss ratio {} outside [0, 1]", m.miss_ratio)
        });
        self.check(m.p50_latency_secs <= m.p99_latency_secs, || {
            format!("p50 {} > p99 {}", m.p50_latency_secs, m.p99_latency_secs)
        });
    }

    fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    fn failed(&self) -> u64 {
        if self.correct() {
            self.lost
        } else {
            self.attempted
        }
    }
}

/// One pass over a workload's timed cells: every timed rate × replica.
struct Sweep {
    outcomes: Vec<Outcome>,
    /// Host times of each cell, in cell order.
    cells: Vec<Timing>,
    /// Host times summed over the cells.
    timing: Timing,
    tally: Tally,
    requests: u64,
}

impl Sweep {
    fn run(w: &Workload, seed: u64, mode: Mode, audit: &mut Audit) -> Sweep {
        let mut sweep = Sweep {
            outcomes: Vec::new(),
            cells: Vec::new(),
            timing: Timing::default(),
            tally: Tally::default(),
            requests: 0,
        };
        for &rpm in w.timed_rates {
            for i in 0..w.replicas {
                let (o, t, tally) = w.run(w.shape, rpm, workload::replica_seed(seed, i), mode);
                audit.note(&o);
                sweep.requests += o.requests as u64;
                sweep.timing.gen_ns += t.gen_ns;
                sweep.timing.build_ns += t.build_ns;
                sweep.timing.run_ns += t.run_ns;
                sweep.cells.push(t);
                if let Some(tally) = tally {
                    sweep.tally.merge(&tally);
                }
                sweep.outcomes.push(o);
            }
        }
        sweep
    }

    fn fingerprints(&self) -> Vec<String> {
        self.outcomes.iter().map(Outcome::fingerprint).collect()
    }

    /// Host nanoseconds of `Cluster::run` per simulated request.
    fn run_ns_per_req(&self) -> f64 {
        self.timing.run_ns as f64 / self.requests as f64
    }

    fn sum(&self, f: impl Fn(&Outcome) -> u64) -> u64 {
        self.outcomes.iter().map(f).sum()
    }

    fn per_req(&self, f: impl Fn(&Outcome) -> u64) -> f64 {
        self.sum(f) as f64 / self.requests as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    ratio(sum, n as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A named metric with its unit and value.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Per-repetition samples of named metrics, reported as medians.
#[derive(Default)]
struct Samples(Vec<(&'static str, &'static str, Vec<f64>)>);

impl Samples {
    fn push(&mut self, name: &'static str, unit: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, v)) => v.push(value),
            None => self.0.push((name, unit, vec![value])),
        }
    }

    fn medians(&self) -> Vec<Metric> {
        self.0
            .iter()
            .map(|(name, unit, v)| metric(name, unit, median(v)))
            .collect()
    }
}

/// Repeats `body` until `seconds` have passed, and at least [`MIN_REPS`]
/// times.
fn repeat(seconds: f64, mut body: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        body();
        reps += 1;
    }
}

/// The outcomes at the report rate: one per replica.
fn report_cells<'a>(w: &Workload, outcomes: &'a [Outcome]) -> &'a [Outcome] {
    let at = w
        .timed_rates
        .iter()
        .position(|&r| r == w.report_rpm)
        .expect("report rate is timed");
    &outcomes[at * w.replicas..(at + 1) * w.replicas]
}

/// SLO capacity: per replica, the highest rate of the workload's capacity
/// ladder at which simulated p99 is at most [`SLO_P99_S`] (0 when no rate
/// meets it), averaged over replicas. Ladder runs the timed sweep
/// already made are reused.
fn capacity(w: &Workload, seed: u64, reference: &Sweep, audit: &mut Audit) -> f64 {
    let (shape, ladder) = w.capacity;
    let reuse = shape == w.shape && ladder == w.timed_rates;
    let per_replica = (0..w.replicas).map(|i| {
        let mut passed = 0;
        for (step, &rpm) in ladder.iter().enumerate() {
            let p99 = if reuse {
                reference.outcomes[step * w.replicas + i]
                    .metrics
                    .p99_latency_secs
            } else {
                let (o, _, _) = w.run(shape, rpm, workload::replica_seed(seed, i), Mode::Untraced);
                audit.note(&o);
                o.metrics.p99_latency_secs
            };
            if p99 <= SLO_P99_S {
                passed = rpm;
            }
        }
        passed as f64
    });
    mean(per_replica)
}

fn end_to_end(args: &Args, audit: &mut Audit) -> Vec<Metric> {
    let w = &args.workload;
    let reference = Sweep::run(w, args.seed, Mode::Untraced, audit);
    let expect = reference.fingerprints();
    // Per-cell samples: a cell's median over repetitions shrugs off a
    // burst of contention from other tenants that a whole-sweep sample
    // would absorb.
    let mut run_ns = vec![Vec::new(); reference.cells.len()];
    let mut setup_ns = vec![Vec::new(); reference.cells.len()];
    repeat(args.seconds, || {
        let s = Sweep::run(w, args.seed, Mode::Untraced, audit);
        audit.check(s.fingerprints() == expect, || {
            "simulated metrics differ between repetitions".into()
        });
        for (c, t) in s.cells.iter().enumerate() {
            run_ns[c].push(t.run_ns as f64);
            setup_ns[c].push((t.gen_ns + t.build_ns) as f64);
        }
    });
    let sum_of_medians = |v: &[Vec<f64>]| v.iter().map(|c| median(c)).sum::<f64>();
    let host_ns_per_req = sum_of_medians(&run_ns) / reference.requests as f64;
    let setup_s = sum_of_medians(&setup_ns) / 1e9;
    // The timed runs' peak, before the capacity ladder runs.
    let rss = peak_rss_mib();
    let capacity = capacity(w, args.seed, &reference, audit);

    let cells = report_cells(w, &reference.outcomes);
    for o in cells {
        audit.check(o.metrics.completed >= MIN_REPORT_SAMPLES, || {
            format!(
                "{} latency samples at the report rate, need {MIN_REPORT_SAMPLES}",
                o.metrics.completed
            )
        });
    }
    let sim = |f: fn(&Outcome) -> f64| mean(cells.iter().map(f));
    let samples_n: u64 = cells.iter().map(|o| o.metrics.completed).sum();
    println!(
        "report rate {} req/min: {} replicas x {} min, {} latency samples in all",
        w.report_rpm, w.replicas, MINUTES, samples_n
    );
    vec![
        metric("host_ns_per_req", "ns", host_ns_per_req),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mib", "MiB", rss),
        metric("sim_p50_s", "s", sim(|o| o.metrics.p50_latency_secs)),
        metric("sim_p99_s", "s", sim(|o| o.metrics.p99_latency_secs)),
        metric("sim_miss_ratio", "ratio", sim(|o| o.metrics.miss_ratio)),
        metric(
            "sim_gpu_s_per_req",
            "GPU-s",
            sim(|o| {
                ratio(
                    o.metrics.gpu_seconds_provisioned,
                    o.metrics.completed as f64,
                )
            }),
        ),
        metric("sim_capacity_rpm", "req/min", capacity),
    ]
}

/// The fork-cost probe: pauses one report-rate run every
/// [`PROBE_EVERY_MIN`] simulated minutes and times `snapshot()` +
/// `rollback()` pairs, then checks the probed run ends exactly as the
/// unprobed one did. Returns (median pair ns, largest checkpoint bytes).
fn fork_probe(w: &Workload, seed: u64, unprobed: &Outcome, audit: &mut Audit) -> (f64, f64) {
    let trace = workload::trace(
        w.shape,
        w.working_set,
        w.report_rpm,
        workload::replica_seed(seed, 0),
    );
    let mut built = w.stack.build(false, true);
    let mut pair_ns = Vec::new();
    let mut max_bytes = 0usize;
    let mut probe_forks = gfaas_core::snap::JournalStats::default();
    println!("fork probe ({} pairs per pause):", PROBE_PAIRS);
    for minute in (PROBE_EVERY_MIN..MINUTES).step_by(PROBE_EVERY_MIN) {
        let c = &mut built.cluster;
        c.run_until(&trace, SimTime::from_secs(60 * minute as u64));
        let before = c.journal_stats();
        let bytes = c.checkpoint(&trace).len();
        let mut pairs = Vec::with_capacity(PROBE_PAIRS);
        for _ in 0..PROBE_PAIRS {
            let t = Instant::now();
            let id = c.snapshot();
            let restored = c.rollback(id);
            pairs.push(t.elapsed().as_nanos() as f64);
            audit.check(restored && c.commit(id), || {
                "probe fork did not restore".into()
            });
        }
        let after = c.journal_stats();
        probe_forks.snapshots += after.snapshots - before.snapshots;
        probe_forks.rollbacks += after.rollbacks - before.rollbacks;
        probe_forks.commits += after.commits - before.commits;
        println!(
            "  minute {minute:>2}: checkpoint {bytes:>8} bytes, snapshot+rollback {:>9.0} ns",
            median(&pairs)
        );
        max_bytes = max_bytes.max(bytes);
        pair_ns.extend(pairs);
    }
    let metrics = built.cluster.resume(&trace);
    let mut probed = Outcome::read(&built, trace.len(), metrics);
    probed.journal.snapshots -= probe_forks.snapshots;
    probed.journal.rollbacks -= probe_forks.rollbacks;
    probed.journal.commits -= probe_forks.commits;
    audit.note(&probed);
    audit.check(probed.fingerprint() == unprobed.fingerprint(), || {
        "the probed run ended differently from the unprobed run".into()
    });
    (median(&pair_ns), max_bytes as f64)
}

fn per_layer(args: &Args, audit: &mut Audit) -> Vec<Metric> {
    let w = &args.workload;
    let reference = Sweep::run(w, args.seed, Mode::Untraced, audit);
    let expect = reference.fingerprints();
    let mut samples = Samples::default();
    let mut counts = None;
    repeat(args.seconds, || {
        let plain = Sweep::run(w, args.seed, Mode::Untraced, audit);
        let coarse = Sweep::run(w, args.seed, Mode::Traced(Pass::Coarse), audit);
        let fine = Sweep::run(w, args.seed, Mode::Traced(Pass::Fine), audit);
        for s in [&plain, &coarse, &fine] {
            audit.check(s.fingerprints() == expect, || {
                "traced and untraced runs simulated different results".into()
            });
        }
        let req = plain.requests as f64;
        let (c, f) = (&coarse.tally, &fine.tally);
        // Evictor and recorder time the fine pass found under a seam that
        // the coarse pass timed; it is not that seam's own time.
        let fine_under = |p: usize| -> f64 {
            [Seam::Evict, Seam::Record]
                .iter()
                .map(|&s| f.under_ns[s as usize][p] as f64)
                .sum()
        };
        let coarse_self = |s: Seam| (c.self_ns[s as usize] as f64 - fine_under(s as usize)) / req;
        let untraced = plain.run_ns_per_req();
        samples.push("bench.untraced_ns_per_req", "ns", untraced);
        samples.push(
            "bench.coarse_overhead_ns_per_req",
            "ns",
            coarse.run_ns_per_req() - untraced,
        );
        samples.push(
            "bench.fine_overhead_ns_per_req",
            "ns",
            fine.run_ns_per_req() - untraced,
        );
        samples.push(
            "workload.gen_ns_per_req",
            "ns",
            plain.timing.gen_ns as f64 / req,
        );
        samples.push(
            "sched.on_gpu_idle_self_ns_per_req",
            "ns",
            coarse_self(Seam::Idle),
        );
        samples.push(
            "sched.idle_order_ns_per_req",
            "ns",
            coarse_self(Seam::Order),
        );
        samples.push(
            "sched.host_share",
            "ratio",
            ratio(
                c.total_ns[Seam::Idle as usize] as f64,
                coarse.timing.run_ns as f64,
            ),
        );
        samples.push(
            "cluster.self_ns_per_req",
            "ns",
            (coarse.timing.run_ns as f64 - c.top_ns as f64 - fine_under(ROOT)) / req,
        );
        samples.push(
            "cache.evictor_ns_per_req",
            "ns",
            f.self_ns[Seam::Evict as usize] as f64 / req,
        );
        samples.push("batch.plan_ns_per_req", "ns", coarse_self(Seam::Plan));
        samples.push("autoscale.step_ns_per_req", "ns", coarse_self(Seam::Scale));
        samples.push(
            "obs.record_ns_per_req",
            "ns",
            f.self_ns[Seam::Record as usize] as f64 / req,
        );
        if w.stack.mirror {
            let bare = Sweep::run(w, args.seed, Mode::NoMirror, audit);
            let metrics = |s: &Sweep| -> Vec<String> {
                s.outcomes
                    .iter()
                    .map(|o| format!("{:?}", o.metrics))
                    .collect()
            };
            audit.check(metrics(&bare) == metrics(&plain), || {
                "detaching datastore mirroring changed the simulated results".into()
            });
            samples.push(
                "faas.mirror_ns_per_req",
                "ns",
                untraced - bare.run_ns_per_req(),
            );
        } else {
            samples.push("faas.mirror_ns_per_req", "ns", 0.0);
        }
        counts.get_or_insert_with(|| (coarse.tally.clone(), fine.tally.clone()));
    });
    let (c, f) = counts.expect("at least one traced repetition");
    let s = &reference;
    let req = s.requests as f64;
    let calls = |t: &Tally, seam: Seam| t.calls[seam as usize] as f64;
    let store_loads = s.sum(|o| o.store.host_hits + o.store.prefetch_joins + o.store.origin_loads);
    let unprobed = &report_cells(w, &s.outcomes)[0];
    let (fork_ns, checkpoint_bytes) = fork_probe(w, args.seed, unprobed, audit);

    let mut metrics = samples.medians();
    metrics.extend([
        metric(
            "sched.on_gpu_idle_per_req",
            "1/req",
            calls(&c, Seam::Idle) / req,
        ),
        metric(
            "sched.placed_ratio",
            "ratio",
            ratio(c.placed as f64, calls(&c, Seam::Idle)),
        ),
        metric(
            "cluster.passes_per_req",
            "1/req",
            s.per_req(|o| o.profile.schedule_passes),
        ),
        metric(
            "cluster.pass_rounds_per_req",
            "1/req",
            s.per_req(|o| o.profile.pass_rounds),
        ),
        metric(
            "cluster.estimator_calls_per_req",
            "1/req",
            s.per_req(|o| o.profile.estimator_calls),
        ),
        metric(
            "sim.events_per_req",
            "1/req",
            s.per_req(|o| o.profile.events_popped),
        ),
        metric(
            "sim.heap_peak",
            "count",
            s.outcomes
                .iter()
                .map(|o| o.profile.heap_peak)
                .max()
                .unwrap_or(0) as f64,
        ),
        metric(
            "cache.evictor_calls_per_req",
            "1/req",
            calls(&f, Seam::Evict) / req,
        ),
        metric(
            "cache.evictions_per_req",
            "1/req",
            s.per_req(|o| o.evictions),
        ),
        metric(
            "batch.holds_per_req",
            "1/req",
            s.per_req(|o| o.profile.holds_parked),
        ),
        metric(
            "batch.avg_effective_batch",
            "req",
            ratio(
                s.sum(|o| o.metrics.completed) as f64,
                s.sum(|o| o.metrics.invocations) as f64,
            ),
        ),
        metric(
            "autoscale.scale_events",
            "count",
            s.sum(|o| o.metrics.scale_up_events + o.metrics.scale_down_events) as f64
                / s.outcomes.len() as f64,
        ),
        metric(
            "store.host_hit_ratio",
            "ratio",
            ratio(s.sum(|o| o.store.host_hits) as f64, store_loads as f64),
        ),
        metric(
            "store.origin_loads_per_req",
            "1/req",
            s.per_req(|o| o.store.origin_loads),
        ),
        metric(
            "store.prefetches_per_req",
            "1/req",
            s.per_req(|o| o.store.prefetches),
        ),
        metric("obs.events_per_req", "1/req", calls(&f, Seam::Record) / req),
        metric(
            "faas.datastore_puts_per_req",
            "1/req",
            s.per_req(|o| o.ds_revision),
        ),
        metric(
            "snap.forks_per_req",
            "1/req",
            s.per_req(|o| o.journal.snapshots),
        ),
        metric("snap.fork_ns", "ns", fork_ns),
        metric("snap.checkpoint_bytes", "bytes", checkpoint_bytes),
    ]);
    metrics
}

fn json(audit: &Audit, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        audit.correct(),
        audit.attempted,
        audit.failed()
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            workload::NAMES.join("|")
        );
        std::process::exit(2);
    });
    let mut audit = Audit::default();
    let metrics = if args.trace {
        per_layer(&args, &mut audit)
    } else {
        end_to_end(&args, &mut audit)
    };
    for m in &metrics {
        audit.check(m.value.is_finite(), || format!("{} is not finite", m.name));
    }
    println!("workload {} seed {}:", args.workload.name, args.seed);
    for m in &metrics {
        println!("  {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &audit.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", json(&audit, &metrics));
}
