//! `gfaas-bench` — the experiment harness.
//!
//! One report binary per table/figure of the paper (README, "Reproducing
//! the paper's figures"):
//!
//! | target | regenerates |
//! |---|---|
//! | `table1_profiles` | Table I (model occupancy / load / inference) |
//! | `fig4_comparison` | Fig 4a/4b/4c (latency, miss ratio, SM util) |
//! | `fig5_false_miss` | Fig 5 (false-miss ratio) |
//! | `fig6_duplicates` | Fig 6 (hot-model duplicates) |
//! | `fig7_o3_sensitivity` | Fig 7 (O3 limit sweep) |
//! | `ablation_replacement` | §VI replacement-policy discussion |
//! | `ablation_estimation` | finish-time-estimation ablation |
//! | `scenarios` | policy × scenario matrix over the `gfaas-workload` registry |
//!
//! Criterion benches (`cargo bench`) measure the *implementation's* costs:
//! scheduler decision throughput, cache-manager ops, the tensor kernels,
//! and full-experiment wall time.
//!
//! This library holds the shared experiment-running and table-formatting
//! code those binaries use. Every run is named by its `ClusterConfig`
//! and goes through [`run`]; every seed average goes through [`sweep`],
//! which runs one config on a trace per seed. Policies are named by
//! `gfaas-core` policy specs (`"lalbo3:25"`, `"tinylfu:0.9"`), so
//! anything in the [`PolicyRegistry`] — including evictors beyond the
//! paper's LRU — can be swept without touching this crate. [`cli`] is
//! the flag reader the report binaries share. [`counters`] holds the
//! benchmark's counter gate and [`compare`] its paired comparison of two
//! commits (both run by `bench_counters`).

pub mod cli;
pub mod compare;
pub mod counters;

use gfaas_core::{Cluster, ClusterConfig, PolicyRegistry, PolicySpec, RunMetrics};
use gfaas_models::ModelRegistry;
use gfaas_trace::{AzureFunctionsDataset, AzureTraceConfig, Trace, TraceStats};
use gfaas_workload::scenario::NUM_MODELS;
use gfaas_workload::{registry, Scale, Scenario};

/// The working-set sizes the paper sweeps in Figs 4–6.
pub const WORKING_SETS: [usize; 3] = [15, 25, 35];

/// The three schedulers Figs 4–6 compare, as policy specs (also the
/// suite's default policy axis).
pub fn paper_policies() -> Vec<PolicySpec> {
    ["lb", "lalb", "lalbo3"].map(PolicySpec::bare).to_vec()
}

/// The report name of the scheduler `policy` names (`LB`, `LALB`,
/// `LALBO3`, `LALBO3(limit=N)`, …), from its builtin
/// [`SchedulerPolicy::name`](gfaas_core::SchedulerPolicy::name).
///
/// # Panics
/// If no builtin scheduler resolves `policy`.
pub fn policy_name(policy: &PolicySpec) -> String {
    PolicyRegistry::builtin()
        .scheduler_name(policy)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Generates the paper's workload for a working-set size and seed.
pub fn paper_trace(working_set: usize, seed: u64) -> Trace {
    AzureTraceConfig::paper(working_set, seed).generate()
}

/// Runs `cfg` over `trace` on the Table I model registry: the one way
/// the harness names a run. Returns the metrics and the finished
/// cluster, off which callers read whatever else the run produced
/// ([`Cluster::self_profile`], [`Cluster::ledger`],
/// [`Cluster::perfetto_json`], [`Cluster::time_series`],
/// [`Cluster::store_stats`], [`Cluster::journal_stats`]).
///
/// # Panics
/// If `cfg` does not validate or a spec does not resolve in the builtin
/// registry (the binaries validate specs before building a config).
pub fn run(cfg: ClusterConfig, trace: &Trace) -> (RunMetrics, Cluster) {
    let mut cluster = Cluster::new(cfg, ModelRegistry::table1());
    let metrics = cluster.run(trace);
    (metrics, cluster)
}

/// Runs `cfg` on each of `traces` (one per seed) through [`run`], the one
/// way the harness averages over seeds. Returns the seed-averaged metrics
/// and the finished clusters in trace order.
///
/// # Panics
/// As [`run`].
pub fn sweep(cfg: &ClusterConfig, traces: &[Trace]) -> (AveragedMetrics, Vec<Cluster>) {
    let (runs, clusters): (Vec<RunMetrics>, Vec<Cluster>) =
        traces.iter().map(|t| run(cfg.clone(), t)).unzip();
    (AveragedMetrics::from_runs(&runs), clusters)
}

/// Seed set used by the report binaries.
pub const REPORT_SEEDS: [u64; 3] = [11, 23, 47];

/// Metrics averaged over several trace realisations.
#[derive(Debug, Clone, PartialEq)]
pub struct AveragedMetrics {
    /// Mean of per-run average latencies (seconds).
    pub avg_latency_secs: f64,
    /// Mean of per-run median latencies (seconds).
    pub p50_latency_secs: f64,
    /// Mean of per-run 95th-percentile latencies (seconds).
    pub p95_latency_secs: f64,
    /// Mean of per-run 99th-percentile latencies (seconds).
    pub p99_latency_secs: f64,
    /// Mean of per-run latency variances.
    pub latency_variance: f64,
    /// Mean miss ratio.
    pub miss_ratio: f64,
    /// Mean false-miss ratio.
    pub false_miss_ratio: f64,
    /// Mean SM utilisation.
    pub sm_utilization: f64,
    /// Mean hot-model duplicates.
    pub avg_duplicates: f64,
    /// Mean makespan (seconds).
    pub makespan_secs: f64,
    /// Mean provisioned GPU-seconds (the autoscaling cost axis; equals
    /// `12 × makespan` for fixed paper-testbed runs).
    pub gpu_seconds_provisioned: f64,
    /// Mean GPUs brought online per run (0 without autoscaling).
    pub scale_up_events: f64,
    /// Mean GPUs drained per run (0 without autoscaling).
    pub scale_down_events: f64,
    /// Mean requests completed per run.
    pub completed: f64,
    /// Mean integrated GPU busy time (uploads + inference), GPU-seconds.
    pub gpu_busy_seconds: f64,
    /// Mean effective batch (coalesced requests per GPU invocation; 1.0
    /// under per-request dispatch).
    pub avg_effective_batch: f64,
    /// Mean requests served by multi-request invocations (0 under
    /// per-request dispatch).
    pub batched_requests: f64,
    /// Number of runs averaged.
    pub runs: usize,
}

impl AveragedMetrics {
    /// Averages a set of runs.
    pub fn from_runs(runs: &[RunMetrics]) -> Self {
        let n = runs.len().max(1) as f64;
        let sum = |f: fn(&RunMetrics) -> f64| runs.iter().map(f).sum::<f64>() / n;
        AveragedMetrics {
            avg_latency_secs: sum(|r| r.avg_latency_secs),
            p50_latency_secs: sum(|r| r.p50_latency_secs),
            p95_latency_secs: sum(|r| r.p95_latency_secs),
            p99_latency_secs: sum(|r| r.p99_latency_secs),
            latency_variance: sum(|r| r.latency_variance),
            miss_ratio: sum(|r| r.miss_ratio),
            false_miss_ratio: sum(|r| r.false_miss_ratio),
            sm_utilization: sum(|r| r.sm_utilization),
            avg_duplicates: sum(|r| r.avg_duplicates),
            makespan_secs: sum(|r| r.makespan_secs),
            gpu_seconds_provisioned: sum(|r| r.gpu_seconds_provisioned),
            scale_up_events: sum(|r| r.scale_up_events as f64),
            scale_down_events: sum(|r| r.scale_down_events as f64),
            completed: sum(|r| r.completed as f64),
            gpu_busy_seconds: sum(|r| r.gpu_busy_seconds),
            avg_effective_batch: sum(|r| r.avg_effective_batch),
            batched_requests: sum(|r| r.batched_requests as f64),
            runs: runs.len(),
        }
    }

    /// Completed requests per provisioned GPU-second (for a fixed fleet
    /// the denominator is `num_gpus × makespan`).
    pub fn requests_per_gpu_second(&self) -> f64 {
        if self.gpu_seconds_provisioned <= 0.0 {
            0.0
        } else {
            self.completed / self.gpu_seconds_provisioned
        }
    }

    /// Completed requests per *busy* GPU-second — service throughput over
    /// the GPU time actually consumed (uploads + inference), the
    /// hardware-cost metric the batching study optimises: coalescing
    /// amortises per-invocation overhead and shares uploads, so each
    /// completed request costs fewer busy seconds.
    pub fn requests_per_busy_gpu_second(&self) -> f64 {
        if self.gpu_busy_seconds <= 0.0 {
            0.0
        } else {
            self.completed / self.gpu_busy_seconds
        }
    }
}

/// A policy × scenario sweep: every registered scenario's trace is
/// generated once per seed, every policy runs on the identical traces,
/// and each cell reports seed-averaged metrics. The whole sweep is a pure
/// function of (scale, policies, config, seeds).
#[derive(Debug, Clone)]
pub struct ScenarioSuite {
    /// Workload volume (paper / production / smoke).
    pub scale: Scale,
    /// Scenarios to sweep (defaults to the full registry).
    pub scenarios: Vec<Scenario>,
    /// Scheduler specs to compare (defaults to the paper's three).
    pub policies: Vec<PolicySpec>,
    /// The cluster every cell runs: each cell clones it and sets only
    /// `policy` (the template's own `policy` is never run). Defaults to
    /// the paper testbed; set `replacement`, `batching`, `autoscale` or
    /// `store` on it to sweep another configuration.
    pub config: ClusterConfig,
    /// A real Azure Functions per-minute dataset: when set, the sweep
    /// registers an extra `azure_real` scenario replaying the dataset's
    /// top `scale.working_set` functions verbatim (the `scenarios` CLI
    /// loads one with `--azure-data <csv>`). Replay is deterministic per
    /// seed, so the seed axis still averages placement noise.
    pub azure_real: Option<AzureFunctionsDataset>,
    /// Trace realisations to average over.
    pub seeds: Vec<u64>,
    /// Worker threads for the policy × scenario cells (the `--threads N`
    /// CLI axis). Cells are pure functions of their inputs and are
    /// written into pre-indexed slots, so the report is byte-identical
    /// for every thread count; `1` (the default) runs in place without
    /// spawning.
    pub threads: usize,
}

/// One cell of the policy × scenario matrix.
#[derive(Debug, Clone)]
pub struct SuiteCell {
    /// Scenario registry name.
    pub scenario: &'static str,
    /// The scheduler spec this cell ran.
    pub policy: PolicySpec,
    /// The scheduler's display name (`LB` / `LALB` / `LALBO3` / …).
    pub policy_name: String,
    /// Seed-averaged metrics.
    pub metrics: AveragedMetrics,
}

/// The output of one suite sweep: per-scenario workload shapes plus the
/// full policy × scenario matrix.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// Workload shape of each scenario's first-seed realisation, in
    /// registry order.
    pub scenario_stats: Vec<(&'static str, TraceStats)>,
    /// Matrix cells, scenario-major in registry order, policies in the
    /// order configured.
    pub cells: Vec<SuiteCell>,
}

impl ScenarioSuite {
    /// The full registry × paper policies at the given scale and seeds.
    pub fn new(scale: Scale, seeds: Vec<u64>) -> Self {
        ScenarioSuite {
            scale,
            scenarios: registry(),
            policies: paper_policies(),
            config: ClusterConfig::default(),
            azure_real: None,
            seeds,
            threads: 1,
        }
    }

    /// The default suite: paper scale, the report binaries' seed set — the
    /// configuration whose `paper` rows match `fig4_comparison` (WS 25).
    pub fn paper_default() -> Self {
        ScenarioSuite::new(Scale::paper(), REPORT_SEEDS.to_vec())
    }

    /// CI configuration: one seed, the shortest horizon.
    pub fn smoke() -> Self {
        ScenarioSuite::new(Scale::smoke(), vec![REPORT_SEEDS[0]])
    }

    /// True iff this suite is `paper_default()` unmodified — the
    /// configuration whose `paper` rows are byte-identical to
    /// `fig4_comparison`'s WS 25 numbers.
    pub fn is_paper_default(&self) -> bool {
        self.scale == Scale::paper()
            && self.seeds == REPORT_SEEDS
            && self.policies == paper_policies()
            && self.config == ClusterConfig::paper_testbed(self.config.policy.clone())
            && self.azure_real.is_none()
            && self.scenarios.len() == registry().len()
    }

    /// Runs the sweep. Each scenario's traces are generated once per seed
    /// and shared by every policy cell and the report's shape table, so
    /// all cells of a row see identical workloads.
    ///
    /// # Panics
    /// If a policy or template spec does not resolve in the builtin
    /// registry (the binaries validate specs before building a suite).
    pub fn run(&self) -> SuiteReport {
        let policy_names: Vec<String> = {
            let reg = gfaas_core::PolicyRegistry::builtin();
            self.policies
                .iter()
                .map(|p| {
                    reg.scheduler_name(p)
                        .unwrap_or_else(|e| panic!("bad policy spec {p}: {e}"))
                })
                .collect()
        };
        // Registry scenarios first, then — when a dataset is supplied —
        // the `azure_real` replay row on the same policy axis.
        let mut rows: Vec<(&'static str, Vec<Trace>, f64)> = self
            .scenarios
            .iter()
            .map(|sc| {
                let traces: Vec<Trace> = self
                    .seeds
                    .iter()
                    .map(|&s| sc.trace(&self.scale, s))
                    .collect();
                (sc.name, traces, self.scale.horizon_secs())
            })
            .collect();
        if let Some(ds) = &self.azure_real {
            let traces: Vec<Trace> = self
                .seeds
                .iter()
                .map(|&s| ds.trace(self.scale.working_set, NUM_MODELS, s))
                .collect();
            rows.push(("azure_real", traces, ds.horizon_secs()));
        }
        let mut scenario_stats = Vec::with_capacity(rows.len());
        for (name, traces, horizon) in &rows {
            if let Some(first) = traces.first() {
                // Horizon-aware: the registry knows each scenario's
                // intended horizon, so trailing idle minutes (e.g. a
                // diurnal trough ending the trace) count toward burstiness
                // instead of being silently dropped.
                scenario_stats.push((*name, first.stats_with_horizon(*horizon)));
            }
        }
        // Every cell is a pure function of (row, policy); compute them
        // scenario-major into pre-indexed slots so the report is
        // byte-identical no matter how many workers ran.
        let jobs: Vec<(usize, usize)> = (0..rows.len())
            .flat_map(|r| (0..self.policies.len()).map(move |p| (r, p)))
            .collect();
        let compute = |&(r, p): &(usize, usize)| -> SuiteCell {
            let (name, traces, _) = &rows[r];
            let policy = &self.policies[p];
            let cfg = ClusterConfig {
                policy: policy.clone(),
                ..self.config.clone()
            };
            SuiteCell {
                scenario: name,
                policy: policy.clone(),
                policy_name: policy_names[p].clone(),
                metrics: sweep(&cfg, traces).0,
            }
        };
        let workers = self.threads.max(1).min(jobs.len().max(1));
        let cells: Vec<SuiteCell> = if workers <= 1 {
            jobs.iter().map(compute).collect()
        } else {
            let mut slots: Vec<Option<SuiteCell>> = vec![None; jobs.len()];
            let compute = &compute;
            let jobs = &jobs;
            let done: Vec<Vec<(usize, SuiteCell)>> = crossbeam::scope(|s| {
                let handles: Vec<_> = (0..workers)
                    .map(|w| {
                        s.spawn(move |_| {
                            jobs.iter()
                                .enumerate()
                                .skip(w)
                                .step_by(workers)
                                .map(|(j, job)| (j, compute(job)))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("suite worker panicked"))
                    .collect()
            })
            .expect("suite worker panicked");
            for (j, cell) in done.into_iter().flatten() {
                slots[j] = Some(cell);
            }
            slots
                .into_iter()
                .map(|c| c.expect("every cell computed exactly once"))
                .collect()
        };
        SuiteReport {
            scenario_stats,
            cells,
        }
    }
}

/// Which [`gfaas_core::PolicyRegistry`] namespace a CLI spec names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// A scheduler spec (`lb`, `lalbo3:25`, …).
    Scheduler,
    /// An evictor spec (`lru`, `tinylfu:0.9`, …).
    Evictor,
    /// A request-batching spec (`none`, `coalesce:max=8,wait=0.05`, …).
    Batcher,
}

/// Parses a CLI-facing policy spec and validates it against the builtin
/// registry, returning a ready-to-print error message (including the
/// known keys) on failure. Shared by the report binaries so spec
/// grammar and diagnostics stay in one place.
pub fn parse_cli_spec(s: &str, kind: SpecKind) -> Result<PolicySpec, String> {
    let reg = gfaas_core::PolicyRegistry::builtin();
    let spec = PolicySpec::parse(s).map_err(|e| e.to_string())?;
    let (built, known) = match kind {
        SpecKind::Scheduler => (reg.scheduler(&spec).map(drop), reg.scheduler_keys()),
        SpecKind::Evictor => (reg.evictor(&spec, 0).map(drop), reg.evictor_keys()),
        SpecKind::Batcher => (reg.batcher(&spec).map(drop), reg.batcher_keys()),
    };
    built.map_err(|e| format!("{e} (known: {known:?})"))?;
    Ok(spec)
}

/// Relative reduction `(base - ours) / base`, formatted as the paper
/// quotes it ("reduces X by NN%").
pub fn reduction_pct(base: f64, ours: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        (base - ours) / base * 100.0
    }
}

/// Fixed-width table printer for the report binaries.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// A printer with the given column widths.
    pub fn new(widths: &[usize]) -> Self {
        TablePrinter {
            widths: widths.to_vec(),
        }
    }

    /// Formats one row.
    pub fn row(&self, cells: &[String]) -> String {
        cells
            .iter()
            .zip(&self.widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    }

    /// Formats a header row plus separator.
    pub fn header(&self, cells: &[&str]) -> String {
        let head = self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
        let sep = "-".repeat(head.len());
        format!("{head}\n{sep}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_core::AutoscaleSpec;

    #[test]
    fn reduction_pct_matches_paper_convention() {
        assert!((reduction_pct(10.0, 2.0) - 80.0).abs() < 1e-9);
        assert_eq!(reduction_pct(0.0, 1.0), 0.0);
    }

    #[test]
    fn averaged_metrics_mean_runs() {
        let cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        let trace = paper_trace(15, 1);
        let a = run(cfg.clone(), &trace).0;
        let avg = sweep(&cfg, &[trace.clone(), trace]).0;
        assert_eq!(avg.runs, 2);
        assert!((avg.avg_latency_secs - a.avg_latency_secs).abs() < 1e-12);
    }

    #[test]
    fn sweep_returns_clusters_in_trace_order() {
        let cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        let traces = [paper_trace(15, 1), paper_trace(35, 2)];
        let (avg, clusters) = sweep(&cfg, &traces);
        let direct: Vec<(RunMetrics, Cluster)> =
            traces.iter().map(|t| run(cfg.clone(), t)).collect();
        let counters = |c: &Cluster| (c.store_stats(), c.evictions(), c.local_moves());
        assert_ne!(counters(&direct[0].1), counters(&direct[1].1));
        assert_eq!(clusters.len(), 2);
        for (swept, (_, ran)) in clusters.iter().zip(&direct) {
            assert_eq!(counters(swept), counters(ran));
        }
        let runs: Vec<RunMetrics> = direct.into_iter().map(|(m, _)| m).collect();
        assert_ne!(runs[0], runs[1]);
        assert_eq!(avg, AveragedMetrics::from_runs(&runs));
    }

    #[test]
    fn suite_paper_rows_match_fig4_pipeline() {
        // The acceptance bar for the scenario runner: its `paper` cells
        // must reproduce the numbers the existing fig4 pipeline prints
        // for WS 25 — same traces, same cluster, bit-equal metrics.
        let mut suite = ScenarioSuite::paper_default();
        suite.scenarios.retain(|s| s.name == "paper");
        suite.policies = vec![PolicySpec::bare("lalb")];
        let report = suite.run();
        assert_eq!(report.cells.len(), 1);
        assert_eq!(report.cells[0].policy_name, "LALB");
        let cfg = ClusterConfig::paper_testbed(PolicySpec::bare("lalb"));
        let via_fig4 = sweep(&cfg, &REPORT_SEEDS.map(|s| paper_trace(25, s))).0;
        assert_eq!(report.cells[0].metrics, via_fig4);
    }

    #[test]
    fn smoke_suite_is_deterministic_and_full() {
        let suite = ScenarioSuite::smoke();
        let a = suite.run();
        let b = suite.run();
        assert_eq!(a.cells.len(), 6 * 3, "6 scenarios x 3 policies");
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.metrics, y.metrics);
            assert!(x.metrics.avg_latency_secs > 0.0, "{}", x.scenario);
        }
        assert_eq!(a.scenario_stats.len(), 6);
        // The shape table reports the same trace the cells ran.
        assert!(a
            .scenario_stats
            .iter()
            .all(|(_, s)| s.total > 0 && s.minute_cv >= 0.0));
    }

    #[test]
    fn parallel_sweep_matches_single_thread_exactly() {
        // The crossbeam fan-out must be invisible in the output: cells
        // are compared field-for-field (bit-equal metrics), not
        // approximately. Together with the debug_assert inside
        // `Cluster::estimated_wait_fast` (the incremental aggregate vs
        // the naive `GpuUnit::estimated_wait_for` walk, checked on every
        // query in debug builds), this pins two invariants — worker
        // count never changes a byte, and the indexed state never drifts
        // from the ground truth.
        let single = ScenarioSuite::smoke();
        let mut multi = ScenarioSuite::smoke();
        multi.threads = 4;
        let a = single.run();
        let b = multi.run();
        assert_eq!(a.scenario_stats, b.scenario_stats);
        assert_eq!(a.cells.len(), b.cells.len());
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.scenario, y.scenario);
            assert_eq!(x.policy, y.policy);
            assert_eq!(x.policy_name, y.policy_name);
            assert_eq!(x.metrics, y.metrics, "{}/{}", x.scenario, x.policy_name);
        }
    }

    #[test]
    fn paper_default_detection() {
        assert!(ScenarioSuite::paper_default().is_paper_default());
        let mut s = ScenarioSuite::paper_default();
        s.config.replacement = PolicySpec::bare("tinylfu");
        assert!(!s.is_paper_default());
        let mut s = ScenarioSuite::paper_default();
        s.config.autoscale = Some(AutoscaleSpec::default());
        assert!(!s.is_paper_default());
        let mut s = ScenarioSuite::paper_default();
        s.policies = vec![PolicySpec::bare("lalbo3")];
        assert!(!s.is_paper_default());
        let mut s = ScenarioSuite::paper_default();
        s.config.store = "tiered:host=8G".parse().unwrap();
        assert!(!s.is_paper_default());
        assert!(!ScenarioSuite::smoke().is_paper_default());
    }

    #[test]
    fn suite_template_reaches_its_cells() {
        // Each non-default template field must reach the cell's cluster:
        // the cell equals a direct `run` of the same config.
        let tweaks: [fn(&mut ClusterConfig); 4] = [
            |c| c.replacement = PolicySpec::bare("tinylfu"),
            |c| c.batching = PolicySpec::bare("coalesce"),
            |c| c.store = "tiered:host=8G".parse().unwrap(),
            |c| c.autoscale = Some("queue:min=2,max=8,up=6,down=1,cadence=2".parse().unwrap()),
        ];
        let lalbo3 = || ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"));
        for tweak in tweaks {
            let mut suite = ScenarioSuite::smoke();
            suite.scenarios.retain(|s| s.name == "burst");
            suite.policies = vec![PolicySpec::bare("lalbo3")];
            tweak(&mut suite.config);
            let trace = suite.scenarios[0].trace(&suite.scale, suite.seeds[0]);
            let mut cfg = lalbo3();
            tweak(&mut cfg);
            let direct = AveragedMetrics::from_runs(&[run(cfg, &trace).0]);
            assert_eq!(suite.run().cells[0].metrics, direct, "{:?}", suite.config);
            let untweaked = AveragedMetrics::from_runs(&[run(lalbo3(), &trace).0]);
            assert_ne!(direct, untweaked, "no-op tweak: {:?}", suite.config);
        }
    }

    #[test]
    fn cli_spec_errors_list_the_known_keys() {
        let cases = [
            (SpecKind::Scheduler, "LB", "malformed policy spec \"LB\""),
            (
                SpecKind::Scheduler,
                "belady",
                "unknown scheduler policy \"belady\" (known: [\"lalb\", \"lalbo3\", \"lb\", \"lookahead\"])",
            ),
            (
                SpecKind::Scheduler,
                "lalbo3:x",
                "bad argument \"x\" for policy \"lalbo3\": expected a starvation limit (u32) \
                 (known: [\"lalb\", \"lalbo3\", \"lb\", \"lookahead\"])",
            ),
            (
                SpecKind::Evictor,
                "belady",
                "unknown replacement policy \"belady\" (known: [\"fifo\", \"lru\", \"random\", \"tinylfu\"])",
            ),
            (
                SpecKind::Batcher,
                "batchy",
                "unknown batching policy \"batchy\" (known: [\"adaptive\", \"coalesce\", \"none\"])",
            ),
        ];
        for (kind, s, want) in cases {
            assert_eq!(parse_cli_spec(s, kind).unwrap_err(), want, "{s:?}");
        }
    }

    #[test]
    fn autoscaled_suite_is_deterministic_and_reports_scale_activity() {
        let mut suite = ScenarioSuite::smoke();
        suite.scenarios.retain(|s| s.name == "diurnal");
        suite.policies = vec![PolicySpec::bare("lalbo3")];
        suite.config.autoscale = Some("queue:min=2,max=8,up=6,down=1,cadence=2".parse().unwrap());
        let a = suite.run();
        let b = suite.run();
        assert_eq!(a.cells.len(), 1);
        let m = &a.cells[0].metrics;
        assert_eq!(m, &b.cells[0].metrics, "autoscaled sweeps are seeded");
        assert!(m.gpu_seconds_provisioned > 0.0);
        // The elastic fleet must not bill the full 12-GPU testbed for the
        // whole makespan (the smoke diurnal load needs nowhere near it).
        assert!(m.gpu_seconds_provisioned < 12.0 * m.makespan_secs);
        assert!(m.scale_down_events > 0.0, "quiet smoke load must shed GPUs");
    }

    #[test]
    fn paper_testbed_is_the_explicit_lru_spec_config() {
        // The paper testbed defaults replacement to LRU, and `lalbo3` is
        // `lalbo3:25`: both spellings name one policy pair.
        let trace = paper_trace(15, 7);
        let shorthand = run(
            ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3")),
            &trace,
        )
        .0;
        let explicit = run(
            ClusterConfig {
                replacement: "lru".parse().unwrap(),
                ..ClusterConfig::paper_testbed("lalbo3:25".parse().unwrap())
            },
            &trace,
        )
        .0;
        assert_eq!(shorthand, explicit);
        assert_eq!(policy_name(&PolicySpec::bare("lalbo3")), "LALBO3");
    }

    #[test]
    fn table_printer_alignment() {
        let t = TablePrinter::new(&[5, 8]);
        let r = t.row(&["ab".into(), "1.23".into()]);
        assert_eq!(r, "   ab      1.23");
    }
}
