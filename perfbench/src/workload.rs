//! The benchmark's workloads: trace shapes, layer stacks, and one
//! simulated run of a (rate, replica) cell.

use std::sync::Arc;
use std::time::Instant;

use gfaas_core::obs::ledger::LedgerRecorder;
use gfaas_core::snap::JournalStats;
use gfaas_core::{
    Cluster, ClusterConfig, PolicyRegistry, PolicySpec, Recorder, RunMetrics, SelfProfile,
    StoreStats,
};
use gfaas_faas::Datastore;
use gfaas_models::ModelRegistry;
use gfaas_trace::azure::AZURE_ZIPF_ALPHA;
use gfaas_trace::Trace;
use gfaas_workload::scenario::{find as find_scenario, NUM_MODELS};
use gfaas_workload::{Arrival, ModelMapping, Popularity, Scale, WorkloadSpec};

use crate::spans::{
    self, Pass, Tally, TracedAutoscaler, TracedBatcher, TracedEvictor, TracedRecorder, TracedSched,
};

/// Horizon of every simulated trace, minutes. At 325 req/min this leaves
/// more than 10,000 latency samples per run, so p99 has at least 100
/// samples beyond it.
pub const MINUTES: usize = 32;

/// The offered-rate ladder, req/min, on which SLO capacity is found.
pub const LADDER: [usize; 15] = [
    250, 275, 300, 325, 350, 375, 400, 425, 450, 475, 500, 525, 550, 575, 600,
];

/// The offered-rate ladder, req/min, for SLO capacity under on-off bursts.
pub const ON_OFF_LADDER: [usize; 7] = [100, 125, 150, 175, 200, 225, 250];

/// The latency limit on simulated p99 that defines SLO capacity, seconds.
pub const SLO_P99_S: f64 = 20.0;

/// How requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// The registry's `paper` scenario (the paper's Azure-like trace).
    Paper,
    /// A fixed on-off envelope with the `burst` scenario's rates and duty
    /// cycle: each 4-minute cycle is one minute at 3x the mean rate and
    /// three at 1/3x, with requests placed uniformly inside each minute.
    /// The envelope is the same for every seed; the seed draws the arrival
    /// instants and the functions invoked.
    OnOff,
}

/// The layer configuration a workload runs.
#[derive(Debug, Clone, Copy)]
pub struct Stack {
    pub policy: &'static str,
    pub replacement: &'static str,
    pub batching: &'static str,
    pub store: &'static str,
    pub autoscale: Option<&'static str>,
    /// Attach a lifecycle ledger recorder.
    pub ledger: bool,
    /// Mirror cluster state into a datastore (`report_to_datastore`).
    pub mirror: bool,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub working_set: usize,
    pub stack: Stack,
    /// Independent traces per offered rate, each from its own seed
    /// derived from the command-line seed. Simulated metrics are means
    /// over replicas, which keeps them steady from seed to seed.
    pub replicas: usize,
    /// The offered rate the simulated latency, cache and cost metrics are
    /// read at, req/min.
    pub report_rpm: usize,
    /// The offered rates of the timed runs, req/min.
    pub timed_rates: &'static [usize],
    /// The arrival shape and offered-rate ladder SLO capacity is found on.
    pub capacity: (Shape, &'static [usize]),
}

/// All workloads, by name.
pub fn find(name: &str) -> Option<Workload> {
    let plain = Stack {
        policy: "lalbo3:25",
        replacement: "lru",
        batching: "none",
        store: "flat",
        autoscale: None,
        ledger: false,
        mirror: false,
    };
    let w = match name {
        "paper_ladder" => Workload {
            name: "paper_ladder",
            shape: Shape::Paper,
            working_set: 25,
            stack: plain,
            replicas: 8,
            report_rpm: 325,
            timed_rates: &LADDER,
            capacity: (Shape::Paper, &LADDER),
        },
        "faas_full_stack" => Workload {
            name: "faas_full_stack",
            shape: Shape::OnOff,
            working_set: 35,
            stack: Stack {
                policy: "lalbo3:25",
                replacement: "tinylfu",
                batching: "coalesce",
                store: "tiered",
                autoscale: Some("queue:min=4,max=16,up=12,down=2"),
                ledger: true,
                mirror: true,
            },
            replicas: 8,
            report_rpm: 400,
            timed_rates: &[400],
            capacity: (Shape::Paper, &LADDER),
        },
        "whatif_burst" => Workload {
            name: "whatif_burst",
            shape: Shape::OnOff,
            working_set: 25,
            stack: Stack {
                policy: "lookahead:k=4,horizon=16",
                ..plain
            },
            replicas: 8,
            report_rpm: 325,
            timed_rates: &[325],
            capacity: (Shape::OnOff, &ON_OFF_LADDER),
        },
        _ => return None,
    };
    Some(w)
}

/// Names of all workloads.
pub const NAMES: [&str; 3] = ["paper_ladder", "faas_full_stack", "whatif_burst"];

/// The trace seed of replica `i` under command-line seed `seed`.
pub fn replica_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(i as u64)
}

/// Generates one trace of `shape` at `rpm` req/min.
pub fn trace(shape: Shape, working_set: usize, rpm: usize, seed: u64) -> Trace {
    match shape {
        Shape::Paper => {
            let scale = Scale {
                name: "perfbench",
                requests_per_min: rpm,
                minutes: MINUTES,
                working_set,
            };
            find_scenario("paper")
                .expect("paper scenario is registered")
                .trace(&scale, seed)
        }
        Shape::OnOff => WorkloadSpec {
            arrival: Arrival::Replay {
                per_minute: (0..MINUTES)
                    .map(|m| if m % 4 == 0 { 3 * rpm } else { rpm / 3 })
                    .collect(),
            },
            popularity: Popularity::Zipf {
                working_set,
                alpha: AZURE_ZIPF_ALPHA,
            },
            mapping: ModelMapping::InterleavedSizes {
                num_models: NUM_MODELS,
            },
            horizon_secs: 60.0 * MINUTES as f64,
            seed,
        }
        .generate(),
    }
}

fn spec(s: &str) -> PolicySpec {
    s.parse()
        .unwrap_or_else(|e| panic!("bad policy spec {s:?}: {e}"))
}

/// A constructed cluster and the datastore it mirrors into, if any.
pub struct Built {
    pub cluster: Cluster,
    pub datastore: Option<Arc<Datastore>>,
}

impl Stack {
    /// Builds the paper testbed with this stack. `traced` wraps every
    /// open seam in its span adapter; `mirror` false detaches datastore
    /// mirroring (the mirroring ablation).
    pub fn build(&self, traced: bool, mirror: bool) -> Built {
        let mut cfg = ClusterConfig::paper_testbed(spec(self.policy));
        cfg.replacement = spec(self.replacement);
        cfg.batching = spec(self.batching);
        cfg.store = self.store.parse().expect("valid store spec");
        cfg.autoscale = self
            .autoscale
            .map(|a| a.parse().expect("valid autoscale spec"));
        let mirror = mirror && self.mirror;
        cfg.report_to_datastore = mirror;

        let registry = PolicyRegistry::builtin();
        let mut sched = registry.scheduler(&cfg.policy).expect("known scheduler");
        let mut evictor = registry
            .evictor(&cfg.replacement, cfg.seed)
            .expect("known evictor");
        let batcher = registry.batcher(&cfg.batching).expect("known batcher");
        let autoscaler = cfg
            .autoscale
            .as_ref()
            .map(|a| a.build().expect("valid autoscaler"));
        if traced {
            sched = Box::new(TracedSched(sched));
            evictor = Box::new(TracedEvictor(evictor));
        }
        let mut cluster = Cluster::with_policies(cfg, ModelRegistry::table1(), sched, evictor)
            .expect("valid cluster config");
        if traced {
            cluster.set_batcher(Box::new(TracedBatcher(batcher)));
            if let Some(a) = autoscaler {
                cluster.set_autoscaler(Box::new(TracedAutoscaler(a)));
            }
        }
        if self.ledger {
            let (rec, _handle) = LedgerRecorder::new(None);
            let rec: Box<dyn Recorder> = Box::new(rec);
            cluster.set_recorder(if traced {
                Box::new(TracedRecorder(rec))
            } else {
                rec
            });
        }
        let datastore = mirror.then(|| Arc::new(Datastore::new()));
        if let Some(ds) = &datastore {
            cluster = cluster.with_datastore(Arc::clone(ds));
        }
        Built { cluster, datastore }
    }
}

/// What one simulated run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub requests: usize,
    pub metrics: RunMetrics,
    pub profile: SelfProfile,
    pub journal: JournalStats,
    pub store: StoreStats,
    pub evictions: u64,
    /// Whether the run mirrored into a datastore.
    pub mirrored: bool,
    /// Datastore revision at the end of the run (0 without mirroring).
    pub ds_revision: u64,
}

impl Outcome {
    /// Reads the outcome off a cluster that has finished `trace`.
    pub fn read(built: &Built, requests: usize, metrics: RunMetrics) -> Outcome {
        let c = &built.cluster;
        Outcome {
            requests,
            metrics,
            profile: c.self_profile(),
            journal: c.journal_stats(),
            store: c.store_stats(),
            evictions: c.evictions(),
            mirrored: built.datastore.is_some(),
            ds_revision: built.datastore.as_ref().map_or(0, |d| d.revision().0),
        }
    }

    /// Every simulated quantity, printed exactly: two outcomes with the
    /// same fingerprint are bit-identical.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{}|{}",
            self.requests,
            self.metrics,
            self.profile,
            self.journal,
            self.store,
            self.evictions,
            self.ds_revision
        )
    }
}

/// Host times of one run, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    pub gen_ns: u64,
    pub build_ns: u64,
    pub run_ns: u64,
}

/// How a run is instrumented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No wrappers: the timed configuration.
    Untraced,
    /// Every seam wrapped; the pass decides which seams read the clock.
    Traced(Pass),
    /// Untraced, with datastore mirroring detached.
    NoMirror,
}

impl Workload {
    /// Generates, builds and runs one cell, timing each step. A traced
    /// run also returns its span tally.
    pub fn run(
        &self,
        shape: Shape,
        rpm: usize,
        seed: u64,
        mode: Mode,
    ) -> (Outcome, Timing, Option<Tally>) {
        let t = Instant::now();
        let trace = trace(shape, self.working_set, rpm, seed);
        let gen_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let mut built = self
            .stack
            .build(matches!(mode, Mode::Traced(_)), mode != Mode::NoMirror);
        let build_ns = t.elapsed().as_nanos() as u64;
        if let Mode::Traced(pass) = mode {
            spans::begin(pass);
        }
        let t = Instant::now();
        let metrics = built.cluster.run(&trace);
        let run_ns = t.elapsed().as_nanos() as u64;
        let tally = matches!(mode, Mode::Traced(_)).then(spans::end);
        let timing = Timing {
            gen_ns,
            build_ns,
            run_ns,
        };
        (Outcome::read(&built, trace.len(), metrics), timing, tally)
    }
}
