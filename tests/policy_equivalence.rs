//! The pluggable-policy acceptance bar: a policy is named by its spec
//! alone. Every paper spec must resolve to the paper's report name, drive
//! the same simulation as directly injected trait objects, and reproduce
//! pinned metrics; the TinyLFU evictor must actually pay off on the
//! drifting workload it was built for.

use gfaas::bench::{run, ScenarioSuite, REPORT_SEEDS};
use gfaas::core::{
    Cluster, ClusterConfig, Evictor, FifoEvictor, LalbScheduler, LbScheduler, LruEvictor,
    PolicyError, PolicyRegistry, PolicySpec, RandomEvictor, SchedulerPolicy,
};
use gfaas::models::ModelRegistry;
use gfaas::workload::{registry, Scale};
use proptest::prelude::*;

/// Builds a scheduler trait object directly, without the registry.
type BuildScheduler = fn() -> Box<dyn SchedulerPolicy>;

/// Builds an evictor trait object directly from the run seed.
type BuildEvictor = fn(u64) -> Box<dyn Evictor>;

/// The paper's scheduler specs, their report names, and the trait
/// objects they resolve to.
const SCHEDULERS: [(&str, &str, BuildScheduler); 4] = [
    ("lb", "LB", || Box::new(LbScheduler)),
    ("lalb", "LALB", || Box::new(LalbScheduler::new(0))),
    ("lalbo3", "LALBO3", || Box::new(LalbScheduler::new(25))),
    ("lalbo3:7", "LALBO3(limit=7)", || {
        Box::new(LalbScheduler::new(7))
    }),
];

/// The paper's replacement specs and the trait objects they resolve to
/// (the seed feeds `random`).
const EVICTORS: [(&str, BuildEvictor); 3] = [
    ("lru", |_| Box::new(LruEvictor::default())),
    ("fifo", |_| Box::new(FifoEvictor::default())),
    ("random", |seed| Box::new(RandomEvictor::new(seed))),
];

/// The paper testbed under a scheduler and an evictor spec.
fn paired(sched: &str, evictor: &str) -> ClusterConfig {
    ClusterConfig {
        replacement: evictor.parse().unwrap(),
        ..ClusterConfig::paper_testbed(sched.parse().unwrap())
    }
}

/// `(scenario, scheduler, evictor, avg latency s, miss ratio)` of the
/// smoke scenarios where the evictor changes the outcome, at the first
/// report seed. Recorded when the enum constructors were removed, from
/// the runs they drove; a spec path that drifts from them changed
/// behaviour, not just naming.
#[rustfmt::skip]
const PINNED: [(&str, &str, &str, f64, f64); 24] = [
    ("diurnal", "lb", "lru", 3.46, 0.7580645161290323),
    ("diurnal", "lb", "fifo", 3.46, 0.7580645161290323),
    ("diurnal", "lb", "random", 3.38225806451613, 0.7258064516129032),
    ("diurnal", "lalb", "lru", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalb", "fifo", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalb", "random", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalbo3", "lru", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalbo3", "fifo", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalbo3", "random", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalbo3:7", "lru", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalbo3:7", "fifo", 2.5042024838709667, 0.3225806451612903),
    ("diurnal", "lalbo3:7", "random", 2.5042024838709667, 0.3225806451612903),
    ("flash_crowd", "lb", "lru", 3.7016666666666667, 0.7833333333333333),
    ("flash_crowd", "lb", "fifo", 3.7016666666666667, 0.7833333333333333),
    ("flash_crowd", "lb", "random", 3.7016666666666667, 0.7833333333333333),
    ("flash_crowd", "lalb", "lru", 2.9880162666666665, 0.43333333333333335),
    ("flash_crowd", "lalb", "fifo", 3.011865833333333, 0.45),
    ("flash_crowd", "lalb", "random", 3.011865833333333, 0.45),
    ("flash_crowd", "lalbo3", "lru", 2.9880162666666665, 0.43333333333333335),
    ("flash_crowd", "lalbo3", "fifo", 3.011865833333333, 0.45),
    ("flash_crowd", "lalbo3", "random", 3.011865833333333, 0.45),
    ("flash_crowd", "lalbo3:7", "lru", 2.9880162666666665, 0.43333333333333335),
    ("flash_crowd", "lalbo3:7", "fifo", 3.011865833333333, 0.45),
    ("flash_crowd", "lalbo3:7", "random", 3.011865833333333, 0.45),
];

#[test]
fn spec_path_pins_names_and_metrics_for_every_policy_pair() {
    let reg = PolicyRegistry::builtin();
    for (sched, name, _) in SCHEDULERS {
        let spec: PolicySpec = sched.parse().unwrap();
        assert_eq!(reg.scheduler_name(&spec).unwrap(), name);
    }
    for (evictor, _) in EVICTORS {
        let spec: PolicySpec = evictor.parse().unwrap();
        assert_eq!(reg.evictor(&spec, 1).unwrap().name(), evictor);
    }
    let scale = Scale::smoke();
    for (scenario, sched, evictor, avg_latency, miss) in PINNED {
        let sc = registry()
            .into_iter()
            .find(|s| s.name == scenario)
            .expect("scenario registered");
        let trace = sc.trace(&scale, REPORT_SEEDS[0]);
        let m = run(paired(sched, evictor), &trace).0;
        assert_eq!(
            (m.avg_latency_secs, m.miss_ratio),
            (avg_latency, miss),
            "{scenario}: {sched} x {evictor}"
        );
    }
}

#[test]
fn injected_trait_objects_equal_the_registry_path() {
    // Handing `Cluster::with_policies` explicitly constructed trait
    // objects (no registry involved) must match spec resolution on every
    // smoke scenario: the registry is wiring, not behaviour.
    let scale = Scale::smoke();
    for sc in registry() {
        let trace = sc.trace(&scale, REPORT_SEEDS[0]);
        for (sched, _, build_sched) in SCHEDULERS {
            for (evictor, build_evictor) in EVICTORS {
                let cfg = ClusterConfig::paper_testbed(sched.parse().unwrap());
                let seed = cfg.seed;
                let mut injected = Cluster::with_policies(
                    cfg,
                    ModelRegistry::table1(),
                    build_sched(),
                    build_evictor(seed),
                )
                .unwrap();
                let via_injection = injected.run(&trace);
                let via_spec = run(paired(sched, evictor), &trace).0;
                assert_eq!(via_injection, via_spec, "{}: {sched} x {evictor}", sc.name);
            }
        }
    }
}

#[test]
fn lookahead_at_k1_is_lalbo3() {
    // A policy at degenerate parameters is its baseline: with one
    // candidate per decision lookahead has nothing to fork, so it must
    // run LALBO3's decisions exactly — whatever the replay horizon and
    // under batching too — and never pin the world. The smoke horizon is
    // too light to place a request on another GPU, where a second scan
    // would drift, so every scenario runs at paper scale.
    let scale = Scale::paper();
    for sc in registry() {
        for seed in REPORT_SEEDS {
            let trace = sc.trace(&scale, seed);
            for batching in ["none", "coalesce"] {
                let cell = |policy: &str| ClusterConfig {
                    batching: batching.parse().unwrap(),
                    ..ClusterConfig::paper_testbed(policy.parse().unwrap())
                };
                let greedy = run(cell("lalbo3"), &trace).0;
                for horizon in [0, 8] {
                    let (m, cluster) =
                        run(cell(&format!("lookahead:k=1,horizon={horizon}")), &trace);
                    let at = format!("{} seed {seed} {batching} horizon {horizon}", sc.name);
                    assert_eq!(m, greedy, "{at}");
                    assert_eq!(cluster.journal_stats().snapshots, 0, "{at}");
                }
            }
        }
    }
}

#[test]
fn suite_replacement_axis_threads_through_to_cells() {
    // A suite configured with a non-default evictor must actually run it:
    // under memory pressure FIFO and LRU diverge on the paper scenario.
    // (Smoke scale never evicts, so this needs the paper-scale horizon.)
    let mut lru = ScenarioSuite::new(Scale::paper(), vec![REPORT_SEEDS[0]]);
    lru.policies = vec!["lalbo3".parse().unwrap()];
    lru.scenarios.retain(|s| s.name == "paper");
    let mut fifo = lru.clone();
    fifo.config.replacement = PolicySpec::bare("fifo");
    let lru_cells = lru.run().cells;
    let fifo_cells = fifo.run().cells;
    assert_eq!(lru_cells.len(), fifo_cells.len());
    assert!(
        lru_cells
            .iter()
            .zip(&fifo_cells)
            .any(|(a, b)| a.metrics != b.metrics),
        "swapping the suite's evictor changed nothing"
    );
}

#[test]
fn tinylfu_beats_lru_on_the_drift_scenario() {
    // The ROADMAP's drift-aware-caching claim, as a property over seeds:
    // under the `drift` scenario (the Zipf head rotating through the
    // horizon) the frequency-decay evictor must out-hit LRU. The smoke
    // horizon (60 requests) never fills a GPU, so the property is checked
    // at paper scale — the same rows `scenarios --scenario drift` prints.
    let drift = registry()
        .into_iter()
        .find(|s| s.name == "drift")
        .expect("drift scenario registered");
    let mut lru_miss = 0.0;
    let mut tinylfu_miss = 0.0;
    for &seed in &REPORT_SEEDS {
        let trace = drift.trace(&Scale::paper(), seed);
        let l = run(paired("lalbo3:25", "lru"), &trace).0;
        let t = run(paired("lalbo3:25", "tinylfu:0.3"), &trace).0;
        assert!(
            t.miss_ratio <= l.miss_ratio,
            "seed {seed}: tinylfu {:.4} vs lru {:.4}",
            t.miss_ratio,
            l.miss_ratio
        );
        lru_miss += l.miss_ratio;
        tinylfu_miss += t.miss_ratio;
    }
    assert!(
        tinylfu_miss < lru_miss,
        "mean miss ratio must strictly improve: tinylfu {:.4} vs lru {:.4}",
        tinylfu_miss / REPORT_SEEDS.len() as f64,
        lru_miss / REPORT_SEEDS.len() as f64
    );
}

#[test]
fn tinylfu_keeps_the_static_paper_scenario_close_to_lru() {
    // Frequency decay must not wreck the static workload the paper tunes
    // on: stay within 10% relative miss ratio of LRU there.
    let paper = registry()[0];
    let trace = paper.trace(&Scale::paper(), REPORT_SEEDS[0]);
    let l = run(paired("lalbo3:25", "lru"), &trace).0;
    let t = run(paired("lalbo3:25", "tinylfu"), &trace).0;
    assert!(
        t.miss_ratio <= l.miss_ratio * 1.10,
        "tinylfu {:.4} vs lru {:.4}",
        t.miss_ratio,
        l.miss_ratio
    );
}

/// The spec alphabet the fuzz draws from: key characters plus every
/// separator the argument grammars use.
const SPEC_ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789:=,.";

/// Arbitrary strings over [`SPEC_ALPHABET`], half of them led by a
/// builtin key so the factories' argument parsers see input too.
fn arb_spec_string() -> impl Strategy<Value = String> {
    const KEYS: [&str; 13] = [
        "lb",
        "lalb",
        "lalbo3",
        "lookahead",
        "lru",
        "fifo",
        "random",
        "tinylfu",
        "none",
        "coalesce",
        "adaptive",
        "flat",
        "tiered",
    ];
    let chars = proptest::collection::vec(0..SPEC_ALPHABET.len(), 0..16);
    (any::<bool>(), 0..KEYS.len(), chars).prop_map(|(keyed, key, chars)| {
        let tail: String = chars.iter().map(|&i| SPEC_ALPHABET[i] as char).collect();
        if keyed {
            format!("{}:{tail}", KEYS[key])
        } else {
            tail
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// A spec is the only name a policy has, so its parser and the
    /// builtin registry must be total: parsing never panics, every
    /// accepted spec round-trips through `Display`, and every namespace
    /// answers an unknown key with `Err` and a known one without
    /// panicking.
    #[test]
    fn policy_spec_parse_and_resolution_are_total(s in arb_spec_string()) {
        let Ok(spec) = PolicySpec::parse(&s) else {
            return Ok(());
        };
        prop_assert_eq!(spec.to_string(), s.clone());
        prop_assert_eq!(PolicySpec::parse(&spec.to_string()), Ok(spec.clone()));
        let reg = PolicyRegistry::builtin();
        let key = spec.key();
        let scheduler = reg.scheduler(&spec);
        prop_assert!(reg.scheduler_keys().contains(&key) || matches!(scheduler, Err(PolicyError::UnknownScheduler(_))));
        let evictor = reg.evictor(&spec, 7);
        prop_assert!(reg.evictor_keys().contains(&key) || matches!(evictor, Err(PolicyError::UnknownEvictor(_))));
        let batcher = reg.batcher(&spec);
        prop_assert!(reg.batcher_keys().contains(&key) || matches!(batcher, Err(PolicyError::UnknownBatcher(_))));
    }
}
