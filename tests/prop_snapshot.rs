//! Property tests for the `gfaas-snap` versioned-state subsystem:
//! rollback must restore the cluster byte-identically, and a
//! checkpointed warm start must reproduce the full run, for *any*
//! workload, pause point, and smoke registry cell — including the
//! batching, autoscaling, and tiered-store variants whose state lives
//! behind the component save/load hooks.
//!
//! The oracle is deterministic replay: a freshly built cluster advanced
//! to the same virtual time must serialize to the same checkpoint bytes
//! as the snapshot-rolled-back (or restored) one. Byte equality of
//! [`Cluster::checkpoint`] is a *deep* comparison — the wire image
//! covers every mutable field, so a single leaked byte anywhere in the
//! cache, batcher, store, autoscaler, RNG, or event queue fails the
//! property.

use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::zoo::{Family, ModelSpec};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::SimTime;
use gfaas_trace::{Trace, TraceRequest};
use proptest::prelude::*;

fn toy_registry(n: usize) -> ModelRegistry {
    let specs: Vec<ModelSpec> = (0..n)
        .map(|i| ModelSpec {
            name: Box::leak(format!("m{i}").into_boxed_str()),
            occupancy_mib: 80 + (i as u64 % 5) * 40,
            load_secs: 0.5 + (i % 3) as f64 * 0.5,
            infer_secs_b32: 0.4 + (i % 4) as f64 * 0.3,
            family: Family::ResNet,
        })
        .collect();
    ModelRegistry::from_specs(specs)
}

/// The smoke registry cells: plain LALBO3, plus the batching,
/// autoscaling, and tiered-store layers — separately and stacked.
#[derive(Debug, Clone, Copy)]
enum Cell {
    Plain,
    Batched,
    Autoscaled,
    Tiered,
    Stacked,
}

fn arb_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        Just(Cell::Plain),
        Just(Cell::Batched),
        Just(Cell::Autoscaled),
        Just(Cell::Tiered),
        Just(Cell::Stacked),
    ]
}

fn config_of(cell: Cell, gpus: usize, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::test(gpus, 300, PolicySpec::bare("lalbo3"));
    cfg.seed = seed;
    let batched = matches!(cell, Cell::Batched | Cell::Stacked);
    let autoscaled = matches!(cell, Cell::Autoscaled | Cell::Stacked);
    let tiered = matches!(cell, Cell::Tiered | Cell::Stacked);
    if batched {
        cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
    }
    if autoscaled {
        cfg.autoscale = Some("queue:min=2,max=4,up=6,down=1".parse().unwrap());
    }
    if tiered {
        cfg.store = "tiered:host=8G,origin_bw=1G,prefetch=2,hot=4"
            .parse()
            .unwrap();
    }
    cfg
}

fn arb_trace(nmodels: u32) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u64..8_000u64, 0..nmodels), 8..48).prop_map(|reqs| {
        Trace::new(
            reqs.into_iter()
                .map(|(ms, m)| TraceRequest {
                    at: SimTime::from_micros(ms * 1000),
                    function: m,
                    model: m,
                })
                .collect(),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Snapshot → random mutations → rollback lands byte-identically on
    /// the replay oracle: a fresh cluster advanced to the pause point.
    /// The "random mutations" are the simulation itself — advancing the
    /// event loop a random distance touches every journal-managed field
    /// (queues, caches, batches, RNG, autoscaler, store tiers).
    #[test]
    fn rollback_restores_the_replay_oracle_bytes(
        cell in arb_cell(),
        gpus in 2usize..5,
        seed in 0u64..1_000,
        trace in arb_trace(6),
        cut_ms in 200u64..6_000,
        mutate_ms in 100u64..6_000,
    ) {
        let cfg = config_of(cell, gpus, seed);
        let t1 = SimTime::from_micros(cut_ms * 1000);
        let t2 = SimTime::from_micros((cut_ms + mutate_ms) * 1000);

        let mut c = Cluster::new(cfg.clone(), toy_registry(6));
        c.run_until(&trace, t1);
        let id = c.snapshot();
        c.run_until(&trace, t2);
        prop_assert!(c.rollback(id), "a live pin must roll back");

        let mut oracle = Cluster::new(cfg, toy_registry(6));
        oracle.run_until(&trace, t1);
        prop_assert_eq!(
            c.checkpoint(&trace),
            oracle.checkpoint(&trace),
            "rollback must restore the pause-point state byte-identically"
        );
        // And the rolled-back timeline must finish exactly like the
        // never-forked one.
        prop_assert_eq!(c.resume(&trace), oracle.resume(&trace));
    }

    /// Rolling back across a *stack* of pins to the oldest one is as
    /// good as never having taken the younger ones.
    #[test]
    fn rollback_skips_younger_pins_byte_identically(
        cell in arb_cell(),
        seed in 0u64..1_000,
        trace in arb_trace(6),
        cuts in proptest::collection::vec(100u64..3_000, 3),
    ) {
        let cfg = config_of(cell, 3, seed);
        let mut at = 0u64;
        let mut c = Cluster::new(cfg.clone(), toy_registry(6));
        let mut first = None;
        for &step in &cuts {
            at += step;
            c.run_until(&trace, SimTime::from_micros(at * 1000));
            let id = c.snapshot();
            first.get_or_insert(id);
        }
        prop_assert_eq!(c.journal_depth(), 3);
        prop_assert!(c.rollback(first.unwrap()));
        prop_assert_eq!(c.journal_depth(), 1, "younger pins are truncated");

        let mut oracle = Cluster::new(cfg, toy_registry(6));
        oracle.run_until(&trace, SimTime::from_micros(cuts[0] * 1000));
        prop_assert_eq!(c.checkpoint(&trace), oracle.checkpoint(&trace));
    }

    /// A warm start from checkpoint bytes reproduces the full run's
    /// metrics byte-for-byte, wherever the checkpoint was cut.
    #[test]
    fn warm_start_reproduces_the_full_run(
        cell in arb_cell(),
        gpus in 2usize..5,
        seed in 0u64..1_000,
        trace in arb_trace(6),
        cut_ms in 100u64..9_000,
    ) {
        let cfg = config_of(cell, gpus, seed);
        let full = Cluster::new(cfg.clone(), toy_registry(6)).run(&trace);

        let mut paused = Cluster::new(cfg.clone(), toy_registry(6));
        paused.run_until(&trace, SimTime::from_micros(cut_ms * 1000));
        let bytes = paused.checkpoint(&trace);

        let mut warm = Cluster::new(cfg, toy_registry(6));
        warm.restore(&bytes, &trace).expect("own checkpoint restores");
        prop_assert_eq!(
            warm.resume(&trace),
            full,
            "a warm start must be indistinguishable from never pausing"
        );
    }
}
