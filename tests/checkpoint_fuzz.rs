//! Checkpoint-decoder robustness: truncated and bit-flipped checkpoint
//! images must never panic [`Cluster::restore`], nor the run it resumes.
//!
//! The images are real mid-run checkpoints of a cluster with every
//! stateful layer attached (batching, autoscaling, a tiered store), so
//! each component decoder sees corrupt input. A rejected image must
//! leave the target exactly as it was: its checkpoint bytes unchanged,
//! and its resumed run byte-identical to an untouched twin's. An
//! accepted image (a flip in a field no invariant covers) must run.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gfaas_core::{Cluster, ClusterConfig, PolicySpec, RunMetrics};
use gfaas_models::zoo::{Family, ModelSpec};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::SimTime;
use gfaas_trace::{Trace, TraceRequest};
use proptest::prelude::*;

fn registry() -> ModelRegistry {
    registry_of(6)
}

fn registry_of(n: usize) -> ModelRegistry {
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

fn config() -> ClusterConfig {
    let mut cfg = ClusterConfig::test(3, 300, PolicySpec::bare("lalbo3"));
    cfg.batching = "coalesce:max=4,wait=0.05".parse().unwrap();
    cfg.autoscale = Some("queue:min=2,max=4,up=6,down=1".parse().unwrap());
    cfg.store = "tiered:host=8G,origin_bw=1G,prefetch=2,hot=4"
        .parse()
        .unwrap();
    cfg
}

fn trace() -> Trace {
    Trace::new(
        (0..48u32)
            .map(|i| TraceRequest {
                at: SimTime::from_micros(u64::from(i) * 110_000),
                function: i % 6,
                model: (i * 5 + i / 3) % 6,
            })
            .collect(),
    )
}

/// A cluster paused at `secs`.
fn paused(secs: f64) -> Cluster {
    let mut c = Cluster::new(config(), registry());
    c.run_until(&trace(), SimTime::from_secs_f64(secs));
    c
}

/// The image every case corrupts: a checkpoint taken mid-run, with
/// requests queued, in flight and held.
fn image() -> Vec<u8> {
    paused(2.3).checkpoint(&trace())
}

/// How far an accepted image is resumed: far past the trace's last
/// arrival (5.2 s), so every restored request and timer gets to run.
const RESUME_HORIZON_SECS: f64 = 2_000.0;

/// Restores `bad` into a target paused at a different instant and
/// checks the restore contract: a rejected image leaves the target
/// undisturbed, and an accepted one runs to the resume horizon without
/// panicking.
fn check_rejection_leaves_target_untouched(bad: &[u8], twin: &RunMetrics) -> Result<(), String> {
    let t = trace();
    let mut target = paused(1.1);
    let before = target.checkpoint(&t);
    if target.restore(bad, &t).is_ok() {
        let horizon = SimTime::from_secs_f64(RESUME_HORIZON_SECS);
        return catch_unwind(AssertUnwindSafe(|| target.run_until(&t, horizon)))
            .map_err(|_| "an accepted image panicked when resumed".into());
    }
    if target.checkpoint(&t) != before {
        return Err("a rejected image changed the target's state".into());
    }
    if &target.resume(&t) != twin {
        return Err("a rejected image changed the target's resumed run".into());
    }
    Ok(())
}

/// Every byte of the image, flipped at its low and high bit: an
/// exhaustive sweep that reaches each field's encoding at least once.
#[test]
fn every_single_bit_flip_is_survived() {
    let bytes = image();
    let twin = paused(1.1).resume(&trace());
    for at in 0..bytes.len() {
        for bit in [0u8, 7] {
            let mut bad = bytes.clone();
            bad[at] ^= 1 << bit;
            let outcome = check_rejection_leaves_target_untouched(&bad, &twin);
            assert!(outcome.is_ok(), "byte {at} bit {bit}: {outcome:?}");
        }
    }
}

/// A checkpoint naming a model the restoring cluster's registry does
/// not know decodes cleanly but cannot run: restore must reject it (the
/// estimators index the registry by model) and leave the target as it
/// was.
#[test]
fn requests_for_unknown_models_are_rejected() {
    let t = Trace::new(
        (0..40u32)
            .map(|i| TraceRequest {
                at: SimTime::from_micros(u64::from(i) * 20_000),
                function: i,
                model: 6 + i % 2,
            })
            .collect(),
    );
    let mut wide = Cluster::new(config(), registry_of(8));
    wide.run_until(&t, SimTime::from_secs_f64(0.5));
    let bytes = wide.checkpoint(&t);

    let mut target = Cluster::new(config(), registry());
    let before = target.checkpoint(&t);
    assert!(target.restore(&bytes, &t).is_err());
    assert_eq!(target.checkpoint(&t), before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_checkpoints_are_rejected_without_side_effects(frac in 0u64..10_000) {
        let bytes = image();
        let twin = paused(1.1).resume(&trace());
        let cut = (bytes.len() as u64 * frac / 10_000) as usize;
        prop_assert!(
            Cluster::new(config(), registry()).restore(&bytes[..cut], &trace()).is_err(),
            "a truncated image must not decode"
        );
        let outcome = check_rejection_leaves_target_untouched(&bytes[..cut], &twin);
        prop_assert!(outcome.is_ok(), "cut at {cut}: {outcome:?}");
    }

    #[test]
    fn bit_flipped_checkpoints_never_panic_restore(
        flips in proptest::collection::vec((0u64..1_000_000, 0u8..8), 1..4),
    ) {
        let mut bytes = image();
        let twin = paused(1.1).resume(&trace());
        for &(pos, bit) in &flips {
            let at = (pos % bytes.len() as u64) as usize;
            bytes[at] ^= 1 << bit;
        }
        let outcome = check_rejection_leaves_target_untouched(&bytes, &twin);
        prop_assert!(outcome.is_ok(), "flips {flips:?}: {outcome:?}");
    }
}
