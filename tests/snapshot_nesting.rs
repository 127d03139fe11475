//! Pin nesting and failure paths of the per-pin write set behind
//! [`Cluster::snapshot`].
//!
//! A pin records fixed-size state when it opens and saves pre-images of
//! the GPU units and global-queue entries on first write, always into
//! the innermost live pin. These tests drive the orders in which pins
//! open and close — including the lookahead policy's what-if forks
//! nesting inside a user pin — and check every restore against the
//! deepest comparison available: [`Cluster::checkpoint`] bytes.

use gfaas_core::snap::JournalStats;
use gfaas_core::{Cluster, ClusterConfig, PolicySpec};
use gfaas_models::zoo::{Family, ModelSpec};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::SimTime;
use gfaas_trace::{Trace, TraceRequest};

/// Six 100 MiB models with one-second loads and inferences: three
/// 300 MiB GPUs cannot hold them all, so placements contend.
fn registry() -> ModelRegistry {
    let specs: Vec<ModelSpec> = (0..6)
        .map(|i| ModelSpec {
            name: Box::leak(format!("m{i}").into_boxed_str()),
            occupancy_mib: 100,
            load_secs: 1.0,
            infer_secs_b32: 1.0,
            family: Family::ResNet,
        })
        .collect();
    ModelRegistry::from_specs(specs)
}

/// A steady mixed stream: the lookahead policy forks about once per
/// request on it.
fn trace() -> Trace {
    Trace::new(
        (0..120u32)
            .map(|i| TraceRequest {
                at: SimTime::from_micros(u64::from(i) * 500_000),
                function: i % 6,
                model: (i * 3 + i / 4) % 6,
            })
            .collect(),
    )
}

fn cluster(policy: &str) -> Cluster {
    let spec = PolicySpec::parse(policy).expect("valid policy spec");
    Cluster::new(ClusterConfig::test(3, 300, spec), registry())
}

fn secs(s: f64) -> SimTime {
    SimTime::from_secs_f64(s)
}

fn delta(after: JournalStats, before: JournalStats) -> (u64, u64, u64) {
    (
        after.snapshots - before.snapshots,
        after.rollbacks - before.rollbacks,
        after.commits - before.commits,
    )
}

#[test]
fn lookahead_forks_nest_inside_a_user_pin_and_roll_back_with_it() {
    let t = trace();
    let full = cluster("lookahead:k=4,horizon=8").run(&t);
    let mut c = cluster("lookahead:k=4,horizon=8");
    c.run_until(&t, secs(10.0));
    let before = c.checkpoint(&t);
    let stats0 = c.journal_stats();
    let id = c.snapshot();
    c.run_until(&t, secs(30.0));
    let (snaps, rollbacks, commits) = delta(c.journal_stats(), stats0);
    assert!(snaps > 1, "the policy forked while the user pin was live");
    assert_eq!(
        snaps - 1,
        rollbacks,
        "every fork retired itself with a rollback"
    );
    assert_eq!(commits, 0);
    assert_eq!(c.journal_depth(), 1, "only the user pin is live");
    assert_ne!(c.checkpoint(&t), before, "the run advanced past the pin");

    assert!(c.rollback(id));
    assert_eq!(c.checkpoint(&t), before, "rollback must be byte-exact");
    assert!(c.commit(id));
    assert_eq!(
        c.resume(&t),
        full,
        "the restored run ends like an untouched one"
    );
}

#[test]
fn one_pin_serves_repeated_rollbacks() {
    let t = trace();
    let mut c = cluster("lookahead:k=2,horizon=4");
    c.run_until(&t, secs(10.0));
    let before = c.checkpoint(&t);
    let id = c.snapshot();
    for until in [15.0, 40.0, 12.5] {
        c.run_until(&t, secs(until));
        assert!(c.rollback(id));
        assert_eq!(
            c.checkpoint(&t),
            before,
            "rollback after running to {until}s"
        );
        assert_eq!(c.journal_depth(), 1);
    }
}

#[test]
fn committing_the_outer_pin_keeps_the_inner_one_restorable() {
    let t = trace();
    let mut c = cluster("lalbo3");
    c.run_until(&t, secs(1.0));
    let outer = c.snapshot();
    c.run_until(&t, secs(2.5));
    let mid = c.checkpoint(&t);
    let inner = c.snapshot();
    c.run_until(&t, secs(4.5));

    // The outer pin's write set is discarded; the inner one alone still
    // restores its own instant — no merge step is involved.
    assert!(c.commit(outer));
    assert_eq!(c.journal_depth(), 1);
    assert!(c.rollback(inner));
    assert_eq!(c.checkpoint(&t), mid);
    assert!(!c.rollback(outer), "the committed pin is gone");
}

#[test]
fn retired_ids_are_refused() {
    let t = trace();
    let mut c = cluster("lalbo3");
    c.run_until(&t, secs(1.0));
    let a = c.snapshot();
    c.run_until(&t, secs(2.0));
    let b = c.snapshot();
    c.run_until(&t, secs(3.0));

    // Rolling back to `a` closes the younger pin `b`.
    assert!(c.rollback(a));
    assert!(!c.rollback(b), "a pin closed by an older rollback is dead");
    assert!(!c.commit(b));
    // Committing `a` retires it.
    assert!(c.commit(a));
    assert!(!c.rollback(a));
    assert!(!c.commit(a));
    assert_eq!(c.journal_depth(), 0);
}

#[test]
fn journal_stats_count_exactly_the_successful_operations() {
    let t = trace();
    let mut c = cluster("lalbo3");
    c.run_until(&t, secs(1.0));
    let a = c.snapshot();
    let b = c.snapshot();
    c.run_until(&t, secs(2.0));
    assert!(c.rollback(b));
    assert!(c.rollback(a));
    assert!(!c.rollback(b), "failed rollbacks are not counted");
    let d = c.snapshot();
    assert!(c.commit(d));
    assert!(!c.commit(d), "failed commits are not counted");
    assert_eq!(
        c.journal_stats(),
        JournalStats {
            snapshots: 3,
            rollbacks: 2,
            commits: 1,
        }
    );
    assert_eq!(c.journal_depth(), 0, "committing d retired a as well");
}

#[test]
fn a_checkpoint_restore_under_a_live_pin_rolls_back() {
    let t = trace();
    let mut c = cluster("lalbo3");
    c.run_until(&t, secs(1.0));
    let before = c.checkpoint(&t);
    let id = c.snapshot();

    let mut later = cluster("lalbo3");
    later.run_until(&t, secs(4.0));
    let later_bytes = later.checkpoint(&t);
    c.restore(&later_bytes, &t).expect("same world restores");
    assert_eq!(c.checkpoint(&t), later_bytes);
    // A rejected image under a live pin leaves everything untouched.
    assert!(c
        .restore(&later_bytes[..later_bytes.len() / 2], &t)
        .is_err());
    assert_eq!(c.checkpoint(&t), later_bytes);

    assert!(c.rollback(id), "the pin survives a restore");
    assert_eq!(c.checkpoint(&t), before);
    assert_eq!(c.resume(&t), cluster("lalbo3").run(&t));
}
