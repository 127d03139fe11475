//! Speculative what-if scheduling: the fork engine behind the
//! lookahead policy, and the [`SpecScore`] it ranks forks by.

use gfaas_gpu::GpuId;
use gfaas_sim::event::EventQueue;
#[cfg(debug_assertions)]
use gfaas_snap::Enc;

use super::{Cluster, Event};
use crate::gpu_manager::UnitState;
use crate::request::Request;
use crate::scheduler::{LalbScheduler, DEFAULT_O3_LIMIT};

impl Cluster {
    /// The debug fork oracle's view of the whole state: the checkpoint
    /// body (scheduler slot included only when occupied), plus the
    /// self-profile a checkpoint leaves out.
    #[cfg(debug_assertions)]
    fn fork_oracle(&self, events: &EventQueue<Event>) -> (Vec<u8>, gfaas_obs::SelfProfile) {
        let mut enc = Enc::new();
        self.encode_state(&mut enc, events);
        (enc.into_bytes(), self.self_profile())
    }

    /// Forks the world, performs one candidate placement for the queued
    /// request at `queue_index`, replays up to `horizon` pending runtime
    /// events under a plain greedy LALBO3 scheduler, scores the outcome,
    /// and rolls everything back. The fork is invisible: recorder and
    /// datastore are stashed for its duration, and every other mutable
    /// bit — metrics, RNG, residency, queues, the event heap — is pinned
    /// and restored byte-identically. Debug builds check that on every
    /// fork by encoding the whole state before the pin and after the
    /// restore.
    pub(crate) fn speculate_placement(
        &mut self,
        events: &mut EventQueue<Event>,
        queue_index: usize,
        placement: SpecPlacement,
        horizon: usize,
    ) -> SpecScore {
        let recorder = self.recorder.take();
        let datastore = self.datastore.take();
        #[cfg(debug_assertions)]
        let before = self.fork_oracle(events);
        self.pin(events);
        let completed0 = self.metrics.completed();
        let lat0 = self.metrics.latency_sample_count();

        // The candidate leaves the global queue before placement — the
        // same bookkeeping as `SchedCtx::take_queued`, so conservation
        // audits hold inside the fork.
        let r = self
            .global_queue
            .remove(queue_index)
            .expect("speculated index in bounds");
        self.note_queue_depth(self.scalars.now, self.global_queue.len());
        match placement {
            SpecPlacement::HitOn(g) => self.dispatch_batched(g.0 as usize, r, true, events),
            SpecPlacement::MissOn(g) => self.dispatch_batched(g.0 as usize, r, false, events),
            SpecPlacement::WaitOn(g) => self.push_local(g.0 as usize, r),
        }

        // The fork starts mid-pass: idle GPUs *after* the served one in
        // the round's order still have undrained local queues, which the
        // rest of the outer round would serve next (Algorithm 1's local
        // priority). Serve them now so the replay's own passes see the
        // post-round invariant — an idle GPU never sits on queued work.
        for gi in 0..self.units.len() {
            if self.units[gi].state != UnitState::Offline && self.units[gi].is_idle() {
                if let Some(r) = self.pop_local(gi) {
                    self.dispatch_batched(gi, r, true, events);
                }
            }
        }

        // Inside the fork the world advances under greedy LALBO3 — the
        // lookahead recursing into its own forks would never terminate.
        // Future *arrivals* are invisible to the fork; only the already
        // -pending runtime events replay.
        let outer = self
            .sched
            .replace(Box::new(LalbScheduler::new(DEFAULT_O3_LIMIT)));
        for _ in 0..horizon {
            let Some((t, ev)) = events.pop() else {
                break;
            };
            self.deliver(t, ev, events);
        }
        self.sched = outer;

        // The waiting bill: completions pay their latency, everything
        // still outstanding pays its age as of the fork's end time.
        let end = self.scalars.now;
        let age = |r: &Request| end.duration_since(r.arrival).as_micros() as u128;
        let mut cost_ticks = self.metrics.latency_ticks_from(lat0) as u128;
        // Σ (end − arrival) over the global queue in O(1): ticks are
        // integer µs and every queued arrival is at or before `end`.
        let queued = self.global_queue.len();
        let queue_age =
            queued as u128 * u128::from(end.as_micros()) - self.global_queue.weight_sum();
        debug_assert_eq!(
            queue_age,
            self.global_queue.iter().map(age).sum::<u128>(),
            "global-queue arrival sum out of sync"
        );
        cost_ticks += queue_age;
        let mut pending = queued;
        for u in self.units.iter() {
            pending += u.local_queue.len();
            cost_ticks += u.local_queue.iter().map(age).sum::<u128>();
            if let Some(f) = &u.in_flight {
                cost_ticks += f.requests.iter().map(age).sum::<u128>();
            }
            if let Some(h) = &u.holding {
                cost_ticks += h.requests.iter().map(age).sum::<u128>();
            }
        }
        let score = SpecScore {
            completed: self.metrics.completed() - completed0,
            cost_ticks,
            pending,
        };

        // A retiring rollback (not a commit) closes only this fork's pin,
        // so pins the caller holds across the pass survive.
        let at = self.pins.depth() - 1;
        self.rollback_to(at, true, events);
        #[cfg(debug_assertions)]
        assert!(
            self.fork_oracle(events) == before,
            "fork restore diverged from the pinned state"
        );
        self.recorder = recorder;
        self.datastore = datastore;
        score
    }
}

/// A candidate placement a lookahead policy can fork on — the three §IV
/// arms, addressed at an explicit GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecPlacement {
    /// Dispatch as a cache hit on this idle GPU.
    HitOn(GpuId),
    /// Join this busy GPU's local queue (Algorithm 2's wait arm).
    WaitOn(GpuId),
    /// Dispatch as a miss — load the model — on this idle GPU.
    MissOn(GpuId),
}

/// What a speculative fork observed over its replay horizon. Compared
/// lexicographically: more completions, then a smaller waiting bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecScore {
    /// Requests completed inside the fork.
    pub completed: u64,
    /// The fork's total waiting bill in integer microseconds: latency
    /// accumulated by its completions *plus* the age (time since
    /// arrival) of every request still outstanding — queued globally or
    /// locally, in flight, or held in a forming batch — when the horizon
    /// ended. Charging outstanding work its age (not a headcount) makes
    /// starvation visible to the scorer: a placement that serves the
    /// young and strands the old loses to one that drains the tail.
    pub cost_ticks: u128,
    /// Requests still queued (global + local) when the horizon ended.
    pub pending: usize,
}

impl SpecScore {
    /// Strict "this fork won": ties on every field answer false, so a
    /// deterministic caller iterating candidates in index order keeps
    /// the earliest of equals.
    pub fn better_than(&self, other: &SpecScore) -> bool {
        if self.completed != other.completed {
            return self.completed > other.completed;
        }
        if self.cost_ticks != other.cost_ticks {
            return self.cost_ticks < other.cost_ticks;
        }
        self.pending < other.pending
    }
}
