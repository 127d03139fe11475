//! Speculative what-if scheduling: the fork engine behind the
//! lookahead policy, and the [`SpecScore`] it ranks forks by.
//!
//! A decision's forks come in through one call
//! ([`SchedCtx::speculate`]): the recorder is stashed, the debug oracle
//! encoded and the greedy replay scheduler built once for all of them,
//! while each candidate still runs under its own pin and closes it with
//! its own retiring rollback, so the journal counts one snapshot and
//! one rollback per fork.

use gfaas_sim::event::EventQueue;
#[cfg(debug_assertions)]
use gfaas_snap::Enc;

use super::{Cluster, Event, SchedCtx};
use crate::gpu_manager::UnitState;
use crate::request::Request;
use crate::scheduler::{LalbScheduler, Placement, SchedulerPolicy, DEFAULT_O3_LIMIT};

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

    /// Forks the world once per candidate placement for the queued
    /// request at `queue_index` and pushes each fork's [`SpecScore`] onto
    /// `scores`, in candidate order. The forks are invisible: the
    /// recorder (a datastore mirror included) is stashed for their
    /// duration, and every other mutable bit — metrics, RNG, residency,
    /// queues, the event heap — is pinned and restored byte-identically.
    /// Debug builds check that after every fork against one encoding of
    /// the whole state taken before the first.
    pub(crate) fn speculate_placements(
        &mut self,
        events: &mut EventQueue<Event>,
        queue_index: usize,
        candidates: &[Placement],
        horizon: usize,
        scores: &mut Vec<SpecScore>,
    ) {
        let recorder = self.recorder.take();
        #[cfg(debug_assertions)]
        let before = self.fork_oracle(events);
        // Inside a fork the world advances under greedy LALBO3 — the
        // lookahead recursing into its own forks would never terminate.
        // Its buffers are scratch, so one box serves every candidate.
        let mut greedy: Option<Box<dyn SchedulerPolicy>> =
            Some(Box::new(LalbScheduler::new(DEFAULT_O3_LIMIT)));
        scores.clear();
        for &placement in candidates {
            scores.push(self.fork(events, queue_index, placement, horizon, &mut greedy));
            #[cfg(debug_assertions)]
            assert!(
                self.fork_oracle(events) == before,
                "fork restore diverged from the pinned state"
            );
        }
        self.recorder = recorder;
    }

    /// One fork: pins, performs `placement` for the queued request at
    /// `queue_index`, replays up to `horizon` pending runtime events
    /// with `greedy` in the scheduler slot, scores the outcome, and
    /// rolls everything back.
    fn fork(
        &mut self,
        events: &mut EventQueue<Event>,
        queue_index: usize,
        placement: Placement,
        horizon: usize,
        greedy: &mut Option<Box<dyn SchedulerPolicy>>,
    ) -> SpecScore {
        self.pin(events);
        let completed0 = self.metrics.completed();
        let lat0 = self.metrics.latency_sample_count();

        // The candidate leaves the global queue and is placed through the
        // live pass's own commands, so conservation audits hold inside
        // the fork.
        let mut ctx = SchedCtx {
            cluster: self,
            events,
            progress: false,
        };
        let r = ctx.take_queued(queue_index);
        ctx.perform(r, placement);

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

        // Future *arrivals* are invisible to the fork; only the already
        // -pending runtime events replay. The outer policy's slot (empty
        // mid-pass) is swapped back before the rollback checks it.
        std::mem::swap(&mut self.sched, greedy);
        for _ in 0..horizon {
            let Some((t, ev)) = events.pop() else {
                break;
            };
            self.deliver(t, ev, events);
        }
        std::mem::swap(&mut self.sched, greedy);

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
        score
    }
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
