//! Scheduling policies (paper §IV) — an open trait surface.
//!
//! * **LB** — the default load-balancing baseline: "simply dispatches the
//!   request at the head of the global queue whenever a GPU becomes idle"
//!   (§V-A). When several GPUs are idle, the longest-idle one is used
//!   (classic load balancing); locality is ignored, though an accidental
//!   hit still skips the upload.
//! * **LALB** — locality-aware load balancing, Algorithms 1 and 2. The
//!   O3 limit is 0: requests are considered strictly in arrival order, but
//!   each is *placed* with locality awareness (idle GPU with the model →
//!   hit; busy GPU with the model that will free up sooner than a model
//!   load → local queue; otherwise a miss on the idle GPU).
//! * **LALB+O3** — the same with out-of-order dispatch: a later request
//!   whose model is cached on the idle GPU may jump the queue; every
//!   request it jumps over has its visit counter incremented, and a request
//!   whose counter reaches the limit (default 25) is dispatched immediately
//!   via `LocalityLoadBalance` regardless of hit or miss (§IV-B's
//!   starvation guard).
//!
//! # The trait surface
//!
//! Policies implement [`SchedulerPolicy`]: the cluster driver calls
//! [`SchedulerPolicy::on_gpu_idle`] for each idle GPU with a borrowed
//! [`SchedCtx`] view of the queue, residency, and finish-time state, and
//! the policy answers with a [`Dispatch`] for that GPU (placements on
//! *other* GPUs — Algorithm 2's hit-elsewhere / wait-on-busy arms —
//! execute immediately through the context). The paper's three policies
//! are [`LbScheduler`] and [`LalbScheduler`], named by string specs
//! (`"lb"`, `"lalb"`, `"lalbo3:25"`) that resolve through
//! [`crate::policy::PolicyRegistry`].

use crate::cluster::{SchedCtx, SpecPlacement, SpecScore};
use crate::request::Request;
use gfaas_gpu::GpuId;
use gfaas_sim::time::SimDuration;

/// The paper's default starvation limit for out-of-order dispatch.
pub const DEFAULT_O3_LIMIT: u32 = 25;

/// What a policy decided for the idle GPU it was asked about.
#[derive(Debug, Clone, Copy)]
pub enum Dispatch {
    /// Nothing can be dispatched to this GPU in this pass.
    None,
    /// Run `Request` on the idle GPU as a cache hit (its model must be
    /// resident there).
    Hit(Request),
    /// Load the request's model on the idle GPU, evicting as needed, then
    /// run (the miss path).
    Miss(Request),
}

/// A scheduling policy driving the cluster's dispatch decisions.
///
/// The driver runs scheduling passes "when at least one request is
/// waiting in the global queue and at least one GPU is idle". Each pass it
/// collects the idle GPUs, lets the policy order them
/// ([`SchedulerPolicy::idle_order`]), and calls
/// [`SchedulerPolicy::on_gpu_idle`] per GPU until no policy makes
/// progress. Serving a GPU's own local queue first (Algorithm 1 lines
/// 2–5) is structural and stays in the driver.
///
/// Implementations must be deterministic: any randomness must come from
/// owned, seeded state.
pub trait SchedulerPolicy: std::fmt::Debug + Send {
    /// Display name for reports (the paper uses `LB` / `LALB` / `LALBO3`).
    fn name(&self) -> String;

    /// Orders the idle GPUs for one scheduling pass. The default is the
    /// locality-aware rule — "the list of idle GPUs (sorted by
    /// frequency)": more cache hits served first, then GPU id.
    fn idle_order(&mut self, ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
        idle.sort_by(|&a, &b| ctx.hits(b).cmp(&ctx.hits(a)).then(a.cmp(&b)));
    }

    /// Decides what idle GPU `gpu` should run next. Placements on *other*
    /// GPUs (hit-elsewhere, wait-on-busy) execute immediately through
    /// `ctx`; the returned [`Dispatch`] is executed on `gpu` itself.
    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch;

    /// Serialises the policy's mutable state for a snapshot or
    /// checkpoint. The paper's policies (LB, LALB, LALB+O3) are
    /// stateless — configuration like the O3 limit is rebuilt from the
    /// spec, not serialised — so the default writes nothing; stateful
    /// policies must override both hooks symmetrically.
    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        let _ = enc;
    }

    /// Restores state written by [`SchedulerPolicy::save_state`] into a
    /// policy freshly built from the same spec.
    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        let _ = dec;
        Ok(())
    }
}

/// The LB baseline: head of the global queue to the longest-idle GPU,
/// locality ignored.
#[derive(Debug, Clone, Copy, Default)]
pub struct LbScheduler;

impl SchedulerPolicy for LbScheduler {
    fn name(&self) -> String {
        "LB".to_string()
    }

    /// LB: longest idle first (pure load spreading).
    fn idle_order(&mut self, ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
        idle.sort_by(|&a, &b| ctx.idle_since(a).cmp(&ctx.idle_since(b)).then(a.cmp(&b)));
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        if ctx.queue_len() == 0 {
            return Dispatch::None;
        }
        if ctx.tenant_blocked(ctx.queued(0).tenant) {
            return Dispatch::None; // §VI isolation: the head's tenant is at its cap
        }
        let r = ctx.take_queued(0);
        if ctx.is_cached(gpu, r.model) {
            Dispatch::Hit(r) // accidental hit still skips the upload
        } else {
            Dispatch::Miss(r)
        }
    }
}

/// Locality-aware load balancing (Algorithms 1 and 2); `o3_limit > 0`
/// adds out-of-order dispatch with that starvation limit.
#[derive(Debug, Clone, Copy)]
pub struct LalbScheduler {
    o3_limit: u32,
}

impl LalbScheduler {
    /// A LALB scheduler; `o3_limit == 0` is pure LALB, `> 0` is LALB+O3.
    pub fn new(o3_limit: u32) -> Self {
        LalbScheduler { o3_limit }
    }

    /// The configured starvation limit.
    pub fn o3_limit(&self) -> u32 {
        self.o3_limit
    }

    /// Algorithm 2. Places `r`, preferring (1) a miss on `gpu` if the model
    /// is cached nowhere, (2) a hit on another idle GPU, (3) the local
    /// queue of the busy holder with the smallest estimated wait when that
    /// wait beats the model's load time, (4) otherwise a miss on `gpu`.
    /// Returns `Some(Dispatch)` iff the request targets `gpu` itself.
    fn locality_load_balance(gpu: GpuId, r: Request, ctx: &mut SchedCtx<'_>) -> Option<Dispatch> {
        let holders = ctx.holders(r.model);
        if holders.is_empty() {
            // Lines 1–3: cached nowhere → allow the miss here.
            return Some(Dispatch::Miss(r));
        }
        // Lines 4–6: cached on another idle GPU → hit there. An idle
        // holder still carrying a local backlog is mid-pass (its queue
        // drains under Algorithm 1's local priority before it can accept
        // new work), so it is not an immediate-hit target.
        if let Some(&j) = holders
            .iter()
            .find(|&&j| j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0)
        {
            ctx.dispatch_hit(j, r);
            return None;
        }
        // Lines 8–15: cached only on busy GPUs. Compare the best holder's
        // estimated finish time against the load time of a cold start.
        // `busy_wait` ablates this decision (DESIGN.md §4). Under a
        // batching policy the wait is join-aware (the request shares its
        // model's coalesced invocation); per-request dispatch keeps the
        // paper's drain estimate byte-identically.
        let load_time = ctx.load_time(gpu, r.model);
        let best = holders
            .iter()
            .map(|&j| (ctx.estimated_wait_for(j, r.model), j))
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some((_, j)) = best.filter(|&(wait, _)| ctx.busy_wait().joins(wait, load_time)) {
            ctx.enqueue_local(j, r);
            return None;
        }
        // Lines 16–18: the busy hit would be slower → allow the miss here.
        Some(Dispatch::Miss(r))
    }
}

/// Why an out-of-order scan run stopped at its current request.
enum Stop {
    /// The request's tenant is at its §VI cap.
    Blocked,
    /// The request's model is cached on the scanning GPU.
    Hit,
    /// The request reached the O3 starvation limit.
    Starved,
}

/// One run of Algorithm 1's out-of-order scan from `*i`: advances `*i`
/// past requests the GPU skips and stops at the first one it must act
/// on (`None` at the end of the queue). The run only reads; the skipped
/// requests' visit counters are bumped in one call when it ends, before
/// the caller acts — so a scan over a long queue stays a tight read loop.
fn o3_run(gpu: GpuId, o3_limit: u32, i: &mut usize, ctx: &mut SchedCtx<'_>) -> Option<Stop> {
    let start = *i;
    let stop = loop {
        if *i >= ctx.queue_len() {
            break None;
        }
        let r = ctx.queued(*i);
        let (tenant, model, visits) = (r.tenant, r.model, r.visits);
        if ctx.tenant_blocked(tenant) {
            break Some(Stop::Blocked);
        }
        if ctx.is_cached(gpu, model) {
            break Some(Stop::Hit);
        }
        if visits >= o3_limit {
            break Some(Stop::Starved);
        }
        *i += 1;
    };
    ctx.note_skips(start..*i);
    stop
}

impl SchedulerPolicy for LalbScheduler {
    /// `LALB` at limit 0, `LALBO3` at the paper's default limit, else
    /// `LALBO3(limit=N)` (Fig 7's sweep).
    fn name(&self) -> String {
        match self.o3_limit {
            0 => "LALB".to_string(),
            DEFAULT_O3_LIMIT => "LALBO3".to_string(),
            limit => format!("LALBO3(limit={limit})"),
        }
    }

    /// Algorithm 1 for one idle GPU.
    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // Lines 6–16: scan the global queue in arrival order for a request
        // whose model is cached on this GPU; skipped requests accumulate
        // visits, and a request at the limit is placed immediately.
        let mut i = 0;
        while ctx.is_idle(gpu) {
            match o3_run(gpu, self.o3_limit, &mut i, ctx) {
                None => break,
                // §VI isolation: capped tenants are passed over without O3
                // visit accounting (they are blocked, not skipped).
                Some(Stop::Blocked) => i += 1,
                Some(Stop::Hit) => return Dispatch::Hit(ctx.take_queued(i)),
                Some(Stop::Starved) => {
                    let r = ctx.take_queued(i);
                    if let Some(d) = Self::locality_load_balance(gpu, r, ctx) {
                        return d;
                    }
                    // r went to another GPU or a local queue; the element
                    // at index i is now the next request — do not advance.
                }
            }
        }

        // Lines 17–21: no queued request has its model cached here; give
        // each request (arrival order) its best placement until this GPU
        // receives one. Capped tenants stay queued.
        let mut i = 0;
        while i < ctx.queue_len() {
            if !ctx.is_idle(gpu) {
                return Dispatch::None;
            }
            if ctx.tenant_blocked(ctx.queued(i).tenant) {
                i += 1;
                continue;
            }
            let r = ctx.take_queued(i);
            if let Some(d) = Self::locality_load_balance(gpu, r, ctx) {
                return d;
            }
        }
        Dispatch::None
    }
}

/// Speculative what-if scheduling on top of the snapshot journal.
///
/// Where LALB *estimates* the cost of each §IV placement arm with the
/// finish-time model, this policy *measures* it: for each of up to `k`
/// candidate placements (hit on an idle holder, wait at a busy holder,
/// miss here) it forks the world through [`SchedCtx::speculate`], replays
/// the next `horizon` pending runtime events under greedy LALBO3, scores
/// the fork (completions, then latency ticks, then backlog), and rolls
/// it back byte-identically. The winning arm is then executed for real.
///
/// The O3 hit scan (Algorithm 1 lines 6–16) is kept verbatim — a
/// cached-here hit needs no speculation to be right — so the forks only
/// pay off on the contended placements where the estimate is blind:
/// cascading effects of evictions, batch formation, and queue drains
/// inside the horizon.
///
/// Even at `k=1` (only greedy LALBO3's own arm, never forked) this is not
/// LALBO3: past the hit scan it places one request per call and returns,
/// while [`LalbScheduler`] keeps scanning the queue until the idle GPU
/// gets work. The pass loop calls back while progress holds, which reruns
/// the hit scan and its visit accounting. On the paper WS25 trace
/// (seeds 11, 23, 47) `lookahead:k=1` averages 3.078 s latency and
/// 0.1744 miss ratio against LALBO3's 3.045 s and 0.1711.
#[derive(Debug, Clone, Copy)]
pub struct LookaheadScheduler {
    /// Maximum candidate placements forked per decision.
    k: usize,
    /// Pending runtime events replayed inside each fork.
    horizon: usize,
    /// Starvation limit for the out-of-order hit scan (as LALB+O3).
    o3_limit: u32,
}

/// Default candidate budget for [`LookaheadScheduler`].
pub const DEFAULT_LOOKAHEAD_K: usize = 4;
/// Default replay horizon for [`LookaheadScheduler`].
pub const DEFAULT_LOOKAHEAD_HORIZON: usize = 8;

impl LookaheadScheduler {
    /// A lookahead scheduler forking up to `k` candidates, each replayed
    /// `horizon` events deep, with the given O3 starvation limit.
    pub fn new(k: usize, horizon: usize, o3_limit: u32) -> Self {
        LookaheadScheduler {
            k: k.max(1),
            horizon,
            o3_limit,
        }
    }

    /// The issue's default configuration: `k=4`, `horizon=8`, O3 at the
    /// paper's limit.
    pub fn default_config() -> Self {
        Self::new(
            DEFAULT_LOOKAHEAD_K,
            DEFAULT_LOOKAHEAD_HORIZON,
            DEFAULT_O3_LIMIT,
        )
    }

    /// Picks and executes the best placement for the queued request at
    /// index `i`, forking the candidates when more than one arm is open.
    fn place(&self, gpu: GpuId, i: usize, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let model = ctx.queued(i).model;
        let holders = ctx.holders(model);
        if holders.is_empty() {
            // Cached nowhere: the miss here is the only open arm
            // (Algorithm 2 lines 1–3) — nothing to speculate between.
            return Dispatch::Miss(ctx.take_queued(i));
        }
        // Candidate 0 is greedy LALBO3's own arm (Algorithm 2 verbatim):
        // first idle holder with an empty backlog, else the cheapest
        // estimated wait when it beats a cold load, else the miss
        // here. Anchoring the greedy arm first means a score tie — and
        // the strict comparison below — keeps the estimate's arm; this
        // decision deviates only when a fork *measured* a strictly
        // better outcome than the estimate's pick. (The policy as a whole
        // still differs from LALBO3 at `k=1`: see `on_gpu_idle`.)
        let idle_hit = holders
            .iter()
            .copied()
            .find(|&j| j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0);
        let mut waits: Vec<(SimDuration, GpuId)> = holders
            .iter()
            .map(|&j| (ctx.estimated_wait_for(j, model), j))
            .collect();
        waits.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let load_time = ctx.load_time(gpu, model);
        let greedy = match (idle_hit, waits.first()) {
            (Some(j), _) => SpecPlacement::HitOn(j),
            (None, Some(&(wait, j))) if ctx.busy_wait().joins(wait, load_time) => {
                SpecPlacement::WaitOn(j)
            }
            _ => SpecPlacement::MissOn(gpu),
        };
        // Alternatives, deterministic order: the remaining idle hits (id
        // order), waits at busy holders (cheapest estimate first), then
        // the miss here — deduplicated against the greedy arm, capped at
        // `k` forks total.
        let mut cands: Vec<SpecPlacement> = Vec::with_capacity(self.k);
        cands.push(greedy);
        let alts = holders
            .iter()
            .copied()
            .filter(|&j| j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0)
            .map(SpecPlacement::HitOn)
            .chain(
                waits
                    .iter()
                    .filter(|&&(_, j)| !ctx.is_idle(j))
                    .map(|&(_, j)| SpecPlacement::WaitOn(j)),
            )
            .chain(std::iter::once(SpecPlacement::MissOn(gpu)));
        for p in alts {
            if cands.len() >= self.k {
                break;
            }
            if !cands.contains(&p) {
                cands.push(p);
            }
        }
        if cands.len() == 1 {
            return Self::execute(gpu, i, cands[0], ctx);
        }
        let mut best = cands[0];
        let mut best_score: SpecScore = ctx.speculate(i, cands[0], self.horizon);
        for &cand in &cands[1..] {
            let score = ctx.speculate(i, cand, self.horizon);
            // Strict comparison: the earliest candidate wins ties, so
            // the choice is deterministic.
            if score.better_than(&best_score) {
                best = cand;
                best_score = score;
            }
        }
        Self::execute(gpu, i, best, ctx)
    }

    /// Executes the chosen arm for real.
    fn execute(gpu: GpuId, i: usize, placement: SpecPlacement, ctx: &mut SchedCtx<'_>) -> Dispatch {
        match placement {
            SpecPlacement::HitOn(j) if j == gpu => Dispatch::Hit(ctx.take_queued(i)),
            SpecPlacement::HitOn(j) => {
                let r = ctx.take_queued(i);
                ctx.dispatch_hit(j, r);
                Dispatch::None
            }
            SpecPlacement::WaitOn(j) => {
                let r = ctx.take_queued(i);
                ctx.enqueue_local(j, r);
                Dispatch::None
            }
            SpecPlacement::MissOn(j) if j == gpu => Dispatch::Miss(ctx.take_queued(i)),
            SpecPlacement::MissOn(j) => {
                let r = ctx.take_queued(i);
                ctx.dispatch_miss(j, r);
                Dispatch::None
            }
        }
    }
}

impl SchedulerPolicy for LookaheadScheduler {
    fn name(&self) -> String {
        format!("Lookahead(k={},h={})", self.k, self.horizon)
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        // The O3 hit scan, verbatim from LALB: a request whose model is
        // cached here is a free win, and skipped requests accumulate
        // visits toward the starvation limit.
        let mut i = 0;
        while ctx.is_idle(gpu) {
            match o3_run(gpu, self.o3_limit, &mut i, ctx) {
                None => break,
                Some(Stop::Blocked) => i += 1,
                Some(Stop::Hit) => return Dispatch::Hit(ctx.take_queued(i)),
                // Starvation guard: place this request now, but let the
                // forks pick which arm serves it best.
                Some(Stop::Starved) => return self.place(gpu, i, ctx),
            }
        }
        // No cached-here hit: speculatively place the head-most
        // unblocked request. One placement per call — if it lands on
        // another GPU the pass loop calls back while progress holds.
        let mut i = 0;
        while i < ctx.queue_len() {
            if !ctx.is_idle(gpu) {
                return Dispatch::None;
            }
            if ctx.tenant_blocked(ctx.queued(i).tenant) {
                i += 1;
                continue;
            }
            return self.place(gpu, i, ctx);
        }
        Dispatch::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_names() {
        assert_eq!(LbScheduler.name(), "LB");
        assert_eq!(LalbScheduler::new(0).name(), "LALB");
        assert_eq!(LalbScheduler::new(DEFAULT_O3_LIMIT).name(), "LALBO3");
        assert_eq!(LalbScheduler::new(25).name(), "LALBO3");
        assert_eq!(LalbScheduler::new(7).name(), "LALBO3(limit=7)");
        assert_eq!(LalbScheduler::new(45).name(), "LALBO3(limit=45)");
    }

    #[test]
    fn lalb_is_limit_zero() {
        assert_eq!(LalbScheduler::new(0).o3_limit(), 0);
        assert_eq!(LalbScheduler::new(0).name(), "LALB");
        assert_ne!(LalbScheduler::new(1).name(), "LALB");
    }

    #[test]
    fn enum_builds_matching_trait_impls() {
        // Each config-facing spec builds the same trait impl, by name, as
        // its direct constructor.
        let reg = crate::policy::PolicyRegistry::builtin();
        let build = |s: &str| {
            reg.scheduler(&crate::policy::PolicySpec::parse(s).unwrap())
                .unwrap()
                .name()
        };
        assert_eq!(build("lb"), LbScheduler.name());
        assert_eq!(build("lalb"), LalbScheduler::new(0).name());
        assert_eq!(build("lalbo3"), LalbScheduler::new(DEFAULT_O3_LIMIT).name());
        assert_eq!(build("lalbo3:7"), LalbScheduler::new(7).name());
        assert_eq!(build("lalbo3:7"), "LALBO3(limit=7)");
    }

    #[test]
    fn lalb_scheduler_exposes_its_limit() {
        assert_eq!(LalbScheduler::new(25).o3_limit(), 25);
    }
}
