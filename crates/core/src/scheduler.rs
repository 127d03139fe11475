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
//! * **Lookahead** — the fourth policy on the same Algorithm 1 scan
//!   (LALB+O3 at the paper's limit), choosing each arm by forking the
//!   open ones instead of by Algorithm 2's estimate alone.
//!
//! # The trait surface
//!
//! Policies implement [`SchedulerPolicy`]: the cluster driver calls
//! [`SchedulerPolicy::on_gpu_idle`] for each idle GPU with a borrowed
//! [`SchedCtx`] view of the queue, residency, and finish-time state, and
//! the policy answers with a [`Dispatch`] for that GPU (placements on
//! *other* GPUs — Algorithm 2's hit-elsewhere / wait-on-busy arms —
//! execute immediately through [`SchedCtx::perform`]). Policies are named
//! by string specs (`"lb"`, `"lalb"`, `"lalbo3:25"`,
//! `"lookahead:k=4,horizon=8"`) that resolve through
//! [`crate::policy::PolicyRegistry`].

use crate::cluster::{SchedCtx, SpecScore};
use crate::request::Request;
use gfaas_gpu::{GpuId, ModelId};
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
#[derive(Debug, Clone)]
pub struct LalbScheduler {
    o3_limit: u32,
    /// Reused scan bitset and Algorithm-2 wait buffer (scratch, not
    /// state: every decision overwrites them).
    mask: ResidentMask,
    waits: Waits,
}

impl LalbScheduler {
    /// A LALB scheduler; `o3_limit == 0` is pure LALB, `> 0` is LALB+O3.
    pub fn new(o3_limit: u32) -> Self {
        LalbScheduler {
            o3_limit,
            mask: ResidentMask::default(),
            waits: Waits::new(),
        }
    }

    /// The configured starvation limit.
    pub fn o3_limit(&self) -> u32 {
        self.o3_limit
    }
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

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let waits = &mut self.waits;
        algorithm1(gpu, self.o3_limit, ctx, &mut self.mask, |gpu, i, ctx| {
            algorithm2(gpu, ctx.queued(i).model, ctx, waits)
        })
    }
}

/// Why an out-of-order scan run stopped at its current request.
enum Stop {
    /// The request's model is cached on the scanning GPU.
    Hit,
    /// The request reached the O3 starvation limit.
    Starved,
}

/// The scanning GPU's residency as a bitset: one `u64` word per 64
/// model ids, as many words as the largest resident id needs, so any
/// registry size works.
#[derive(Debug, Clone, Default)]
struct ResidentMask(Vec<u64>);

impl ResidentMask {
    /// Replaces the set with `models`.
    fn fill(&mut self, models: impl Iterator<Item = ModelId>) {
        self.0.clear();
        for m in models {
            let word = m.0 as usize / 64;
            if word >= self.0.len() {
                self.0.resize(word + 1, 0);
            }
            self.0[word] |= 1 << (m.0 % 64);
        }
    }

    fn contains(&self, m: ModelId) -> bool {
        self.0
            .get(m.0 as usize / 64)
            .is_some_and(|w| w >> (m.0 % 64) & 1 == 1)
    }
}

/// Algorithm 1's out-of-order scan from `*i`: advances `*i` past the
/// requests the GPU skips and stops at the first one it must act on
/// (`None` at the end of the queue). §VI isolation passes capped
/// tenants over without O3 visit accounting (they are blocked, not
/// skipped). The scan only reads; each run of skipped requests has its
/// visit counters bumped in one call, before the caller acts — so a scan
/// over a long queue stays a tight read loop. The hit test reads `gpu`'s
/// residency from `mask`, built once per run, instead of searching each
/// queued model's holder list.
fn o3_run(
    gpu: GpuId,
    o3_limit: u32,
    i: &mut usize,
    ctx: &mut SchedCtx<'_>,
    mask: &mut ResidentMask,
) -> Option<Stop> {
    mask.fill(ctx.resident_models(gpu));
    let mut start = *i;
    let stop = loop {
        if *i >= ctx.queue_len() {
            break None;
        }
        let r = ctx.queued(*i);
        let (tenant, model, visits) = (r.tenant, r.model, r.visits);
        if ctx.tenant_blocked(tenant) {
            ctx.note_skips(start..*i);
            *i += 1;
            start = *i;
            continue;
        }
        let hit = mask.contains(model);
        debug_assert_eq!(hit, ctx.is_cached(gpu, model), "residency mask out of sync");
        if hit {
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

/// Algorithm 1 for idle GPU `gpu`, the one scan of every locality-aware
/// policy. `choose(gpu, i, ctx)` picks the arm for the queued request at
/// `i` whenever the scan must place it: [`algorithm2`], or lookahead's
/// measured variant of it. `mask` is the calling policy's reused buffer
/// for [`o3_run`]'s residency bitset.
fn algorithm1(
    gpu: GpuId,
    o3_limit: u32,
    ctx: &mut SchedCtx<'_>,
    mask: &mut ResidentMask,
    mut choose: impl FnMut(GpuId, usize, &mut SchedCtx<'_>) -> Placement,
) -> Dispatch {
    // Lines 6–16: scan the global queue in arrival order for a request
    // whose model is cached on this GPU; skipped requests accumulate
    // visits, and a request at the limit is placed immediately.
    let mut i = 0;
    while ctx.is_idle(gpu) {
        let arm = match o3_run(gpu, o3_limit, &mut i, ctx, mask) {
            None => break,
            Some(Stop::Hit) => Placement::HitOn(gpu),
            Some(Stop::Starved) => choose(gpu, i, ctx),
        };
        if let Some(d) = execute(gpu, i, arm, ctx) {
            return d;
        }
        // The request went to another GPU or a local queue; the element
        // at index i is now the next request — do not advance.
    }
    // Lines 17–21: no queued request has its model cached here; give
    // each request (arrival order) its best placement until this GPU
    // receives one. Capped tenants stay queued.
    let mut i = 0;
    while i < ctx.queue_len() && ctx.is_idle(gpu) {
        if ctx.tenant_blocked(ctx.queued(i).tenant) {
            i += 1;
        } else if let Some(d) = execute(gpu, i, choose(gpu, i, ctx), ctx) {
            return d;
        }
    }
    Dispatch::None
}

/// A placement arm (§IV) at an explicit GPU: what Algorithm 2 and
/// lookahead choose, what the scan executes, and what a fork tries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Dispatch as a cache hit on this idle GPU.
    HitOn(GpuId),
    /// Join this busy GPU's local queue (Algorithm 2's wait arm).
    WaitOn(GpuId),
    /// Dispatch as a miss — load the model — on this idle GPU.
    MissOn(GpuId),
}

/// Holders' estimated waits, cheapest first (ties by GPU id).
type Waits = Vec<(SimDuration, GpuId)>;

/// Algorithm 2: the greedy arm for a request for `model` that idle GPU
/// `gpu` must place. Prefers (1) a miss on `gpu` if the model is cached
/// nowhere, (2) a hit on another idle GPU, (3) the local queue of the
/// holder with the smallest estimated wait when that wait beats the
/// model's load time, (4) otherwise a miss on `gpu`. The waits it
/// estimates for (3) are left in `waits` (empty when it decided before
/// (3)), so a caller weighing the other arms estimates each holder once.
/// It walks the holder list in place and refills the caller's buffer,
/// so a decision allocates nothing.
fn algorithm2(gpu: GpuId, model: ModelId, ctx: &SchedCtx<'_>, waits: &mut Waits) -> Placement {
    waits.clear();
    let mut holders = ctx.holders(model).peekable();
    if holders.peek().is_none() {
        // Lines 1–3: cached nowhere → allow the miss here.
        return Placement::MissOn(gpu);
    }
    // Lines 4–6: cached on another idle GPU → hit there.
    if let Some(j) = holders.find(|&j| hit_target(gpu, j, ctx)) {
        return Placement::HitOn(j);
    }
    // Lines 8–15: cached only on busy GPUs. Compare the best holder's
    // estimated finish time against the load time of a cold start.
    // `busy_wait` ablates this decision (`ablation_estimation`). Under a
    // batching policy the wait is join-aware (the request shares its
    // model's coalesced invocation); per-request dispatch keeps the
    // paper's drain estimate byte-identically.
    estimate_waits(model, ctx, waits);
    match waits.first() {
        Some(&(wait, j)) if ctx.busy_wait().joins(wait, ctx.load_time(gpu, model)) => {
            Placement::WaitOn(j)
        }
        // Lines 16–18: the busy hit would be slower → allow the miss here.
        _ => Placement::MissOn(gpu),
    }
}

/// True iff holder `j` can take a hit for `gpu`'s scan now: another GPU,
/// idle and without a local backlog. An idle holder still carrying a
/// backlog is mid-pass: its queue drains under Algorithm 1's local
/// priority before it can accept new work.
fn hit_target(gpu: GpuId, j: GpuId, ctx: &SchedCtx<'_>) -> bool {
    j != gpu && ctx.is_idle(j) && ctx.local_backlog(j) == 0
}

/// Fills `waits` with every holder's estimated wait for `model`.
fn estimate_waits(model: ModelId, ctx: &SchedCtx<'_>, waits: &mut Waits) {
    waits.clear();
    waits.extend(
        ctx.holders(model)
            .map(|j| (ctx.estimated_wait_for(j, model), j)),
    );
    waits.sort_unstable();
}

/// Takes the queued request at `i` off the global queue and performs
/// `arm` for it. An arm on `gpu` itself is handed back as its
/// [`Dispatch`]; any other executes now through [`SchedCtx::perform`].
fn execute(gpu: GpuId, i: usize, arm: Placement, ctx: &mut SchedCtx<'_>) -> Option<Dispatch> {
    let r = ctx.take_queued(i);
    match arm {
        Placement::HitOn(j) if j == gpu => Some(Dispatch::Hit(r)),
        Placement::MissOn(j) if j == gpu => Some(Dispatch::Miss(r)),
        _ => {
            ctx.perform(r, arm);
            None
        }
    }
}

/// Speculative what-if scheduling on top of the snapshot journal.
///
/// Where LALB *estimates* the cost of each §IV placement arm, this
/// policy *measures* it: for up to `k` candidate arms (hit on an idle
/// holder, wait at a busy holder, miss here) it forks the world through
/// [`SchedCtx::speculate`], replays the next `horizon` pending runtime
/// events under greedy LALBO3, scores the fork, and rolls it back
/// byte-identically; the winning arm is then executed for real.
/// Everything else is LALBO3's Algorithm 1 scan, so at `k=1` — only
/// Algorithm 2's own arm, nothing forked — the policy is LALBO3.
#[derive(Debug, Clone)]
pub struct LookaheadScheduler {
    /// Reused scan bitset (scratch, like every buffer here).
    mask: ResidentMask,
    arms: ArmChoice,
}

/// Lookahead's arm choice: the budget, plus the buffers one decision
/// fills — Algorithm 2's waits, the candidate arms and their scores.
#[derive(Debug, Clone)]
struct ArmChoice {
    /// Maximum candidate placements forked per decision.
    k: usize,
    /// Pending runtime events replayed inside each fork.
    horizon: usize,
    waits: Waits,
    cands: Vec<Placement>,
    scores: Vec<SpecScore>,
}

/// Default candidate budget for [`LookaheadScheduler`].
pub const DEFAULT_LOOKAHEAD_K: usize = 4;
/// Default replay horizon for [`LookaheadScheduler`].
pub const DEFAULT_LOOKAHEAD_HORIZON: usize = 8;

impl LookaheadScheduler {
    /// A lookahead scheduler forking up to `k` candidates, each replayed
    /// `horizon` events deep.
    pub fn new(k: usize, horizon: usize) -> Self {
        LookaheadScheduler {
            mask: ResidentMask::default(),
            arms: ArmChoice {
                k: k.max(1),
                horizon,
                waits: Waits::new(),
                cands: Vec::new(),
                scores: Vec::new(),
            },
        }
    }
}

impl ArmChoice {
    /// The arm for the queued request at `i`. Candidate 0 is Algorithm
    /// 2's greedy arm; the alternatives follow in a deterministic order
    /// — the other idle hits (id order), waits at busy holders (cheapest
    /// estimate first), then the miss here — deduplicated, `k` in all.
    /// All candidates are forked in one [`SchedCtx::speculate`] call. The
    /// strict comparison keeps the earliest of equal scores, so the
    /// choice leaves the estimate's only when a fork *measured* a
    /// strictly better outcome.
    fn choose(&mut self, gpu: GpuId, i: usize, ctx: &mut SchedCtx<'_>) -> Placement {
        let model = ctx.queued(i).model;
        let greedy = algorithm2(gpu, model, ctx, &mut self.waits);
        // Nothing to fork at `k=1`; cached nowhere, only the miss is open.
        if self.k == 1 || ctx.holders(model).next().is_none() {
            return greedy;
        }
        if self.waits.is_empty() {
            // The greedy arm is an idle hit, taken without estimates.
            estimate_waits(model, ctx, &mut self.waits);
        }
        let hits = ctx.holders(model).filter(|&j| hit_target(gpu, j, ctx));
        let busy = self.waits.iter().map(|w| w.1).filter(|&j| !ctx.is_idle(j));
        let alts = hits
            .map(Placement::HitOn)
            .chain(busy.map(Placement::WaitOn));
        let cands = &mut self.cands;
        cands.clear();
        cands.push(greedy);
        for p in alts.chain([Placement::MissOn(gpu)]) {
            if cands.len() < self.k && !cands.contains(&p) {
                cands.push(p);
            }
        }
        if cands.len() == 1 {
            return greedy;
        }
        ctx.speculate(i, cands, self.horizon, &mut self.scores);
        let mut best = 0;
        for c in 1..cands.len() {
            if self.scores[c].better_than(&self.scores[best]) {
                best = c;
            }
        }
        cands[best]
    }
}

impl SchedulerPolicy for LookaheadScheduler {
    fn name(&self) -> String {
        format!("Lookahead(k={},h={})", self.arms.k, self.arms.horizon)
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let arms = &mut self.arms;
        algorithm1(gpu, DEFAULT_O3_LIMIT, ctx, &mut self.mask, |gpu, i, ctx| {
            arms.choose(gpu, i, ctx)
        })
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
