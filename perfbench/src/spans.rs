//! Harness-side spans around the public seams of each layer.
//!
//! Every open extension point of the cluster is wrapped in a forwarding
//! adapter: the scheduler ([`SchedulerPolicy`], built through
//! [`PolicyRegistry::scheduler`]), the cache [`Evictor`], the
//! [`BatchPolicy`] (through `Cluster::set_batcher`), the [`Autoscaler`]
//! (through `Cluster::set_autoscaler`) and the [`Recorder`] (through
//! `Cluster::set_recorder`). Each adapter forwards every trait method
//! unchanged, counts the calls, and opens a span around the ones that do
//! a layer's work.
//!
//! Spans nest on one thread-local stack, so a span keeps its parent and a
//! layer's *self* time excludes the timed spans nested in it: evictor
//! calls made under `on_gpu_idle` are the evictor's time, not the
//! scheduler's.
//!
//! A clock read is not free, and the evictor and recorder are called many
//! times per request. A traced run is therefore split into two passes:
//! [`Pass::Coarse`] reads the clock only at the scheduler, batcher and
//! autoscaler seams; [`Pass::Fine`] only at the evictor and recorder. Both
//! passes count every call and keep the full parent stack, so the fine
//! pass records how much evictor and recorder time sits under each coarse
//! seam, and that share is taken out of the coarse seams' self time.

use std::cell::RefCell;
use std::time::Instant;

use gfaas_core::obs::ObsEvent;
use gfaas_core::snap::{Dec, Enc, SnapError};
use gfaas_core::{
    Autoscaler, BatchPlan, BatchPolicy, BatchView, Dispatch, Evictor, Recorder, ScaleDecision,
    ScaleView, SchedCtx, SchedulerPolicy,
};
use gfaas_gpu::{GpuId, ModelId};
use gfaas_sim::{SimDuration, SimTime};

/// A seam: one public entry point into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Seam {
    /// `SchedulerPolicy::on_gpu_idle` (Algorithm 1/2, and the lookahead
    /// policy's what-if forks).
    Idle,
    /// `SchedulerPolicy::idle_order`.
    Order,
    /// Any `Evictor` method.
    Evict,
    /// `BatchPolicy::plan`.
    Plan,
    /// `Autoscaler::step`.
    Scale,
    /// `Recorder::record` and `Recorder::finish`.
    Record,
}

/// Number of seams.
pub const SEAMS: usize = 6;
/// Index used for "no enclosing seam": the cluster's own event loop.
pub const ROOT: usize = SEAMS;

/// Which seams read the clock in a traced pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Scheduler, batcher and autoscaler seams.
    Coarse,
    /// Evictor and recorder seams.
    Fine,
}

impl Pass {
    fn times(self, seam: Seam) -> bool {
        match self {
            Pass::Coarse => matches!(seam, Seam::Idle | Seam::Order | Seam::Plan | Seam::Scale),
            Pass::Fine => matches!(seam, Seam::Evict | Seam::Record),
        }
    }
}

/// What one traced pass recorded.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Calls into each seam.
    pub calls: [u64; SEAMS],
    /// Self time of each timed seam: its spans minus the timed spans
    /// nested in them, in nanoseconds.
    pub self_ns: [u64; SEAMS],
    /// `under_ns[s][p]`: self time of timed seam `s` spent while the
    /// nearest enclosing *untimed* seam was `p` ([`ROOT`] when none).
    pub under_ns: [[u64; SEAMS + 1]; SEAMS],
    /// Inclusive time of each timed seam's spans, in nanoseconds.
    pub total_ns: [u64; SEAMS],
    /// Total time of timed spans with no timed ancestor: the part of the
    /// run the timed seams cover.
    pub top_ns: u64,
    /// `on_gpu_idle` calls that returned a dispatch.
    pub placed: u64,
}

impl Tally {
    /// Adds another pass's tally to this one.
    pub fn merge(&mut self, other: &Tally) {
        for s in 0..SEAMS {
            self.calls[s] += other.calls[s];
            self.self_ns[s] += other.self_ns[s];
            self.total_ns[s] += other.total_ns[s];
            for p in 0..=SEAMS {
                self.under_ns[s][p] += other.under_ns[s][p];
            }
        }
        self.top_ns += other.top_ns;
        self.placed += other.placed;
    }
}

struct Frame {
    seam: usize,
    start: Option<Instant>,
    child_ns: u64,
}

#[derive(Default)]
struct State {
    pass: Option<Pass>,
    stack: Vec<Frame>,
    tally: Tally,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Starts a traced pass on this thread, clearing the previous tally.
pub fn begin(pass: Pass) {
    STATE.with(|st| {
        let mut st = st.borrow_mut();
        st.pass = Some(pass);
        st.stack.clear();
        st.tally = Tally::default();
    });
}

/// Ends the traced pass and returns what it recorded.
pub fn end() -> Tally {
    STATE.with(|st| {
        let mut st = st.borrow_mut();
        assert!(st.stack.is_empty(), "a span is still open");
        st.pass = None;
        std::mem::take(&mut st.tally)
    })
}

fn enter(seam: Seam) {
    STATE.with(|st| {
        let mut st = st.borrow_mut();
        // Outside a pass (cluster construction) the frame only keeps the
        // stack balanced.
        let start = match st.pass {
            Some(pass) => {
                st.tally.calls[seam as usize] += 1;
                pass.times(seam).then(Instant::now)
            }
            None => None,
        };
        st.stack.push(Frame {
            seam: seam as usize,
            start,
            child_ns: 0,
        });
    });
}

fn exit() {
    STATE.with(|st| {
        let mut st = st.borrow_mut();
        let frame = st.stack.pop().expect("span exit without enter");
        let Some(start) = frame.start else {
            return;
        };
        let dur = start.elapsed().as_nanos() as u64;
        let own = dur.saturating_sub(frame.child_ns);
        let st = &mut *st;
        st.tally.self_ns[frame.seam] += own;
        st.tally.total_ns[frame.seam] += dur;
        match st.stack.iter_mut().rev().find(|f| f.start.is_some()) {
            Some(parent) => parent.child_ns += dur,
            None => st.tally.top_ns += dur,
        }
        let host = st
            .stack
            .iter()
            .rev()
            .find(|f| f.start.is_none())
            .map_or(ROOT, |f| f.seam);
        st.tally.under_ns[frame.seam][host] += own;
    });
}

fn span<R>(seam: Seam, f: impl FnOnce() -> R) -> R {
    enter(seam);
    let out = f();
    exit();
    out
}

/// Traced [`SchedulerPolicy`].
#[derive(Debug)]
pub struct TracedSched(pub Box<dyn SchedulerPolicy>);

impl SchedulerPolicy for TracedSched {
    fn name(&self) -> String {
        self.0.name()
    }

    fn idle_order(&mut self, ctx: &SchedCtx<'_>, idle: &mut Vec<GpuId>) {
        span(Seam::Order, || self.0.idle_order(ctx, idle));
    }

    fn on_gpu_idle(&mut self, gpu: GpuId, ctx: &mut SchedCtx<'_>) -> Dispatch {
        let dispatch = span(Seam::Idle, || self.0.on_gpu_idle(gpu, ctx));
        if !matches!(dispatch, Dispatch::None) {
            STATE.with(|st| st.borrow_mut().tally.placed += 1);
        }
        dispatch
    }

    fn save_state(&self, enc: &mut Enc) {
        self.0.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.0.load_state(dec)
    }
}

/// Traced [`Evictor`].
#[derive(Debug)]
pub struct TracedEvictor(pub Box<dyn Evictor>);

impl Evictor for TracedEvictor {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn attach_gpu(&mut self, gpu: GpuId) {
        span(Seam::Evict, || self.0.attach_gpu(gpu));
    }

    fn on_insert(&mut self, gpu: GpuId, model: ModelId) {
        span(Seam::Evict, || self.0.on_insert(gpu, model));
    }

    fn on_hit(&mut self, gpu: GpuId, model: ModelId) {
        span(Seam::Evict, || self.0.on_hit(gpu, model));
    }

    fn on_remove(&mut self, gpu: GpuId, model: ModelId) {
        span(Seam::Evict, || self.0.on_remove(gpu, model));
    }

    fn order(&self, gpu: GpuId) -> Vec<ModelId> {
        span(Seam::Evict, || self.0.order(gpu))
    }

    fn pick_victim(&mut self, gpu: GpuId, candidates: &[ModelId]) -> Option<ModelId> {
        span(Seam::Evict, || self.0.pick_victim(gpu, candidates))
    }

    fn save_state(&self, enc: &mut Enc) {
        span(Seam::Evict, || self.0.save_state(enc));
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        span(Seam::Evict, || self.0.load_state(dec))
    }
}

/// Traced [`BatchPolicy`].
#[derive(Debug)]
pub struct TracedBatcher(pub Box<dyn BatchPolicy>);

impl BatchPolicy for TracedBatcher {
    fn name(&self) -> String {
        self.0.name()
    }

    fn plan(&mut self, view: &BatchView) -> BatchPlan {
        span(Seam::Plan, || self.0.plan(view))
    }

    fn is_passthrough(&self) -> bool {
        self.0.is_passthrough()
    }

    fn save_state(&self, enc: &mut Enc) {
        self.0.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.0.load_state(dec)
    }
}

/// Traced [`Autoscaler`].
#[derive(Debug)]
pub struct TracedAutoscaler(pub Box<dyn Autoscaler>);

impl Autoscaler for TracedAutoscaler {
    fn name(&self) -> String {
        self.0.name()
    }

    fn cadence(&self) -> SimDuration {
        self.0.cadence()
    }

    fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision {
        span(Seam::Scale, || self.0.step(view))
    }

    fn save_state(&self, enc: &mut Enc) {
        self.0.save_state(enc);
    }

    fn load_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {
        self.0.load_state(dec)
    }
}

/// Traced [`Recorder`].
#[derive(Debug)]
pub struct TracedRecorder(pub Box<dyn Recorder>);

impl Recorder for TracedRecorder {
    fn record(&mut self, t: SimTime, ev: &ObsEvent<'_>) {
        span(Seam::Record, || self.0.record(t, ev));
    }

    fn sample_cadence(&self) -> Option<SimDuration> {
        self.0.sample_cadence()
    }

    fn finish(&mut self, end: SimTime) {
        span(Seam::Record, || self.0.finish(end));
    }
}
