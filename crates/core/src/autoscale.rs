//! GPU autoscaling: elastic cluster capacity under queue pressure.
//!
//! The paper evaluates on a fixed 12-GPU testbed; under time-varying load
//! (the `diurnal` sinusoid, flash crowds) a fixed fleet is simultaneously
//! over-provisioned in the trough and under-provisioned at the peak. This
//! module opens the capacity dimension the paper never varies:
//!
//! * [`Autoscaler`] — the open policy trait. The cluster driver calls
//!   [`Autoscaler::step`] on a fixed cadence of virtual time with a
//!   borrowed [`ScaleView`] of the global queue depth, per-GPU
//!   busy/idle/residency state, and the current fleet size; the policy
//!   answers with a [`ScaleDecision`].
//! * [`QueuePressureAutoscaler`] — the builtin hysteresis policy: scale
//!   up when the global queue exceeds a high-water depth, scale down one
//!   GPU at a time when the queue has stayed at or below a low-water
//!   depth for consecutive steps and idle capacity exists.
//! * [`AutoscaleSpec`] — the string-facing configuration, parsed like a
//!   policy spec: `queue:min=4,max=24,up=8,down=1,cadence=5`.
//!
//! Mechanics (provisioning cold devices, draining victims without losing
//! requests, bookkeeping `gpu_seconds_provisioned`) live in the cluster
//! driver; this module is pure policy. Scale-*up* brings a cold device
//! online — its model cache is empty, so the first requests routed there
//! pay upload misses. Scale-*down* never kills work: the victim finishes
//! its in-flight request and local queue, then its resident models are
//! evicted and the device goes offline.

use std::fmt;

use gfaas_sim::spec::{finite, split_key, tokens};
use gfaas_sim::time::SimDuration;

use crate::cluster::ScaleView;

/// Default minimum fleet size.
///
/// The defaults below are calibrated on the `fig_autoscale` study (the
/// `diurnal` scenario around the paper's 12-GPU testbed): an elastic band
/// of 4–16 GPUs with a 12-deep scale-up trigger cuts provisioned
/// GPU-seconds below the fixed testbed while improving both average and
/// p95 latency. They are starting points, not laws — every field is
/// settable in the spec string.
pub const DEFAULT_MIN_GPUS: usize = 4;
/// Default maximum fleet size (the paper's 12-GPU testbed plus a third).
pub const DEFAULT_MAX_GPUS: usize = 16;
/// Default scale-up queue depth (high-water mark).
pub const DEFAULT_UP_DEPTH: usize = 12;
/// Default scale-down queue depth (low-water mark).
pub const DEFAULT_DOWN_DEPTH: usize = 2;
/// Default step cadence, seconds of virtual time.
pub const DEFAULT_CADENCE_SECS: f64 = 3.0;
/// Consecutive low-pressure steps required before a scale-down fires —
/// the hysteresis guard against flapping on a momentarily empty queue.
pub const DOWN_STREAK_STEPS: u32 = 2;

/// A malformed or out-of-range autoscale spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AutoscaleError {
    /// The spec string was syntactically malformed.
    BadSpec(String),
    /// No autoscaler is registered under this key.
    UnknownKey(String),
    /// A `field=value` pair failed to parse.
    BadField {
        /// The offending field name.
        field: String,
        /// The value that was supplied.
        value: String,
    },
    /// The parsed fields are structurally inconsistent.
    BadBounds(String),
}

impl fmt::Display for AutoscaleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AutoscaleError::BadSpec(s) => write!(f, "malformed autoscale spec {s:?}"),
            AutoscaleError::UnknownKey(k) => {
                write!(f, "unknown autoscaler {k:?} (known: [\"queue\"])")
            }
            AutoscaleError::BadField { field, value } => {
                write!(f, "bad autoscale field {field}={value:?}")
            }
            AutoscaleError::BadBounds(why) => write!(f, "inconsistent autoscale spec: {why}"),
        }
    }
}

impl std::error::Error for AutoscaleError {}

/// A parsed autoscale spec: `key:field=value,…` — the CLI- and
/// config-facing description of an autoscaling policy, in the
/// [`gfaas_sim::spec`] grammar shared with [`crate::policy::PolicySpec`].
///
/// Grammar: `queue[:min=M,max=N,up=U,down=D,cadence=S]`, fields in any
/// order, all optional (see the `DEFAULT_*` constants). `min`/`max` bound
/// the fleet; `up` is the global-queue depth that triggers a scale-up;
/// `down` is the depth at or below which (held for
/// [`DOWN_STREAK_STEPS`] consecutive steps, with idle capacity present) a
/// scale-down fires; `cadence` is the step period in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleSpec {
    key: String,
    /// Minimum number of online GPUs.
    pub min_gpus: usize,
    /// Maximum number of online GPUs (the cluster allocates this many
    /// devices up front; those beyond the initial fleet start offline).
    pub max_gpus: usize,
    /// Queue depth triggering a scale-up.
    pub up_depth: usize,
    /// Queue depth at or below which scale-down pressure accumulates.
    pub down_depth: usize,
    /// Step period, seconds of virtual time.
    pub cadence_secs: f64,
}

impl Default for AutoscaleSpec {
    fn default() -> Self {
        AutoscaleSpec {
            key: "queue".to_string(),
            min_gpus: DEFAULT_MIN_GPUS,
            max_gpus: DEFAULT_MAX_GPUS,
            up_depth: DEFAULT_UP_DEPTH,
            down_depth: DEFAULT_DOWN_DEPTH,
            cadence_secs: DEFAULT_CADENCE_SECS,
        }
    }
}

impl AutoscaleSpec {
    /// Parses `key[:field=value,…]` (split by [`gfaas_sim::spec`]). See
    /// the type docs for the grammar.
    pub fn parse(s: &str) -> Result<AutoscaleSpec, AutoscaleError> {
        let s = s.trim();
        let bad_spec = || AutoscaleError::BadSpec(s.to_string());
        let (key, args) = split_key(s).ok_or_else(bad_spec)?;
        let mut spec = AutoscaleSpec {
            key: key.to_string(),
            ..AutoscaleSpec::default()
        };
        for (field, value) in args.into_iter().flat_map(tokens) {
            let value = value.ok_or_else(bad_spec)?;
            let bad = || AutoscaleError::BadField {
                field: field.to_string(),
                value: value.to_string(),
            };
            match field {
                "min" => spec.min_gpus = value.parse().map_err(|_| bad())?,
                "max" => spec.max_gpus = value.parse().map_err(|_| bad())?,
                "up" => spec.up_depth = value.parse().map_err(|_| bad())?,
                "down" => spec.down_depth = value.parse().map_err(|_| bad())?,
                "cadence" => spec.cadence_secs = finite(value).ok_or_else(bad)?,
                _ => return Err(bad()),
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The registry key (`"queue"` for the builtin policy).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Checks structural consistency: a known key, `1 ≤ min ≤ max` (with
    /// `max` within [`gfaas_gpu::GpuId`]'s range), a scale-up depth above
    /// the scale-down depth, and a positive cadence.
    pub fn validate(&self) -> Result<(), AutoscaleError> {
        if self.key != "queue" {
            return Err(AutoscaleError::UnknownKey(self.key.clone()));
        }
        if self.min_gpus == 0 {
            return Err(AutoscaleError::BadBounds("min must be at least 1".into()));
        }
        if self.max_gpus < self.min_gpus {
            return Err(AutoscaleError::BadBounds(format!(
                "max {} must be at least min {}",
                self.max_gpus, self.min_gpus
            )));
        }
        if self.max_gpus > u16::MAX as usize {
            return Err(AutoscaleError::BadBounds(format!(
                "max {} exceeds the GPU id space",
                self.max_gpus
            )));
        }
        if self.up_depth == 0 || self.up_depth <= self.down_depth {
            return Err(AutoscaleError::BadBounds(format!(
                "up depth {} must exceed down depth {}",
                self.up_depth, self.down_depth
            )));
        }
        // NaN must fail too, hence the negated comparison shape.
        // gfaas-lint: allow(float-ord, NaN-rejecting validation - partial_cmp returning None deliberately fails the check)
        if self.cadence_secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(AutoscaleError::BadBounds("cadence must be positive".into()));
        }
        Ok(())
    }

    /// Instantiates the autoscaler this spec names.
    pub fn build(&self) -> Result<Box<dyn Autoscaler>, AutoscaleError> {
        self.validate()?;
        match self.key.as_str() {
            "queue" => Ok(Box::new(QueuePressureAutoscaler::from_spec(self))),
            _ => Err(AutoscaleError::UnknownKey(self.key.clone())),
        }
    }
}

impl fmt::Display for AutoscaleSpec {
    /// The canonical full form:
    /// `queue:min=4,max=24,up=8,down=1,cadence=5`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:min={},max={},up={},down={},cadence={}",
            self.key,
            self.min_gpus,
            self.max_gpus,
            self.up_depth,
            self.down_depth,
            self.cadence_secs
        )
    }
}

impl std::str::FromStr for AutoscaleSpec {
    type Err = AutoscaleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AutoscaleSpec::parse(s)
    }
}

/// What an autoscaler decided for this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the fleet as it is.
    Hold,
    /// Bring up to this many offline GPUs online (cold: empty caches).
    Up(usize),
    /// Drain this many online GPUs (finish in-flight work and local
    /// queues, evict residents, go offline).
    Down(usize),
}

/// An elastic-capacity policy driving the cluster's fleet size.
///
/// The driver calls [`Autoscaler::step`] every [`Autoscaler::cadence`] of
/// virtual time while requests remain, interleaved with scheduling
/// passes; the decision is applied immediately (scale-ups trigger a
/// scheduling pass, scale-downs mark drain victims). The driver clamps
/// decisions so the online fleet never leaves the configured
/// `[min_gpus, max_gpus]` band. Implementations must be deterministic:
/// any randomness must come from owned, seeded state.
pub trait Autoscaler: fmt::Debug + Send {
    /// Display name for reports.
    fn name(&self) -> String;

    /// Step period in virtual time.
    fn cadence(&self) -> SimDuration;

    /// One observation → decision step.
    fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision;

    /// Serialises any mutable policy state into a snapshot blob (the
    /// hysteresis streak, for the builtin). Stateless policies keep the
    /// default no-op.
    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        let _ = enc;
    }

    /// Restores the state written by [`Autoscaler::save_state`] onto a
    /// policy built from the same spec.
    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        let _ = dec;
        Ok(())
    }
}

/// The builtin queue-pressure hysteresis policy (spec key `queue`).
///
/// * **Up**: when the global queue depth reaches `up_depth`, request
///   `⌈depth / up_depth⌉` new GPUs (so deep backlogs recover in one step
///   rather than one GPU per cadence), clamped to `max_gpus`.
/// * **Down**: when the queue depth has stayed at or below `down_depth`
///   for [`DOWN_STREAK_STEPS`] consecutive steps *and* at least one
///   online GPU is idle, release half the idle GPUs (at least one). The
///   streak requirement plus releasing only a fraction of the observed
///   slack is the hysteresis that keeps the fleet from flapping around a
///   noisy queue while still tracking a deep trough geometrically.
#[derive(Debug, Clone)]
pub struct QueuePressureAutoscaler {
    min_gpus: usize,
    max_gpus: usize,
    up_depth: usize,
    down_depth: usize,
    cadence: SimDuration,
    down_streak: u32,
}

impl QueuePressureAutoscaler {
    /// Builds the policy from a validated spec.
    pub fn from_spec(spec: &AutoscaleSpec) -> Self {
        QueuePressureAutoscaler {
            min_gpus: spec.min_gpus,
            max_gpus: spec.max_gpus,
            up_depth: spec.up_depth,
            down_depth: spec.down_depth,
            cadence: SimDuration::from_secs_f64(spec.cadence_secs),
            down_streak: 0,
        }
    }

    /// The configured fleet bounds.
    pub fn bounds(&self) -> (usize, usize) {
        (self.min_gpus, self.max_gpus)
    }
}

impl Autoscaler for QueuePressureAutoscaler {
    fn name(&self) -> String {
        format!(
            "queue(min={},max={},up={},down={})",
            self.min_gpus, self.max_gpus, self.up_depth, self.down_depth
        )
    }

    fn cadence(&self) -> SimDuration {
        self.cadence
    }

    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        enc.put_u32(self.down_streak);
    }

    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        self.down_streak = dec.u32()?;
        Ok(())
    }

    fn step(&mut self, view: &ScaleView<'_>) -> ScaleDecision {
        let active = view.active_gpus();
        let depth = view.queue_len();
        if depth >= self.up_depth && active < self.max_gpus {
            self.down_streak = 0;
            let want = depth.div_ceil(self.up_depth).min(self.max_gpus - active);
            return ScaleDecision::Up(want.max(1));
        }
        if depth <= self.down_depth && active > self.min_gpus && view.busy_gpus() < active {
            self.down_streak += 1;
            if self.down_streak >= DOWN_STREAK_STEPS {
                self.down_streak = 0;
                let idle = active - view.busy_gpus();
                let release = (idle / 2).max(1).min(active - self.min_gpus);
                return ScaleDecision::Down(release);
            }
        } else {
            self.down_streak = 0;
        }
        ScaleDecision::Hold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_key_with_defaults() {
        let s = AutoscaleSpec::parse("queue").unwrap();
        assert_eq!(s.key(), "queue");
        assert_eq!(s.min_gpus, DEFAULT_MIN_GPUS);
        assert_eq!(s.max_gpus, DEFAULT_MAX_GPUS);
        assert_eq!(s.up_depth, DEFAULT_UP_DEPTH);
        assert_eq!(s.down_depth, DEFAULT_DOWN_DEPTH);
        assert_eq!(s.cadence_secs, DEFAULT_CADENCE_SECS);
    }

    #[test]
    fn parses_fields_in_any_order_and_round_trips() {
        let s = AutoscaleSpec::parse("queue:max=16,up=6,min=2,cadence=2.5,down=0").unwrap();
        assert_eq!(
            (s.min_gpus, s.max_gpus, s.up_depth, s.down_depth),
            (2, 16, 6, 0)
        );
        assert_eq!(s.cadence_secs, 2.5);
        // Display is the canonical full form and re-parses to the same spec.
        let printed = s.to_string();
        assert_eq!(printed, "queue:min=2,max=16,up=6,down=0,cadence=2.5");
        assert_eq!(printed.parse::<AutoscaleSpec>().unwrap(), s);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            ":",
            "QUEUE",
            "queue:",
            "queue:min",
            "queue:min=",
            "queue:min=x",
            "queue:wat=1",
            "queue:cadence=inf",
        ] {
            assert!(AutoscaleSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_inconsistent_bounds() {
        for bad in [
            "queue:min=0",
            "queue:min=8,max=4",
            "queue:up=0",
            "queue:up=2,down=2",
            "queue:cadence=0",
            "queue:cadence=-1",
            "queue:max=70000",
            "pressure", // unknown key
        ] {
            assert!(AutoscaleSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn errors_print_exactly() {
        let bad = |s| format!("malformed autoscale spec {s:?}");
        let field = |field, value| format!("bad autoscale field {field}={value:?}");
        let bounds = |why| format!("inconsistent autoscale spec: {why}");
        let cases = [
            ("", bad("")),
            (" QUEUE", bad("QUEUE")),
            ("queue:", bad("queue:")),
            ("queue:min", bad("queue:min")),
            ("queue:min=2,4", bad("queue:min=2,4")),
            (
                "pressure",
                "unknown autoscaler \"pressure\" (known: [\"queue\"])".into(),
            ),
            ("queue:min=", field("min", "")),
            ("queue:min=x", field("min", "x")),
            ("queue:max=-1", field("max", "-1")),
            ("queue:cadence=inf", field("cadence", "inf")),
            ("queue:wat=1", field("wat", "1")),
            ("queue:min=0", bounds("min must be at least 1")),
            ("queue:min=8,max=4", bounds("max 4 must be at least min 8")),
            (
                "queue:max=70000",
                bounds("max 70000 exceeds the GPU id space"),
            ),
            ("queue:up=0", bounds("up depth 0 must exceed down depth 2")),
            (
                "queue:up=2,down=2",
                bounds("up depth 2 must exceed down depth 2"),
            ),
            ("queue:cadence=0", bounds("cadence must be positive")),
        ];
        for (s, want) in cases {
            assert_eq!(
                AutoscaleSpec::parse(s).unwrap_err().to_string(),
                want,
                "{s:?}"
            );
        }
    }

    #[test]
    fn build_names_the_policy() {
        let a = AutoscaleSpec::parse("queue:min=2,max=6,up=4,down=1")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(a.name(), "queue(min=2,max=6,up=4,down=1)");
        assert_eq!(
            a.cadence(),
            SimDuration::from_secs_f64(DEFAULT_CADENCE_SECS)
        );
    }

    #[test]
    fn errors_display_helpfully() {
        let e = AutoscaleSpec::parse("queue:min=9,max=3").unwrap_err();
        assert!(e.to_string().contains("max 3"));
        let e = AutoscaleSpec::parse("belady").unwrap_err();
        assert!(e.to_string().contains("unknown autoscaler"));
    }
}
