//! String-keyed policy specs and the pluggable policy registry.
//!
//! A [`PolicySpec`] is a parsed `key[:arg]` string — the CLI- and
//! config-facing name of a policy: `"lb"`, `"lalb"`, `"lalbo3:25"` for
//! schedulers; `"lru"`, `"fifo"`, `"random"`, `"tinylfu:0.9"` for
//! evictors. [`PolicyRegistry`] maps those keys to factories producing
//! [`SchedulerPolicy`] / [`Evictor`] trait objects;
//! [`PolicyRegistry::builtin`] pre-registers the paper's policies plus
//! TinyLFU, and [`PolicyRegistry::register_scheduler`] /
//! [`PolicyRegistry::register_evictor`] open the namespace to new ones
//! without touching `gfaas-core`.
//!
//! ```
//! use gfaas_core::policy::{PolicyRegistry, PolicySpec};
//!
//! let reg = PolicyRegistry::builtin();
//! let sched = reg.scheduler(&PolicySpec::parse("lalbo3:40").unwrap()).unwrap();
//! assert_eq!(sched.name(), "LALBO3(limit=40)");
//! let ev = reg.evictor(&PolicySpec::parse("tinylfu:0.9").unwrap(), 1).unwrap();
//! assert_eq!(ev.name(), "tinylfu");
//! ```

use std::collections::BTreeMap;
use std::fmt;

use gfaas_sim::spec::{split_key, tokens};
use gfaas_sim::time::SimDuration;

use crate::batching::{AdaptiveBatch, BatchPolicy, CoalesceBatch, NoBatch};
use crate::cache::{Evictor, FifoEvictor, LruEvictor, RandomEvictor};
use crate::scheduler::{
    LalbScheduler, LbScheduler, LookaheadScheduler, SchedulerPolicy, DEFAULT_LOOKAHEAD_HORIZON,
    DEFAULT_LOOKAHEAD_K, DEFAULT_O3_LIMIT,
};
use crate::tinylfu::TinyLfuEvictor;

/// Errors from spec parsing and registry lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The spec string was empty or syntactically malformed.
    BadSpec(String),
    /// No scheduler is registered under this key.
    UnknownScheduler(String),
    /// No evictor is registered under this key.
    UnknownEvictor(String),
    /// No batching policy is registered under this key.
    UnknownBatcher(String),
    /// The key takes no argument but one was given.
    UnexpectedArg {
        /// The offending key.
        key: String,
        /// The argument that was supplied.
        arg: String,
    },
    /// The argument failed to parse or was out of range.
    BadArg {
        /// The offending key.
        key: String,
        /// The argument that was supplied.
        arg: String,
        /// What the key expects, for the error message.
        expected: &'static str,
    },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::BadSpec(s) => write!(f, "malformed policy spec {s:?}"),
            PolicyError::UnknownScheduler(k) => write!(f, "unknown scheduler policy {k:?}"),
            PolicyError::UnknownEvictor(k) => write!(f, "unknown replacement policy {k:?}"),
            PolicyError::UnknownBatcher(k) => write!(f, "unknown batching policy {k:?}"),
            PolicyError::UnexpectedArg { key, arg } => {
                write!(f, "policy {key:?} takes no argument (got {arg:?})")
            }
            PolicyError::BadArg { key, arg, expected } => {
                write!(
                    f,
                    "bad argument {arg:?} for policy {key:?}: expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A parsed `key[:arg]` policy spec — the string-facing identity of a
/// scheduler or evictor, in the grammar of [`gfaas_sim::spec`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PolicySpec {
    key: String,
    arg: Option<String>,
}

impl PolicySpec {
    /// Parses `"key"` or `"key:arg"` (split by [`gfaas_sim::spec`]).
    /// Keys are lowercase `[a-z0-9_-]+`; the argument (anything after the
    /// first `:`) is kept verbatim for the factory to interpret.
    pub fn parse(s: &str) -> Result<PolicySpec, PolicyError> {
        let s = s.trim();
        let (key, arg) = split_key(s).ok_or_else(|| PolicyError::BadSpec(s.to_string()))?;
        Ok(PolicySpec {
            key: key.to_string(),
            arg: arg.map(str::to_string),
        })
    }

    /// A spec with a bare key and no argument (not validated against any
    /// registry).
    pub fn bare(key: &str) -> PolicySpec {
        PolicySpec {
            key: key.to_string(),
            arg: None,
        }
    }

    /// The registry key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The raw argument, if any.
    pub fn arg(&self) -> Option<&str> {
        self.arg.as_deref()
    }

    /// Parses the argument as `T`, or `None` when absent.
    pub fn arg_as<T: std::str::FromStr>(
        &self,
        expected: &'static str,
    ) -> Result<Option<T>, PolicyError> {
        match &self.arg {
            None => Ok(None),
            Some(a) => a.parse().map(Some).map_err(|_| self.bad_arg(expected)),
        }
    }

    /// A [`PolicyError::BadArg`] for this spec's argument.
    fn bad_arg(&self, expected: &'static str) -> PolicyError {
        PolicyError::BadArg {
            key: self.key.clone(),
            arg: self.arg.clone().unwrap_or_default(),
            expected,
        }
    }

    /// Walks a `field=value,…` argument (e.g. `max=8,wait=0.05`), handing
    /// each pair to `set`, which answers `Ok(false)` for a field it does
    /// not know. A pair without `=` is rejected as `pairs` expects, an
    /// unknown field as `fields` expects.
    fn fields(
        &self,
        pairs: &'static str,
        fields: &'static str,
        mut set: impl FnMut(&str, &str) -> Result<bool, PolicyError>,
    ) -> Result<(), PolicyError> {
        for (field, value) in self.arg().into_iter().flat_map(tokens) {
            let value = value.ok_or_else(|| self.bad_arg(pairs))?;
            if !set(field, value)? {
                return Err(self.bad_arg(fields));
            }
        }
        Ok(())
    }

    /// Parses one field's `value`, rejecting it as `expected` says unless
    /// it parses and passes `valid`.
    fn field<T: std::str::FromStr>(
        &self,
        value: &str,
        valid: impl Fn(&T) -> bool,
        expected: &'static str,
    ) -> Result<T, PolicyError> {
        value
            .parse()
            .ok()
            .filter(valid)
            .ok_or_else(|| self.bad_arg(expected))
    }

    /// Errors unless the spec is a bare key.
    fn expect_no_arg(&self) -> Result<(), PolicyError> {
        match &self.arg {
            None => Ok(()),
            Some(a) => Err(PolicyError::UnexpectedArg {
                key: self.key.clone(),
                arg: a.clone(),
            }),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}:{}", self.key, a),
            None => write!(f, "{}", self.key),
        }
    }
}

impl std::str::FromStr for PolicySpec {
    type Err = PolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicySpec::parse(s)
    }
}

/// Factory producing a scheduler from its spec.
pub type SchedulerFactory =
    Box<dyn Fn(&PolicySpec) -> Result<Box<dyn SchedulerPolicy>, PolicyError> + Send + Sync>;

/// Factory producing an evictor from its spec and the run seed (the seed
/// feeds policies with internal randomness, e.g. `random`).
pub type EvictorFactory =
    Box<dyn Fn(&PolicySpec, u64) -> Result<Box<dyn Evictor>, PolicyError> + Send + Sync>;

/// Factory producing a batching policy from its spec.
pub type BatcherFactory =
    Box<dyn Fn(&PolicySpec) -> Result<Box<dyn BatchPolicy>, PolicyError> + Send + Sync>;

/// A string-keyed registry of scheduler, evictor and batcher factories.
pub struct PolicyRegistry {
    schedulers: BTreeMap<String, SchedulerFactory>,
    evictors: BTreeMap<String, EvictorFactory>,
    batchers: BTreeMap<String, BatcherFactory>,
}

impl fmt::Debug for PolicyRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyRegistry")
            .field("schedulers", &self.scheduler_keys())
            .field("evictors", &self.evictor_keys())
            .field("batchers", &self.batcher_keys())
            .finish()
    }
}

/// Parsed batching-spec field overrides: `(slo, max, wait)`.
type BatchFields = (Option<f64>, Option<usize>, Option<f64>);

/// Parses a `field=value,…` batching argument (e.g. `max=8,wait=0.05`)
/// into `(slo, max, wait)` overrides, rejecting unknown fields. `slo`
/// is only accepted when `allow_slo` is set (the `adaptive` key).
fn parse_batch_fields(spec: &PolicySpec, allow_slo: bool) -> Result<BatchFields, PolicyError> {
    let (mut slo, mut max, mut wait) = (None, None, None);
    spec.fields(
        "field=value pairs (max=, wait=, slo=)",
        "fields max=, wait= (and slo= for adaptive)",
        |field, value| {
            match field {
                "max" => {
                    max = Some(spec.field(value, |&m| m > 0, "a positive max batch (requests)")?)
                }
                "wait" => {
                    let valid = |w: &f64| w.is_finite() && *w >= 0.0;
                    wait = Some(spec.field(value, valid, "a nonnegative hold wait in seconds")?)
                }
                "slo" if allow_slo => {
                    let valid = |s: &f64| s.is_finite() && *s > 0.0;
                    slo = Some(spec.field(value, valid, "a positive SLO target in seconds")?)
                }
                _ => return Ok(false),
            }
            Ok(true)
        },
    )?;
    Ok((slo, max, wait))
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        PolicyRegistry::builtin()
    }
}

impl PolicyRegistry {
    /// An empty registry (no keys).
    pub fn empty() -> Self {
        PolicyRegistry {
            schedulers: BTreeMap::new(),
            evictors: BTreeMap::new(),
            batchers: BTreeMap::new(),
        }
    }

    /// The builtin registry: schedulers `lb`, `lalb`, `lalbo3[:limit]`,
    /// `lookahead[:k=4,horizon=8]`; evictors `lru`, `fifo`, `random`,
    /// `tinylfu[:auto | decay[,window][,front=k]]`; batchers `none`,
    /// `coalesce[:max=8,wait=0.05]`, `adaptive[:slo=30,max=32,wait=0.05]`.
    pub fn builtin() -> Self {
        let mut reg = PolicyRegistry::empty();
        reg.register_scheduler("lb", |spec| {
            spec.expect_no_arg()?;
            Ok(Box::new(LbScheduler))
        });
        reg.register_scheduler("lalb", |spec| {
            spec.expect_no_arg()?;
            Ok(Box::new(LalbScheduler::new(0)))
        });
        reg.register_scheduler("lalbo3", |spec| {
            let limit = spec
                .arg_as::<u32>("a starvation limit (u32)")?
                .unwrap_or(DEFAULT_O3_LIMIT);
            Ok(Box::new(LalbScheduler::new(limit)))
        });
        reg.register_scheduler("lookahead", |spec| {
            // Arg grammar: `k=4,horizon=8` field=value pairs — candidate
            // forks per decision and replay depth per fork.
            let (mut k, mut horizon) = (DEFAULT_LOOKAHEAD_K, DEFAULT_LOOKAHEAD_HORIZON);
            spec.fields(
                "field=value pairs (k=, horizon=)",
                "fields k=, horizon=",
                |field, value| {
                    match field {
                        "k" => k = spec.field(value, |&v| v > 0, "a positive candidate count k")?,
                        "horizon" => {
                            horizon = spec.field(value, |_| true, "a replay horizon (events)")?
                        }
                        _ => return Ok(false),
                    }
                    Ok(true)
                },
            )?;
            // A fork that replays nothing bills every arm alike, so the
            // tie-break alone would pick the arm: a hidden "never wait"
            // policy. Only `k=1`, which forks nothing, may leave it at 0.
            if k > 1 && horizon == 0 {
                return Err(spec.bad_arg("a positive replay horizon (events) when k > 1"));
            }
            Ok(Box::new(LookaheadScheduler::new(k, horizon)))
        });
        reg.register_evictor("lru", |spec, _seed| {
            spec.expect_no_arg()?;
            Ok(Box::new(LruEvictor::default()))
        });
        reg.register_evictor("fifo", |spec, _seed| {
            spec.expect_no_arg()?;
            Ok(Box::new(FifoEvictor::default()))
        });
        reg.register_evictor("random", |spec, seed| {
            spec.expect_no_arg()?;
            Ok(Box::new(RandomEvictor::new(seed)))
        });
        reg.register_evictor("tinylfu", |spec, _seed| {
            // Arg grammar: `decay[,window][,front=k]` — e.g. `tinylfu:0.9`,
            // `tinylfu:0.9,256`, or the W-TinyLFU admission window
            // `tinylfu:0.3,front=2`.
            let bad = |expected| spec.bad_arg(expected);
            let mut decay = crate::tinylfu::DEFAULT_DECAY;
            let mut window = crate::tinylfu::DEFAULT_WINDOW;
            let mut front = crate::tinylfu::DEFAULT_FRONT;
            if spec.arg() == Some("auto") {
                // Self-tuning mode: decay/window/front adapt to the
                // observed novelty rate (see `TinyLfuEvictor::auto`).
                return Ok(Box::new(TinyLfuEvictor::auto()));
            }
            if let Some(a) = spec.arg() {
                let mut saw_window = false;
                for (i, part) in a.split(',').enumerate() {
                    if i == 0 {
                        decay = part.parse().map_err(|_| bad("a decay factor in (0, 1)"))?;
                    } else if let Some(k) = part.strip_prefix("front=") {
                        front = k
                            .parse()
                            .map_err(|_| bad("front=<admission window size>"))?;
                    } else if !saw_window {
                        saw_window = true;
                        window = part
                            .parse()
                            .ok()
                            .filter(|&w| w > 0)
                            .ok_or_else(|| bad("a positive decay window"))?;
                    } else {
                        return Err(bad("`decay[,window][,front=k]`"));
                    }
                }
            }
            if !(decay > 0.0 && decay < 1.0) {
                return Err(bad("a decay factor in (0, 1)"));
            }
            Ok(Box::new(
                TinyLfuEvictor::new(decay)
                    .with_window(window)
                    .with_front(front),
            ))
        });
        reg.register_batcher("none", |spec| {
            spec.expect_no_arg()?;
            Ok(Box::new(NoBatch))
        });
        reg.register_batcher("coalesce", |spec| {
            let (_, max, wait) = parse_batch_fields(spec, false)?;
            Ok(Box::new(CoalesceBatch::new(
                max.unwrap_or(crate::batching::DEFAULT_MAX_COALESCE),
                SimDuration::from_secs_f64(wait.unwrap_or(crate::batching::DEFAULT_HOLD_WAIT_SECS)),
            )))
        });
        reg.register_batcher("adaptive", |spec| {
            let (slo, max, wait) = parse_batch_fields(spec, true)?;
            Ok(Box::new(AdaptiveBatch::new(
                slo.unwrap_or(crate::batching::DEFAULT_SLO_SECS),
                max.unwrap_or(crate::batching::DEFAULT_MAX_ADAPTIVE),
                SimDuration::from_secs_f64(wait.unwrap_or(crate::batching::DEFAULT_HOLD_WAIT_SECS)),
            )))
        });
        reg
    }

    /// Registers (or replaces) a scheduler factory under `key`.
    pub fn register_scheduler<F>(&mut self, key: &str, factory: F)
    where
        F: Fn(&PolicySpec) -> Result<Box<dyn SchedulerPolicy>, PolicyError> + Send + Sync + 'static,
    {
        self.schedulers.insert(key.to_string(), Box::new(factory));
    }

    /// Registers (or replaces) an evictor factory under `key`.
    pub fn register_evictor<F>(&mut self, key: &str, factory: F)
    where
        F: Fn(&PolicySpec, u64) -> Result<Box<dyn Evictor>, PolicyError> + Send + Sync + 'static,
    {
        self.evictors.insert(key.to_string(), Box::new(factory));
    }

    /// Registers (or replaces) a batching-policy factory under `key`.
    pub fn register_batcher<F>(&mut self, key: &str, factory: F)
    where
        F: Fn(&PolicySpec) -> Result<Box<dyn BatchPolicy>, PolicyError> + Send + Sync + 'static,
    {
        self.batchers.insert(key.to_string(), Box::new(factory));
    }

    /// Instantiates the scheduler `spec` names.
    pub fn scheduler(&self, spec: &PolicySpec) -> Result<Box<dyn SchedulerPolicy>, PolicyError> {
        let factory = self
            .schedulers
            .get(spec.key())
            .ok_or_else(|| PolicyError::UnknownScheduler(spec.key().to_string()))?;
        factory(spec)
    }

    /// Instantiates the evictor `spec` names; `seed` feeds policies with
    /// internal randomness.
    pub fn evictor(&self, spec: &PolicySpec, seed: u64) -> Result<Box<dyn Evictor>, PolicyError> {
        let factory = self
            .evictors
            .get(spec.key())
            .ok_or_else(|| PolicyError::UnknownEvictor(spec.key().to_string()))?;
        factory(spec, seed)
    }

    /// Instantiates the batching policy `spec` names.
    pub fn batcher(&self, spec: &PolicySpec) -> Result<Box<dyn BatchPolicy>, PolicyError> {
        let factory = self
            .batchers
            .get(spec.key())
            .ok_or_else(|| PolicyError::UnknownBatcher(spec.key().to_string()))?;
        factory(spec)
    }

    /// The display name of the scheduler `spec` names (instantiates it).
    pub fn scheduler_name(&self, spec: &PolicySpec) -> Result<String, PolicyError> {
        Ok(self.scheduler(spec)?.name())
    }

    /// The display name of the batcher `spec` names (instantiates it).
    pub fn batcher_name(&self, spec: &PolicySpec) -> Result<String, PolicyError> {
        Ok(self.batcher(spec)?.name())
    }

    /// Registered scheduler keys, sorted.
    pub fn scheduler_keys(&self) -> Vec<&str> {
        self.schedulers.keys().map(String::as_str).collect()
    }

    /// Registered evictor keys, sorted.
    pub fn evictor_keys(&self) -> Vec<&str> {
        self.evictors.keys().map(String::as_str).collect()
    }

    /// Registered batcher keys, sorted.
    pub fn batcher_keys(&self) -> Vec<&str> {
        self.batchers.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bare_and_argument_specs() {
        let s = PolicySpec::parse("lalbo3:25").unwrap();
        assert_eq!(s.key(), "lalbo3");
        assert_eq!(s.arg(), Some("25"));
        assert_eq!(s.to_string(), "lalbo3:25");
        let b = PolicySpec::parse(" lru ").unwrap();
        assert_eq!(b.key(), "lru");
        assert_eq!(b.arg(), None);
        assert_eq!(b.to_string(), "lru");
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in ["", ":", "LRU", "lru:", "a b", "lalbo3 :25"] {
            assert!(PolicySpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn builtin_scheduler_resolution() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(
            reg.scheduler_keys(),
            vec!["lalb", "lalbo3", "lb", "lookahead"]
        );
        let cases = [
            ("lb", "LB"),
            ("lalb", "LALB"),
            ("lalbo3", "LALBO3"),
            ("lalbo3:25", "LALBO3"),
            ("lalbo3:40", "LALBO3(limit=40)"),
            ("lookahead", "Lookahead(k=4,h=8)"),
            ("lookahead:k=2,horizon=16", "Lookahead(k=2,h=16)"),
            // Nothing forks at k=1, so the horizon may be zero.
            ("lookahead:horizon=0,k=1", "Lookahead(k=1,h=0)"),
        ];
        for (spec, name) in cases {
            let got = reg
                .scheduler_name(&PolicySpec::parse(spec).unwrap())
                .unwrap();
            assert_eq!(got, name, "{spec}");
        }
    }

    #[test]
    fn builtin_evictor_resolution() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(reg.evictor_keys(), vec!["fifo", "lru", "random", "tinylfu"]);
        for spec in ["lru", "fifo", "random", "tinylfu", "tinylfu:0.9"] {
            let ev = reg.evictor(&PolicySpec::parse(spec).unwrap(), 7).unwrap();
            assert_eq!(ev.name(), spec.split(':').next().unwrap());
        }
    }

    #[test]
    fn builtin_batcher_resolution() {
        let reg = PolicyRegistry::builtin();
        assert_eq!(reg.batcher_keys(), vec!["adaptive", "coalesce", "none"]);
        let cases = [
            ("none", "none"),
            ("coalesce", "coalesce(max=8)"),
            ("coalesce:max=8,wait=0.1", "coalesce(max=8)"),
            ("coalesce:wait=0", "coalesce(max=8)"),
            ("adaptive", "adaptive(slo=30s,max=32)"),
            ("adaptive:slo=2.5,max=16", "adaptive(slo=2.5s,max=16)"),
        ];
        for (spec, name) in cases {
            let got = reg.batcher_name(&PolicySpec::parse(spec).unwrap()).unwrap();
            assert_eq!(got, name, "{spec}");
        }
        assert!(reg
            .batcher(&PolicySpec::parse("none").unwrap())
            .unwrap()
            .is_passthrough());
    }

    #[test]
    fn bad_batcher_arguments_are_rejected() {
        let reg = PolicyRegistry::builtin();
        for bad in [
            "none:1",
            "coalesce:max=0",
            "coalesce:max=x",
            "coalesce:wait=-1",
            "coalesce:slo=5", // slo only for adaptive
            "coalesce:64",    // bare value, not field=value
            "adaptive:slo=0",
            "adaptive:slo=nan",
            "adaptive:wat=1",
            "batchy",
        ] {
            let spec = PolicySpec::parse(bad).unwrap();
            assert!(reg.batcher(&spec).is_err(), "{bad:?} should be rejected");
        }
        assert_eq!(
            reg.batcher(&PolicySpec::bare("batchy")).unwrap_err(),
            PolicyError::UnknownBatcher("batchy".to_string())
        );
    }

    #[test]
    fn custom_batcher_registration_extends_the_namespace() {
        let mut reg = PolicyRegistry::builtin();
        reg.register_batcher("pairs", |spec| {
            spec.expect_no_arg()?;
            Ok(Box::new(crate::batching::CoalesceBatch::new(
                2,
                gfaas_sim::time::SimDuration::ZERO,
            )))
        });
        let b = reg.batcher(&PolicySpec::bare("pairs")).unwrap();
        assert_eq!(b.name(), "coalesce(max=2)");
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let reg = PolicyRegistry::builtin();
        for bad in [
            "lb:1",
            "lalb:5",
            "lalbo3:x",
            "lru:2",
            "tinylfu:1.5",
            "tinylfu:nan",
            "lookahead:k=0",
            "lookahead:k=x",
            "lookahead:horizon=-1",
            "lookahead:horizon=0",
            "lookahead:k=4,horizon=0",
            "lookahead:depth=3",
            "lookahead:4",
            "lookahead:o3=7",
        ] {
            let spec = PolicySpec::parse(bad).unwrap();
            let failed = reg.scheduler(&spec).is_err() && reg.evictor(&spec, 1).is_err();
            assert!(failed, "{bad:?} should be rejected");
        }
    }

    #[test]
    fn errors_print_exactly() {
        // `p` parses only; `s`/`e`/`b` resolve the spec as a scheduler,
        // evictor or batcher.
        let reg = PolicyRegistry::builtin();
        let error = |kind, s: &str| {
            let built = PolicySpec::parse(s).and_then(|spec| match kind {
                'p' => Ok(()),
                's' => reg.scheduler(&spec).map(drop),
                'e' => reg.evictor(&spec, 1).map(drop),
                _ => reg.batcher(&spec).map(drop),
            });
            built.unwrap_err().to_string()
        };
        for s in ["", "LRU", "k=4", "lru:"] {
            assert_eq!(error('p', s), format!("malformed policy spec {s:?}"));
        }
        assert_eq!(error('p', " lru: "), "malformed policy spec \"lru:\"");
        assert_eq!(error('s', "belady"), "unknown scheduler policy \"belady\"");
        assert_eq!(
            error('e', "belady"),
            "unknown replacement policy \"belady\""
        );
        assert_eq!(error('b', "batchy"), "unknown batching policy \"batchy\"");
        let no_arg = [
            ('s', "lb:1"),
            ('s', "lalb:5"),
            ('e', "lru:2"),
            ('e', "fifo:x"),
            ('e', "random:1"),
            ('b', "none:1"),
        ];
        for (kind, s) in no_arg {
            let (key, arg) = s.split_once(':').unwrap();
            let want = format!("policy {key:?} takes no argument (got {arg:?})");
            assert_eq!(error(kind, s), want);
        }
        let bad_arg = [
            ('s', "lalbo3:x", "a starvation limit (u32)"),
            ('s', "lookahead:k=0", "a positive candidate count k"),
            ('s', "lookahead:k=x", "a positive candidate count k"),
            ('s', "lookahead:horizon=-1", "a replay horizon (events)"),
            (
                's',
                "lookahead:horizon=0",
                "a positive replay horizon (events) when k > 1",
            ),
            ('s', "lookahead:4", "field=value pairs (k=, horizon=)"),
            ('s', "lookahead:depth=3", "fields k=, horizon="),
            ('e', "tinylfu:1.5", "a decay factor in (0, 1)"),
            ('e', "tinylfu:x", "a decay factor in (0, 1)"),
            ('e', "tinylfu:0.9,0", "a positive decay window"),
            ('e', "tinylfu:0.9,front=x", "front=<admission window size>"),
            ('e', "tinylfu:0.9,8,16", "`decay[,window][,front=k]`"),
            ('b', "coalesce:max=0", "a positive max batch (requests)"),
            (
                'b',
                "coalesce:wait=-1",
                "a nonnegative hold wait in seconds",
            ),
            ('b', "coalesce:64", "field=value pairs (max=, wait=, slo=)"),
            (
                'b',
                "coalesce:slo=5",
                "fields max=, wait= (and slo= for adaptive)",
            ),
            ('b', "adaptive:slo=0", "a positive SLO target in seconds"),
            (
                'b',
                "adaptive:wat=1",
                "fields max=, wait= (and slo= for adaptive)",
            ),
        ];
        for (kind, s, expected) in bad_arg {
            let (key, arg) = s.split_once(':').unwrap();
            let want = format!("bad argument {arg:?} for policy {key:?}: expected {expected}");
            assert_eq!(error(kind, s), want);
        }
    }

    #[test]
    fn unknown_keys_name_the_namespace() {
        let reg = PolicyRegistry::builtin();
        let spec = PolicySpec::parse("belady").unwrap();
        assert_eq!(
            reg.scheduler(&spec).unwrap_err(),
            PolicyError::UnknownScheduler("belady".to_string())
        );
        assert_eq!(
            reg.evictor(&spec, 1).unwrap_err(),
            PolicyError::UnknownEvictor("belady".to_string())
        );
    }

    #[test]
    fn paper_specs_resolve_to_paper_names() {
        // A policy has one name: its spec. The registry resolves each
        // paper spec to the display name reports print, and the spec
        // round-trips through `Display`.
        let reg = PolicyRegistry::builtin();
        for (spec, name) in [
            ("lb", "LB"),
            ("lalb", "LALB"),
            ("lalbo3", "LALBO3"),
            ("lalbo3:7", "LALBO3(limit=7)"),
        ] {
            let parsed = PolicySpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), spec);
            assert_eq!(reg.scheduler_name(&parsed).unwrap(), name);
        }
        for spec in ["lru", "fifo", "random"] {
            let ev = reg.evictor(&PolicySpec::bare(spec), 3).unwrap();
            assert_eq!(ev.name(), spec);
        }
    }

    #[test]
    fn custom_registration_extends_the_namespace() {
        let mut reg = PolicyRegistry::builtin();
        reg.register_scheduler("lb2", |spec| {
            spec.expect_no_arg()?;
            Ok(Box::new(LbScheduler))
        });
        assert!(reg.scheduler(&PolicySpec::parse("lb2").unwrap()).is_ok());
        // Builtin keys can be shadowed too (replacement, not error).
        reg.register_evictor("lru", |spec, _| {
            spec.expect_no_arg()?;
            Ok(Box::new(FifoEvictor::default()))
        });
        let ev = reg.evictor(&PolicySpec::bare("lru"), 1).unwrap();
        assert_eq!(ev.name(), "fifo", "shadowed factory wins");
    }
}
