//! `gfaas-store` — the multi-tier model storage hierarchy.
//!
//! The paper models every cache miss as one flat PCIe upload from an
//! infinite store. Real inference fleets stage weights across tiers with
//! order-of-magnitude bandwidth gaps — GPU HBM ↔ host RAM ↔ an origin
//! store (SSD or remote object storage). A host-resident model costs one
//! PCIe copy out of pinned RAM; a cold one first crosses the much slower
//! origin link. This crate opens that dimension behind the cluster's
//! existing load path:
//!
//! * [`ModelStore`] — the open backend trait. The cluster driver asks it
//!   for the load cost of a model *given where its bytes currently live*
//!   ([`ModelStore::load_cost`] for estimates,
//!   [`ModelStore::begin_load`] when a miss actually dispatches), tells
//!   it when eviction **demotes** an HBM resident into the host tier
//!   ([`ModelStore::demote`]), and feeds it the demand signal
//!   ([`ModelStore::note_arrival`], [`ModelStore::note_scale_up`]) that
//!   drives async **prefetch** into the host tier.
//! * [`FlatStore`] — the paper's model: one flat cost from an infinite
//!   origin. Byte-identical to the pre-store simulator by construction
//!   (it returns the caller's flat cost verbatim and ignores every
//!   other hook); it counts each demand load as an origin load.
//! * [`TieredStore`] — the default three-tier stack. A bounded host
//!   cache with LRU replacement sits between HBM and the origin;
//!   demotions and demand fetches populate it; an arrival-rate EWMA and
//!   a scale-up hook stage hot models into it over a modelled background
//!   channel that **contends with demand loads** for the origin link.
//! * [`StoreSpec`] — the string-facing configuration, parsed like a
//!   policy spec: `flat` | `tiered:host=64G,origin_bw=2G,prefetch=3`.
//!
//! Tier identity ([`Tier`]) lives in `gfaas-gpu` so the observability
//! layer can tag load events without depending on this crate.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use gfaas_gpu::{ModelId, PcieModel, Tier};
use gfaas_sim::time::{SimDuration, SimTime};

/// Default host-tier capacity: 64 GiB of pinned staging RAM.
pub const DEFAULT_HOST_BYTES: u64 = 64 * 1024 * 1024 * 1024;
/// Default origin-link bandwidth (NVMe-class remote store), bytes/sec.
pub const DEFAULT_ORIGIN_BW_BPS: f64 = 2.0e9;
/// Default origin fixed latency: the paper's framework overhead (process
/// init, deserialisation) belongs to the cold path, so a cold tiered load
/// pays roughly what a flat load does plus the origin transfer.
pub const DEFAULT_ORIGIN_LAT_SECS: f64 = 1.62;
/// Default host→HBM bandwidth: wire-speed PCIe 3.0 x16. Host-resident
/// weights are already deserialised into pinned RAM, so the copy runs at
/// link speed instead of the framework-bound ~1.6 GB/s of a flat load.
pub const DEFAULT_PCIE_BW_BPS: f64 = 15.75e9;
/// Default host→HBM fixed latency (context setup + `cudaMalloc`).
pub const DEFAULT_PCIE_LAT_SECS: f64 = 0.2;
/// Default prefetch trigger: EWMA arrival score above which a
/// non-host-resident model is staged. `0` disables prefetch.
pub const DEFAULT_PREFETCH_SCORE: f64 = 3.0;
/// Default scale-up staging set: how many of the hottest models are
/// pushed toward the host tier when new capacity comes online.
pub const DEFAULT_HOT_SET: usize = 4;
/// Arrival-EWMA decay time constant, seconds of virtual time.
pub const EWMA_TAU_SECS: f64 = 60.0;
/// Score floor below which scale-up staging ignores a model (avoids
/// filling the origin link with models that stopped arriving long ago).
const HOT_SCORE_FLOOR: f64 = 0.5;

// ---------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------

/// A malformed or out-of-range store spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The spec string was syntactically malformed.
    BadSpec(String),
    /// No store backend has this key.
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

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadSpec(s) => write!(f, "malformed store spec {s:?}"),
            StoreError::UnknownKey(k) => {
                write!(f, "unknown store {k:?} (known: [\"flat\", \"tiered\"])")
            }
            StoreError::BadField { field, value } => {
                write!(f, "bad store field {field}={value:?}")
            }
            StoreError::BadBounds(why) => write!(f, "inconsistent store spec: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A parsed store spec: `key[:field=value,…]` — the CLI- and
/// config-facing description of a storage hierarchy, in the same grammar
/// as `AutoscaleSpec` and the policy specs.
///
/// Grammar: `flat` (no fields; the paper's single-cost model) or
/// `tiered[:host=B,origin_bw=R,origin_lat=S,pcie_bw=R,pcie_lat=S,prefetch=X,hot=K]`,
/// fields in any order, all optional (see the `DEFAULT_*` constants).
/// Capacities take binary suffixes (`64G` = 64 GiB); bandwidths take
/// decimal suffixes (`2G` = 2 × 10⁹ B/s); bare digits are raw bytes
/// (resp. bytes/sec). `prefetch` is the arrival-EWMA score that triggers
/// staging (`0` disables); `hot` is the scale-up staging set size.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSpec {
    key: String,
    /// Host-tier capacity in bytes.
    pub host_bytes: u64,
    /// Origin-link bandwidth, bytes per second.
    pub origin_bw_bps: f64,
    /// Origin fixed per-fetch latency, seconds.
    pub origin_lat_secs: f64,
    /// Host→HBM bandwidth, bytes per second.
    pub pcie_bw_bps: f64,
    /// Host→HBM fixed per-copy latency, seconds.
    pub pcie_lat_secs: f64,
    /// Arrival-EWMA score triggering a prefetch; `0` disables.
    pub prefetch: f64,
    /// Scale-up staging set size; `0` disables scale-up staging.
    pub hot: usize,
}

impl Default for StoreSpec {
    /// The default store is `flat` — the paper's model, and the
    /// byte-identity baseline every other subsystem is validated against.
    fn default() -> Self {
        StoreSpec {
            key: "flat".to_string(),
            host_bytes: DEFAULT_HOST_BYTES,
            origin_bw_bps: DEFAULT_ORIGIN_BW_BPS,
            origin_lat_secs: DEFAULT_ORIGIN_LAT_SECS,
            pcie_bw_bps: DEFAULT_PCIE_BW_BPS,
            pcie_lat_secs: DEFAULT_PCIE_LAT_SECS,
            prefetch: DEFAULT_PREFETCH_SCORE,
            hot: DEFAULT_HOT_SET,
        }
    }
}

/// Parses a byte capacity: bare digits are bytes; `K`/`M`/`G`/`T`
/// suffixes are binary (powers of 1024), matching how model sizes are
/// quoted (`64G` = 64 GiB).
fn parse_capacity(s: &str) -> Option<u64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1u64 << 30),
        b'T' | b't' => (&s[..s.len() - 1], 1u64 << 40),
        _ => (s, 1),
    };
    let v: f64 = num
        .parse()
        .ok()
        .filter(|v: &f64| v.is_finite() && *v >= 0.0)?;
    Some((v * mult as f64) as u64)
}

/// Parses a bandwidth: bare digits are bytes/sec; `K`/`M`/`G`/`T`
/// suffixes are decimal (powers of 1000), matching how link rates are
/// quoted (`2G` = 2 × 10⁹ B/s).
fn parse_bandwidth(s: &str) -> Option<f64> {
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1e3),
        b'M' | b'm' => (&s[..s.len() - 1], 1e6),
        b'G' | b'g' => (&s[..s.len() - 1], 1e9),
        b'T' | b't' => (&s[..s.len() - 1], 1e12),
        _ => (s, 1.0),
    };
    let v: f64 = num.parse().ok().filter(|v: &f64| v.is_finite())?;
    Some(v * mult)
}

impl StoreSpec {
    /// Parses `key[:field=value,…]`. See the type docs for the grammar.
    pub fn parse(s: &str) -> Result<StoreSpec, StoreError> {
        let s = s.trim();
        let (key, args) = match s.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (s, None),
        };
        if key.is_empty()
            || !key
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-')
        {
            return Err(StoreError::BadSpec(s.to_string()));
        }
        if key == "flat" && args.is_some() {
            // The flat store has no knobs; trailing fields are a typo.
            return Err(StoreError::BadSpec(s.to_string()));
        }
        let mut spec = StoreSpec {
            key: key.to_string(),
            ..StoreSpec::default()
        };
        if let Some(args) = args {
            if args.is_empty() {
                return Err(StoreError::BadSpec(s.to_string()));
            }
            for pair in args.split(',') {
                let Some((field, value)) = pair.split_once('=') else {
                    return Err(StoreError::BadSpec(s.to_string()));
                };
                let bad = || StoreError::BadField {
                    field: field.to_string(),
                    value: value.to_string(),
                };
                match field {
                    "host" => spec.host_bytes = parse_capacity(value).ok_or_else(bad)?,
                    "origin_bw" => spec.origin_bw_bps = parse_bandwidth(value).ok_or_else(bad)?,
                    "origin_lat" => {
                        spec.origin_lat_secs = value
                            .parse()
                            .ok()
                            .filter(|v: &f64| v.is_finite())
                            .ok_or_else(bad)?
                    }
                    "pcie_bw" => spec.pcie_bw_bps = parse_bandwidth(value).ok_or_else(bad)?,
                    "pcie_lat" => {
                        spec.pcie_lat_secs = value
                            .parse()
                            .ok()
                            .filter(|v: &f64| v.is_finite())
                            .ok_or_else(bad)?
                    }
                    "prefetch" => {
                        spec.prefetch = value
                            .parse()
                            .ok()
                            .filter(|v: &f64| v.is_finite())
                            .ok_or_else(bad)?
                    }
                    "hot" => spec.hot = value.parse().map_err(|_| bad())?,
                    _ => return Err(bad()),
                }
            }
        }
        spec.validate()?;
        Ok(spec)
    }

    /// The backend key (`"flat"` or `"tiered"`).
    pub fn key(&self) -> &str {
        &self.key
    }

    /// True iff this spec names the flat (paper-identical) store.
    pub fn is_flat(&self) -> bool {
        self.key == "flat"
    }

    /// Checks structural consistency: a known key, positive finite link
    /// rates, nonnegative latencies and prefetch threshold. `flat` takes
    /// no fields (the parser enforces this; a hand-built flat spec with
    /// altered fields validates but the fields are simply unused).
    pub fn validate(&self) -> Result<(), StoreError> {
        if self.key != "flat" && self.key != "tiered" {
            return Err(StoreError::UnknownKey(self.key.clone()));
        }
        // NaN must fail too, hence the negated comparison shapes.
        // gfaas-lint: allow(float-ord, NaN-rejecting validation - partial_cmp returning None deliberately fails the check)
        if self.origin_bw_bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StoreError::BadBounds("origin_bw must be positive".into()));
        }
        // gfaas-lint: allow(float-ord, NaN-rejecting validation - partial_cmp returning None deliberately fails the check)
        if self.pcie_bw_bps.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(StoreError::BadBounds("pcie_bw must be positive".into()));
        }
        if self.origin_lat_secs < 0.0 {
            return Err(StoreError::BadBounds(
                "origin_lat must be nonnegative".into(),
            ));
        }
        if self.pcie_lat_secs < 0.0 {
            return Err(StoreError::BadBounds("pcie_lat must be nonnegative".into()));
        }
        if self.prefetch < 0.0 {
            return Err(StoreError::BadBounds("prefetch must be nonnegative".into()));
        }
        Ok(())
    }

    /// Instantiates the store backend this spec names.
    pub fn build(&self) -> Result<Box<dyn ModelStore>, StoreError> {
        self.validate()?;
        match self.key.as_str() {
            "flat" => Ok(Box::new(FlatStore::new())),
            "tiered" => Ok(Box::new(TieredStore::from_spec(self))),
            _ => Err(StoreError::UnknownKey(self.key.clone())),
        }
    }
}

impl fmt::Display for StoreSpec {
    /// The canonical form: `flat` stays bare (its fields are unused);
    /// `tiered` prints every field and re-parses to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.key == "flat" {
            return write!(f, "flat");
        }
        write!(
            f,
            "{}:host={},origin_bw={},origin_lat={},pcie_bw={},pcie_lat={},prefetch={},hot={}",
            self.key,
            self.host_bytes,
            self.origin_bw_bps,
            self.origin_lat_secs,
            self.pcie_bw_bps,
            self.pcie_lat_secs,
            self.prefetch,
            self.hot
        )
    }
}

impl std::str::FromStr for StoreSpec {
    type Err = StoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        StoreSpec::parse(s)
    }
}

// ---------------------------------------------------------------------
// Trait
// ---------------------------------------------------------------------

/// Counters and gauges a store exposes for reports and invariant tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Demand loads served from the host tier (one PCIe hop).
    pub host_hits: u64,
    /// Demand loads that crossed the origin link.
    pub origin_loads: u64,
    /// Demand loads that joined an in-flight prefetch mid-transfer.
    pub prefetch_joins: u64,
    /// Background fetches started (arrival-triggered + scale-up staging).
    pub prefetches: u64,
    /// HBM evictions demoted into the host tier.
    pub demotions: u64,
    /// Host-tier entries displaced to make room.
    pub host_evictions: u64,
    /// Stage attempts rejected because the model exceeds the host tier.
    pub host_rejects: u64,
    /// Bytes currently resident in the host tier.
    pub host_bytes_used: u64,
    /// Host-tier capacity in bytes.
    pub host_capacity: u64,
    /// Models currently resident in the host tier.
    pub host_models: usize,
}

/// A model-storage backend behind the cluster's load path.
///
/// The driver holds exactly one store for the whole cluster (the host
/// tier and origin link are node/fleet-shared resources, like the
/// datastore). All methods take the current virtual time; implementations
/// must be deterministic — any randomness must come from owned, seeded
/// state.
///
/// The contract between [`ModelStore::load_cost`] (the estimator view)
/// and [`ModelStore::begin_load`] (the authoritative dispatch) is that
/// both price the same placement at the same instant identically, except
/// that `begin_load` first settles any background transfers that have
/// completed by `now` — settlement can displace host entries, so an
/// estimate taken in the same event can, rarely, be one displacement
/// stale. Estimates are advisory; `begin_load` is what the device pays.
pub trait ModelStore: fmt::Debug + Send {
    /// Display name for reports.
    fn name(&self) -> String;

    /// The tier a demand load for `model` would be served from right
    /// now (HBM residency is the cluster's knowledge, so this is never
    /// [`Tier::HBM`]).
    fn serving_tier(&self, model: ModelId) -> Tier;

    /// Estimated cost of uploading `model` (`bytes` large) to a device
    /// now, given where its bytes live. `flat_cost` is the legacy flat
    /// charge (registry load time × the device's PCIe scale); the flat
    /// store returns it verbatim, tiered stores ignore it and price the
    /// actual hop chain (tiered loads are staged through shared host
    /// RAM, so per-device PCIe scaling does not apply).
    fn load_cost(
        &self,
        now: SimTime,
        model: ModelId,
        bytes: u64,
        flat_cost: SimDuration,
    ) -> SimDuration;

    /// Commits a demand load: charges the origin link if the bytes are
    /// cold, stages them into the host tier, and returns the serving
    /// tier plus the load duration the device should model.
    fn begin_load(
        &mut self,
        now: SimTime,
        model: ModelId,
        bytes: u64,
        flat_cost: SimDuration,
    ) -> (Tier, SimDuration);

    /// An HBM eviction demoted `model` into the host tier. The writeback
    /// is modelled as free (device→host DMA overlaps compute and is an
    /// order of magnitude faster than the origin link).
    fn demote(&mut self, now: SimTime, model: ModelId, bytes: u64);

    /// One request for `model` arrived — the demand signal feeding the
    /// prefetch predictor.
    fn note_arrival(&mut self, now: SimTime, model: ModelId, bytes: u64);

    /// New GPU capacity just came online cold; the store may stage the
    /// current hot set toward the host tier ahead of the miss storm.
    fn note_scale_up(&mut self, now: SimTime);

    /// Current counters and gauges.
    fn stats(&self) -> StoreStats;

    /// Serialises the store's mutable state into a snapshot blob.
    /// Configuration (capacities, link models, thresholds) is rebuilt
    /// from the spec on restore and must not be written. Stateless
    /// backends keep the default no-op.
    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        let _ = enc;
    }

    /// Restores the state written by [`ModelStore::save_state`] onto a
    /// freshly built backend of the same spec.
    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        let _ = dec;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Flat store
// ---------------------------------------------------------------------

/// The paper's storage model: an infinite origin, one flat upload cost.
///
/// [`FlatStore::load_cost`] and [`FlatStore::begin_load`] return the
/// caller's `flat_cost` verbatim and its other hooks are no-ops, so
/// simulation output is byte-identical to the pre-store simulator; it
/// counts every demand load as an origin load.
#[derive(Debug, Default)]
pub struct FlatStore {
    loads: u64,
}

impl FlatStore {
    /// Builds the flat store.
    pub fn new() -> Self {
        FlatStore::default()
    }
}

impl ModelStore for FlatStore {
    fn name(&self) -> String {
        "flat".to_string()
    }

    fn serving_tier(&self, _model: ModelId) -> Tier {
        Tier::ORIGIN
    }

    fn load_cost(
        &self,
        _now: SimTime,
        _model: ModelId,
        _bytes: u64,
        flat_cost: SimDuration,
    ) -> SimDuration {
        flat_cost
    }

    fn begin_load(
        &mut self,
        _now: SimTime,
        _model: ModelId,
        _bytes: u64,
        flat_cost: SimDuration,
    ) -> (Tier, SimDuration) {
        self.loads += 1;
        (Tier::ORIGIN, flat_cost)
    }

    fn demote(&mut self, _now: SimTime, _model: ModelId, _bytes: u64) {}

    fn note_arrival(&mut self, _now: SimTime, _model: ModelId, _bytes: u64) {}

    fn note_scale_up(&mut self, _now: SimTime) {}

    fn stats(&self) -> StoreStats {
        StoreStats {
            origin_loads: self.loads,
            ..StoreStats::default()
        }
    }

    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        enc.put_u64(self.loads);
    }

    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        self.loads = dec.u64()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Tiered store
// ---------------------------------------------------------------------

/// One model resident in the host tier.
#[derive(Debug, Clone, Copy)]
struct HostEntry {
    model: ModelId,
    bytes: u64,
}

/// A background origin→host transfer in flight.
#[derive(Debug, Clone, Copy)]
struct InFlightFetch {
    model: ModelId,
    bytes: u64,
    ready: SimTime,
}

/// Per-model arrival predictor state.
#[derive(Debug, Clone, Copy)]
struct ArrivalScore {
    value: f64,
    last: SimTime,
    bytes: u64,
}

/// The default three-tier stack: HBM ↔ bounded host cache ↔ origin.
///
/// * **Host tier** — an LRU byte-budgeted cache of model weights in
///   pinned RAM. Populated by demotions (HBM evictions), demand fetches
///   (cold loads stage through it), and prefetches. A host hit costs one
///   PCIe hop — cheaper than a flat load, because the bytes are already
///   deserialised.
/// * **Origin link** — a FIFO channel of `origin_bw` bytes/sec shared by
///   demand fetches and prefetches: a fetch issued while the link is busy
///   queues behind it, so speculative staging genuinely contends with
///   (and can delay) demand misses.
/// * **Prefetch** — a per-model exponentially-decayed arrival score
///   (time constant [`EWMA_TAU_SECS`]); crossing `prefetch` stages the
///   model into the host tier in the background, and a demand miss that
///   lands mid-transfer joins the in-flight fetch instead of restarting
///   it. On scale-up the `hot` highest-scoring absent models are staged
///   ahead of the cold-start storm.
#[derive(Debug)]
pub struct TieredStore {
    pcie: PcieModel,
    origin: PcieModel,
    host_capacity: u64,
    host_used: u64,
    /// LRU order: least recently used at the front.
    host: Vec<HostEntry>,
    /// FIFO origin link: in flight fetches, ready times nondecreasing.
    in_flight: Vec<InFlightFetch>,
    link_free_at: SimTime,
    prefetch_threshold: f64,
    hot_set: usize,
    scores: BTreeMap<ModelId, ArrivalScore>,
    host_hits: u64,
    origin_loads: u64,
    prefetch_joins: u64,
    prefetches: u64,
    demotions: u64,
    host_evictions: u64,
    host_rejects: u64,
}

impl TieredStore {
    /// Builds the store from a validated spec.
    pub fn from_spec(spec: &StoreSpec) -> Self {
        TieredStore {
            pcie: PcieModel::new(
                spec.pcie_bw_bps,
                SimDuration::from_secs_f64(spec.pcie_lat_secs),
            ),
            origin: PcieModel::new(
                spec.origin_bw_bps,
                SimDuration::from_secs_f64(spec.origin_lat_secs),
            ),
            host_capacity: spec.host_bytes,
            host_used: 0,
            host: Vec::new(),
            in_flight: Vec::new(),
            link_free_at: SimTime::ZERO,
            prefetch_threshold: spec.prefetch,
            hot_set: spec.hot,
            scores: BTreeMap::new(),
            host_hits: 0,
            origin_loads: 0,
            prefetch_joins: 0,
            prefetches: 0,
            demotions: 0,
            host_evictions: 0,
            host_rejects: 0,
        }
    }

    fn host_resident(&self, model: ModelId) -> bool {
        self.host.iter().any(|e| e.model == model)
    }

    fn in_flight_ready(&self, model: ModelId) -> Option<SimTime> {
        self.in_flight
            .iter()
            .find(|f| f.model == model)
            .map(|f| f.ready)
    }

    /// Lands background fetches that have completed by `now` in the
    /// host tier.
    fn settle(&mut self, now: SimTime) {
        while let Some(f) = self.in_flight.first() {
            if f.ready > now {
                break; // FIFO link: ready times are nondecreasing
            }
            let f = self.in_flight.remove(0);
            self.stage(f.model, f.bytes);
        }
    }

    /// Makes `model` host-resident, displacing LRU entries as needed.
    fn stage(&mut self, model: ModelId, bytes: u64) {
        if let Some(i) = self.host.iter().position(|e| e.model == model) {
            let e = self.host.remove(i);
            self.host.push(e); // refresh recency
            return;
        }
        if bytes > self.host_capacity {
            self.host_rejects += 1;
            return;
        }
        while self.host_used + bytes > self.host_capacity {
            let victim = self.host.remove(0);
            self.host_used -= victim.bytes;
            self.host_evictions += 1;
        }
        self.host.push(HostEntry { model, bytes });
        self.host_used += bytes;
        debug_assert!(self.host_used <= self.host_capacity);
        debug_assert_eq!(
            self.host_used,
            self.host.iter().map(|e| e.bytes).sum::<u64>()
        );
    }

    /// Occupies the FIFO origin link for one fetch; returns its ready
    /// time.
    fn start_fetch(&mut self, now: SimTime, model: ModelId, bytes: u64) -> SimTime {
        let start = self.link_free_at.max(now);
        let ready = start + self.origin.transfer_time(bytes);
        self.link_free_at = ready;
        self.in_flight.push(InFlightFetch {
            model,
            bytes,
            ready,
        });
        ready
    }

    /// Decays and bumps `model`'s arrival score; returns the new value.
    fn bump_score(&mut self, now: SimTime, model: ModelId, bytes: u64) -> f64 {
        let e = self.scores.entry(model).or_insert(ArrivalScore {
            value: 0.0,
            last: now,
            bytes,
        });
        let dt = now.duration_since(e.last).as_secs_f64();
        e.value = e.value * (-dt / EWMA_TAU_SECS).exp() + 1.0;
        e.last = now;
        e.bytes = bytes;
        e.value
    }
}

impl ModelStore for TieredStore {
    fn name(&self) -> String {
        format!(
            "tiered(host={}M,origin_bw={:.2}G)",
            self.host_capacity / (1 << 20),
            self.origin.bandwidth_bps / 1e9
        )
    }

    fn serving_tier(&self, model: ModelId) -> Tier {
        if self.host_resident(model) {
            Tier::HOST
        } else {
            Tier::ORIGIN
        }
    }

    fn load_cost(
        &self,
        now: SimTime,
        model: ModelId,
        bytes: u64,
        _flat_cost: SimDuration,
    ) -> SimDuration {
        let hop = self.pcie.transfer_time(bytes);
        if self.host_resident(model) {
            return hop;
        }
        if let Some(ready) = self.in_flight_ready(model) {
            // Join the in-flight fetch: wait out its remainder, then hop.
            return ready.duration_since(now) + hop;
        }
        // Cold: queue behind the origin link, fetch, then hop.
        self.link_free_at.duration_since(now) + self.origin.transfer_time(bytes) + hop
    }

    fn begin_load(
        &mut self,
        now: SimTime,
        model: ModelId,
        bytes: u64,
        _flat_cost: SimDuration,
    ) -> (Tier, SimDuration) {
        self.settle(now);
        let hop = self.pcie.transfer_time(bytes);
        if self.host_resident(model) {
            self.stage(model, bytes); // refresh recency
            self.host_hits += 1;
            return (Tier::HOST, hop);
        }
        if let Some(ready) = self.in_flight_ready(model) {
            // ready > now after settle: join the prefetch mid-transfer.
            self.prefetch_joins += 1;
            return (Tier::ORIGIN, ready.duration_since(now) + hop);
        }
        let queue = self.link_free_at.duration_since(now);
        let xfer = self.origin.transfer_time(bytes);
        self.link_free_at = self.link_free_at.max(now) + xfer;
        // The demand fetch lands in the host cache on its way to HBM.
        self.stage(model, bytes);
        self.origin_loads += 1;
        (Tier::ORIGIN, queue + xfer + hop)
    }

    fn demote(&mut self, now: SimTime, model: ModelId, bytes: u64) {
        self.settle(now);
        self.demotions += 1;
        self.stage(model, bytes);
    }

    fn note_arrival(&mut self, now: SimTime, model: ModelId, bytes: u64) {
        self.settle(now);
        let score = self.bump_score(now, model, bytes);
        if self.prefetch_threshold > 0.0
            && score >= self.prefetch_threshold
            && bytes <= self.host_capacity
            && !self.host_resident(model)
            && self.in_flight_ready(model).is_none()
        {
            self.start_fetch(now, model, bytes);
            self.prefetches += 1;
        }
    }

    fn note_scale_up(&mut self, now: SimTime) {
        self.settle(now);
        if self.hot_set == 0 {
            return;
        }
        let mut hot: Vec<(f64, ModelId, u64)> = self
            .scores
            .iter()
            .map(|(&m, s)| {
                let dt = now.duration_since(s.last).as_secs_f64();
                (s.value * (-dt / EWMA_TAU_SECS).exp(), m, s.bytes)
            })
            .filter(|&(score, m, bytes)| {
                score >= HOT_SCORE_FLOOR
                    && bytes <= self.host_capacity
                    && !self.host_resident(m)
                    && self.in_flight_ready(m).is_none()
            })
            .collect();
        hot.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        hot.truncate(self.hot_set);
        for (_, m, bytes) in hot {
            self.start_fetch(now, m, bytes);
            self.prefetches += 1;
        }
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            host_hits: self.host_hits,
            origin_loads: self.origin_loads,
            prefetch_joins: self.prefetch_joins,
            prefetches: self.prefetches,
            demotions: self.demotions,
            host_evictions: self.host_evictions,
            host_rejects: self.host_rejects,
            host_bytes_used: self.host_used,
            host_capacity: self.host_capacity,
            host_models: self.host.len(),
        }
    }

    fn save_state(&self, enc: &mut gfaas_snap::Enc) {
        enc.put_u64(self.host_used);
        enc.put_usize(self.host.len());
        for e in &self.host {
            enc.put_u32(e.model.0);
            enc.put_u64(e.bytes);
        }
        enc.put_usize(self.in_flight.len());
        for f in &self.in_flight {
            enc.put_u32(f.model.0);
            enc.put_u64(f.bytes);
            enc.put_time(f.ready);
        }
        enc.put_time(self.link_free_at);
        enc.put_usize(self.scores.len());
        for (m, s) in &self.scores {
            enc.put_u32(m.0);
            enc.put_f64(s.value);
            enc.put_time(s.last);
            enc.put_u64(s.bytes);
        }
        enc.put_u64(self.host_hits);
        enc.put_u64(self.origin_loads);
        enc.put_u64(self.prefetch_joins);
        enc.put_u64(self.prefetches);
        enc.put_u64(self.demotions);
        enc.put_u64(self.host_evictions);
        enc.put_u64(self.host_rejects);
    }

    fn load_state(&mut self, dec: &mut gfaas_snap::Dec<'_>) -> Result<(), gfaas_snap::SnapError> {
        self.host_used = dec.u64()?;
        let n = dec.usize()?;
        self.host.clear();
        for _ in 0..n {
            self.host.push(HostEntry {
                model: ModelId(dec.u32()?),
                bytes: dec.u64()?,
            });
        }
        let staged: u128 = self.host.iter().map(|e| u128::from(e.bytes)).sum();
        if staged != u128::from(self.host_used) || self.host_used > self.host_capacity {
            return Err(gfaas_snap::SnapError::Corrupt(
                "host tier accounting disagrees with its entries",
            ));
        }
        let n = dec.usize()?;
        self.in_flight.clear();
        for _ in 0..n {
            self.in_flight.push(InFlightFetch {
                model: ModelId(dec.u32()?),
                bytes: dec.u64()?,
                ready: dec.time()?,
            });
        }
        self.link_free_at = dec.time()?;
        let n = dec.usize()?;
        self.scores.clear();
        for _ in 0..n {
            let m = ModelId(dec.u32()?);
            let s = ArrivalScore {
                value: dec.f64()?,
                last: dec.time()?,
                bytes: dec.u64()?,
            };
            self.scores.insert(m, s);
        }
        self.host_hits = dec.u64()?;
        self.origin_loads = dec.u64()?;
        self.prefetch_joins = dec.u64()?;
        self.prefetches = dec.u64()?;
        self.demotions = dec.u64()?;
        self.host_evictions = dec.u64()?;
        self.host_rejects = dec.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1024 * 1024;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    fn tiered(spec: &str) -> TieredStore {
        TieredStore::from_spec(&StoreSpec::parse(spec).unwrap())
    }

    // --- spec grammar -------------------------------------------------

    #[test]
    fn parses_bare_keys_with_defaults() {
        let s = StoreSpec::parse("flat").unwrap();
        assert!(s.is_flat());
        let s = StoreSpec::parse("tiered").unwrap();
        assert!(!s.is_flat());
        assert_eq!(s.host_bytes, DEFAULT_HOST_BYTES);
        assert_eq!(s.origin_bw_bps, DEFAULT_ORIGIN_BW_BPS);
        assert_eq!(s.pcie_bw_bps, DEFAULT_PCIE_BW_BPS);
        assert_eq!(s.prefetch, DEFAULT_PREFETCH_SCORE);
        assert_eq!(s.hot, DEFAULT_HOT_SET);
        assert_eq!(StoreSpec::default(), StoreSpec::parse("flat").unwrap());
    }

    #[test]
    fn parses_fields_in_any_order_and_round_trips() {
        let s = StoreSpec::parse("tiered:origin_bw=2G,host=8G,prefetch=0,hot=2").unwrap();
        assert_eq!(s.host_bytes, 8 * (1 << 30));
        assert_eq!(s.origin_bw_bps, 2e9);
        assert_eq!(s.prefetch, 0.0);
        assert_eq!(s.hot, 2);
        // Display is the canonical full form and re-parses to the same spec.
        let printed = s.to_string();
        assert_eq!(printed.parse::<StoreSpec>().unwrap(), s);
        assert_eq!(StoreSpec::parse("flat").unwrap().to_string(), "flat");
    }

    #[test]
    fn capacity_suffixes_are_binary_and_bandwidth_decimal() {
        let s = StoreSpec::parse("tiered:host=512M,origin_bw=500M").unwrap();
        assert_eq!(s.host_bytes, 512 * (1 << 20));
        assert_eq!(s.origin_bw_bps, 500e6);
        // Bare digits: raw bytes resp. bytes/sec; fractional capacities OK.
        let s = StoreSpec::parse("tiered:host=1048576,origin_bw=1.5G").unwrap();
        assert_eq!(s.host_bytes, MIB);
        assert_eq!(s.origin_bw_bps, 1.5e9);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            ":",
            "FLAT",
            "tiered:",
            "tiered:host",
            "tiered:host=",
            "tiered:host=x",
            "tiered:wat=1",
            "tiered:origin_bw=inf",
            "flat:host=1G", // flat takes no fields
            "flat:1",
        ] {
            assert!(StoreSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_inconsistent_bounds() {
        for bad in [
            "tiered:origin_bw=0",
            "tiered:pcie_bw=-1",
            "tiered:origin_lat=-0.5",
            "tiered:pcie_lat=-1",
            "tiered:prefetch=-2",
            "hierarchical", // unknown key
        ] {
            assert!(StoreSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn build_names_the_backend() {
        let s = StoreSpec::parse("flat").unwrap().build().unwrap();
        assert_eq!(s.name(), "flat");
        let s = StoreSpec::parse("tiered:host=1G").unwrap().build().unwrap();
        assert!(s.name().starts_with("tiered("));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = StoreSpec::parse("belady").unwrap_err();
        assert!(e.to_string().contains("unknown store"));
        let e = StoreSpec::parse("tiered:host=x").unwrap_err();
        assert!(e.to_string().contains("host"));
        let e = StoreSpec::parse("tiered:origin_bw=0").unwrap_err();
        assert!(e.to_string().contains("origin_bw"));
    }

    // --- flat ---------------------------------------------------------

    #[test]
    fn flat_returns_the_flat_cost_verbatim() {
        let mut s = FlatStore::new();
        let flat = SimDuration::from_secs_f64(2.95);
        let m = ModelId(7);
        assert_eq!(s.load_cost(t(0.0), m, 2000 * MIB, flat), flat);
        assert_eq!(
            s.begin_load(t(5.0), m, 2000 * MIB, flat),
            (Tier::ORIGIN, flat)
        );
        s.demote(t(6.0), m, 2000 * MIB);
        s.note_arrival(t(7.0), m, 2000 * MIB);
        s.note_scale_up(t(8.0));
        assert_eq!(s.load_cost(t(9.0), m, 2000 * MIB, flat), flat);
        assert_eq!(s.stats().origin_loads, 1);
    }

    // --- tiered cost model --------------------------------------------

    #[test]
    fn host_hit_is_cheaper_than_cold_and_than_flat() {
        let mut s = tiered("tiered:host=8G,prefetch=0");
        let m = ModelId(1);
        let bytes = 2000 * MIB;
        let flat = SimDuration::from_secs_f64(1.62 + bytes as f64 / 1.61e9);
        let (tier, cold) = s.begin_load(t(0.0), m, bytes, flat);
        assert_eq!(tier, Tier::ORIGIN);
        // Cold crosses the origin link: at least as slow as a flat load.
        assert!(cold >= flat, "cold {cold} vs flat {flat}");
        // The demand fetch staged the bytes: a re-load is now a host hit.
        let (tier, warm) = s.begin_load(t(100.0), m, bytes, flat);
        assert_eq!(tier, Tier::HOST);
        assert!(warm < flat, "host hit {warm} vs flat {flat}");
        assert_eq!(s.stats().host_hits, 1);
        assert_eq!(s.stats().origin_loads, 1);
    }

    #[test]
    fn demote_then_rehit_charges_the_host_hop_not_origin() {
        let mut s = tiered("tiered:host=8G,prefetch=0");
        let m = ModelId(3);
        let bytes = 1500 * MIB;
        s.demote(t(10.0), m, bytes);
        assert_eq!(s.serving_tier(m), Tier::HOST);
        let (tier, cost) = s.begin_load(t(11.0), m, bytes, SimDuration::from_secs(4));
        assert_eq!(tier, Tier::HOST);
        // Exactly the host→HBM hop — no origin component.
        assert_eq!(
            cost,
            SimDuration::from_secs_f64(DEFAULT_PCIE_LAT_SECS + bytes as f64 / DEFAULT_PCIE_BW_BPS)
        );
        assert_eq!(s.stats().demotions, 1);
        assert_eq!(s.stats().origin_loads, 0);
    }

    #[test]
    fn origin_link_is_fifo_and_serializes_fetches() {
        let mut s = tiered("tiered:host=64G,origin_lat=0,prefetch=0");
        let bytes = 1000 * MIB;
        let xfer = SimDuration::from_secs_f64(bytes as f64 / DEFAULT_ORIGIN_BW_BPS);
        let flat = SimDuration::ZERO;
        let (_, c1) = s.begin_load(t(0.0), ModelId(1), bytes, flat);
        let (_, c2) = s.begin_load(t(0.0), ModelId(2), bytes, flat);
        // The second fetch queues behind the first on the shared link.
        assert_eq!(c2, c1 + xfer);
    }

    #[test]
    fn host_capacity_is_conserved_under_lru_displacement() {
        let mut s = tiered("tiered:host=3G,prefetch=0");
        let gib = 1u64 << 30;
        for i in 0..5 {
            s.demote(t(i as f64), ModelId(i), gib);
            let st = s.stats();
            assert!(st.host_bytes_used <= st.host_capacity);
        }
        let st = s.stats();
        // 3 GiB holds exactly the 3 most recent 1 GiB demotions.
        assert_eq!(st.host_models, 3);
        assert_eq!(st.host_bytes_used, 3 * gib);
        assert_eq!(st.host_evictions, 2);
        assert_eq!(s.serving_tier(ModelId(4)), Tier::HOST);
        assert_eq!(s.serving_tier(ModelId(0)), Tier::ORIGIN);
        // A model larger than the whole tier is rejected, not staged.
        s.demote(t(9.0), ModelId(9), 4 * gib);
        assert_eq!(s.stats().host_rejects, 1);
        assert_eq!(s.serving_tier(ModelId(9)), Tier::ORIGIN);
    }

    #[test]
    fn rehit_refreshes_lru_recency() {
        let mut s = tiered("tiered:host=2G,prefetch=0");
        let gib = 1u64 << 30;
        s.demote(t(0.0), ModelId(1), gib);
        s.demote(t(1.0), ModelId(2), gib);
        // Re-hitting model 1 makes model 2 the LRU victim.
        s.begin_load(t(2.0), ModelId(1), gib, SimDuration::ZERO);
        s.demote(t(3.0), ModelId(3), gib);
        assert_eq!(s.serving_tier(ModelId(1)), Tier::HOST);
        assert_eq!(s.serving_tier(ModelId(2)), Tier::ORIGIN);
    }

    // --- prefetch -----------------------------------------------------

    #[test]
    fn arrivals_crossing_the_threshold_trigger_one_prefetch() {
        let mut s = tiered("tiered:host=8G,prefetch=3,origin_lat=0");
        let m = ModelId(5);
        let bytes = 1000 * MIB;
        // Four quick arrivals push the EWMA over the threshold.
        s.note_arrival(t(0.0), m, bytes);
        s.note_arrival(t(0.05), m, bytes);
        s.note_arrival(t(0.1), m, bytes);
        assert_eq!(s.stats().prefetches, 0);
        s.note_arrival(t(0.15), m, bytes);
        assert_eq!(s.stats().prefetches, 1);
        // Mid-transfer, a demand load joins the fetch (cheaper than cold).
        let cold = s.load_cost(t(0.2), ModelId(6), bytes, SimDuration::ZERO);
        let join = s.load_cost(t(0.2), m, bytes, SimDuration::ZERO);
        assert!(join < cold, "join {join} vs cold {cold}");
        let (tier, _) = s.begin_load(t(0.25), m, bytes, SimDuration::ZERO);
        assert_eq!(tier, Tier::ORIGIN);
        assert_eq!(s.stats().prefetch_joins, 1);
        // After the transfer lands, it's a plain host hit.
        let (tier, _) = s.begin_load(t(10.0), m, bytes, SimDuration::ZERO);
        assert_eq!(tier, Tier::HOST);
        // No duplicate prefetch while resident.
        s.note_arrival(t(10.1), m, bytes);
        assert_eq!(s.stats().prefetches, 1);
    }

    #[test]
    fn scale_up_stages_the_hot_set_in_score_order() {
        let mut s = tiered("tiered:host=64G,prefetch=0,hot=2,origin_lat=0");
        let bytes = 1000 * MIB;
        // prefetch=0 disables arrival-triggered staging but note_arrival
        // still feeds the predictor for scale-up staging.
        for _ in 0..5 {
            s.note_arrival(t(1.0), ModelId(1), bytes);
        }
        for _ in 0..3 {
            s.note_arrival(t(1.0), ModelId(2), bytes);
        }
        s.note_arrival(t(1.0), ModelId(3), bytes);
        s.note_scale_up(t(2.0));
        assert_eq!(s.stats().prefetches, 2);
        // The two hottest models are in flight; the cool one is not.
        assert!(s.in_flight_ready(ModelId(1)).is_some());
        assert!(s.in_flight_ready(ModelId(2)).is_some());
        assert!(s.in_flight_ready(ModelId(3)).is_none());
        // Once landed they serve from host.
        s.note_arrival(t(100.0), ModelId(3), bytes);
        assert_eq!(s.serving_tier(ModelId(1)), Tier::HOST);
        assert_eq!(s.serving_tier(ModelId(2)), Tier::HOST);
    }

    #[test]
    fn tiered_save_load_round_trips_mid_flight_state() {
        let mut s = tiered("tiered:host=8G,prefetch=3,origin_lat=0,hot=2");
        let bytes = 1000 * MIB;
        for i in 0..4 {
            s.note_arrival(t(i as f64 * 0.05), ModelId(5), bytes);
        }
        s.demote(t(0.3), ModelId(1), bytes);
        s.begin_load(t(0.4), ModelId(2), bytes, SimDuration::ZERO);

        let mut enc = gfaas_snap::Enc::new();
        s.save_state(&mut enc);
        let blob = enc.into_bytes();
        let mut fresh = tiered("tiered:host=8G,prefetch=3,origin_lat=0,hot=2");
        let mut dec = gfaas_snap::Dec::new(&blob);
        fresh.load_state(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(format!("{fresh:?}"), format!("{s:?}"));

        // Both copies keep evolving identically (the in-flight prefetch
        // settles, scores decay, the link serialises new fetches).
        for store in [&mut s, &mut fresh] {
            store.note_arrival(t(5.0), ModelId(5), bytes);
            store.begin_load(t(5.1), ModelId(9), bytes, SimDuration::ZERO);
        }
        assert_eq!(format!("{fresh:?}"), format!("{s:?}"));
    }

    #[test]
    fn tiered_load_rejects_host_accounting_that_disagrees_with_its_entries() {
        let mut s = tiered("tiered:host=8G");
        s.demote(t(0.0), ModelId(1), 1000 * MIB);
        let mut enc = gfaas_snap::Enc::new();
        s.save_state(&mut enc);
        let mut blob = enc.into_bytes();
        blob[0] ^= 1; // the leading host_used word
        let mut fresh = tiered("tiered:host=8G");
        assert!(fresh.load_state(&mut gfaas_snap::Dec::new(&blob)).is_err());
    }

    #[test]
    fn flat_save_load_round_trips_the_counter() {
        let mut s = FlatStore::new();
        s.begin_load(t(0.0), ModelId(1), MIB, SimDuration::ZERO);
        s.begin_load(t(1.0), ModelId(2), MIB, SimDuration::ZERO);
        let mut enc = gfaas_snap::Enc::new();
        s.save_state(&mut enc);
        let blob = enc.into_bytes();
        let mut fresh = FlatStore::new();
        fresh.load_state(&mut gfaas_snap::Dec::new(&blob)).unwrap();
        assert_eq!(fresh.stats(), s.stats());
    }

    #[test]
    fn ewma_scores_decay_over_time() {
        let mut s = tiered("tiered:prefetch=3");
        let m = ModelId(8);
        let bytes = 100 * MIB;
        s.note_arrival(t(0.0), m, bytes);
        s.note_arrival(t(1.0), m, bytes);
        // A long gap decays the score back below the trigger, so two more
        // arrivals spaced out never prefetch.
        s.note_arrival(t(1000.0), m, bytes);
        s.note_arrival(t(2000.0), m, bytes);
        assert_eq!(s.stats().prefetches, 0);
    }
}
