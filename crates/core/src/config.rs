//! Cluster configuration.

use std::fmt;

use gfaas_gpu::GpuSpec;
use gfaas_obs::RecordSpec;
use gfaas_sim::time::SimDuration;
use gfaas_store::{StoreError, StoreSpec};

use crate::autoscale::{AutoscaleError, AutoscaleSpec};
use crate::policy::{PolicyError, PolicySpec};

/// How Algorithm 2 treats a request whose model is cached only on busy
/// GPUs — the finish-time-estimation ablation (DESIGN.md §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BusyWaitPolicy {
    /// The paper's design: queue at the busy holder iff its estimated
    /// finish time beats the model's load time.
    #[default]
    Estimate,
    /// Never wait: a busy holder always yields a replica miss on the idle
    /// GPU (what Algorithm 2 degenerates to without finish-time estimates).
    Never,
    /// Always wait: blindly queue at the least-loaded busy holder
    /// (locality without load balance).
    Always,
}

impl BusyWaitPolicy {
    /// Whether a request queues at a busy holder expected to serve it
    /// after `wait` instead of cold-loading its model in `load_time`.
    pub fn joins(self, wait: SimDuration, load_time: SimDuration) -> bool {
        match self {
            BusyWaitPolicy::Estimate => wait < load_time,
            BusyWaitPolicy::Never => false,
            BusyWaitPolicy::Always => true,
        }
    }
}

/// Default Cache-Manager OOM headroom on the paper testbed, MiB.
///
/// Calibrated (see EXPERIMENTS.md): 3 GiB of headroom puts the simulated
/// cache supply at ~2.2 model slots per GPU, which reproduces the
/// cache-pressure regime evident in the paper's Fig 4b and Fig 7 (LALB
/// miss ratios of ~0.13 at WS15 rising to ~0.28 at WS35, and the large
/// O3 win at WS35). With zero headroom the 12-GPU cluster comfortably
/// caches the entire 22-model zoo and no scheduler ever misses — a regime
/// in which the paper's measured curves could not have been produced.
pub const PAPER_MEM_HEADROOM_MIB: u64 = 3072;

/// A structurally invalid [`ClusterConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The cluster has no GPUs.
    NoGpus,
    /// `hetero_specs` was set but its length differs from `num_gpus`.
    HeteroSpecLen {
        /// `num_gpus`.
        expected: usize,
        /// `hetero_specs.len()`.
        got: usize,
    },
    /// `batch_size` is zero.
    ZeroBatch,
    /// The scheduler or replacement spec failed to resolve.
    Policy(PolicyError),
    /// The autoscale spec is malformed or inconsistent.
    Autoscale(AutoscaleError),
    /// The storage-hierarchy spec is malformed or inconsistent.
    Store(StoreError),
    /// Autoscaling and per-GPU heterogeneous specs were both requested;
    /// the elastic fleet is sized by `autoscale.max_gpus`, so a
    /// `num_gpus`-length spec list cannot describe it.
    AutoscaleWithHetero,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoGpus => write!(f, "num_gpus must be positive"),
            ConfigError::HeteroSpecLen { expected, got } => {
                write!(
                    f,
                    "hetero_specs length {got} must equal num_gpus {expected}"
                )
            }
            ConfigError::ZeroBatch => write!(f, "batch_size must be positive"),
            ConfigError::Policy(e) => write!(f, "{e}"),
            ConfigError::Autoscale(e) => write!(f, "{e}"),
            ConfigError::Store(e) => write!(f, "{e}"),
            ConfigError::AutoscaleWithHetero => {
                write!(f, "autoscale and hetero_specs cannot be combined")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<PolicyError> for ConfigError {
    fn from(e: PolicyError) -> Self {
        ConfigError::Policy(e)
    }
}

impl From<AutoscaleError> for ConfigError {
    fn from(e: AutoscaleError) -> Self {
        ConfigError::Autoscale(e)
    }
}

impl From<StoreError> for ConfigError {
    fn from(e: StoreError) -> Self {
        ConfigError::Store(e)
    }
}

/// Configuration of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of GPUs (the paper's testbed has 12: 3 nodes × 4).
    pub num_gpus: usize,
    /// The GPU model (homogeneous clusters).
    pub gpu_spec: GpuSpec,
    /// Per-GPU spec overrides for heterogeneous clusters (§VI). When set,
    /// its length must equal `num_gpus`; the scheduler then uses each
    /// GPU type's own profiled load/inference times.
    pub hetero_specs: Option<Vec<GpuSpec>>,
    /// Number of tenants; requests of function rank `f` belong to tenant
    /// `f % num_tenants` (§VI multi-tenancy).
    pub num_tenants: u16,
    /// Per-tenant cap on concurrently executing (or locally queued)
    /// requests — the §VI isolation knob limiting the GPU processes a
    /// tenant can occupy. `None` disables isolation.
    pub tenant_max_inflight: Option<usize>,
    /// Scheduling policy spec, resolved through
    /// [`crate::policy::PolicyRegistry`] (`"lb"`, `"lalb"`,
    /// `"lalbo3[:limit]"`, or any registered key).
    pub policy: PolicySpec,
    /// Cache replacement spec (paper default `"lru"`; `"fifo"` /
    /// `"random"` for the §VI ablation, `"tinylfu[:decay]"` for the
    /// frequency-decay policy, or any registered key).
    pub replacement: PolicySpec,
    /// Inference batch size (the paper fixes 32 throughout §V).
    pub batch_size: usize,
    /// Dynamic request-batching spec, resolved through
    /// [`crate::policy::PolicyRegistry::batcher`] (`"none"` — the paper's
    /// per-request dispatch and the default everywhere —
    /// `"coalesce[:max=8,wait=0.05]"`, or
    /// `"adaptive[:slo=30,max=32,wait=0.05]"`; see [`crate::batching`]).
    /// Every published number is produced with batching off.
    pub batching: PolicySpec,
    /// Algorithm 2's busy-holder handling (ablation; paper = `Estimate`).
    pub busy_wait: BusyWaitPolicy,
    /// Memory the Cache Manager keeps free on each GPU as an OOM guard.
    ///
    /// Table I records each model's *steady* batch-32 occupancy, but
    /// transient allocations during kernel execution (cuDNN workspace,
    /// input/output staging) go beyond it, and an OOM kills the process.
    /// The paper's Cache Manager provisions conservatively for exactly
    /// this reason (§V-C: the GPUs "cannot risk exceeding memory");
    /// the headroom reproduces that conservatism in the simulator.
    pub mem_headroom_mib: u64,
    /// Probability that a dispatched inference crashes partway through
    /// (failure injection; the request is retried). 0 disables.
    pub crash_rate: f64,
    /// Elastic capacity: when set, the cluster allocates
    /// `autoscale.max_gpus` devices, starts with `num_gpus` of them
    /// online (clamped into `[min_gpus, max_gpus]`), and lets the spec's
    /// autoscaler scale the online fleet on queue pressure (see
    /// [`crate::autoscale`]). `None` (the default everywhere) is the
    /// paper's fixed testbed; every published number is produced with
    /// autoscaling off.
    pub autoscale: Option<AutoscaleSpec>,
    /// The model-storage hierarchy behind the load path, built with
    /// [`StoreSpec::build`] (`"flat"` — the paper's single-cost infinite
    /// store and the default everywhere — or
    /// `"tiered:host=64G,origin_bw=2G,…"`; see [`gfaas_store`]).
    /// With `flat` the cluster's load path is byte-identical to the
    /// pre-store simulator; every published number uses `flat`.
    pub store: StoreSpec,
    /// RNG seed (random replacement, tie-breaking, crash injection).
    pub seed: u64,
    /// Mirror GPU status / LRU lists / latencies into the datastore given
    /// to [`Cluster::with_datastore`](crate::Cluster::with_datastore), the
    /// one reader of this flag. Off by default in benchmarks — it is
    /// observability, not behaviour.
    pub report_to_datastore: bool,
    /// Event recording: which [`gfaas_obs`] recorders to attach
    /// (lifecycle ledger, Perfetto trace export, time-series sampler)
    /// — the `--record` CLI axis. Off by default everywhere; with the
    /// default spec the cluster holds no recorder and the event loop
    /// does not even construct events, so published numbers are
    /// untouched.
    pub record: RecordSpec,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::paper_testbed(PolicySpec::bare("lalbo3"))
    }
}

impl ClusterConfig {
    /// The paper's testbed: 12 RTX 2080 GPUs on 3 nodes.
    pub fn paper_testbed(policy: PolicySpec) -> Self {
        ClusterConfig {
            num_gpus: 12,
            gpu_spec: GpuSpec::rtx2080(),
            policy,
            hetero_specs: None,
            num_tenants: 1,
            tenant_max_inflight: None,
            replacement: PolicySpec::bare("lru"),
            batch_size: 32,
            batching: PolicySpec::bare("none"),
            busy_wait: BusyWaitPolicy::Estimate,
            mem_headroom_mib: PAPER_MEM_HEADROOM_MIB,
            autoscale: None,
            store: StoreSpec::default(),
            crash_rate: 0.0,
            seed: 0x6fa5,
            report_to_datastore: false,
            record: RecordSpec::default(),
        }
    }

    /// A small test cluster with instant-PCIe GPUs of `mem_mib` each.
    pub fn test(num_gpus: usize, mem_mib: u64, policy: PolicySpec) -> Self {
        ClusterConfig {
            num_gpus,
            gpu_spec: GpuSpec::test(mem_mib),
            policy,
            hetero_specs: None,
            num_tenants: 1,
            tenant_max_inflight: None,
            replacement: PolicySpec::bare("lru"),
            batch_size: 32,
            batching: PolicySpec::bare("none"),
            busy_wait: BusyWaitPolicy::Estimate,
            mem_headroom_mib: 0,
            autoscale: None,
            store: StoreSpec::default(),
            crash_rate: 0.0,
            seed: 1,
            report_to_datastore: false,
            record: RecordSpec::default(),
        }
    }

    /// Checks structural consistency: a cluster with GPUs, hetero specs
    /// matching the GPU count, and a non-zero batch size. Policy *specs*
    /// are resolved separately (by [`Cluster::try_new`]) so a config
    /// validated here can still carry keys only a custom registry knows.
    ///
    /// [`Cluster::try_new`]: crate::cluster::Cluster::try_new
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_gpus == 0 {
            return Err(ConfigError::NoGpus);
        }
        if let Some(specs) = &self.hetero_specs {
            if specs.len() != self.num_gpus {
                return Err(ConfigError::HeteroSpecLen {
                    expected: self.num_gpus,
                    got: specs.len(),
                });
            }
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatch);
        }
        if let Some(autoscale) = &self.autoscale {
            autoscale.validate()?;
            if self.hetero_specs.is_some() {
                return Err(ConfigError::AutoscaleWithHetero);
            }
        }
        self.store.validate()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_evaluation_setup() {
        let c = ClusterConfig::paper_testbed(PolicySpec::bare("lb"));
        assert_eq!(c.num_gpus, 12);
        assert_eq!(c.gpu_spec.name, "GeForce RTX 2080");
        assert_eq!(c.replacement, PolicySpec::bare("lru"));
        assert_eq!(c.policy, PolicySpec::bare("lb"));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_hetero_length_mismatch() {
        let mut c = ClusterConfig::test(3, 1000, PolicySpec::bare("lalb"));
        c.hetero_specs = Some(vec![GpuSpec::test(1000); 2]);
        assert_eq!(
            c.validate(),
            Err(ConfigError::HeteroSpecLen {
                expected: 3,
                got: 2
            })
        );
    }

    #[test]
    fn validate_rejects_zero_batch_and_zero_gpus() {
        let mut c = ClusterConfig::test(1, 1000, PolicySpec::bare("lalb"));
        c.batch_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBatch));
        let z = ClusterConfig::test(0, 1000, PolicySpec::bare("lalb"));
        assert_eq!(z.validate(), Err(ConfigError::NoGpus));
    }

    #[test]
    fn validate_checks_the_autoscale_spec() {
        let mut c = ClusterConfig::test(4, 1000, PolicySpec::bare("lalb"));
        c.autoscale = Some("queue:min=2,max=8,up=4,down=1".parse().unwrap());
        assert!(c.validate().is_ok());
        // Inconsistent bounds surface as ConfigError::Autoscale…
        let mut bad = AutoscaleSpec::default();
        bad.min_gpus = 9;
        bad.max_gpus = 3;
        c.autoscale = Some(bad);
        assert!(matches!(c.validate(), Err(ConfigError::Autoscale(_))));
        // …and heterogeneous fleets cannot autoscale.
        let mut c = ClusterConfig::test(2, 1000, PolicySpec::bare("lalb"));
        c.autoscale = Some(AutoscaleSpec::default());
        c.hetero_specs = Some(vec![GpuSpec::test(1000); 2]);
        assert_eq!(c.validate(), Err(ConfigError::AutoscaleWithHetero));
    }

    #[test]
    fn validate_checks_the_store_spec() {
        let mut c = ClusterConfig::test(4, 1000, PolicySpec::bare("lalb"));
        assert!(c.store.is_flat(), "flat is the default");
        assert!(c.validate().is_ok());
        c.store = "tiered:host=8G,origin_bw=2G".parse().unwrap();
        assert!(c.validate().is_ok());
        // An inconsistent spec surfaces as ConfigError::Store.
        let mut bad: StoreSpec = "tiered".parse().unwrap();
        bad.origin_bw_bps = 0.0;
        c.store = bad;
        assert!(matches!(c.validate(), Err(ConfigError::Store(_))));
    }

    #[test]
    fn errors_display_helpfully() {
        let e = ConfigError::HeteroSpecLen {
            expected: 5,
            got: 2,
        };
        assert!(e.to_string().contains("must equal num_gpus 5"));
        assert!(ConfigError::ZeroBatch.to_string().contains("batch_size"));
    }
}
