//! Live mode: real (CPU) inference behind the simulator's cache manager.
//!
//! The experiments run on virtual time against the Table I latency
//! profiles. [`LiveServer`] is the other execution mode: a synchronous
//! model server that executes each request as an actual forward pass over
//! the model's miniature network ([`crate::model`]). The simulated
//! devices still hold residency, and each response adds up the profiled
//! load/inference durations, so live results report both the wall-clock
//! compute time and the virtual latency the full-size model would have
//! had. Placement is the server's own simple rule, not Algorithm 2 (see
//! [`LiveServer`]).
//!
//! `LiveServer` implements [`gfaas_faas::Dispatcher`], so a Gateway can
//! route GPU-enabled functions straight into it.

use std::collections::BTreeMap;

use gfaas_core::{CacheManager, PolicyRegistry, PolicySpec};
use gfaas_faas::{Dispatcher, Invocation, InvocationResult};
use gfaas_gpu::{GpuDevice, GpuId, GpuSpec, ModelId};
use gfaas_models::ModelRegistry;
use gfaas_sim::time::SimDuration;

use crate::model::{live_model, synthetic_batch, LiveModel};

/// Outcome of one live inference.
#[derive(Debug, Clone)]
pub struct LiveResponse {
    /// Predicted class per batch row.
    pub labels: Vec<usize>,
    /// Whether the model was already resident on the serving GPU.
    pub cache_hit: bool,
    /// The GPU that served the request.
    pub gpu: GpuId,
    /// The latency the full-size model would have had (profiled load —
    /// on a miss — plus profiled inference).
    pub virtual_latency: SimDuration,
    /// Wall-clock time of the actual CPU forward pass.
    pub wall: std::time::Duration,
}

/// Errors from the live server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiveError {
    /// The model name is not in the registry.
    UnknownModel(String),
    /// The model cannot fit the GPU at all.
    TooLarge(ModelId),
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::UnknownModel(n) => write!(f, "unknown model {n:?}"),
            LiveError::TooLarge(m) => write!(f, "{m} exceeds GPU capacity"),
        }
    }
}

impl std::error::Error for LiveError {}

struct LiveGpu {
    device: GpuDevice,
    resident: BTreeMap<ModelId, LiveModel>,
}

/// A synchronous model server with real CPU inference.
///
/// A hit is served by the first GPU holding the model. A miss goes to the
/// GPU with the most free memory (lowest index on ties), where an LRU
/// [`CacheManager`] picks the victims. There is no wait estimate and no
/// local queue, so this is not the simulator's Algorithm 2.
pub struct LiveServer {
    registry: ModelRegistry,
    cache: CacheManager,
    gpus: Vec<LiveGpu>,
    served: u64,
    results: Vec<InvocationResult>,
}

impl LiveServer {
    /// A server over `num_gpus` devices of the given spec.
    pub fn new(num_gpus: usize, spec: GpuSpec, registry: ModelRegistry) -> Self {
        let gpus: Vec<LiveGpu> = (0..num_gpus)
            .map(|i| LiveGpu {
                device: GpuDevice::new(GpuId(i as u16), spec.clone()),
                resident: BTreeMap::new(),
            })
            .collect();
        let lru = PolicyRegistry::builtin()
            .evictor(&PolicySpec::bare("lru"), 7)
            .expect("builtin evictor");
        let cache = CacheManager::with_evictor(gpus.iter().map(|g| g.device.id()), lru);
        LiveServer {
            registry,
            cache,
            gpus,
            served: 0,
            results: Vec::new(),
        }
    }

    /// Requests served so far.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Results accumulated from [`Dispatcher`] dispatches.
    pub fn take_results(&mut self) -> Vec<InvocationResult> {
        std::mem::take(&mut self.results)
    }

    /// Serves one inference for `model_name` on a synthetic batch of
    /// `batch` inputs derived from `input_seed`.
    pub fn serve(
        &mut self,
        model_name: &str,
        batch: usize,
        input_seed: u64,
    ) -> Result<LiveResponse, LiveError> {
        let model = self
            .registry
            .by_name(model_name)
            .ok_or_else(|| LiveError::UnknownModel(model_name.to_string()))?;
        let occupancy = self.registry.occupancy_bytes(model);
        // The serving GPU: the first resident copy (hit), else the GPU
        // with the most free memory, lowest index on ties (miss).
        let (gi, hit) = match self.cache.gpus_with(model).first() {
            Some(&g) => (g.0 as usize, true),
            None => (0..self.gpus.len())
                .max_by_key(|&i| (self.gpus[i].device.free_bytes(), usize::MAX - i))
                .map(|gi| (gi, false))
                .expect("at least one GPU"),
        };
        let gpu = self.gpus[gi].device.id();

        let mut virtual_latency = SimDuration::ZERO;
        if !hit {
            // Make room, kill victims' processes, upload (virtually) and
            // instantiate the runnable network (really).
            let registry = &self.registry;
            let free = self.gpus[gi].device.free_bytes();
            let victims = self
                .cache
                .select_victims(gpu, occupancy, free, |m| registry.occupancy_bytes(m), &[])
                .ok_or(LiveError::TooLarge(model))?;
            for v in victims {
                self.gpus[gi].device.evict(v).expect("victims are resident");
                self.gpus[gi].resident.remove(&v);
            }
            self.gpus[gi]
                .device
                .load(model, occupancy)
                .expect("load fits after eviction");
            self.cache.insert(gpu, model);
            self.gpus[gi]
                .resident
                .insert(model, live_model(&self.registry, model));
            virtual_latency += self.registry.load_time(model);
        } else {
            self.cache.touch(gpu, model);
        }

        // Real compute: forward the miniature network on a synthetic batch.
        let (labels, wall) = {
            let live = &self.gpus[gi].resident[&model];
            let input = synthetic_batch(live.input, batch, input_seed);
            let start = std::time::Instant::now();
            let labels = live.network.classify(&input);
            (labels, start.elapsed())
        };
        let infer_time = self.registry.infer_time(model, batch);
        virtual_latency += infer_time;
        self.served += 1;

        Ok(LiveResponse {
            labels,
            cache_hit: hit,
            gpu,
            virtual_latency,
            wall,
        })
    }
}

impl Dispatcher for LiveServer {
    fn dispatch(&mut self, invocation: Invocation) {
        // The Gateway stores the model name as the function's model; the
        // payload seeds the synthetic input.
        let seed = invocation
            .payload
            .iter()
            .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64));
        // Function specs name the model after the part following "fn-",
        // or use the function name itself as a model name.
        let name = invocation
            .function
            .strip_prefix("fn-")
            .unwrap_or(&invocation.function)
            .to_string();
        let result = match self.serve(&name, invocation.batch_size, seed) {
            Ok(resp) => InvocationResult {
                id: invocation.id,
                output: bytes::Bytes::from(
                    resp.labels
                        .iter()
                        .map(|l| l.to_string())
                        .collect::<Vec<_>>()
                        .join(","),
                ),
                latency: resp.virtual_latency,
                cache_hit: Some(resp.cache_hit),
            },
            Err(e) => InvocationResult {
                id: invocation.id,
                output: bytes::Bytes::from(format!("error: {e}")),
                latency: SimDuration::ZERO,
                cache_hit: None,
            },
        };
        self.results.push(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server(gpus: usize) -> LiveServer {
        LiveServer::new(gpus, GpuSpec::rtx2080(), ModelRegistry::table1())
    }

    #[test]
    fn cold_then_warm_serving() {
        let mut s = server(2);
        let cold = s.serve("resnet50", 4, 1).unwrap();
        assert!(!cold.cache_hit);
        assert_eq!(cold.labels.len(), 4);
        // Virtual latency includes the 2.67 s load.
        assert!(cold.virtual_latency.as_secs_f64() > 2.0);
        let warm = s.serve("resnet50", 4, 2).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(warm.gpu, cold.gpu, "hit served by the resident GPU");
        assert!(warm.virtual_latency < cold.virtual_latency);
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn eviction_under_pressure_still_serves() {
        // One 8 GiB GPU cannot hold three VGG-class models at once.
        let mut s = server(1);
        for name in ["vgg11", "vgg16", "vgg19", "vgg11"] {
            let resp = s.serve(name, 2, 9).unwrap();
            assert_eq!(resp.labels.len(), 2);
        }
        // The final vgg11 was evicted in between → cold again.
        assert_eq!(s.served(), 4);
    }

    #[test]
    fn unknown_model_is_an_error() {
        let mut s = server(1);
        assert_eq!(
            s.serve("nope", 1, 0).unwrap_err(),
            LiveError::UnknownModel("nope".into())
        );
    }

    #[test]
    fn misses_spread_over_gpus() {
        let mut s = server(2);
        let first = s.serve("resnet18", 1, 0).unwrap();
        // An empty fleet ties on free memory; the lowest index wins.
        assert_eq!(first.gpu, GpuId(0));
        let second = s.serve("vgg19", 1, 0).unwrap();
        // Second model goes to the emptier (other) GPU.
        assert_eq!(second.gpu, GpuId(1));
    }

    #[test]
    fn dispatcher_integration() {
        use gfaas_sim::time::SimTime;
        let mut s = server(1);
        let inv = Invocation {
            id: 7,
            function: "fn-squeezenet1.1".into(),
            payload: bytes::Bytes::from_static(b"img"),
            arrived_at: SimTime::ZERO,
            batch_size: 3,
        };
        s.dispatch(inv);
        let results = s.take_results();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, 7);
        assert_eq!(results[0].cache_hit, Some(false));
        let labels = String::from_utf8(results[0].output.to_vec()).unwrap();
        assert_eq!(labels.split(',').count(), 3);
        assert!(s.take_results().is_empty(), "take drains");

        s.dispatch(Invocation {
            id: 8,
            function: "fn-nope".into(),
            payload: bytes::Bytes::new(),
            arrived_at: SimTime::ZERO,
            batch_size: 1,
        });
        let failed = s.take_results();
        assert_eq!(failed.len(), 1);
        assert!(failed[0].output.starts_with(b"error: unknown model"));
        assert_eq!(failed[0].latency, SimDuration::ZERO);
        assert_eq!(failed[0].cache_hit, None);
    }
}
