//! Datastore mirroring (paper Fig 2): the GPU Managers publish each
//! GPU's status and LRU list to etcd, and each completion its latency.
//! This module alone knows the key layout.

use std::sync::Arc;

use gfaas_gpu::{GpuId, ModelId};
use gfaas_obs::{ObsEvent, Recorder};
use gfaas_sim::time::{SimTime, TICKS_PER_SEC};

use crate::datastore::Datastore;

// `push_secs` writes the fraction as six digits of microseconds.
const _: () = assert!(TICKS_PER_SEC == 1_000_000);

/// Key of a GPU's status: `busy`, `idle` or `offline`.
pub fn status_key(gpu: GpuId) -> String {
    format!("/gpu/{}/status", gpu.0)
}

/// Key of a GPU's LRU list: comma-separated model ids, coldest first.
pub fn lru_key(gpu: GpuId) -> String {
    format!("/gpu/{}/lru", gpu.0)
}

/// Key of a completed request's latency, in seconds.
pub fn latency_key(req: u64) -> String {
    let mut key = String::new();
    push_latency_key(&mut key, req);
    key
}

fn push_latency_key(buf: &mut String, req: u64) {
    buf.push_str("/latency/");
    push_decimal(buf, req, 1);
}

/// Appends `n` in decimal, zero-padded to at least `width` digits.
fn push_decimal(buf: &mut String, mut n: u64, width: usize) {
    let mut digits = [b'0'; 20];
    let mut start = digits.len();
    while n > 0 || digits.len() - start < width {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    buf.extend(digits[start..].iter().map(|&d| char::from(d)));
}

/// Appends a span of `ticks` microseconds as seconds with six decimals:
/// the same bytes as `format!("{:.6}", secs_f64)` wherever the `f64`
/// resolves a microsecond (every span under 2^33 s).
fn push_secs(buf: &mut String, ticks: u64) {
    push_decimal(buf, ticks / TICKS_PER_SEC, 1);
    buf.push('.');
    push_decimal(buf, ticks % TICKS_PER_SEC, 6);
}

/// A [`Recorder`] that turns the cluster's event stream into puts.
#[derive(Debug)]
pub struct DatastoreMirror {
    ds: Arc<Datastore>,
    /// `(status, lru)` keys by GPU index, built on first use.
    keys: Vec<(String, String)>,
    /// Reused for each latency key and value, and each LRU list.
    buf: String,
}

impl DatastoreMirror {
    /// A mirror writing into `ds`.
    pub fn new(ds: Arc<Datastore>) -> Self {
        DatastoreMirror {
            ds,
            keys: Vec::new(),
            buf: String::new(),
        }
    }

    /// Index of `gpu`'s keys, building any missing ones.
    fn gpu(&mut self, gpu: GpuId) -> usize {
        let i = usize::from(gpu.0);
        while self.keys.len() <= i {
            let g = GpuId(self.keys.len() as u16);
            self.keys.push((status_key(g), lru_key(g)));
        }
        i
    }

    fn status(&mut self, gpu: GpuId, status: &str) {
        let i = self.gpu(gpu);
        self.ds.put(&self.keys[i].0, status);
    }

    fn lru(&mut self, gpu: GpuId, resident: &[ModelId]) {
        let i = self.gpu(gpu);
        self.buf.clear();
        for (n, m) in resident.iter().enumerate() {
            if n > 0 {
                self.buf.push(',');
            }
            push_decimal(&mut self.buf, m.0.into(), 1);
        }
        self.ds.put(&self.keys[i].1, &self.buf);
    }
}

impl Recorder for DatastoreMirror {
    fn record(&mut self, _t: SimTime, ev: &ObsEvent<'_>) {
        match *ev {
            ObsEvent::HoldStart { gpu, .. } | ObsEvent::Dispatch { gpu, hit: true, .. } => {
                self.status(gpu, "busy");
            }
            ObsEvent::LoadStart { gpu, resident, .. } => {
                self.lru(gpu, resident);
                self.status(gpu, "busy");
            }
            // Not `UnitIdle`, which a draining unit skips.
            ObsEvent::InvocationDone { gpu, .. } | ObsEvent::ScaleUp { gpu } => {
                self.status(gpu, "idle");
            }
            ObsEvent::Crash { gpu, resident, .. } => {
                self.status(gpu, "idle");
                self.lru(gpu, resident);
            }
            ObsEvent::Offline { gpu, resident } => {
                self.status(gpu, "offline");
                self.lru(gpu, resident);
            }
            ObsEvent::Completion { req, latency, .. } => {
                self.buf.clear();
                push_latency_key(&mut self.buf, req);
                let key_len = self.buf.len();
                push_secs(&mut self.buf, latency.as_micros());
                let (key, value) = self.buf.split_at(key_len);
                self.ds.put(key, value);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfaas_sim::rng::DetRng;
    use gfaas_sim::time::SimDuration;

    #[test]
    fn datastore_keys_are_stable() {
        assert_eq!(status_key(GpuId(7)), "/gpu/7/status");
        assert_eq!(lru_key(GpuId(0)), "/gpu/0/lru");
        assert_eq!(latency_key(42), "/latency/42");
        assert_eq!(latency_key(0), "/latency/0");
        assert_eq!(latency_key(u64::MAX), format!("/latency/{}", u64::MAX));
    }

    fn secs(ticks: u64) -> String {
        let mut buf = String::new();
        push_secs(&mut buf, ticks);
        buf
    }

    fn float_secs(ticks: u64) -> String {
        format!("{:.6}", SimDuration::from_micros(ticks).as_secs_f64())
    }

    #[test]
    fn latency_encoding_matches_float_formatting_at_boundaries() {
        for ticks in [
            0,
            1,
            999_999,
            1_000_000,
            59_999_999,
            u64::from(u32::MAX),
            1_000_000_000_000_000,
        ] {
            assert_eq!(secs(ticks), float_secs(ticks), "{ticks} ticks");
        }
        assert_eq!(secs(1_500_000), "1.500000");
    }

    #[test]
    fn latency_encoding_matches_float_formatting_over_a_sweep() {
        let mut rng = DetRng::new(21);
        for _ in 0..20_000 {
            // Uniform over each decade up to 10^15 ticks.
            let decade = 10u64.pow(rng.gen_range(16) as u32);
            let ticks = rng.gen_range(decade);
            assert_eq!(secs(ticks), float_secs(ticks), "{ticks} ticks");
        }
    }
}
