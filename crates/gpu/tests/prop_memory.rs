//! Property tests for the GPU device's residency accounting and SM
//! utilisation.

use gfaas_gpu::{GpuDevice, GpuError, GpuId, GpuSpec, ModelId, MIB};
use gfaas_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Invariant: under arbitrary interleavings of loads and evictions,
    /// the used bytes equal the sum of the residents' bytes and never
    /// exceed capacity, and a refused load leaves the device unchanged.
    #[test]
    fn pool_accounting_balances(
        ops in proptest::collection::vec((0u32..12, 0u64..24 * 1024, any::<bool>()), 1..200),
    ) {
        let capacity = 64 * 1024;
        let spec = GpuSpec { memory_bytes: capacity, ..GpuSpec::test(0) };
        let mut d = GpuDevice::new(GpuId(0), spec);
        let mut live: Vec<(ModelId, u64)> = Vec::new();
        for (m, bytes, do_evict) in ops {
            let model = ModelId(m);
            let pos = live.iter().position(|&(lm, _)| lm == model);
            if do_evict {
                match pos {
                    Some(i) => prop_assert_eq!(d.evict(model), Ok(live.swap_remove(i).1)),
                    None => prop_assert_eq!(d.evict(model), Err(GpuError::NotResident(model))),
                }
            } else {
                let before = format!("{d:?}");
                match d.load(model, bytes) {
                    Ok(()) => {
                        prop_assert!(pos.is_none());
                        live.push((model, bytes));
                    }
                    Err(GpuError::AlreadyResident(r)) => {
                        prop_assert_eq!(r, model);
                        prop_assert!(pos.is_some());
                        prop_assert_eq!(format!("{d:?}"), before);
                    }
                    Err(GpuError::Oom { requested, free, capacity: cap }) => {
                        prop_assert_eq!((requested, cap), (bytes, capacity));
                        prop_assert!(bytes > free && pos.is_none());
                        prop_assert_eq!(format!("{d:?}"), before);
                    }
                    Err(e) => prop_assert!(false, "unexpected {e}"),
                }
            }
            let sum: u64 = live.iter().map(|&(_, b)| b).sum();
            prop_assert_eq!(d.used_bytes(), sum);
            prop_assert!(d.used_bytes() <= capacity);
            prop_assert_eq!(d.used_bytes() + d.free_bytes(), capacity);
            prop_assert_eq!(d.resident_count(), live.len());
            prop_assert!(live.iter().all(|&(lm, _)| d.has_model(lm)));
        }
    }

    /// Invariant: a device that only receives legal cycles — evict until
    /// the model fits, load, run one inference — never reports memory
    /// above capacity and always returns to SM-idle.
    #[test]
    fn device_cycles_return_to_idle(
        sizes in proptest::collection::vec(1u64..2000, 1..30),
    ) {
        let mut d = GpuDevice::new(GpuId(0), GpuSpec::test(8192));
        let mut now = SimTime::ZERO;
        for (i, mib) in sizes.iter().enumerate() {
            let model = ModelId(i as u32);
            let bytes = mib * MIB;
            // Evict LRA (least-recently-added) models until it fits.
            while d.free_bytes() < bytes {
                let victim = d.resident_models().next().unwrap();
                d.evict(victim).unwrap();
            }
            d.load(model, bytes).unwrap();
            d.sm_begin(now);
            now += SimDuration::from_millis(100);
            d.sm_end(now);
            prop_assert_eq!(d.sm_open_since(), None);
            prop_assert!(d.has_model(model));
            prop_assert!(d.used_bytes() <= d.spec().memory_bytes);
        }
    }

    /// Invariant: SM utilisation is always within [0, 1] regardless of
    /// the mix of inference intervals and idle gaps.
    #[test]
    fn sm_utilization_bounded(durs in proptest::collection::vec(1u64..5000, 1..40)) {
        let mut d = GpuDevice::new(GpuId(1), GpuSpec::test(4096));
        let mut now = SimTime::from_secs(2);
        for ms in durs {
            d.sm_begin(now);
            let done = now + SimDuration::from_millis(ms);
            d.sm_end(done);
            // idle gap equal to half the inference
            now = done + SimDuration::from_millis(ms / 2);
        }
        let u = d.sm_utilization(SimTime::ZERO, now);
        prop_assert!((0.0..=1.0).contains(&u));
        prop_assert!(u > 0.0);
    }
}
