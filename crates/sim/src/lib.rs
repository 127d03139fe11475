//! `gfaas-sim` — a small, deterministic discrete-event simulation (DES) core.
//!
//! Every gfaas experiment runs in *virtual time*: the cluster, GPUs, and
//! workload are advanced by popping timestamped events off a priority queue
//! instead of sleeping on a wall clock. This makes the paper's full 6-minute,
//! 12-GPU experiment grid run in milliseconds and — given a fixed RNG seed —
//! makes every reported number exactly reproducible.
//!
//! The crate provides these building blocks:
//!
//! * [`time`] — `SimTime` / `SimDuration`, a microsecond-resolution virtual
//!   clock with saturating arithmetic and float conversions.
//! * [`event`] — a generic, deterministic event queue. Ties at equal
//!   timestamps are broken by insertion sequence so replays are stable.
//! * [`rng`] — a seedable SplitMix64/xoshiro256** RNG with the samplers the
//!   workloads need (uniform, Zipf, exponential, shuffle).
//! * [`stats`] — numerically stable accumulators (Welford mean/variance,
//!   time-weighted averages, histograms) used by the metric collectors.
//! * [`spec`] — the `key[:field=value,…]` grammar every spec string
//!   (policy, store, autoscale, record) is split by.
//!
//! # Example
//!
//! ```
//! use gfaas_sim::event::EventQueue;
//! use gfaas_sim::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs_f64(1.0), "one");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs_f64(0.5), "half");
//! let (t, e) = q.pop().unwrap();
//! assert_eq!(e, "half");
//! assert_eq!(t.as_secs_f64(), 0.5);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod rng;
pub mod spec;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
