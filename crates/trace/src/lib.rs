//! `gfaas-trace` — workload synthesis matching the paper's Azure trace.
//!
//! The paper evaluates on the Microsoft Azure Functions trace
//! (Shahrad et al., ATC '20): 14 days of per-minute invocation counts for
//! 46,413 functions. It uses the trace through exactly four statistics
//! (§V-A1):
//!
//! 1. extreme popularity skew — the top-15 functions carry 56% of
//!    invocations per minute, every function below the top 15 carries
//!    <0.01% each;
//! 2. a 6-minute horizon;
//! 3. per-minute volume normalised to 325 requests (sized for 12 GPUs);
//! 4. working sets of the 15 / 25 / 35 most popular functions, each mapped
//!    to a Table I model with size classes spread evenly.
//!
//! [`azure::AzureTraceConfig`] synthesises traces that reproduce those
//! statistics from a calibrated Zipf popularity law (the real trace is not
//! redistributable); [`trace::Trace`] carries the result, computes the same
//! statistics back for validation, and round-trips through CSV so a real
//! trace extract can be dropped in instead.

#![warn(missing_docs)]

pub mod azure;
pub mod azure_real;
pub mod trace;

pub use azure::{interleaved_model_of, AzureTraceConfig, MAX_BURSTINESS};
pub use azure_real::AzureFunctionsDataset;
pub use trace::{Trace, TraceRequest, TraceStats};
