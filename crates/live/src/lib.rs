//! `gfaas-live` — live serving: real (CPU) inference behind the same
//! cache manager the simulator uses, kept off the simulation path.
//!
//! The paper runs real PyTorch CNN inference on GPUs. The simulator only
//! needs each model's Table I occupancy, load time and inference time, so
//! nothing here is a dependency of `gfaas-core`, `gfaas-models` or the
//! report binaries; the live examples and the tensor micro benches are
//! its only users. The crate has three parts:
//!
//! * [`server::LiveServer`] — a synchronous model server over simulated
//!   devices that executes every request as a real forward pass;
//! * [`model`] — a runnable miniature network per zoo model family, plus
//!   synthetic MNIST/CIFAR-shaped input batches;
//! * the tensor engine those networks run on. It is not a PyTorch
//!   replacement — it implements exactly the operator set the paper's
//!   22 torchvision CNNs are built from:
//!
//!   * [`ops::conv`] — 2-D convolution (direct and im2col+GEMM paths),
//!   * [`ops::pool`] — max/average/global-average pooling,
//!   * [`ops::linear`](ops::linear()) — fully connected layers over a
//!     blocked, thread-parallel GEMM ([`ops::matmul`](ops::matmul())),
//!   * [`ops::activation`] — ReLU / sigmoid / softmax,
//!   * [`ops::norm`] — inference-mode batch normalisation,
//!
//!   glued together by [`graph::Network`], a sequential layer graph with
//!   deterministic weight initialisation.
//!
//! Parallelism follows the workspace's HPC guides: data-parallel loops over
//! disjoint output chunks via `crossbeam::scope` ([`parallel`]), no locks on
//! the hot path, and a serial fast path when the work is too small to
//! amortise thread spawn.

#![warn(missing_docs)]

pub mod graph;
pub mod model;
pub mod nets;
pub mod ops;
pub mod parallel;
pub mod server;
pub mod tensor;

pub use graph::{Layer, Network};
pub use server::{LiveError, LiveResponse, LiveServer};
pub use tensor::Tensor;
