//! Live (actually executing) miniature networks per model family.
//!
//! The DES experiments consume only the Table I latency profile; the
//! runnable examples additionally want a real forward pass. This module
//! instantiates a miniature network on this crate's tensor engine whose
//! topology family matches the zoo model's family, plus synthetic input
//! batches shaped like the paper's datasets (MNIST 1×28×28 grayscale,
//! CIFAR-10 3×32×32 RGB).

use gfaas_gpu::ModelId;
use gfaas_models::{Family, ModelRegistry};
use gfaas_sim::rng::DetRng;

use crate::nets;
use crate::{Network, Tensor};

/// Input shape expected by a live network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputKind {
    /// 1×28×28 grayscale (MNIST-shaped).
    Mnist,
    /// 3×32×32 RGB (CIFAR-shaped).
    Cifar,
}

impl InputKind {
    /// The NCHW shape for a batch of `n`.
    pub fn shape(&self, n: usize) -> [usize; 4] {
        match self {
            InputKind::Mnist => [n, 1, 28, 28],
            InputKind::Cifar => [n, 3, 32, 32],
        }
    }
}

/// A runnable stand-in for a zoo model.
#[derive(Debug, Clone)]
pub struct LiveModel {
    /// The zoo model this stands in for.
    pub model: ModelId,
    /// The miniature network.
    pub network: Network,
    /// The input kind the network expects.
    pub input: InputKind,
}

/// Builds the live miniature network for a zoo model. The seed is derived
/// from the model id so each model gets distinct (but reproducible) weights.
pub fn live_model(registry: &ModelRegistry, model: ModelId) -> LiveModel {
    let spec = registry.spec(model);
    let seed = 0x6fa5_0000 + model.0 as u64;
    let (network, input) = match spec.family {
        Family::SqueezeNet => (nets::mini_squeezenet(10, seed), InputKind::Cifar),
        Family::AlexNet | Family::Vgg => (nets::mini_vgg(10, seed), InputKind::Cifar),
        Family::ResNeXt => (nets::mini_resnext(10, seed), InputKind::Cifar),
        Family::ResNet | Family::WideResNet | Family::DenseNet | Family::Inception => {
            (nets::mini_resnet(10, seed), InputKind::Cifar)
        }
    };
    LiveModel {
        model,
        network,
        input,
    }
}

/// Generates a synthetic input batch: smooth pseudo-images with per-sample
/// structure, deterministic in the seed. Stands in for the paper's
/// CIFAR-10 / MNIST / Hymenoptera evaluation images.
pub fn synthetic_batch(kind: InputKind, n: usize, seed: u64) -> Tensor {
    let mut rng = DetRng::new(seed);
    let shape = kind.shape(n);
    let [_, c, h, w] = shape;
    let mut t = Tensor::zeros(&shape);
    for ni in 0..n {
        // Each sample is a mix of two gradients plus noise, giving the
        // classifier something non-degenerate to chew on.
        let fx = rng.range_f64(0.5, 3.0);
        let fy = rng.range_f64(0.5, 3.0);
        let phase = rng.range_f64(0.0, std::f64::consts::TAU);
        for ci in 0..c {
            for y in 0..h {
                for x in 0..w {
                    let v = ((x as f64 * fx / w as f64 + y as f64 * fy / h as f64)
                        * std::f64::consts::TAU
                        + phase)
                        .sin()
                        * 0.5
                        + 0.5
                        + rng.range_f64(-0.05, 0.05);
                    *t.at4_mut(ni, ci, y, x) = v as f32;
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_zoo_model_gets_a_runnable_network() {
        let reg = ModelRegistry::table1();
        for id in reg.ids() {
            let live = live_model(&reg, id);
            let batch = synthetic_batch(live.input, 2, 1);
            let labels = live.network.classify(&batch);
            assert_eq!(labels.len(), 2, "{}", reg.spec(id).name);
        }
    }

    #[test]
    fn live_models_are_deterministic() {
        let reg = ModelRegistry::table1();
        let id = reg.by_name("resnet50").unwrap();
        let a = live_model(&reg, id);
        let b = live_model(&reg, id);
        let batch = synthetic_batch(a.input, 1, 9);
        assert_eq!(a.network.classify(&batch), b.network.classify(&batch));
    }

    #[test]
    fn distinct_models_have_distinct_weights() {
        let reg = ModelRegistry::table1();
        let r50 = live_model(&reg, reg.by_name("resnet50").unwrap());
        let r101 = live_model(&reg, reg.by_name("resnet101").unwrap());
        let batch = synthetic_batch(InputKind::Cifar, 1, 4);
        let out50 = r50.network.forward(&batch);
        let out101 = r101.network.forward(&batch);
        assert!(out50.max_abs_diff(&out101) > 1e-6);
    }

    #[test]
    fn synthetic_batches_vary_by_seed_and_sample() {
        let a = synthetic_batch(InputKind::Mnist, 2, 1);
        let b = synthetic_batch(InputKind::Mnist, 2, 2);
        assert!(a.max_abs_diff(&b) > 1e-3);
        // Two samples within a batch differ too.
        let half = a.numel() / 2;
        let d0 = &a.data()[..half];
        let d1 = &a.data()[half..];
        assert!(d0.iter().zip(d1).any(|(x, y)| (x - y).abs() > 1e-3));
    }

    #[test]
    fn input_shapes() {
        assert_eq!(InputKind::Mnist.shape(3), [3, 1, 28, 28]);
        assert_eq!(InputKind::Cifar.shape(5), [5, 3, 32, 32]);
    }
}
