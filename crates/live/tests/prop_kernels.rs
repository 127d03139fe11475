//! Property tests for the tensor kernels: the fast paths must agree with
//! the naive reference implementations on arbitrary shapes and data.

use gfaas_live::ops::matmul::{matmul, matmul_naive};
use gfaas_live::ops::{conv2d, conv2d_naive, relu, softmax, Conv2dParams};
use gfaas_live::Tensor;
use gfaas_sim::rng::DetRng;
use proptest::prelude::*;

fn tensor_for(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = DetRng::new(seed);
    Tensor::from_fn(shape, |_| rng.range_f64(-2.0, 2.0) as f32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GEMM path == naive triple loop for arbitrary shapes.
    #[test]
    fn matmul_matches_reference(
        m in 1usize..24, k in 1usize..24, n in 1usize..24, seed in 0u64..1000
    ) {
        let a = tensor_for(&[m, k], seed);
        let b = tensor_for(&[k, n], seed ^ 0xdead);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    /// im2col+GEMM convolution == direct loop nest, including stride and
    /// padding combinations.
    #[test]
    fn conv2d_matches_reference(
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        hw in 4usize..10,
        k in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..3,
        seed in 0u64..1000,
    ) {
        prop_assume!(hw + 2 * padding >= k);
        let input = tensor_for(&[n, cin, hw, hw], seed);
        let weight = tensor_for(&[cout, cin, k, k], seed ^ 0xbeef);
        let bias = tensor_for(&[cout], seed ^ 0xcafe);
        let p = Conv2dParams { stride, padding };
        let fast = conv2d(&input, &weight, Some(&bias), p);
        let slow = conv2d_naive(&input, &weight, Some(&bias), p);
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert!(fast.max_abs_diff(&slow) < 1e-3);
    }

    /// Softmax rows always form a probability distribution and preserve
    /// the argmax of the logits.
    #[test]
    fn softmax_is_a_distribution(rows in 1usize..6, cols in 1usize..12, seed in 0u64..1000) {
        let logits = tensor_for(&[rows, cols], seed);
        let probs = softmax(logits.clone());
        for row in probs.data().chunks(cols) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
        prop_assert_eq!(probs.argmax_rows(), logits.argmax_rows());
    }

    /// ReLU is idempotent and nonnegative.
    #[test]
    fn relu_idempotent(len in 1usize..256, seed in 0u64..1000) {
        let t = tensor_for(&[len], seed);
        let once = relu(t);
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
        let twice = relu(once.clone());
        prop_assert_eq!(once, twice);
    }

    /// Reshape round-trips preserve data exactly.
    #[test]
    fn reshape_round_trip(r in 1usize..12, c in 1usize..12, seed in 0u64..1000) {
        let t = tensor_for(&[r, c], seed);
        let back = t.clone().reshape(&[c, r]).reshape(&[r, c]);
        prop_assert_eq!(t, back);
    }
}
