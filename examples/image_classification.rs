//! Live inference: actually execute CNN forward passes on the CPU.
//!
//! The experiments drive the cluster with Table I's latency profiles; this
//! example exercises the other half of the substitution — the
//! `gfaas-live` inference engine — end to end: build a miniature network
//! per model family, classify synthetic CIFAR-shaped batches, and profile
//! inference latency against batch size exactly as §IV-A prescribes
//! (linear regression over a batch sweep).
//!
//! ```text
//! cargo run --release --example image_classification
//! ```

use std::time::Instant;

use gfaas_live::model::{live_model, synthetic_batch};
use gfaas_models::regression::fit_line;
use gfaas_models::ModelRegistry;

fn main() {
    let registry = ModelRegistry::table1();

    // --- classify a batch with three different model families -------------
    for name in ["squeezenet1.1", "resnet50", "vgg16"] {
        let id = registry.by_name(name).expect("model in zoo");
        let live = live_model(&registry, id);
        let batch = synthetic_batch(live.input, 8, 42);
        let start = Instant::now();
        let labels = live.network.classify(&batch);
        let elapsed = start.elapsed();
        println!(
            "{:>16} ({:>14}): labels {:?} in {:.1} ms",
            name,
            live.network.name,
            labels,
            elapsed.as_secs_f64() * 1e3
        );
    }

    // --- profile inference time vs batch size (the §IV-A regression) ------
    println!("\nbatch-size profiling of the live mini_resnet (wall clock):");
    let id = registry.by_name("resnet50").unwrap();
    let live = live_model(&registry, id);
    let mut samples = Vec::new();
    for batch_size in [1usize, 2, 4, 8, 16] {
        let batch = synthetic_batch(live.input, batch_size, 1);
        // Warm up once, then time three repetitions.
        live.network.forward(&batch);
        let start = Instant::now();
        for _ in 0..3 {
            live.network.forward(&batch);
        }
        let per_run = start.elapsed().as_secs_f64() / 3.0;
        println!("  batch {batch_size:>2}: {:.2} ms", per_run * 1e3);
        samples.push((batch_size as f64, per_run));
    }
    let fit = fit_line(&samples).expect("enough samples");
    println!(
        "  fitted: t(b) = {:.3} ms + {:.3} ms/image  (R^2 = {:.3})",
        fit.intercept * 1e3,
        fit.slope * 1e3,
        fit.r_squared
    );
    println!("\nThe same regression, applied to the simulated device, regenerates");
    println!("Table I — see `cargo run -p gfaas-bench --bin table1_profiles`.");
}
