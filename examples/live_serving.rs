//! Live serving: real CPU inference behind an LRU model cache.
//!
//! Serves a short request mix through [`gfaas_live::LiveServer::serve`],
//! which executes each request as an actual forward pass over the model's
//! miniature network. Its placement is not the experiments' Algorithm 2:
//! a hit goes to the first GPU holding the model, a miss to the GPU with
//! the most free memory (lowest index on ties), LRU picks the victims,
//! and there is no wait estimate and no local queue. The response
//! carries both the real wall-clock compute time and the virtual latency
//! the full-size model would have had (profiled load + inference).
//!
//! ```text
//! cargo run --release --example live_serving
//! ```

use gfaas_gpu::GpuSpec;
use gfaas_live::LiveServer;
use gfaas_models::ModelRegistry;

fn main() {
    let mut server = LiveServer::new(2, GpuSpec::rtx2080(), ModelRegistry::table1());

    // A warm-up/steady-state request mix: repeats hit, new models miss
    // and eventually evict.
    let workload = [
        "resnet50",
        "resnet50",
        "vgg16",
        "resnet50",
        "vgg19",
        "vgg16",
        "squeezenet1.1",
        "resnet50",
    ];

    println!(
        "{:>16} {:>5} {:>6} {:>14} {:>12}  labels",
        "model", "gpu", "hit", "virtual_lat(s)", "wall(ms)"
    );
    for (i, name) in workload.iter().enumerate() {
        let resp = server.serve(name, 4, i as u64).expect("model in zoo");
        println!(
            "{:>16} {:>5} {:>6} {:>14.2} {:>12.1}  {:?}",
            name,
            resp.gpu.to_string(),
            resp.cache_hit,
            resp.virtual_latency.as_secs_f64(),
            resp.wall.as_secs_f64() * 1e3,
            resp.labels
        );
    }
    println!("\nserved {} requests on 2 simulated GPUs", server.served());
    println!("hits skip the model upload: compare the virtual latencies above");
    println!("(a miss pays the Table I load time, a hit only the inference).");
}
