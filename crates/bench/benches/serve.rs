//! Benchmark: `tpu-serve` engine latency/throughput under simulated clients.
//!
//! Spawns 1/8/64 client threads hammering one [`ServeEngine`] with a warm
//! working set, so the measured path is admission control → channel →
//! worker batch → cache probe — the serving overhead the daemon adds on
//! top of the predictor. Reports p50/p99 per-request latency and total
//! throughput per client count — including a degraded-mode row with the
//! circuit breaker pinned open (the outage throughput floor).
//!
//! Writes `BENCH_serve.json` at the repo root. Under `BENCH_SMOKE=1` the
//! load shrinks so CI can run it in seconds — and still writes the file,
//! which the CI serve job uploads as an artifact.
//!
//! ```text
//! cargo bench -p tpu-bench --bench serve
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::Instant;
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::{
    AtomicCache, BreakerConfig, CircuitBreaker, CostModel, FallbackChain, FnCostModel, GnnConfig,
    GnnModel, KernelCache, SimOracle,
};
use tpu_obs::Registry;
use tpu_serve::{demo_kernels, percentile, ServeConfig, ServeEngine};
use tpu_sim::TpuConfig;

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

struct LoadResult {
    p50_us: f64,
    p99_us: f64,
    throughput_rps: f64,
}

/// Drive `clients` threads, each submitting `per_client` requests over a
/// shared kernel pool, against a fresh engine over `model` and `cache`.
/// The cache is pre-warmed so the measured regime is the steady serving
/// state.
fn run_load(
    model: Box<dyn CostModel + Send>,
    cache: Arc<dyn KernelCache>,
    clients: usize,
    per_client: usize,
) -> LoadResult {
    let engine = Arc::new(ServeEngine::start(
        model,
        cache,
        ServeConfig::default(),
        &Registry::noop(),
    ));
    let kernels = Arc::new(demo_kernels(32));
    for k in kernels.iter() {
        engine.submit(k.clone()).expect("warmup accepted");
    }

    let started = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let engine = Arc::clone(&engine);
            let kernels = Arc::clone(&kernels);
            std::thread::spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let k = kernels[(c + i) % kernels.len()].clone();
                    let t0 = Instant::now();
                    engine.submit(k).expect("accepted");
                    latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                }
                latencies
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(clients * per_client);
    for h in handles {
        latencies.extend(h.join().expect("client thread"));
    }
    let elapsed = started.elapsed().as_secs_f64();
    engine.shutdown();

    LoadResult {
        p50_us: percentile(&latencies, 50.0),
        p99_us: percentile(&latencies, 99.0),
        throughput_rps: latencies.len() as f64 / elapsed.max(1e-9),
    }
}

fn bench_serve(_c: &mut Criterion) {
    let per_client = if smoke() { 25 } else { 200 };
    let client_counts = [1usize, 8, 64];

    // Two serving backends under the same load: the simulator oracle
    // (the historical row) and the frozen int16 GNN, which is the backend
    // this daemon is expected to run in production serving loops.
    let frozen = {
        let gnn = GnnModel::new(GnnConfig::default());
        FrozenModel::Gnn(freeze_gnn(&gnn, &[]).expect("freeze gnn"))
    };
    type ModelFactory = Box<dyn Fn() -> Box<dyn CostModel + Send>>;
    let backends: Vec<(&str, ModelFactory)> = vec![
        (
            "simulator-oracle",
            Box::new(|| Box::new(SimOracle::new(TpuConfig::default()))),
        ),
        ("frozen-gnn", Box::new(move || Box::new(frozen.clone()))),
        // Degraded mode: the primary is down and the breaker is pinned
        // open (never probing), so every request rides the fallback-only
        // route — the throughput floor the daemon guarantees during an
        // outage.
        (
            "degraded-breaker-open",
            Box::new(|| {
                let primary = FnCostModel::new("down", |_: &tpu_hlo::Kernel| None);
                let breaker = Arc::new(CircuitBreaker::new(BreakerConfig {
                    trip_after: 1,
                    cooldown: u64::MAX,
                }));
                breaker.force_trip();
                Box::new(
                    FallbackChain::new(primary, SimOracle::new(TpuConfig::default()))
                        .with_breaker(breaker),
                )
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (backend, make_model) in &backends {
        for &clients in &client_counts {
            let r = run_load(
                make_model(),
                Arc::new(AtomicCache::serving_default()),
                clients,
                per_client,
            );
            println!(
                "serve [{backend}] {clients:>2} clients x {per_client} reqs: \
                 p50 {:.1} us, p99 {:.1} us, {:.0} req/s",
                r.p50_us, r.p99_us, r.throughput_rps
            );
            assert!(
                r.p50_us.is_finite() && r.p99_us.is_finite(),
                "latency percentiles must be finite"
            );
            rows.push(format!(
                "      {{\"backend\": \"{backend}\", \"clients\": {clients}, \
                 \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"throughput_rps\": {:.1}}}",
                r.p50_us, r.p99_us, r.throughput_rps
            ));
        }
    }

    let json = format!(
        "{{\n  \"serve\": {{\n    \"smoke\": {},\n    \"requests_per_client\": {per_client},\n    \
         \"clients\": [\n{}\n    ]\n  }}\n}}\n",
        smoke(),
        rows.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json).expect("write BENCH_serve.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serve
}
criterion_main!(benches);