//! The observability contract, pinned end to end: instrumentation is
//! strictly read-only. Running the full stack — training and the
//! model-guided autotuner — with an enabled [`Registry`] must produce
//! results **byte-identical** to running with the no-op registry, while
//! actually recording the run (non-trivial counters, histograms, and
//! series). A regression in either direction is a bug: divergent results
//! mean a metric read perturbed the computation; an empty registry means
//! the instrumentation silently fell off the code path.

use std::sync::Arc;
use tpu_repro::autotuner::{
    autotune_with_cost_model, autotune_with_cost_model_observed, Budgets, StartMode, TunedConfig,
};
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Program, Shape};
use tpu_repro::learned::{
    prepare, train, train_observed, AtomicCache, GnnConfig, GnnModel, KernelModel, Sample,
    TrainConfig, TrainReport,
};
use tpu_repro::obs::Registry;
use tpu_repro::sim::{kernel_time_ns, TpuConfig, TpuDevice};

fn ew_kernel(rows: usize, cols: usize) -> Kernel {
    let mut b = GraphBuilder::new("k");
    let x = b.parameter("x", Shape::matrix(rows, cols), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    Kernel::new(b.finish(e))
}

fn tunable_program() -> Program {
    let mut b = GraphBuilder::new("main");
    let x = b.parameter("x", Shape::matrix(256, 256), DType::F32);
    let w = b.parameter("w", Shape::matrix(256, 256), DType::F32);
    let t = b.tanh(x);
    let e = b.exp(t);
    let s = b.add(t, e);
    let d = b.dot(s, w);
    let r = b.reduce(d, vec![1]);
    let out = b.tanh(r);
    Program::new("obs-determinism", b.finish(out))
}

fn training_data() -> (Vec<tpu_repro::learned::Prepared>, Vec<tpu_repro::learned::Prepared>) {
    let hw = TpuConfig::default();
    let sizes = [
        (64, 128),
        (128, 256),
        (256, 256),
        (512, 512),
        (1024, 512),
        (1024, 1024),
        (2048, 1024),
        (32, 2048),
    ];
    let samples: Vec<Sample> = sizes
        .iter()
        .map(|&(r, c)| {
            let k = ew_kernel(r, c);
            let t = kernel_time_ns(&k, &hw);
            Sample::new(k, t)
        })
        .collect();
    let prepared = prepare(&samples);
    let (train_set, val_set) = prepared.split_at(6);
    (train_set.to_vec(), val_set.to_vec())
}

fn small_gnn() -> GnnModel {
    GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    })
}

fn train_once(registry: Option<&Registry>) -> (TrainReport, String) {
    let (train_set, val_set) = training_data();
    let mut model = small_gnn();
    let cfg = TrainConfig {
        epochs: 4,
        batch_size: 4,
        lr: 5e-3,
        shards: 2,
        ..Default::default()
    };
    let report = match registry {
        Some(r) => train_observed(&mut model, &train_set, &val_set, &cfg, r),
        None => train(&mut model, &train_set, &val_set, &cfg),
    };
    (report, model.params().to_json())
}

fn autotune_once(registry: Option<&Registry>) -> TunedConfig {
    let program = tunable_program();
    let gnn = small_gnn();
    let device = match registry {
        Some(r) => TpuDevice::new(13).observed(r),
        None => TpuDevice::new(13),
    };
    let cache = Arc::new(AtomicCache::serving_default());
    let budgets = Budgets {
        hardware_ns: 25e9,
        model_steps: 100,
        best_known_ns: 50e9,
        top_k: 5,
        chains: 2,
    };
    match registry {
        Some(r) => autotune_with_cost_model_observed(
            &program,
            &device,
            &gnn,
            &cache,
            StartMode::Random,
            &budgets,
            11,
            r,
        ),
        None => {
            autotune_with_cost_model(&program, &device, &gnn, &cache, StartMode::Random, &budgets, 11)
        }
    }
}

#[test]
fn observed_training_is_byte_identical_and_recorded() {
    let (plain_report, plain_params) = train_once(None);
    let registry = Registry::enabled();
    let (obs_report, obs_params) = train_once(Some(&registry));

    // Byte-identical trajectory and final weights.
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(&plain_report.train_loss), bits(&obs_report.train_loss));
    assert_eq!(bits(&plain_report.val_metric), bits(&obs_report.val_metric));
    assert_eq!(plain_report.best_val.to_bits(), obs_report.best_val.to_bits());
    assert_eq!(plain_report.best_epoch, obs_report.best_epoch);
    assert_eq!(plain_params, obs_params);

    // ... while the registry actually observed the run.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("core.train.epochs"), Some(4));
    let steps = snap.counter("core.train.steps").expect("steps counted");
    assert!(steps > 0, "no training steps recorded");
    assert_eq!(
        snap.histogram("core.train.grad_reduce_ns").map(|h| h.count),
        Some(steps)
    );
    assert_eq!(
        snap.series("core.train.epoch_loss").map(bits),
        Some(bits(&obs_report.train_loss))
    );
}

#[test]
fn observed_autotuning_is_byte_identical_and_recorded() {
    let plain = autotune_once(None);
    let registry = Registry::enabled();
    let observed = autotune_once(Some(&registry));

    // Byte-identical tuning outcome and accounting.
    assert_eq!(plain.config, observed.config);
    assert_eq!(plain.true_ns.to_bits(), observed.true_ns.to_bits());
    assert_eq!(
        (plain.hw_evals, plain.model_evals, plain.model_batches, plain.cache_hits),
        (observed.hw_evals, observed.model_evals, observed.model_batches, observed.cache_hits)
    );

    // ... while every layer below left its trace: SA, the serving engine,
    // the hardware phase, and the simulated device.
    let snap = registry.snapshot();
    let candidates = snap.counter("autotuner.sa.candidates").unwrap_or(0);
    assert!(candidates > 0, "SA recorded no candidates");
    assert_eq!(snap.counter("core.engine.model_evals"), Some(observed.model_evals));
    assert_eq!(snap.counter("core.engine.cache_hits"), Some(observed.cache_hits));
    assert_eq!(snap.counter("autotuner.hw.evals"), Some(observed.hw_evals as u64));
    let execs = snap.counter("sim.device.kernel_execs").unwrap_or(0);
    assert!(execs > 0, "device metered no kernel executions");
    assert!(
        snap.gauge("autotuner.sa.best_cost").is_some(),
        "best cost gauge missing"
    );
}
