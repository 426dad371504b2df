//! The train-stream workload: one `train_stream` epoch of the default GNN
//! and training config over the set-up's `tpu-ds.v1` file, on a fresh
//! model per epoch.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use tpu_dataset::DatasetReader;
use tpu_learned_cost::{
    train_stream, validation_metric, GnnConfig, GnnModel, StreamConfig, TrainConfig, TrainReport,
};

use crate::layers::{covered, per, Intervals, TimedKernelModel, TimedSource};
use crate::report::{median, percentile, Facts, Metrics, Outcome};
use crate::setup::{epoch_examples, Dataset, Subset};
use crate::Overhead;

/// Bytes of each record of a `tpu-ds.v1` file: records are written back to
/// back, and the 32-byte-per-record index follows the last one.
pub fn record_bytes(reader: &DatasetReader, file_len: u64) -> Vec<u64> {
    let metas = reader.metas();
    let index_pos = file_len.saturating_sub(32 * metas.len() as u64);
    (0..metas.len())
        .map(|i| {
            let end = metas.get(i + 1).map_or(index_pos, |m| m.offset);
            end.saturating_sub(metas[i].offset)
        })
        .collect()
}

/// The default model and training config, one epoch. Their seeds stay
/// fixed: after one epoch from a fresh model the validation MAPE spans
/// 30-250% across initialisation and shuffle seeds, so a seeded epoch
/// could not show a change in the numerics.
fn configs() -> (GnnConfig, TrainConfig) {
    (
        GnnConfig::default(),
        TrainConfig {
            epochs: 1,
            ..TrainConfig::default()
        },
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One untraced epoch on a fresh model.
fn epoch(data: &Dataset) -> Result<(TrainReport, f64), String> {
    let (gnn, cfg) = configs();
    let mut model = GnnModel::new(gnn);
    let source = data.train_source();
    let started = Instant::now();
    let report = train_stream(
        &mut model,
        &source,
        &data.val,
        &cfg,
        &StreamConfig::default(),
    )?;
    Ok((report, started.elapsed().as_secs_f64()))
}

fn check(report: &TrainReport, outcome: &mut Outcome) {
    outcome.attempted += 1;
    if !report.train_loss.iter().all(|l| l.is_finite()) || !report.best_val.is_finite() {
        outcome.fail("loss_not_finite");
    }
}

/// The untraced train-stream workload: epochs until `seconds` have passed
/// (at least one), each on a fresh model.
pub fn measure(data: &Dataset, seconds: f64) -> Result<(Metrics, Outcome, Facts), String> {
    let (_, cfg) = configs();
    let examples = epoch_examples(&data.train_source(), &cfg);
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let (first, wall) = epoch(data)?;
    check(&first, &mut outcome);
    let mut walls = vec![wall];
    while started.elapsed().as_secs_f64() < seconds {
        let (r, wall) = epoch(data)?;
        check(&r, &mut outcome);
        if bits(&r.train_loss) != bits(&first.train_loss)
            || r.best_val.to_bits() != first.best_val.to_bits()
        {
            outcome.fail("nondeterministic_train");
        }
        walls.push(wall);
    }
    let rates: Vec<f64> = walls.iter().map(|w| examples as f64 / w).collect();
    let walls_us: Vec<f64> = walls.iter().map(|w| w * 1e6).collect();
    let mut m = Metrics::default();
    m.set("latency_p50_us", percentile(&walls_us, 50.0), "us");
    m.set("latency_p99_us", percentile(&walls_us, 99.0), "us");
    m.set(
        "throughput_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
    );
    m.set("train_examples_per_s", median(&rates), "1/s");
    m.set("train_val_mape", first.best_val, "%");
    let mut f = Facts::default();
    f.num("train.epochs", walls.len() as f64);
    f.num("train.examples_per_epoch", examples as f64);
    f.num("train.val_examples", data.val.len() as f64);
    f.num("train.shards", cfg.shards as f64);
    Ok((m, outcome, f))
}

/// The traced train path: the epoch with the dataset reader and the model
/// behind timing wrappers and validation run on its own afterwards,
/// between two untraced epochs; losses and validation MAPE must match.
pub fn trace(data: &Dataset, path: &Path) -> Result<(Metrics, Outcome, Overhead), String> {
    let mut outcome = Outcome::default();
    let (plain, plain_s) = epoch(data)?;
    check(&plain, &mut outcome);

    let file_len = std::fs::metadata(path)
        .map_err(|e| format!("stat {path:?}: {e}"))?
        .len();
    let (gnn, cfg) = configs();
    let origin = Instant::now();
    let reader = TimedSource {
        inner: &data.reader,
        record_bytes: record_bytes(&data.reader, file_len),
        loads: Intervals::new(origin),
        bytes: AtomicU64::new(0),
    };
    let source = Subset {
        inner: &reader,
        idx: data.train_idx.clone(),
    };
    let mut model = TimedKernelModel {
        inner: GnnModel::new(gnn),
        forwards: Intervals::new(origin),
    };
    let t0 = reader.loads.now();
    let report = train_stream(&mut model, &source, &[], &cfg, &StreamConfig::default())?;
    let t1 = reader.loads.now();
    let forwards = model.forwards.take();
    let val = validation_metric(&model, &data.val, cfg.loss);
    let t2 = reader.loads.now();
    outcome.attempted += 1;
    if bits(&report.train_loss) != bits(&plain.train_loss)
        || val.to_bits() != plain.best_val.to_bits()
    {
        outcome.fail("trace_changed_output");
    }
    let (again, again_s) = epoch(data)?;
    check(&again, &mut outcome);
    if bits(&again.train_loss) != bits(&plain.train_loss) {
        outcome.fail("nondeterministic_train");
    }

    let mut loads = reader.loads.take();
    loads.sort_unstable();
    let steps = loads.len() as u64;
    let (mut step_ns, mut load_ns, mut fwd_ns) = (0u64, 0u64, 0u64);
    for (i, &(a, b)) in loads.iter().enumerate() {
        let end = loads.get(i + 1).map_or(t1, |n| n.0);
        step_ns += end - a;
        load_ns += b - a;
        fwd_ns += covered(&forwards, a, end);
    }
    let us = |ns: u64| per(ns as f64 * 1e-3, steps);
    let mut m = Metrics::default();
    m.set("dataset.load_us", us(load_ns), "us");
    m.set(
        "dataset.bytes_read",
        reader.bytes.load(Ordering::Relaxed) as f64,
        "bytes",
    );
    m.set("nn.forward_us", us(fwd_ns), "us");
    m.set(
        "core.train.step_self_us",
        us(step_ns.saturating_sub(load_ns + fwd_ns)),
        "us",
    );
    m.set("core.train.validation_s", (t2 - t1) as f64 * 1e-9, "s");
    m.set("core.train.steps", steps as f64, "count");
    let overhead = Overhead {
        plain_s: (plain_s + again_s) / 2.0,
        traced_s: (t2 - t0) as f64 * 1e-9,
        spans_s: (step_ns + (t2 - t1)) as f64 * 1e-9,
    };
    Ok((m, outcome, overhead))
}
