//! Benchmark: peak RSS of streamed dataset generation + training stays
//! ~flat as the corpus grows ~30x (Tiny → Large).
//!
//! The `tpu-ds.v1` pipeline never materializes the corpus: generation
//! writes each record as it is measured, and `train_stream` loads one
//! batch at a time from the reader. Peak RSS is therefore dominated by
//! the model and one program's kernels, not the dataset — the property
//! this bench pins.
//!
//! `VmHWM` (the peak-RSS high-water mark) is monotonic per process, so
//! each scale runs in a child process: the bench re-executes itself with
//! `STREAM_BENCH_CHILD=<scale>` set, and the child generates a streamed
//! dataset, trains two epochs from the file, and reports its own VmHWM.
//!
//! Results merge into the `"stream"` key of `BENCH_train.json` (other
//! keys are preserved). Under `BENCH_SMOKE=1` the workload shrinks and
//! nothing is written.
//!
//! ```text
//! cargo bench -p tpu-bench --bench stream
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Value;
use std::time::Instant;
use tpu_dataset::{
    stream_corpus, Corpus, CorpusScale, DatasetReader, DatasetWriter, FusionDatasetConfig,
    StreamGenConfig, TempPath,
};
use tpu_learned_cost::{train_stream, BatchSource, GnnConfig, GnnModel, StreamConfig, TrainConfig};

fn smoke() -> bool {
    std::env::var("BENCH_SMOKE").map(|v| v == "1").unwrap_or(false)
}

/// Peak resident set size of this process in KiB (`VmHWM`), 0 off-Linux.
fn peak_rss_kib() -> u64 {
    if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                return rest.trim().trim_end_matches(" kB").trim().parse().unwrap_or(0);
            }
        }
    }
    0
}

struct ScaleReport {
    scale: String,
    records: usize,
    dataset_bytes: u64,
    generate_secs: f64,
    gen_rss_kib: u64,
    train_secs: f64,
    train_rss_kib: u64,
}

/// Child phase 1: stream-generate the dataset for one corpus scale.
/// Peak RSS here includes the materialized `Corpus` (the programs
/// themselves) — the writer adds nothing corpus-sized on top.
fn run_gen_child(scale_name: &str, path: &std::path::Path) {
    let scale = match scale_name {
        "tiny" => CorpusScale::Tiny,
        "large" => CorpusScale::Large,
        other => panic!("unknown stream bench scale {other:?}"),
    };
    let configs: usize = std::env::var("STREAM_BENCH_CONFIGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let t0 = Instant::now();
    let corpus = Corpus::build(scale);
    let cfg = StreamGenConfig {
        fusion: FusionDatasetConfig {
            configs_per_program: configs,
            runs: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut writer = DatasetWriter::create(path).expect("create dataset");
    stream_corpus(&corpus, &cfg, &mut writer).expect("stream corpus");
    let records = writer.finish().expect("finish dataset");
    println!(
        "STREAM_CHILD_RESULT {records} {:.3} {}",
        t0.elapsed().as_secs_f64(),
        peak_rss_kib()
    );
}

/// Child phase 2: train two epochs streaming batches straight from the
/// file. Peak RSS here is the flatness pin: model + one batch + index
/// metas, never the dataset.
fn run_train_child(path: &std::path::Path) {
    let max_batches: usize = std::env::var("STREAM_BENCH_MAX_BATCHES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let t0 = Instant::now();
    let reader = DatasetReader::open(path).expect("open dataset");
    let val: Vec<_> = reader
        .load(&(0..8.min(reader.len())).collect::<Vec<_>>())
        .expect("load val set");
    let mut model = GnnModel::new(GnnConfig {
        hidden: 16,
        opcode_embed_dim: 8,
        hops: 1,
        ..Default::default()
    });
    let train_cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        max_batches_per_epoch: max_batches,
        shards: 2,
        ..Default::default()
    };
    train_stream(&mut model, &reader, &val, &train_cfg, &StreamConfig::default())
        .expect("train from stream");
    println!(
        "STREAM_CHILD_RESULT {} {:.3} {}",
        reader.len(),
        t0.elapsed().as_secs_f64(),
        peak_rss_kib()
    );
}

/// Spawn one child phase and parse its `(records, secs, rss_kib)` line.
fn spawn_child(phase: &str, scale: &str, path: &std::path::Path) -> (usize, f64, u64) {
    let exe = std::env::current_exe().expect("current exe");
    let out = std::process::Command::new(exe)
        .env("STREAM_BENCH_CHILD", format!("{phase}:{scale}"))
        .env("STREAM_BENCH_PATH", path)
        .env(
            "STREAM_BENCH_CONFIGS",
            std::env::var("STREAM_BENCH_CONFIGS")
                .unwrap_or_else(|_| if smoke() { "2".into() } else { "4".into() }),
        )
        .env("STREAM_BENCH_MAX_BATCHES", if smoke() { "10" } else { "40" })
        .output()
        .expect("spawn stream bench child");
    assert!(
        out.status.success(),
        "{phase} child for scale {scale} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("STREAM_CHILD_RESULT "))
        .unwrap_or_else(|| panic!("no result line from {phase}:{scale} child:\n{stdout}"));
    let f: Vec<&str> = line.split_whitespace().collect();
    (f[0].parse().unwrap(), f[1].parse().unwrap(), f[2].parse().unwrap())
}

fn measure_scale(scale: &str) -> ScaleReport {
    let path = TempPath::new(&format!("stream_bench_{scale}.tpuds"));
    let (records, generate_secs, gen_rss_kib) = spawn_child("gen", scale, &path);
    let dataset_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let (_, train_secs, train_rss_kib) = spawn_child("train", scale, &path);
    ScaleReport {
        scale: scale.to_string(),
        records,
        dataset_bytes,
        generate_secs,
        gen_rss_kib,
        train_secs,
        train_rss_kib,
    }
}

fn bench_stream(_c: &mut Criterion) {
    if let Ok(child) = std::env::var("STREAM_BENCH_CHILD") {
        let path = std::path::PathBuf::from(
            std::env::var("STREAM_BENCH_PATH").expect("STREAM_BENCH_PATH"),
        );
        match child.split_once(':') {
            Some(("gen", scale)) => run_gen_child(scale, &path),
            Some(("train", _)) => run_train_child(&path),
            other => panic!("bad STREAM_BENCH_CHILD {other:?}"),
        }
        std::process::exit(0);
    }

    let tiny = measure_scale("tiny");
    let large = measure_scale("large");
    let ratio = large.train_rss_kib as f64 / tiny.train_rss_kib.max(1) as f64;
    let growth = large.records as f64 / tiny.records.max(1) as f64;
    for r in [&tiny, &large] {
        println!(
            "stream {}: {} records ({:.1} MiB on disk), generate {:.2}s \
             (peak RSS {:.1} MiB incl. corpus), 2-epoch streamed train {:.2}s \
             (peak RSS {:.1} MiB)",
            r.scale,
            r.records,
            r.dataset_bytes as f64 / (1024.0 * 1024.0),
            r.generate_secs,
            r.gen_rss_kib as f64 / 1024.0,
            r.train_secs,
            r.train_rss_kib as f64 / 1024.0
        );
    }
    println!(
        "dataset grew {growth:.1}x in records, streamed-training peak RSS grew \
         {ratio:.2}x — batches stream from disk, the corpus never loads"
    );
    // The pin: training memory must not scale with the dataset. A
    // materializing loader would show ~10x+ here; allow 2x for the index
    // metas and allocator noise.
    if peak_rss_kib() > 0 {
        assert!(
            ratio < 2.0,
            "streamed-training peak RSS grew {ratio:.2}x from tiny to large — \
             the training path is materializing the dataset somewhere"
        );
    }

    if !smoke() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_train.json");
        // Merge the "stream" key into the existing report instead of
        // clobbering the keys other benches own.
        let mut root = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| serde_json::parse_value_str(&s).ok())
            .unwrap_or(Value::Object(Vec::new()));
        let entry = |r: &ScaleReport| {
            obj(vec![
                ("records", Value::Int(r.records as i64)),
                ("dataset_mib", round1(r.dataset_bytes as f64 / (1024.0 * 1024.0))),
                ("generate_secs", round3(r.generate_secs)),
                ("generate_peak_rss_mib", round1(r.gen_rss_kib as f64 / 1024.0)),
                ("train_2_epoch_secs", round3(r.train_secs)),
                ("train_peak_rss_mib", round1(r.train_rss_kib as f64 / 1024.0)),
            ])
        };
        let stream = obj(vec![
            ("tiny", entry(&tiny)),
            ("large", entry(&large)),
            ("records_growth", round1(growth)),
            ("train_peak_rss_growth", round3(ratio)),
        ]);
        if let Value::Object(fields) = &mut root {
            match fields.iter_mut().find(|(k, _)| k == "stream") {
                Some(slot) => slot.1 = stream,
                None => fields.push(("stream".to_string(), stream)),
            }
        }
        let mut json = String::new();
        write_pretty(&root, &mut json, 0);
        json.push('\n');
        std::fs::write(path, json).expect("write BENCH_train.json");
        println!("wrote {path}");
    }
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn round1(v: f64) -> Value {
    Value::Float((v * 10.0).round() / 10.0)
}

fn round3(v: f64) -> Value {
    Value::Float((v * 1000.0).round() / 1000.0)
}

/// Two-space-indented JSON, matching the layout the other benches write.
fn write_pretty(v: &Value, out: &mut String, depth: usize) {
    let pad = |out: &mut String, d: usize| out.push_str(&"  ".repeat(d));
    match v {
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                pad(out, depth + 1);
                out.push_str(&format!("{:?}: ", k));
                write_pretty(val, out, depth + 1);
                out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push('}');
        }
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, val) in items.iter().enumerate() {
                pad(out, depth + 1);
                write_pretty(val, out, depth + 1);
                out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
            }
            pad(out, depth);
            out.push(']');
        }
        other => out.push_str(&serde_json::value_to_string(other)),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stream
}
criterion_main!(benches);
