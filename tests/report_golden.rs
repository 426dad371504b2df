//! Golden regression test for the [`RunReport`] JSON format.
//!
//! Run reports are the repo's machine-readable experiment artifact: CI
//! uploads them, and any external tooling that parses them depends on the
//! exact shape — section order, key sorting, histogram bucket encoding,
//! float rendering. A silent format change would break consumers without
//! failing any behavioural test, so this snapshot pins the byte-exact
//! serialization of a hand-built, fully deterministic registry (counters,
//! gauges, log2-bucket histograms, series, context — no timers, whose
//! values would differ run to run).
//!
//! If a format change is *intentional*, regenerate with:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test report_golden
//! ```
//!
//! and commit the updated `report_golden.json` together with the change.

use tpu_repro::dataset::TempPath;
use tpu_repro::obs::{Registry, RunReport, SCHEMA};

/// A registry covering every metric kind and JSON edge the format has:
/// zero and large counter values, negative/fractional/whole gauges, an
/// empty-by-construction bucket gap, multi-bucket histograms, and series.
fn golden_registry() -> Registry {
    let registry = Registry::enabled();

    let c = registry.counter("golden.cache.hits");
    c.add(41);
    c.inc();
    registry.counter("golden.cache.misses").add(7);
    // Registered but never incremented: must serialize as 0, not vanish.
    let _zero = registry.counter("golden.cache.evictions");
    registry.counter("golden.engine.kernels").add(1_000_000_007);

    registry.gauge("golden.train.best_val").set(13.875);
    registry.gauge("golden.train.best_epoch").set(12.0);
    registry.gauge("golden.device.headroom").set(-0.5);

    // log2 buckets: 0 lands in the first bucket, 1..=2 in low buckets,
    // the big values far apart — pins bucket boundaries and the encoding
    // of empty buckets between occupied ones.
    let h = registry.histogram("golden.engine.batch_size");
    for v in [0u64, 1, 2, 3, 64, 65, 1_048_576] {
        h.observe(v);
    }
    let one = registry.histogram("golden.engine.single_obs");
    one.observe(42);

    let s = registry.series("golden.train.epoch_loss");
    for v in [2.5, 1.25, 0.625, 0.5] {
        s.push(v);
    }
    registry.series("golden.train.val_metric").push(19.25);

    registry
}

fn golden_report() -> RunReport {
    RunReport::new("golden", &golden_registry())
        .with_context("scale", "Quick")
        .with_context("seed", 17)
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("report_golden.json")
}

#[test]
fn run_report_json_matches_golden_snapshot() {
    let rendered = golden_report().to_json();
    assert!(rendered.contains(SCHEMA), "report must carry the schema tag");
    let path = golden_path();

    if std::env::var("REGEN_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden report");
        println!("regenerated {}", path.display());
        return;
    }

    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {} — run REGEN_GOLDEN=1 cargo test --test report_golden",
            path.display()
        )
    });
    assert_eq!(
        rendered,
        golden,
        "RunReport serialization drifted from the checked-in snapshot; if \
         the format change is intentional, regenerate with REGEN_GOLDEN=1"
    );
}

#[test]
fn golden_report_is_reproducible_within_a_run() {
    // The snapshot above is only meaningful if report rendering is itself
    // deterministic: two independently built registries must serialize
    // byte-identically.
    assert_eq!(golden_report().to_json(), golden_report().to_json());
}

#[test]
fn written_report_round_trips_the_rendered_json() {
    let report = golden_report();
    let path = TempPath::new("report.json");
    report.write(&path).expect("write report");
    let on_disk = std::fs::read_to_string(&path).expect("read back");
    assert_eq!(on_disk, report.to_json());
}
