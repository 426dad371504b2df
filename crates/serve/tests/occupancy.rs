//! Pins where the engine reads cache occupancy: only in
//! [`ServeEngine::stats`], never per batch.
//!
//! `KernelCache::len` scans every slot of an `AtomicCache`, so one call
//! per predict batch would dominate a warm request. Counting calls on a
//! wrapper pins this without timing anything: predict batches and a
//! hot-reload swap scan zero times, each `stats()` scans exactly once,
//! and the occupancy it reports is still exact.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use tpu_hlo::canonical_kernel_hash;
use tpu_infer::{freeze_gnn, FrozenModel};
use tpu_learned_cost::{AtomicCache, CacheStats, CostModel, GnnConfig, GnnModel, KernelCache};
use tpu_obs::Registry;
use tpu_serve::{demo_kernels, probe_panel, ReloadPolicy, ServeConfig, ServeEngine, ServeOptions};

/// An [`AtomicCache`] that counts the calls that scan it: `len` and
/// `stats` (which fills `entries` from a scan).
struct CountingCache {
    inner: AtomicCache,
    scans: AtomicUsize,
}

impl CountingCache {
    fn scans(&self) -> usize {
        self.scans.load(Ordering::SeqCst)
    }
}

impl KernelCache for CountingCache {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        self.inner.lookup_hash(hash)
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        self.inner.insert_hash(hash, prediction);
    }
    fn len(&self) -> usize {
        self.scans.fetch_add(1, Ordering::SeqCst);
        self.inner.len()
    }
    fn clear(&self) {
        self.inner.clear();
    }
    fn stats(&self) -> CacheStats {
        self.scans.fetch_add(1, Ordering::SeqCst);
        self.inner.stats()
    }
    fn eviction_count(&self) -> u64 {
        self.inner.eviction_count()
    }
}

fn frozen_gnn_blob() -> Vec<u8> {
    let model = GnnModel::new(GnnConfig {
        opcode_embed_dim: 8,
        hidden: 16,
        hops: 1,
        seed: 5,
        ..GnnConfig::default()
    });
    FrozenModel::Gnn(freeze_gnn(&model, &probe_panel()).unwrap()).to_bytes()
}

#[test]
fn occupancy_is_read_at_stats_time_not_per_batch() {
    let blob = frozen_gnn_blob();
    let model: Box<dyn CostModel + Send> = Box::new(FrozenModel::from_bytes(&blob).unwrap());
    let cache = Arc::new(CountingCache {
        inner: AtomicCache::serving_default(),
        scans: AtomicUsize::new(0),
    });
    let engine = ServeEngine::start_with(
        model,
        Arc::clone(&cache) as Arc<dyn KernelCache>,
        ServeConfig::default(),
        ServeOptions {
            reload: Some(ReloadPolicy {
                min_tau: 0.99,
                panel: probe_panel(),
                wrap: Box::new(|frozen| Box::new(frozen)),
            }),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    );

    let kernels = demo_kernels(24);
    let distinct = kernels
        .iter()
        .map(canonical_kernel_hash)
        .collect::<HashSet<_>>()
        .len();
    // Serial submits (one batch each), then a concurrent burst so some
    // batches hold several kernels, all repeats of cached ones.
    for k in kernels.iter().chain(&kernels) {
        engine.submit(k.clone()).unwrap();
    }
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for k in &kernels {
                    engine.submit(k.clone()).unwrap();
                }
            });
        }
    });
    assert_eq!(cache.scans(), 0, "predict batches must not scan the cache");

    let stats = engine.stats();
    assert_eq!(cache.scans(), 1, "one stats() reads occupancy once");
    assert_eq!(stats.answered, 6 * kernels.len() as u64);
    assert!(stats.batches > 0);
    assert_eq!(stats.cache_evictions, 0);
    assert_eq!(stats.cache_entries, distinct);
    assert_eq!(engine.stats().cache_entries, distinct);
    assert_eq!(cache.scans(), 2);

    // An accepted swap clears the cache without scanning it; the next
    // stats() sees the empty cache.
    assert_eq!(engine.reload_from_bytes(&blob), Ok(1));
    assert_eq!(
        cache.scans(),
        2,
        "a hot-reload swap must not scan the cache"
    );
    assert_eq!(engine.stats().cache_entries, 0);
    assert_eq!(cache.scans(), 3);

    for k in &kernels {
        engine.submit(k.clone()).unwrap();
    }
    assert_eq!(cache.scans(), 3);
    assert_eq!(engine.stats().cache_entries, distinct);
    assert_eq!(cache.scans(), 4);
    engine.shutdown();
}
