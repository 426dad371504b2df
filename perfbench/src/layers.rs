//! Timing wrappers around the public traits the program's layers meet at.
//! Each wrapper only delegates, so a traced run computes exactly what an
//! untraced run computes; the benchmark's tests pin that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tpu_hlo::Kernel;
use tpu_learned_cost::{
    BatchSource, CacheStats, CostModel, ExampleMeta, GraphBatch, KernelCache, KernelModel, Prepared,
};
use tpu_nn::{ParamStore, Tape, Var};

/// Busy time, call count and item count of one layer.
#[derive(Debug, Default)]
pub struct Meter {
    ns: AtomicU64,
    calls: AtomicU64,
    items: AtomicU64,
}

/// A snapshot of a [`Meter`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    pub ns: u64,
    pub calls: u64,
    pub items: u64,
}

impl Tally {
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
    /// Mean busy time per item, µs (0 without items).
    pub fn us_per_item(&self) -> f64 {
        per(self.ns as f64 * 1e-3, self.items)
    }
}

/// `total / n`, or 0 when `n` is 0.
pub fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

impl Meter {
    pub fn new() -> Arc<Meter> {
        Arc::new(Meter::default())
    }

    pub fn record(&self, started: Instant, items: u64) {
        let ns = started.elapsed().as_nanos() as u64;
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.items.fetch_add(items, Ordering::Relaxed);
    }

    pub fn tally(&self) -> Tally {
        Tally {
            ns: self.ns.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            items: self.items.load(Ordering::Relaxed),
        }
    }
}

/// Times a [`CostModel`]: one call per backend batch, one item per kernel.
pub struct TimedModel<M> {
    pub inner: M,
    pub meter: Arc<Meter>,
}

impl<M: CostModel> CostModel for TimedModel<M> {
    fn predict_kernel_ns(&self, kernel: &Kernel) -> Option<f64> {
        let t = Instant::now();
        let out = self.inner.predict_kernel_ns(kernel);
        self.meter.record(t, 1);
        out
    }
    fn predict_batch_ns(&self, kernels: &[Kernel]) -> Vec<Option<f64>> {
        let t = Instant::now();
        let out = self.inner.predict_batch_ns(kernels);
        self.meter.record(t, kernels.len() as u64);
        out
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times a [`KernelCache`]'s probes (items = hits) and inserts. The other
/// methods delegate untimed: they are bookkeeping the caller pays inside
/// its own self time.
pub struct TimedCache<C> {
    pub inner: C,
    pub probes: Arc<Meter>,
    pub inserts: Arc<Meter>,
}

impl<C: KernelCache> TimedCache<C> {
    pub fn new(inner: C) -> TimedCache<C> {
        TimedCache {
            inner,
            probes: Meter::new(),
            inserts: Meter::new(),
        }
    }
}

impl<C: KernelCache> KernelCache for TimedCache<C> {
    fn lookup_hash(&self, hash: u64) -> Option<Option<f64>> {
        let t = Instant::now();
        let out = self.inner.lookup_hash(hash);
        self.probes.record(t, u64::from(out.is_some()));
        out
    }
    fn insert_hash(&self, hash: u64, prediction: Option<f64>) {
        let t = Instant::now();
        self.inner.insert_hash(hash, prediction);
        self.inserts.record(t, 1);
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn clear(&self) {
        self.inner.clear();
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn eviction_count(&self) -> u64 {
        self.inner.eviction_count()
    }
}

/// One timed interval, in ns since the recorder's origin.
pub type Interval = (u64, u64);

/// Collects intervals from any thread, for spans that run in parallel.
#[derive(Debug)]
pub struct Intervals {
    origin: Instant,
    spans: Mutex<Vec<Interval>>,
}

impl Intervals {
    pub fn new(origin: Instant) -> Arc<Intervals> {
        Arc::new(Intervals {
            origin,
            spans: Mutex::new(Vec::new()),
        })
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(&self, span: Interval) {
        self.spans
            .lock()
            .expect("interval recorder poisoned")
            .push(span);
    }

    pub fn take(&self) -> Vec<Interval> {
        std::mem::take(&mut *self.spans.lock().expect("interval recorder poisoned"))
    }
}

/// Times a [`BatchSource`]'s loads: one interval per batch, and the bytes
/// of the records it read (`record_bytes[i]` for example `i`; empty when
/// the source has no byte size).
pub struct TimedSource<'a, S: ?Sized> {
    pub inner: &'a S,
    pub record_bytes: Vec<u64>,
    pub loads: Arc<Intervals>,
    pub bytes: AtomicU64,
}

impl<S: BatchSource + ?Sized> BatchSource for TimedSource<'_, S> {
    fn num_examples(&self) -> usize {
        self.inner.num_examples()
    }
    fn meta(&self, i: usize) -> ExampleMeta {
        self.inner.meta(i)
    }
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        let start = self.loads.now();
        let out = self.inner.load(idxs);
        self.loads.push((start, self.loads.now()));
        let bytes: u64 = idxs
            .iter()
            .map(|&i| self.record_bytes.get(i).copied().unwrap_or(0))
            .sum();
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        out
    }
}

/// Times a [`KernelModel`]'s forward passes, which the data-parallel train
/// step runs from several threads at once.
pub struct TimedKernelModel<M> {
    pub inner: M,
    pub forwards: Arc<Intervals>,
}

impl<M: KernelModel> KernelModel for TimedKernelModel<M> {
    fn forward_batch(&self, tape: &mut Tape, batch: &GraphBatch) -> Var {
        let start = self.forwards.now();
        let out = self.inner.forward_batch(tape, batch);
        self.forwards.push((start, self.forwards.now()));
        out
    }
    fn params(&self) -> &ParamStore {
        self.inner.params()
    }
    fn params_mut(&mut self) -> &mut ParamStore {
        self.inner.params_mut()
    }
    fn model_name(&self) -> &'static str {
        self.inner.model_name()
    }
}

/// Length of the union of the parts of `spans` inside `[lo, hi)`.
pub fn covered(spans: &[Interval], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<Interval> = spans
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut end = lo;
    for (a, b) in clipped {
        let a = a.max(end);
        if b > a {
            total += b - a;
            end = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::{
        train_stream, AtomicCache, GnnConfig, GnnModel, Predictor, Sample, SimOracle, StreamConfig,
        TrainConfig,
    };
    use tpu_sim::TpuConfig;

    fn kernels() -> Vec<Kernel> {
        tpu_infer::calibration_kernels(12)
    }

    #[test]
    fn timed_model_and_cache_pass_through() {
        let ks = kernels();
        let plain = Predictor::with_cache(
            SimOracle::new(TpuConfig::default()),
            Arc::new(AtomicCache::with_capacity(64)),
        );
        let model = TimedModel {
            inner: SimOracle::new(TpuConfig::default()),
            meter: Meter::new(),
        };
        let cache = Arc::new(TimedCache::new(AtomicCache::with_capacity(64)));
        let timed = Predictor::with_cache(&model, Arc::clone(&cache));
        for _ in 0..2 {
            assert_eq!(plain.predict_ns(&ks), timed.predict_ns(&ks));
        }
        assert_eq!(plain.stats(), timed.stats());
        assert_eq!(model.name(), plain.model().name());
        let probes = cache.probes.tally();
        assert_eq!(probes.calls, 2 * ks.len() as u64);
        assert_eq!(probes.items, timed.stats().cache_hits);
        assert_eq!(model.meter.tally().items, timed.stats().model_evals);
        assert_eq!(cache.inserts.tally().calls, timed.stats().model_evals);
    }

    #[test]
    fn timed_source_and_model_train_identically() {
        let cfg = TpuConfig::default();
        let samples: Vec<Sample> = kernels()
            .into_iter()
            .map(|k| {
                let ns = tpu_sim::kernel_time_ns(&k, &cfg);
                Sample::new(k, ns)
            })
            .collect();
        let data = tpu_learned_cost::prepare(&samples);
        let (train, val) = data.split_at(8);
        let train_cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..TrainConfig::default()
        };
        let small = GnnConfig {
            hidden: 8,
            opcode_embed_dim: 4,
            ..GnnConfig::default()
        };
        let mut plain = GnnModel::new(small.clone());
        let a = train_stream(&mut plain, train, val, &train_cfg, &StreamConfig::default()).unwrap();

        let origin = Instant::now();
        let source = TimedSource {
            inner: train,
            record_bytes: vec![10; train.len()],
            loads: Intervals::new(origin),
            bytes: AtomicU64::new(0),
        };
        let mut timed = TimedKernelModel {
            inner: GnnModel::new(small),
            forwards: Intervals::new(origin),
        };
        let b = train_stream(
            &mut timed,
            &source,
            val,
            &train_cfg,
            &StreamConfig::default(),
        )
        .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.train_loss), bits(&b.train_loss));
        assert_eq!(bits(&a.val_metric), bits(&b.val_metric));
        assert_eq!(plain.params().to_json(), timed.params().to_json());
        assert_eq!(source.loads.take().len(), 4);
        assert_eq!(source.bytes.load(Ordering::Relaxed), 2 * 8 * 10);
        assert!(!timed.forwards.take().is_empty());
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        let spans = [(0, 10), (5, 15), (20, 30), (28, 29)];
        assert_eq!(covered(&spans, 0, 100), 25);
        assert_eq!(covered(&spans, 8, 22), 9);
        assert_eq!(covered(&[], 0, 10), 0);
    }
}
