//! Property-based tests for the lock-free prediction cache
//! ([`AtomicCache`]) and the serving invariants of [`Predictor`] built on
//! top of it.
//!
//! The cache is the correctness linchpin of the serving engine: a lost
//! entry silently re-runs the model (wrong perf), a corrupted entry
//! silently returns the wrong prediction (wrong results), and a broken
//! capacity bound turns long autotuning runs into a memory leak. The
//! cache is lossy by design, so these properties pin its contract under
//! randomized keys, values, insertion orders, and capacities: every hit
//! is bit-faithful to a test-local `HashMap` reference model, residency
//! never exceeds the slot count, every distinct insert is either resident
//! or counted as an eviction, and a `Predictor` answers exactly what its
//! model would, with exact accounting.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use tpu_repro::hlo::{DType, GraphBuilder, Kernel, Shape};
use tpu_repro::learned::{AtomicCache, CostModel, FnCostModel, Predictor};

/// Random (key, value) pairs with distinct keys; values may be `None`
/// (a kernel the backend cannot score is itself a cacheable answer).
fn arb_entries() -> impl Strategy<Value = Vec<(u64, Option<f64>)>> {
    prop::collection::vec((any::<u64>(), any::<bool>(), 0.0f64..1e12), 0..200).prop_map(|raw| {
        let mut seen: HashMap<u64, Option<f64>> = HashMap::new();
        for (k, some, v) in raw {
            seen.entry(k).or_insert(if some { Some(v) } else { None });
        }
        seen.into_iter().collect()
    })
}

proptest! {
    /// Bounded cache: residency never exceeds `max` slots, every distinct
    /// key inserted is either resident or accounted for as an eviction,
    /// and re-inserting a resident key never evicts.
    #[test]
    fn bounded_cache_conserves_entries(
        entries in arb_entries(),
        max in 1usize..64,
    ) {
        let cache = AtomicCache::with_capacity(max);
        for &(k, v) in &entries {
            cache.insert_hash(k, v);
        }
        prop_assert!(cache.len() <= max, "{} > {}", cache.len(), max);
        // Conservation: distinct inserts = resident + evicted.
        prop_assert_eq!(
            cache.len() as u64 + cache.eviction_count(),
            entries.len() as u64
        );
        // Overwriting resident keys is not an eviction.
        let evictions_before = cache.eviction_count();
        let resident: Vec<u64> = entries
            .iter()
            .map(|&(k, _)| k)
            .filter(|&k| cache.lookup_hash(k).is_some())
            .collect();
        for &k in &resident {
            cache.insert_hash(k, Some(1.0));
        }
        prop_assert_eq!(cache.eviction_count(), evictions_before);
        prop_assert_eq!(cache.len() as u64 + evictions_before, entries.len() as u64);
    }

    /// Serving invariant: with structurally distinct kernels per call,
    /// every kernel is either a cache hit or a fresh model eval
    /// (`hits + model_evals == kernels`), revisit calls run zero batches,
    /// and predictions are bit-identical across visits.
    #[test]
    fn predictor_accounts_every_kernel(
        n_kernels in 1usize..32,
        revisits in 1usize..4,
    ) {
        let model = FnCostModel::new("prop", |k: &Kernel| {
            Some(k.computation.num_nodes() as f64 * 10.0)
        });
        let predictor = Predictor::with_cache(model, Arc::new(AtomicCache::serving_default()));
        let kernels: Vec<Kernel> = (0..n_kernels)
            .map(|i| {
                let mut b = GraphBuilder::new("k");
                let x = b.parameter("x", Shape::matrix(16 + 4 * i, 32), DType::F32);
                let e = b.exp(x);
                Kernel::new(b.finish(e))
            })
            .collect();
        let refs: Vec<&Kernel> = kernels.iter().collect();

        let (first, cold) = predictor.predict_ns_refs(&refs);
        prop_assert_eq!(cold.kernels, n_kernels as u64);
        prop_assert_eq!(cold.cache_hits + cold.model_evals, cold.kernels);
        prop_assert_eq!(cold.cache_hits, 0);
        prop_assert_eq!(cold.model_batches, 1);

        for _ in 0..revisits {
            let (again, warm) = predictor.predict_ns_refs(&refs);
            prop_assert_eq!(warm.cache_hits, n_kernels as u64);
            prop_assert_eq!(warm.model_evals, 0);
            prop_assert_eq!(warm.model_batches, 0);
            let a: Vec<Option<u64>> = first.iter().map(|p| p.map(f64::to_bits)).collect();
            let b: Vec<Option<u64>> = again.iter().map(|p| p.map(f64::to_bits)).collect();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(predictor.cache().len(), n_kernels);
    }

    /// Atomic cache under a bounded capacity: residency never exceeds the
    /// slot count, no matter how many distinct keys are inserted, and
    /// every hit is bit-faithful to what that key last stored.
    #[test]
    fn atomic_cache_never_exceeds_slot_count(
        entries in arb_entries(),
        slots in 1usize..64,
    ) {
        let cache = AtomicCache::with_capacity(slots);
        for &(k, v) in &entries {
            cache.insert_hash(k, v);
            prop_assert!(cache.len() <= slots, "{} > {}", cache.len(), slots);
        }
        // Lossy contract: a hit is exact; a miss is always legal.
        for &(k, v) in &entries {
            if let Some(found) = cache.lookup_hash(k) {
                prop_assert_eq!(found.map(f64::to_bits), v.map(f64::to_bits));
            }
        }
        prop_assert!(cache.len() <= slots);
    }

    /// Serial equivalence against a lossless reference model: on the same
    /// insert sequence, the atomic cache is a lossy subset of a plain
    /// `HashMap` — every atomic hit returns exactly the model's value, and
    /// with ample capacity nothing conflicts away.
    #[test]
    fn atomic_cache_is_a_faithful_subset_of_reference_model(entries in arb_entries()) {
        let atomic = AtomicCache::with_capacity(4096);
        let mut model: HashMap<u64, Option<f64>> = HashMap::new();
        for &(k, v) in &entries {
            atomic.insert_hash(k, v);
            model.insert(k, v);
        }
        let mut atomic_hits = 0usize;
        for &(k, _) in &entries {
            let reference = model[&k];
            if let Some(found) = atomic.lookup_hash(k) {
                prop_assert_eq!(
                    found.map(f64::to_bits),
                    reference.map(f64::to_bits),
                    "atomic hit disagrees with the reference model for key {}", k
                );
                atomic_hits += 1;
            }
        }
        // With 4096 slots and <=200 keys, open-addressing conflicts are
        // rare; the subset must not be degenerate.
        prop_assert!(
            entries.is_empty() || atomic_hits * 10 >= entries.len() * 9,
            "atomic cache retained only {}/{} entries", atomic_hits, entries.len()
        );
    }

    /// The serving invariant holds under any cache capacity, including a
    /// tiny lossy one and none at all: `hits + model_evals == kernels` on
    /// every call, and the served predictions are bit-identical to the
    /// bare model's, since a lossy miss can only re-derive the same
    /// value from a deterministic model.
    #[test]
    fn predictor_accounting_holds_over_any_capacity(
        n_kernels in 1usize..24,
        revisits in 1usize..4,
        slots in 0usize..32,
    ) {
        let model = || FnCostModel::new("prop", |k: &Kernel| {
            Some(k.computation.num_nodes() as f64 * 10.0)
        });
        let predictor = Predictor::with_cache(model(), Arc::new(AtomicCache::with_capacity(slots)));
        let kernels: Vec<Kernel> = (0..n_kernels)
            .map(|i| {
                let mut b = GraphBuilder::new("k");
                let x = b.parameter("x", Shape::matrix(16 + 4 * i, 24), DType::F32);
                let t = b.tanh(x);
                Kernel::new(b.finish(t))
            })
            .collect();
        let refs: Vec<&Kernel> = kernels.iter().collect();
        let bare: Vec<Option<u64>> = model()
            .predict_batch_ns(&kernels)
            .iter()
            .map(|p| p.map(f64::to_bits))
            .collect();

        for _ in 0..=revisits {
            let (served, stats) = predictor.predict_ns_refs(&refs);
            prop_assert_eq!(stats.cache_hits + stats.model_evals, stats.kernels);
            let served: Vec<Option<u64>> = served.iter().map(|p| p.map(f64::to_bits)).collect();
            prop_assert_eq!(&served, &bare);
        }
    }
}
