//! Seeded workload inputs. Everything the program under test receives is
//! made here from the benchmark's `--seed`, so one seed always gives the
//! same inputs and another seed gives different ones.

use std::collections::HashSet;

use tpu_dataset::{program_kernels, Corpus, FusionDatasetConfig};
use tpu_hlo::{canonical_kernel_hash, Kernel};

/// Random fusion configs drawn per program when building the kernel pool.
pub const POOL_CONFIGS_PER_PROGRAM: usize = 8;

/// Kernels in the serve-hot working set.
pub const HOT_SET: usize = 256;

/// splitmix64: a small, dependency-free generator whose stream is fixed by
/// its seed on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Derive an independent sub-seed for one use of the benchmark seed.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// The seeded kernel pool: every fusion-eligible Full-corpus program's
/// kernels under [`POOL_CONFIGS_PER_PROGRAM`] random fusion configs,
/// de-duplicated by canonical kernel hash across the whole corpus.
pub fn kernel_pool(corpus: &Corpus, seed: u64) -> Vec<Kernel> {
    let cfg = FusionDatasetConfig {
        configs_per_program: POOL_CONFIGS_PER_PROGRAM,
        ..FusionDatasetConfig::default()
    };
    let mut seen = HashSet::new();
    let mut pool = Vec::new();
    for pi in corpus.fusion_eligible() {
        let program = &corpus.entries[pi].program;
        for k in program_kernels(program, &cfg, derive(seed, 1 + pi as u64)) {
            if seen.insert(canonical_kernel_hash(&k)) {
                pool.push(k);
            }
        }
    }
    pool
}

/// Indices into the pool of the serve-hot working set.
pub fn hot_set(pool_len: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pool_len).collect();
    Rng::new(derive(seed, 0x407)).shuffle(&mut idx);
    idx.truncate(HOT_SET.min(pool_len));
    idx
}

/// One closed-loop client's endless request stream over the hot set: draws
/// with replacement; the run's length decides how much of it is used.
pub fn hot_stream(hot: &[usize], seed: u64, client: usize) -> impl Iterator<Item = usize> + '_ {
    let mut rng = Rng::new(derive(seed, 0x1000 + client as u64));
    std::iter::repeat_with(move || hot[rng.below(hot.len())])
}

/// The serve-cold order of one daemon lifetime (`round`): a permutation of
/// the whole pool, so no kernel is asked twice of one daemon.
pub fn cold_order(pool_len: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pool_len).collect();
    Rng::new(derive(seed, 0x2000 + round as u64)).shuffle(&mut idx);
    idx
}

/// Search seed of the autotune workload.
pub fn tune_seed(seed: u64) -> u64 {
    derive(seed, 0x3000)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_dataset::CorpusScale;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let corpus = Corpus::build(CorpusScale::Tiny);
        let a = kernel_pool(&corpus, 1);
        let b = kernel_pool(&corpus, 1);
        let c = kernel_pool(&corpus, 2);
        let hashes = |p: &[Kernel]| p.iter().map(canonical_kernel_hash).collect::<Vec<_>>();
        assert!(!a.is_empty());
        assert_eq!(hashes(&a), hashes(&b));
        assert_ne!(hashes(&a), hashes(&c));

        assert_eq!(hot_set(500, 1), hot_set(500, 1));
        assert_ne!(hot_set(500, 1), hot_set(500, 2));
        let hot = hot_set(500, 1);
        let draws = |seed, client| hot_stream(&hot, seed, client).take(100).collect::<Vec<_>>();
        assert_eq!(draws(1, 0), draws(1, 0));
        assert_ne!(draws(1, 0), draws(1, 1));
        assert_ne!(draws(1, 0), draws(2, 0));
        assert_eq!(cold_order(500, 1, 0), cold_order(500, 1, 0));
        assert_ne!(cold_order(500, 1, 0), cold_order(500, 1, 1));
        assert_ne!(cold_order(500, 1, 0), cold_order(500, 2, 0));
        assert_ne!(tune_seed(1), tune_seed(2));
        assert_ne!(tune_seed(1), tune_seed(9_001));
    }

    #[test]
    fn cold_order_is_a_permutation_and_hot_set_is_distinct() {
        let mut order = cold_order(1000, 7, 3);
        order.sort_unstable();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
        let hot = hot_set(1000, 7);
        assert_eq!(hot.len(), HOT_SET);
        assert_eq!(hot.iter().collect::<HashSet<_>>().len(), HOT_SET);
    }
}
