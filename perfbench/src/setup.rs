//! The set-up every workload runs before it measures: build the Full
//! corpus, stream it into a `tpu-ds.v1` file, train the default GNN
//! briefly on it, freeze it to a `tpu-frozen.v1` blob, check that the
//! frozen model tunes at least as well as the compiler default, and build
//! the seeded kernel pool. Its wall time is `setup_s`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::{gen, tune};
use tpu_dataset::{
    stream_corpus, Corpus, CorpusScale, DatasetReader, DatasetWriter, FusionDatasetConfig,
    StreamGenConfig,
};
use tpu_hlo::{canonical_kernel_hash, Kernel, Program};
use tpu_infer::{calibration_kernels, freeze, FrozenModel, FrozenSource};
use tpu_learned_cost::{
    train_stream, AtomicCache, BatchSource, ExampleMeta, GnnConfig, GnnModel, Prepared,
    StreamConfig, TrainConfig,
};

/// Random fusion configs per program in the streamed training file.
pub const DATASET_CONFIGS_PER_PROGRAM: usize = 4;
/// Seed of the program split; the Table-2 test programs are held out of
/// training whatever it is.
pub const SPLIT_SEED: u64 = 0;
/// Epochs of the set-up training.
pub const SETUP_EPOCHS: usize = 3;
/// Model steps of the set-up's acceptance tune.
pub const CHECK_TUNE_STEPS: usize = 1_000;
/// Runs of the acceptance tune per set-up; they must agree.
pub const CHECK_TUNE_REPS: usize = 3;
/// Seed of the simulated device every tune measures on.
pub const DEVICE_SEED: u64 = 42;

pub const DATASET_FILE: &str = "corpus.tpuds";
pub const MODEL_FILE: &str = "model.frozen";

/// Examples of a [`BatchSource`] restricted to a subset of its indices.
pub struct Subset<'a, S: ?Sized> {
    pub inner: &'a S,
    pub idx: Vec<usize>,
}

impl<S: BatchSource + ?Sized> BatchSource for Subset<'_, S> {
    fn num_examples(&self) -> usize {
        self.idx.len()
    }
    fn meta(&self, i: usize) -> ExampleMeta {
        self.inner.meta(self.idx[i])
    }
    fn load(&self, idxs: &[usize]) -> Result<Vec<Prepared>, String> {
        let mapped: Vec<usize> = idxs.iter().map(|&i| self.idx[i]).collect();
        self.inner.load(&mapped)
    }
}

/// The streamed dataset split by program: training records stay on disk,
/// validation records (held-out programs) are loaded once.
pub struct Dataset {
    pub reader: DatasetReader,
    pub train_idx: Vec<usize>,
    pub val: Vec<Prepared>,
}

impl Dataset {
    pub fn open(corpus: &Corpus, path: &Path) -> Result<Dataset, String> {
        let reader = DatasetReader::open(path).map_err(|e| format!("open {path:?}: {e}"))?;
        let split = corpus.random_split(SPLIT_SEED);
        let train_idx: Vec<usize> = (0..reader.len())
            .filter(|&i| split.train.contains(&reader.program_id(i)))
            .collect();
        let val_idx: Vec<usize> = (0..reader.len())
            .filter(|&i| split.val.contains(&reader.program_id(i)))
            .collect();
        let val = reader.load(&val_idx)?;
        Ok(Dataset {
            reader,
            train_idx,
            val,
        })
    }

    /// The training records, read from disk per batch.
    pub fn train_source(&self) -> Subset<'_, DatasetReader> {
        Subset {
            inner: &self.reader,
            idx: self.train_idx.clone(),
        }
    }
}

/// The eight Table-2 test programs, in the order the paper lists them.
pub fn test_programs(corpus: &Corpus) -> Vec<Program> {
    tpu_dataset::RANDOM_TEST_PROGRAMS
        .iter()
        .filter_map(|name| corpus.index_of(name))
        .map(|i| corpus.entries[i].program.clone())
        .collect()
}

/// What one set-up produced and measured.
pub struct Setup {
    pub wall_s: f64,
    pub blob: Vec<u8>,
    pub pool: Vec<Kernel>,
    pub records: usize,
    pub train_examples: usize,
    pub train_s: f64,
    pub train_val_mape: f64,
    pub train_loss_finite: bool,
    pub check_tune_s: Vec<f64>,
    pub check_speedup: f64,
    pub check_agrees: bool,
}

impl Setup {
    /// Fingerprint of everything later phases consume; two set-ups with one
    /// seed must agree on it.
    pub fn fingerprint(&self) -> (Vec<u8>, Vec<u64>) {
        (
            self.blob.clone(),
            self.pool.iter().map(canonical_kernel_hash).collect(),
        )
    }
}

/// Run the set-up into `dir`, leaving the dataset and model files there.
pub fn run(dir: &Path, seed: u64) -> Result<Setup, String> {
    let started = Instant::now();
    let corpus = Corpus::build(CorpusScale::Full);

    let path = dir.join(DATASET_FILE);
    let mut writer = DatasetWriter::create(&path).map_err(|e| format!("create {path:?}: {e}"))?;
    let gen_cfg = StreamGenConfig {
        fusion: FusionDatasetConfig {
            configs_per_program: DATASET_CONFIGS_PER_PROGRAM,
            ..FusionDatasetConfig::default()
        },
        ..StreamGenConfig::default()
    };
    stream_corpus(&corpus, &gen_cfg, &mut writer).map_err(|e| format!("stream corpus: {e}"))?;
    let records = writer
        .finish()
        .map_err(|e| format!("finish {path:?}: {e}"))?;

    let data = Dataset::open(&corpus, &path)?;
    let source = data.train_source();
    let mut model = GnnModel::new(GnnConfig::default());
    let cfg = TrainConfig {
        epochs: SETUP_EPOCHS,
        ..TrainConfig::default()
    };
    let train_started = Instant::now();
    let report = train_stream(
        &mut model,
        &source,
        &data.val,
        &cfg,
        &StreamConfig::default(),
    )?;
    let train_s = train_started.elapsed().as_secs_f64();
    let seen = epoch_examples(&source, &cfg) * cfg.epochs;

    let frozen = freeze(FrozenSource::Gnn(&model), &calibration_kernels(32))
        .map_err(|e| format!("freeze: {e}"))?;
    let blob = frozen.to_bytes();
    let model_path = dir.join(MODEL_FILE);
    std::fs::write(&model_path, &blob).map_err(|e| format!("write {model_path:?}: {e}"))?;

    let (check_tune_s, check_speedup, check_agrees) = check_tune(&corpus, &blob)?;
    let pool = gen::kernel_pool(&corpus, seed);

    Ok(Setup {
        wall_s: started.elapsed().as_secs_f64(),
        blob,
        pool,
        records,
        train_examples: seen,
        train_s,
        train_val_mape: report.best_val,
        train_loss_finite: report.train_loss.iter().all(|l| l.is_finite()),
        check_tune_s,
        check_speedup,
        check_agrees,
    })
}

/// Examples one epoch visits: the epoch plan is capped at
/// `max_batches_per_epoch` batches.
pub fn epoch_examples<S: BatchSource + ?Sized>(source: &S, cfg: &TrainConfig) -> usize {
    source
        .num_examples()
        .min(cfg.batch_size * cfg.max_batches_per_epoch)
}

/// The acceptance tune: SA with the frozen model on [`CHECK_PROGRAM`],
/// run [`CHECK_TUNE_REPS`] times. The hardware re-rank keeps the compiler
/// default as a safety net, so a model that ranks kernels backwards
/// scores a speed-up of 1; a trained one finds a faster config. Returns
/// each run's wall time, the speed-up, and whether the runs agreed.
fn check_tune(corpus: &Corpus, blob: &[u8]) -> Result<(Vec<f64>, f64, bool), String> {
    let model = FrozenModel::from_bytes(blob).map_err(|e| format!("reload blob: {e}"))?;
    let program = check_program(corpus)?;
    let mut walls = Vec::with_capacity(CHECK_TUNE_REPS);
    let mut results = Vec::with_capacity(CHECK_TUNE_REPS);
    for _ in 0..CHECK_TUNE_REPS {
        let cache = Arc::new(AtomicCache::serving_default());
        let (tuned, wall, speedup) = tune::tune_one(&check_job(&program), &model, cache, 0);
        walls.push(wall);
        results.push((tuned.config, tuned.true_ns.to_bits(), speedup.to_bits()));
    }
    let agree = results.windows(2).all(|w| w[0] == w[1]);
    Ok((walls, f64::from_bits(results[0].2), agree))
}

/// The Table-2 program of the acceptance tune.
pub const CHECK_PROGRAM: &str = "RNN";

pub fn check_program(corpus: &Corpus) -> Result<Program, String> {
    let i = corpus
        .index_of(CHECK_PROGRAM)
        .ok_or("the acceptance-tune program is not in the corpus")?;
    Ok(corpus.entries[i].program.clone())
}

pub fn check_job(program: &Program) -> tune::Job<'_> {
    tune::Job {
        program,
        searcher: tune::Searcher::Sa,
        steps: CHECK_TUNE_STEPS,
    }
}

/// A fresh scratch directory for one set-up.
pub fn scratch_dir(base: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = base.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {dir:?}: {e}"))?;
    Ok(dir)
}
