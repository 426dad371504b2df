//! The autotune workload: SA (the `tune` default) and beam search, each
//! through its public entry point, on the Table-2 test programs with the
//! set-up's frozen model, a fixed model-step budget and a fresh simulated
//! device per call.

use std::sync::Arc;
use std::time::Instant;

use tpu_autotuner::{
    autotune_beam_with_cost_model, autotune_with_cost_model, random_configs, speedup_over_default,
    Budgets, HardwareObjective, SearchParams, StartMode, TunedConfig,
};
use tpu_fusion::{apply_fusion, default_space_and_config};
use tpu_hlo::{canonical_kernel_hash, Program};
use tpu_infer::FrozenModel;
use tpu_learned_cost::{AtomicCache, CostModel, KernelCache};
use tpu_sim::TpuDevice;

use crate::layers::{per, Meter, Tally, TimedCache, TimedModel};
use crate::report::{geomean, median, percentile, Facts, Metrics, Outcome};
use crate::setup::DEVICE_SEED;
use crate::Overhead;

/// Model steps of one tuning call (SA steps; beam objective evaluations).
pub const TUNE_STEPS: usize = 500;

/// The budgets of every tuning call the benchmark makes.
pub fn budgets() -> Budgets {
    Budgets {
        hardware_ns: 30e9,
        model_steps: TUNE_STEPS,
        best_known_ns: 60e9,
        top_k: 8,
        chains: 4,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Searcher {
    Sa,
    Beam,
}

/// One tuning call: a program, a searcher and a step budget.
pub struct Job<'a> {
    pub program: &'a Program,
    pub searcher: Searcher,
    pub steps: usize,
}

/// Every (program, searcher) pair of the autotune workload.
pub fn workload_jobs(programs: &[Program]) -> Vec<Job<'_>> {
    programs
        .iter()
        .flat_map(|p| {
            [Searcher::Sa, Searcher::Beam].map(|searcher| Job {
                program: p,
                searcher,
                steps: TUNE_STEPS,
            })
        })
        .collect()
}

/// Run one tuning call on a fresh device and a fresh cache; returns the
/// result and the call's wall time.
pub fn tune_one<M: CostModel + ?Sized, C: KernelCache>(
    job: &Job,
    model: &M,
    cache: Arc<C>,
    seed: u64,
) -> (TunedConfig, f64, f64) {
    let budgets = Budgets {
        model_steps: job.steps,
        ..budgets()
    };
    let device = TpuDevice::new(DEVICE_SEED);
    let started = Instant::now();
    let tuned = match job.searcher {
        Searcher::Sa => autotune_with_cost_model(
            job.program,
            &device,
            model,
            &cache,
            StartMode::Default,
            &budgets,
            seed,
        ),
        Searcher::Beam => autotune_beam_with_cost_model(
            job.program,
            &device,
            model,
            &cache,
            StartMode::Default,
            &budgets,
            &SearchParams {
                seed,
                ..SearchParams::default()
            },
        ),
    };
    let wall = started.elapsed().as_secs_f64();
    let speedup = speedup_over_default(job.program, &device, &tuned);
    (tuned, wall, speedup)
}

/// What identifies a tuning result: equal across rounds and across traced
/// and untraced runs.
type Fingerprint = (Vec<bool>, u64, usize, u64, u64);

fn fingerprint(t: &TunedConfig) -> Fingerprint {
    (
        t.config.decisions.clone(),
        t.true_ns.to_bits(),
        t.hw_evals,
        t.model_evals,
        t.cache_hits,
    )
}

/// The output checks of one tuning call: `true_ns` recomputed through the
/// simulator from the fusion pass applied to the returned config, and the
/// fresh model evaluations within what the step budget allows (at most
/// `steps + 1` configs scored, each with at most one kernel per node).
fn check(job: &Job, t: &TunedConfig, outcome: &mut Outcome) {
    let (space, _) = default_space_and_config(&job.program.computation);
    let fused = apply_fusion(job.program, &space, &t.config);
    let true_ns = TpuDevice::new(DEVICE_SEED).true_program_time(&fused);
    if true_ns.to_bits() != t.true_ns.to_bits() {
        outcome.fail("true_ns_mismatch");
    }
    let cap = (job.steps as u64 + 1) * job.program.num_nodes() as u64;
    if t.model_evals > cap {
        outcome.fail("eval_budget");
    }
}

/// One pass over `jobs`, untraced.
struct Round {
    wall_s: f64,
    calls_s: Vec<f64>,
    speedups: Vec<f64>,
    prints: Vec<Fingerprint>,
    results: Vec<TunedConfig>,
}

fn round(jobs: &[Job], model: &FrozenModel, seed: u64, outcome: &mut Outcome) -> Round {
    let started = Instant::now();
    let mut r = Round {
        wall_s: 0.0,
        calls_s: Vec::new(),
        speedups: Vec::new(),
        prints: Vec::new(),
        results: Vec::new(),
    };
    for job in jobs {
        let (tuned, wall, speedup) =
            tune_one(job, model, Arc::new(AtomicCache::serving_default()), seed);
        outcome.attempted += 1;
        check(job, &tuned, outcome);
        r.calls_s.push(wall);
        r.speedups.push(speedup);
        r.prints.push(fingerprint(&tuned));
        r.results.push(tuned);
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r
}

/// The untraced autotune workload: whole rounds over all jobs until
/// `seconds` have passed (at least one). Each call's latency is its median
/// over the rounds, and a round's wall time is the sum of those medians,
/// so a burst of outside load during one call moves one sample of it.
pub fn measure(
    programs: &[Program],
    blob: &[u8],
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, Outcome, Facts), String> {
    let model = FrozenModel::from_bytes(blob).map_err(|e| format!("load blob: {e}"))?;
    let jobs = workload_jobs(programs);
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let first = round(&jobs, &model, seed, &mut outcome);
    let mut per_call: Vec<Vec<f64>> = first.calls_s.iter().map(|&w| vec![w]).collect();
    let mut rounds = 1;
    while started.elapsed().as_secs_f64() < seconds {
        let r = round(&jobs, &model, seed, &mut outcome);
        if r.prints != first.prints {
            outcome.fail("nondeterministic_tune");
        }
        for (samples, w) in per_call.iter_mut().zip(r.calls_s) {
            samples.push(w);
        }
        rounds += 1;
    }
    let call_s: Vec<f64> = per_call.iter().map(|v| median(v)).collect();
    let round_s: f64 = call_s.iter().sum();
    let call_us: Vec<f64> = call_s.iter().map(|s| s * 1e6).collect();
    let mut m = Metrics::default();
    m.set("latency_p50_us", percentile(&call_us, 50.0), "us");
    m.set("latency_p99_us", percentile(&call_us, 99.0), "us");
    m.set("throughput_rps", jobs.len() as f64 / round_s, "1/s");
    m.set("tune_wall_s", round_s, "s");
    m.set("tuned_speedup", geomean(&first.speedups), "x");
    let mut f = Facts::default();
    f.num("tune.rounds", rounds as f64);
    f.num("tune.calls", (rounds * jobs.len()) as f64);
    f.num("tune.programs", programs.len() as f64);
    f.num("tune.model_steps", TUNE_STEPS as f64);
    f.num(
        "tune.model_evals_per_round",
        first.results.iter().map(|t| t.model_evals).sum::<u64>() as f64,
    );
    f.num(
        "tune.cache_hits_per_round",
        first.results.iter().map(|t| t.cache_hits).sum::<u64>() as f64,
    );
    Ok((m, outcome, f))
}

/// The traced autotune path over `jobs`: a round with the model and cache
/// behind timing wrappers between two untraced rounds (all three must
/// agree), then side replays of the fusion pass, hashing and hardware re-rank
/// through their public functions on the round's own configs.
pub fn trace(jobs: &[Job], blob: &[u8], seed: u64) -> Result<(Metrics, Outcome, Overhead), String> {
    let model = FrozenModel::from_bytes(blob).map_err(|e| format!("load blob: {e}"))?;
    let mut outcome = Outcome::default();
    let plain = round(jobs, &model, seed, &mut outcome);

    let timed = TimedModel {
        inner: model,
        meter: Meter::new(),
    };
    let mut probes = Tally::default();
    let mut inserts = Tally::default();
    let mut entry_s = 0.0;
    let mut results = Vec::new();
    let started = Instant::now();
    for job in jobs {
        let cache = Arc::new(TimedCache::new(AtomicCache::serving_default()));
        let (tuned, wall, _) = tune_one(job, &timed, Arc::clone(&cache), seed);
        entry_s += wall;
        add(&mut probes, cache.probes.tally());
        add(&mut inserts, cache.inserts.tally());
        results.push(tuned);
    }
    let traced_s = started.elapsed().as_secs_f64();
    for (job, t) in jobs.iter().zip(&results) {
        outcome.attempted += 1;
        check(job, t, &mut outcome);
    }
    if results.iter().map(fingerprint).collect::<Vec<_>>() != plain.prints {
        outcome.fail("trace_changed_output");
    }
    let model_t = timed.meter.tally();
    let model = timed.inner;
    let again = round(jobs, &model, seed, &mut outcome);
    if again.prints != plain.prints {
        outcome.fail("nondeterministic_tune");
    }

    let (apply_us, hash_us, rerank_s) = side_replays(jobs, &results, seed);
    let evals: u64 = results.iter().map(|t| t.model_evals).sum();
    let hits: u64 = results.iter().map(|t| t.cache_hits).sum();
    let hw: usize = results.iter().map(|t| t.hw_evals).sum();
    let mut m = Metrics::default();
    m.set("fusion.apply_us", apply_us, "us");
    m.set("hlo.hash_us", hash_us, "us");
    m.set("autotuner.model_evals", evals as f64, "count");
    m.set("autotuner.cache_hits", hits as f64, "count");
    m.set("autotuner.hw_evals", hw as f64, "count");
    m.set("sim.rerank_s", rerank_s, "s");
    m.set(
        "autotuner.self_s",
        entry_s - model_t.secs() - probes.secs() - inserts.secs(),
        "s",
    );
    crate::serve::cache_and_model(&mut m, &probes, &model_t);
    let overhead = Overhead {
        plain_s: (plain.wall_s + again.wall_s) / 2.0,
        traced_s,
        spans_s: entry_s,
    };
    Ok((m, outcome, overhead))
}

fn add(total: &mut Tally, t: Tally) {
    total.ns += t.ns;
    total.calls += t.calls;
    total.items += t.items;
}

/// Unit costs of the layers inside the entry points, timed through their
/// public functions on the round's configs: µs per fusion pass, µs per
/// canonical kernel hash, and the re-rank's simulated measurements
/// (`hw_evals` measurements of each chosen config), seconds per round.
fn side_replays(jobs: &[Job], results: &[TunedConfig], seed: u64) -> (f64, f64, f64) {
    let (mut apply_ns, mut applies, mut hash_ns, mut hashes) = (0u128, 0u64, 0u128, 0u64);
    let mut rerank_s = 0.0;
    for (job, tuned) in jobs.iter().zip(results) {
        let (space, _) = default_space_and_config(&job.program.computation);
        let mut configs = random_configs(&space, 8, seed);
        configs.push(tuned.config.clone());
        for cfg in &configs {
            let t = Instant::now();
            let fused = std::hint::black_box(apply_fusion(job.program, &space, cfg));
            apply_ns += t.elapsed().as_nanos();
            applies += 1;
            for k in &fused.kernels {
                let t = Instant::now();
                std::hint::black_box(canonical_kernel_hash(k));
                hash_ns += t.elapsed().as_nanos();
                hashes += 1;
            }
        }
        let device = TpuDevice::new(DEVICE_SEED);
        let mut hw = HardwareObjective::new(job.program, &space, &device, budgets().hardware_ns);
        let t = Instant::now();
        for _ in 0..tuned.hw_evals {
            let _ = std::hint::black_box(hw.measure(&tuned.config));
        }
        rerank_s += t.elapsed().as_secs_f64();
    }
    (
        per(apply_ns as f64 * 1e-3, applies),
        per(hash_ns as f64 * 1e-3, hashes),
        rerank_s,
    )
}
