//! The repository's benchmark: three user paths — TCP serving, model-guided
//! autotuning and streamed training — measured end to end, and layer by
//! layer in a separate traced run. See README.md for the workloads and
//! what each metric should move.
//!
//! ```text
//! perfbench run --workload serve-hot|serve-cold|autotune|train-stream
//!               --seed N --seconds S --trace 0|1 --serve-bin PATH --dir DIR
//!               [--commit TEXT] [--rustc TEXT]
//! ```
//!
//! Prints a facts line, then one JSON result line; exits nonzero when an
//! output check fails or the run cannot complete.

mod gen;
mod layers;
mod report;
mod serve;
mod setup;
mod train;
mod tune;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use tpu_dataset::{Corpus, CorpusScale};

use report::{median, Facts, Metrics, Outcome};

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [&str; 10] = [
    "setup_s",
    "latency_p50_us",
    "latency_p99_us",
    "throughput_rps",
    "ok_share",
    "peak_rss_mib",
    "tune_wall_s",
    "tuned_speedup",
    "train_examples_per_s",
    "train_val_mape",
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Share of a traced run's time budget given to its TCP phase; the rest
/// goes to the two in-process replays of what that phase sent.
const TRACE_TCP_SHARE: f64 = 0.3;

/// Wall time of a traced pass against the untraced pass of the same work,
/// and the part of the traced pass covered by timed top-level spans.
pub struct Overhead {
    pub plain_s: f64,
    pub traced_s: f64,
    pub spans_s: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    ServeCold,
    Autotune,
    TrainStream,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve-hot" => Workload::ServeHot,
            "serve-cold" => Workload::ServeCold,
            "autotune" => Workload::Autotune,
            "train-stream" => Workload::TrainStream,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeCold => "serve-cold",
            Workload::Autotune => "autotune",
            Workload::TrainStream => "train-stream",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    dir: PathBuf,
    commit: String,
    rustc: String,
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let need = |name: &str| flag(args, name).ok_or(format!("missing {name}"));
    let workload = need("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
        seed: need("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: need("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or("--seconds takes a positive number")?,
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        serve_bin: PathBuf::from(need("--serve-bin")?),
        dir: PathBuf::from(need("--dir")?),
        commit: flag(args, "--commit").unwrap_or("unknown").to_string(),
        rustc: flag(args, "--rustc").unwrap_or("unknown").to_string(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).and_then(|a| run(&a)),
        Some("work") => parse_args(&args[1..]).and_then(|a| work(&a)),
        _ => Err(
            "usage: perfbench run|work --workload W --seed N --seconds S --trace 0|1 \
                  --serve-bin PATH --dir DIR"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// One benchmark run; returns whether every output check passed.
fn run(a: &Args) -> Result<bool, String> {
    let setup_dir = setup::scratch_dir(&a.dir, "setup")?;
    let mut outcome = Outcome::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let s = setup::run(&setup_dir, a.seed)?;
        eprintln!("perfbench: set-up took {:.3} s", s.wall_s);
        outcome.attempted += 1;
        if setups
            .first()
            .is_some_and(|f: &setup::Setup| f.fingerprint() != s.fingerprint())
        {
            outcome.fail("setup_nondeterministic");
        }
        if !s.train_loss_finite {
            outcome.fail("loss_not_finite");
        }
        if s.check_speedup.is_nan() || s.check_speedup <= 1.0 {
            outcome.fail("untrained_model");
        }
        if !s.check_agrees {
            outcome.fail("nondeterministic_tune");
        }
        setups.push(s);
    }
    let first = &setups[0];
    let walls: Vec<f64> = setups.iter().map(|s| s.wall_s).collect();

    let mut facts = host_facts(a);
    facts.num("setup.reps", SETUP_REPS as f64);
    facts.num("setup.dataset_records", first.records as f64);
    facts.num("setup.pool_kernels", first.pool.len() as f64);
    facts.num("setup.val_mape", first.train_val_mape);
    facts.num("setup.check_speedup", first.check_speedup);

    let serves = matches!(a.workload, Workload::ServeHot | Workload::ServeCold);
    let ctx = if a.trace || serves {
        Some(serve::Ctx {
            serve_bin: &a.serve_bin,
            model_path: setup_dir.join(setup::MODEL_FILE),
            blob: &first.blob,
            pool: serve::Pool::new(&first.pool, &first.blob)?,
            seed: a.seed,
        })
    } else {
        None
    };

    let mut metrics = Metrics::default();
    if a.trace {
        let ctx = ctx.as_ref().ok_or("traced runs build the serve context")?;
        metrics.extend(traced(a, &setup_dir, ctx, &mut outcome)?);
    } else {
        metrics.set("setup_s", median(&walls), "s");
        // A workload reports the metrics of a path it does not run from the
        // set-up, which trains and tunes with the served model. Those are
        // pooled over every set-up: mean tune time, total examples over
        // total training time.
        let checks: Vec<f64> = setups.iter().flat_map(|s| s.check_tune_s.clone()).collect();
        let examples: usize = setups.iter().map(|s| s.train_examples).sum();
        let train_s: f64 = setups.iter().map(|s| s.train_s).sum();
        metrics.set(
            "tune_wall_s",
            checks.iter().sum::<f64>() / checks.len() as f64,
            "s",
        );
        metrics.set("tuned_speedup", first.check_speedup, "x");
        metrics.set("train_examples_per_s", examples as f64 / train_s, "1/s");
        metrics.set("train_val_mape", first.train_val_mape, "%");
        let (m, o, f) = match (a.workload, &ctx) {
            (Workload::ServeHot, Some(ctx)) => serve::measure(ctx, serve::Kind::Hot, a.seconds)?,
            (Workload::ServeCold, Some(ctx)) => serve::measure(ctx, serve::Kind::Cold, a.seconds)?,
            _ => child(a)?,
        };
        metrics.extend(m);
        outcome.merge(&o);
        facts.extend(f);
        metrics.set("ok_share", outcome.ok_share(), "share");
        for name in END_TO_END {
            metrics
                .get(name)
                .ok_or(format!("metric {name} was not measured"))?;
        }
    }
    let correct = outcome.failed() == 0;
    println!("{}", report::facts_line(&facts, &outcome));
    println!("{}", report::result_line(correct, &outcome, &metrics));
    Ok(correct)
}

/// The traced run: the workload's own traced path, plus a small probe of
/// each path it does not run, so every layer is measured in every run.
fn traced(
    a: &Args,
    setup_dir: &Path,
    ctx: &serve::Ctx,
    outcome: &mut Outcome,
) -> Result<Metrics, String> {
    let corpus = Corpus::build(CorpusScale::Full);
    let blob =
        std::fs::read(setup_dir.join(setup::MODEL_FILE)).map_err(|e| format!("read model: {e}"))?;
    let data_path = setup_dir.join(setup::DATASET_FILE);
    let mut probes = Metrics::default();
    let mut own = Metrics::default();
    let mut keep = |(m, o, ov): (Metrics, Outcome, Overhead), is_own: bool| {
        outcome.merge(&o);
        if is_own {
            own.extend(m);
            own.set(
                "trace_overhead_share",
                ov.traced_s / ov.plain_s - 1.0,
                "share",
            );
            own.set("unaccounted_share", 1.0 - ov.spans_s / ov.traced_s, "share");
        } else {
            probes.extend(m);
        }
    };
    let w = a.workload;
    let check_program = setup::check_program(&corpus)?;
    let tcp_s = a.seconds * TRACE_TCP_SHARE;
    if w == Workload::Autotune {
        let programs = setup::test_programs(&corpus);
        keep(
            tune::trace(
                &tune::workload_jobs(&programs),
                &blob,
                gen::tune_seed(a.seed),
            )?,
            true,
        );
    } else {
        keep(
            tune::trace(&[setup::check_job(&check_program)], &blob, 0)?,
            false,
        );
    }
    let data = setup::Dataset::open(&corpus, &data_path)?;
    keep(train::trace(&data, &data_path)?, w == Workload::TrainStream);
    match w {
        Workload::ServeHot => keep(serve::trace(ctx, serve::Kind::Hot, tcp_s)?, true),
        Workload::ServeCold => keep(serve::trace(ctx, serve::Kind::Cold, tcp_s)?, true),
        _ => keep(serve::probe(ctx)?, false),
    }
    probes.extend(own);
    Ok(probes)
}

/// Run the untraced autotune or train-stream measurement in a child
/// process, so `peak_rss_mib` is the memory of that work alone.
fn child(a: &Args) -> Result<(Metrics, Outcome, Facts), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let out = Command::new(exe)
        .arg("work")
        .args(["--workload", a.workload.name()])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", "0"])
        .arg("--serve-bin")
        .arg(&a.serve_bin)
        .arg("--dir")
        .arg(&a.dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn worker: {e}"))?;
    if !out.status.success() {
        return Err(format!("worker failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let (mut m, mut o, mut f) = (Metrics::default(), Outcome::default(), Facts::default());
    for line in text.lines() {
        let parts: Vec<&str> = line.split('\t').collect();
        match parts.as_slice() {
            ["m", name, value, unit] => m.set(name, value.parse().map_err(|_| "bad value")?, unit),
            ["f", key, json] => f.insert_raw(key.to_string(), json.to_string()),
            ["a", n] => o.attempted += n.parse::<u64>().map_err(|_| "bad count")?,
            ["x", code, n] => {
                for _ in 0..n.parse::<u64>().map_err(|_| "bad count")? {
                    o.fail(code);
                }
            }
            _ => return Err(format!("unexpected worker line {line:?}")),
        }
    }
    Ok((m, o, f))
}

/// The child side of [`child`]: measure, then report as tab-separated lines.
fn work(a: &Args) -> Result<bool, String> {
    let setup_dir = a.dir.join("setup");
    let corpus = Corpus::build(CorpusScale::Full);
    let (mut m, o, f) = match a.workload {
        Workload::Autotune => {
            let blob = std::fs::read(setup_dir.join(setup::MODEL_FILE))
                .map_err(|e| format!("read model: {e}"))?;
            let programs = setup::test_programs(&corpus);
            tune::measure(&programs, &blob, gen::tune_seed(a.seed), a.seconds)?
        }
        Workload::TrainStream => {
            let data = setup::Dataset::open(&corpus, &setup_dir.join(setup::DATASET_FILE))?;
            train::measure(&data, a.seconds)?
        }
        _ => return Err("only autotune and train-stream run in a worker".to_string()),
    };
    let rss = report::peak_rss_mib(None).ok_or("no peak RSS in /proc/self/status")?;
    m.set("peak_rss_mib", rss, "MiB");
    for (name, value, unit) in m.iter() {
        println!("m\t{name}\t{value}\t{unit}");
    }
    for (key, json) in f.iter() {
        println!("f\t{key}\t{json}");
    }
    println!("a\t{}", o.attempted);
    for (code, n) in &o.failures {
        println!("x\t{code}\t{n}");
    }
    Ok(true)
}

fn host_facts(a: &Args) -> Facts {
    let mut f = Facts::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(nproc);
    f.text("workload", a.workload.name());
    f.num("seed", a.seed as f64);
    f.num("seconds", a.seconds);
    f.num("trace", f64::from(u8::from(a.trace)));
    f.num("nproc", nproc as f64);
    f.num("threads", threads as f64);
    f.text("commit", &a.commit);
    f.text("rustc", &a.rustc);
    f
}
