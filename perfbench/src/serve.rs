//! The serve workloads: closed-loop clients against a `tpu-serve --tcp
//! --model frozen` daemon, and the traced in-process replay of the same
//! request lines through the serving layers' public functions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tpu_hlo::{canonical_kernel_hash, Kernel};
use tpu_infer::FrozenModel;
use tpu_learned_cost::{
    AtomicCache, BreakerConfig, CircuitBreaker, CostModel, FallbackChain, KernelCache, SimOracle,
};
use tpu_obs::Registry;
use tpu_serve::{protocol, Request, ServeConfig, ServeEngine, ServeOptions};
use tpu_sim::TpuConfig;

use crate::gen;
use crate::layers::{per, Meter, TimedCache, TimedModel};
use crate::report::{median, peak_rss_mib, percentile, Facts, Metrics, Outcome};
use crate::Overhead;

/// Closed-loop clients, one connection and one thread each.
pub const CLIENTS: usize = 2;

/// Kernels of the serve probe a traced run of another workload makes.
const PROBE_KERNELS: usize = 64;

/// Most request lines a traced run replays in-process; enough for stable
/// per-stage means, few enough that three replays stay short.
const REPLAY_LINES: usize = 20_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// The request lines of every pool kernel, with the id spliced in per
/// request, and the prediction each must be answered with.
pub struct Pool {
    prefix: Vec<String>,
    suffix: Vec<String>,
    pub expected: Vec<f64>,
}

/// An id no rendered kernel text contains, marking where a template's id goes.
const ID_MARK: u64 = 18_446_744_073_709_551_557;

impl Pool {
    /// Render every kernel once and score it with a frozen model loaded
    /// from the blob independently of any daemon.
    pub fn new(kernels: &[Kernel], blob: &[u8]) -> Result<Pool, String> {
        let model = FrozenModel::from_bytes(blob).map_err(|e| format!("load blob: {e}"))?;
        let mark = format!("\"id\":{ID_MARK}");
        let mut prefix = Vec::with_capacity(kernels.len());
        let mut suffix = Vec::with_capacity(kernels.len());
        let mut expected = Vec::with_capacity(kernels.len());
        for k in kernels {
            let line = protocol::predict_request_line(ID_MARK, k);
            let (a, b) = line
                .split_once(&mark)
                .ok_or("request line has no id field")?;
            prefix.push(format!("{a}\"id\":"));
            suffix.push(b.to_string());
            let ns = model
                .predict_kernel_ns(k)
                .filter(|x| x.is_finite())
                .ok_or("frozen model gave no finite prediction for a pool kernel")?;
            expected.push(ns);
        }
        Ok(Pool {
            prefix,
            suffix,
            expected,
        })
    }

    pub fn len(&self) -> usize {
        self.expected.len()
    }

    pub fn line(&self, kernel: usize, id: u64) -> String {
        format!("{}{id}{}", self.prefix[kernel], self.suffix[kernel])
    }

    pub fn mean_line_bytes(&self) -> f64 {
        let total: usize = (0..self.len()).map(|i| self.line(i, 0).len()).sum();
        per(total as f64, self.len() as u64)
    }
}

/// What a serve workload needs besides its seed.
pub struct Ctx<'a> {
    pub serve_bin: &'a Path,
    pub model_path: PathBuf,
    pub blob: &'a [u8],
    pub pool: Pool,
    pub seed: u64,
}

/// Check one reply against the request: the id echoes, and `ns` is
/// bit-equal to the independently loaded model's prediction.
fn check_reply(reply: &str, id: u64, expected: f64, outcome: &mut Outcome) -> bool {
    if reply.contains("\"ok\":true") {
        if reply.contains("\"degraded\":true") {
            outcome.fail("degraded");
            return false;
        }
        let id_ok = field(reply, "id").and_then(|v| v.parse::<u64>().ok()) == Some(id);
        let ns = field(reply, "ns").and_then(|v| v.parse::<f64>().ok());
        if id_ok && ns.map(f64::to_bits) == Some(expected.to_bits()) {
            return true;
        }
        outcome.fail("mismatch");
        return false;
    }
    match reply
        .split("\"code\":\"")
        .nth(1)
        .and_then(|r| r.split('"').next())
    {
        Some(code) => outcome.fail(code),
        None => outcome.fail("bad_reply"),
    }
    false
}

/// The raw text of a top-level scalar field of a one-line JSON object.
fn field<'r>(reply: &'r str, name: &str) -> Option<&'r str> {
    let rest = reply.split(&format!("\"{name}\":")).nth(1)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// A running daemon process.
pub struct Daemon {
    child: Child,
    pub addr: String,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    pub fn start(bin: &Path, model: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0", "--model", "frozen", "--bundle"])
            .arg(model)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {bin:?}: {e}"))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("daemon stderr")?);
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("tpu-serve: listening on ") {
                        break a.to_string();
                    }
                }
            }
        };
        let drain = std::thread::spawn(move || drain(stderr));
        Ok(Daemon {
            child,
            addr,
            stderr: Some(drain),
        })
    }

    pub fn peak_rss_mib(&self) -> Option<f64> {
        peak_rss_mib(Some(self.child.id()))
    }

    /// Ask the daemon to shut down and wait until it has exited.
    pub fn stop(mut self) -> Result<(), String> {
        let asked = Conn::open(&self.addr).and_then(|mut c| {
            c.call(&protocol::simple_request_line("shutdown", 0))
                .map(str::to_string)
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        if status.is_none() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        match (asked, status) {
            (Ok(_), Some(s)) if s.success() => Ok(()),
            (asked, status) => Err(format!("daemon shutdown: reply {asked:?}, exit {status:?}")),
        }
    }
}

fn drain(mut stderr: BufReader<ChildStderr>) {
    let mut line = String::new();
    while matches!(stderr.read_line(&mut line), Ok(n) if n > 0) {
        line.clear();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(&self.reply)
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
struct ClientRun {
    latencies_us: Vec<f64>,
    /// When each answered request completed, seconds since the phase began.
    done_s: Vec<f64>,
    outcome: Outcome,
    /// `(pool index, id)` of every request sent, in order.
    sent: Vec<(usize, u64)>,
}

/// Send `order` one request at a time until it ends or `deadline` passes.
fn client_loop(
    addr: &str,
    pool: &Pool,
    order: impl Iterator<Item = usize>,
    first_id: u64,
    (epoch, offset_s): (Instant, f64),
    deadline: Instant,
) -> ClientRun {
    let mut run = ClientRun::default();
    let mut conn = match Conn::open(addr) {
        Ok(c) => c,
        Err(_) => {
            run.outcome.attempted = 1;
            run.outcome.fail("io");
            return run;
        }
    };
    for (n, k) in order.enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let id = first_id + n as u64;
        let line = pool.line(k, id);
        run.outcome.attempted += 1;
        let started = Instant::now();
        let reply = conn.call(&line);
        let us = started.elapsed().as_secs_f64() * 1e6;
        run.sent.push((k, id));
        match reply {
            Ok(r) => {
                let r = r.to_string();
                if check_reply(&r, id, pool.expected[k], &mut run.outcome) {
                    run.latencies_us.push(us);
                    run.done_s.push(offset_s + epoch.elapsed().as_secs_f64());
                }
            }
            Err(_) => {
                run.outcome.fail("io");
                break;
            }
        }
    }
    run
}

/// Run one closed-loop client per order, concurrently; returns the runs
/// and the wall time from the first request to the last reply. Completion
/// times count from `offset_s`, the client time of earlier daemons.
fn clients(
    addr: &str,
    pool: &Pool,
    orders: Vec<Vec<usize>>,
    offset_s: f64,
    deadline: Instant,
) -> (Vec<ClientRun>, f64) {
    let started = Instant::now();
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = orders
            .into_iter()
            .enumerate()
            .map(|(c, order)| {
                s.spawn(move || {
                    let first_id = (c as u64) << 40;
                    client_loop(
                        addr,
                        pool,
                        order.into_iter(),
                        first_id,
                        (started, offset_s),
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| panic_run()))
            .collect::<Vec<_>>()
    });
    (runs, started.elapsed().as_secs_f64())
}

fn panic_run() -> ClientRun {
    let mut run = ClientRun::default();
    run.outcome.attempted = 1;
    run.outcome.fail("client_panic");
    run
}

/// The hot clients' request orders: enough draws to outlast any phase.
fn hot_orders(ctx: &Ctx, hot: &[usize], seconds: f64) -> Vec<Vec<usize>> {
    // 20k requests per second per client is several times the rate a
    // 2-core box reaches; the deadline ends the phase first.
    let n = (seconds * 20_000.0) as usize + 1_000;
    (0..CLIENTS)
        .map(|c| gen::hot_stream(hot, ctx.seed, c).take(n).collect())
        .collect()
}

/// Ask each kernel once over one connection, checking every reply.
fn warm(addr: &str, pool: &Pool, kernels: &[usize], outcome: &mut Outcome) -> Vec<f64> {
    let far = Instant::now() + Duration::from_secs(120);
    let run = client_loop(
        addr,
        pool,
        kernels.iter().copied(),
        1 << 50,
        (Instant::now(), 0.0),
        far,
    );
    outcome.merge(&run.outcome);
    run.latencies_us
}

/// Client-side results of one serve phase.
#[derive(Default)]
struct Phase {
    latencies_us: Vec<f64>,
    done_s: Vec<f64>,
    outcome: Outcome,
    wall_s: f64,
    ok: u64,
    rss_mib: f64,
    sent: Vec<Vec<(usize, u64)>>,
    daemons: u64,
}

impl Phase {
    fn absorb(&mut self, runs: Vec<ClientRun>, wall_s: f64) {
        for run in runs {
            self.ok += run.latencies_us.len() as u64;
            self.latencies_us.extend(run.latencies_us);
            self.done_s.extend(run.done_s);
            self.outcome.merge(&run.outcome);
            self.sent.push(run.sent);
        }
        self.wall_s += wall_s;
    }
}

/// The TCP phase: warm (hot) or fresh (cold) daemons under closed-loop
/// clients for `seconds`; `one_round` stops a cold phase after one daemon.
fn tcp_phase(ctx: &Ctx, kind: Kind, seconds: f64, one_round: bool) -> Result<Phase, String> {
    let mut phase = Phase::default();
    match kind {
        Kind::Hot => {
            let hot = gen::hot_set(ctx.pool.len(), ctx.seed);
            let orders = hot_orders(ctx, &hot, seconds);
            let daemon = Daemon::start(ctx.serve_bin, &ctx.model_path)?;
            warm(&daemon.addr, &ctx.pool, &hot, &mut phase.outcome);
            let deadline = Instant::now() + Duration::from_secs_f64(seconds);
            let (runs, wall) = clients(&daemon.addr, &ctx.pool, orders, 0.0, deadline);
            phase.absorb(runs, wall);
            phase.rss_mib = daemon.peak_rss_mib().unwrap_or(f64::NAN);
            phase.daemons = 1;
            daemon.stop()?;
        }
        Kind::Cold => {
            let mut round = 0;
            while phase.wall_s < seconds && (round == 0 || !one_round) {
                let order = gen::cold_order(ctx.pool.len(), ctx.seed, round);
                let orders: Vec<Vec<usize>> = (0..CLIENTS)
                    .map(|c| order.iter().skip(c).step_by(CLIENTS).copied().collect())
                    .collect();
                let daemon = Daemon::start(ctx.serve_bin, &ctx.model_path)?;
                let deadline = Instant::now() + Duration::from_secs_f64(seconds - phase.wall_s);
                let (runs, wall) = clients(&daemon.addr, &ctx.pool, orders, phase.wall_s, deadline);
                phase.absorb(runs, wall);
                phase.rss_mib = phase.rss_mib.max(daemon.peak_rss_mib().unwrap_or(f64::NAN));
                phase.daemons += 1;
                daemon.stop()?;
                round += 1;
            }
        }
    }
    Ok(phase)
}

/// Length of the windows the serve phase is cut into.
const WINDOW_S: f64 = 1.0;

/// Median across whole one-second windows of client time of each window's
/// p50 latency, p99 latency and answered-request rate, and the window
/// count. A burst of load from outside the benchmark moves a few windows,
/// not the medians.
fn windowed(phase: &Phase) -> (f64, f64, f64, usize) {
    let n = ((phase.wall_s / WINDOW_S).floor() as usize).max(1);
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); n];
    for (&t, &lat) in phase.done_s.iter().zip(&phase.latencies_us) {
        match windows.get_mut((t / WINDOW_S) as usize) {
            Some(w) => w.push(lat),
            // The tail after the last whole window; a phase shorter than
            // one window is all one window.
            None if n == 1 => windows[0].push(lat),
            None => {}
        }
    }
    let span = if n == 1 { phase.wall_s } else { WINDOW_S };
    let stat = |f: &dyn Fn(&Vec<f64>) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    (
        stat(&|w| percentile(w, 50.0)),
        stat(&|w| percentile(w, 99.0)),
        stat(&|w| w.len() as f64 / span),
        n,
    )
}

fn run_facts(phase: &Phase, pool: &Pool) -> Facts {
    let mut f = Facts::default();
    f.num("serve.windows", windowed(phase).3 as f64);
    f.num("serve.clients", CLIENTS as f64);
    f.num("serve.latency_samples", phase.latencies_us.len() as f64);
    f.num(
        "serve.achieved_rps",
        phase.ok as f64 / phase.wall_s.max(1e-9),
    );
    f.num("serve.daemons_started", phase.daemons as f64);
    f.num("serve.pool_kernels", pool.len() as f64);
    f.num("serve.mean_request_bytes", pool.mean_line_bytes());
    f.text(
        "serve.load",
        "closed loop, one request in flight per client",
    );
    f
}

/// The untraced serve workload: end-to-end metrics at the client.
pub fn measure(ctx: &Ctx, kind: Kind, seconds: f64) -> Result<(Metrics, Outcome, Facts), String> {
    let phase = tcp_phase(ctx, kind, seconds, false)?;
    let (p50, p99, rate, _) = windowed(&phase);
    let mut m = Metrics::default();
    m.set("latency_p50_us", p50, "us");
    m.set("latency_p99_us", p99, "us");
    m.set("throughput_rps", rate, "1/s");
    m.set("peak_rss_mib", phase.rss_mib, "MiB");
    let facts = run_facts(&phase, &ctx.pool);
    Ok((m, phase.outcome, facts))
}

/// The daemon's serving stack rebuilt in-process: the frozen model as the
/// primary of an oracle fallback chain with the default breaker, over a
/// fresh 2^16-slot atomic cache, default engine config.
fn engine(
    model: FrozenModel,
    timed: Option<(&Arc<Meter>, &Arc<TimedCache<AtomicCache>>)>,
) -> ServeEngine {
    let breaker = Arc::new(CircuitBreaker::new(BreakerConfig::default()));
    let oracle = SimOracle::new(TpuConfig::default());
    let (primary, cache): (Box<dyn CostModel + Send>, Arc<dyn KernelCache>) = match timed {
        Some((meter, cache)) => (
            Box::new(TimedModel {
                inner: model,
                meter: Arc::clone(meter),
            }),
            Arc::clone(cache) as Arc<dyn KernelCache>,
        ),
        None => (
            Box::new(model),
            Arc::new(AtomicCache::with_capacity(1 << 16)),
        ),
    };
    let chain = FallbackChain::new(primary, oracle).with_breaker(Arc::clone(&breaker));
    ServeEngine::start_with(
        Box::new(chain),
        cache,
        ServeConfig::default(),
        ServeOptions {
            breaker: Some(breaker),
            ..ServeOptions::default()
        },
        &Registry::noop(),
    )
}

/// Per-stage busy time summed over a replay, ns.
#[derive(Default, Clone, Copy)]
struct Stages {
    parse: u64,
    text: u64,
    hash: u64,
    submit: u64,
    render: u64,
}

/// One daemon lifetime's requests replayed in-process on one thread:
/// warm-up lines first (untimed), then the measured lines in order.
struct Replay<'a> {
    warm: Vec<String>,
    lines: Vec<(String, usize)>,
    pool: &'a Pool,
}

struct ReplayRun {
    wall_s: f64,
    replies: Vec<String>,
    stages: Stages,
    model: crate::layers::Tally,
    probes: crate::layers::Tally,
    inserts: crate::layers::Tally,
}

fn replay(r: &Replay, blob: &[u8], traced: bool) -> Result<ReplayRun, String> {
    let model = FrozenModel::from_bytes(blob).map_err(|e| format!("load blob: {e}"))?;
    let meter = Meter::new();
    let cache = Arc::new(TimedCache::new(AtomicCache::with_capacity(1 << 16)));
    let engine = engine(model, traced.then_some((&meter, &cache)));
    for line in &r.warm {
        serve_line(&engine, line);
    }
    let warm_probes = cache.probes.tally();
    let warm_inserts = cache.inserts.tally();
    let warm_model = meter.tally();
    let mut stages = Stages::default();
    let mut replies = Vec::with_capacity(r.lines.len());
    let started = Instant::now();
    for (line, _) in &r.lines {
        let reply = if traced {
            traced_line(&engine, line, &mut stages)
        } else {
            serve_line(&engine, line)
        };
        replies.push(reply);
    }
    let wall_s = started.elapsed().as_secs_f64();
    engine.shutdown();
    let since = |a: crate::layers::Tally, b: crate::layers::Tally| crate::layers::Tally {
        ns: a.ns - b.ns,
        calls: a.calls - b.calls,
        items: a.items - b.items,
    };
    Ok(ReplayRun {
        wall_s,
        replies,
        stages,
        model: since(meter.tally(), warm_model),
        probes: since(cache.probes.tally(), warm_probes),
        inserts: since(cache.inserts.tally(), warm_inserts),
    })
}

/// Answer one request line the way the daemon's connection loop does.
fn serve_line(engine: &ServeEngine, line: &str) -> String {
    match protocol::parse_request(line) {
        Ok(Request::Predict {
            id,
            spec,
            deadline_ms,
        }) => match spec.to_kernel() {
            Ok(kernel) => match engine.submit_with_deadline(kernel, deadline_ms) {
                Ok(p) => protocol::predict_reply(id, p.ns, p.degraded),
                Err(e) => protocol::error_reply(Some(id), e.code(), e.message()),
            },
            Err(msg) => protocol::error_reply(Some(id), "hlo", &msg),
        },
        Ok(other) => protocol::error_reply(Some(other.id()), "bad_request", "not a predict"),
        Err(err) => protocol::error_reply(err.id, err.code, &err.message),
    }
}

/// [`serve_line`] with every stage timed, plus the canonical hash the
/// engine computes inside `submit`, timed on its own.
fn traced_line(engine: &ServeEngine, line: &str, st: &mut Stages) -> String {
    let t0 = Instant::now();
    let req = protocol::parse_request(line);
    let t1 = Instant::now();
    st.parse += (t1 - t0).as_nanos() as u64;
    let (id, spec, deadline_ms) = match req {
        Ok(Request::Predict {
            id,
            spec,
            deadline_ms,
        }) => (id, spec, deadline_ms),
        Ok(other) => {
            return protocol::error_reply(Some(other.id()), "bad_request", "not a predict")
        }
        Err(err) => return protocol::error_reply(err.id, err.code, &err.message),
    };
    let t1 = Instant::now();
    let kernel = spec.to_kernel();
    let t2 = Instant::now();
    st.text += (t2 - t1).as_nanos() as u64;
    let kernel = match kernel {
        Ok(k) => k,
        Err(msg) => return protocol::error_reply(Some(id), "hlo", &msg),
    };
    let t2 = Instant::now();
    std::hint::black_box(canonical_kernel_hash(&kernel));
    let t3 = Instant::now();
    st.hash += (t3 - t2).as_nanos() as u64;
    let t3 = Instant::now();
    let result = engine.submit_with_deadline(kernel, deadline_ms);
    let t4 = Instant::now();
    st.submit += (t4 - t3).as_nanos() as u64;
    let t4 = Instant::now();
    let reply = match result {
        Ok(p) => protocol::predict_reply(id, p.ns, p.degraded),
        Err(e) => protocol::error_reply(Some(id), e.code(), e.message()),
    };
    st.render += t4.elapsed().as_nanos() as u64;
    reply
}

/// The recorded TCP requests as one in-process replay, clients interleaved,
/// up to [`REPLAY_LINES`].
fn replay_of<'p>(pool: &'p Pool, warm_set: &[usize], sent: &[Vec<(usize, u64)>]) -> Replay<'p> {
    let mut lines = Vec::new();
    let longest = sent.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for client in sent {
            if let Some(&(k, id)) = client.get(i) {
                lines.push((pool.line(k, id), k));
            }
        }
    }
    lines.truncate(REPLAY_LINES);
    Replay {
        warm: warm_set.iter().map(|&k| pool.line(k, 1 << 50)).collect(),
        lines,
        pool,
    }
}

/// The traced serve path: a TCP phase recording its request lines, then
/// untraced and traced in-process replays of them.
pub fn trace(ctx: &Ctx, kind: Kind, seconds: f64) -> Result<(Metrics, Outcome, Overhead), String> {
    let phase = tcp_phase(ctx, kind, seconds, true)?;
    let warm_set = match kind {
        Kind::Hot => gen::hot_set(ctx.pool.len(), ctx.seed),
        Kind::Cold => Vec::new(),
    };
    trace_replay(ctx, phase, &warm_set)
}

/// The serve probe of a traced run whose workload does not serve: the
/// hot set asked once each of a fresh daemon by one client, then replayed.
pub fn probe(ctx: &Ctx) -> Result<(Metrics, Outcome, Overhead), String> {
    let kernels: Vec<usize> = gen::hot_set(ctx.pool.len(), ctx.seed)
        .into_iter()
        .take(PROBE_KERNELS)
        .collect();
    let daemon = Daemon::start(ctx.serve_bin, &ctx.model_path)?;
    let started = Instant::now();
    let far = started + Duration::from_secs(120);
    let run = client_loop(
        &daemon.addr,
        &ctx.pool,
        kernels.into_iter(),
        0,
        (started, 0.0),
        far,
    );
    let wall = started.elapsed().as_secs_f64();
    daemon.stop()?;
    let mut phase = Phase::default();
    phase.absorb(vec![run], wall);
    trace_replay(ctx, phase, &[])
}

fn trace_replay(
    ctx: &Ctx,
    phase: Phase,
    warm_set: &[usize],
) -> Result<(Metrics, Outcome, Overhead), String> {
    let mut outcome = phase.outcome.clone();
    let r = replay_of(&ctx.pool, warm_set, &phase.sent);
    // Untraced passes on both sides of the traced one, so drift between
    // passes does not read as tracing overhead.
    let plain = replay(&r, ctx.blob, false)?;
    let traced = replay(&r, ctx.blob, true)?;
    let again = replay(&r, ctx.blob, false)?;
    // The replays must answer exactly what the daemon answered: the same
    // checked prediction for every line, traced or not.
    for (i, (line, k)) in r.lines.iter().enumerate() {
        let (a, b, c) = (&plain.replies[i], &traced.replies[i], &again.replies[i]);
        outcome.attempted += 1;
        let id = field(line, "id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(u64::MAX);
        if a != b || a != c {
            outcome.fail("trace_changed_output");
        } else {
            check_reply(a, id, r.pool.expected[*k], &mut outcome);
        }
    }
    let n = r.lines.len() as u64;
    let st = traced.stages;
    let us = |ns: u64| per(ns as f64 * 1e-3, n);
    let inside = traced.probes.ns + traced.inserts.ns + traced.model.ns;
    let stage_sum = st.parse + st.text + st.hash + st.submit + st.render;
    let mut m = Metrics::default();
    m.set("serve.protocol.parse_us", us(st.parse), "us");
    m.set("hlo.text.parse_us", us(st.text), "us");
    m.set("hlo.hash_us", us(st.hash), "us");
    m.set("serve.engine.submit_us", us(st.submit), "us");
    m.set(
        "serve.engine.self_us",
        us(st.submit.saturating_sub(inside)),
        "us",
    );
    m.set("serve.protocol.render_us", us(st.render), "us");
    m.set(
        "serve.engine.batch_kernels",
        per(traced.model.items as f64, traced.model.calls),
        "kernels",
    );
    m.set(
        "serve.wire_us",
        mean(&phase.latencies_us) - us(stage_sum),
        "us",
    );
    m.set("serve.requests", n as f64, "count");
    cache_and_model(&mut m, &traced.probes, &traced.model);
    let overhead = Overhead {
        plain_s: (plain.wall_s + again.wall_s) / 2.0,
        traced_s: traced.wall_s,
        spans_s: stage_sum as f64 * 1e-9,
    };
    Ok((m, outcome, overhead))
}

/// The cache and model layers' metrics, shared by serving and tuning.
/// The model's metrics are left out when it never ran (every probe hit),
/// so a traced run keeps the ones its probes measured.
pub fn cache_and_model(
    m: &mut Metrics,
    probes: &crate::layers::Tally,
    model: &crate::layers::Tally,
) {
    m.set(
        "core.cache.probe_ns",
        per(probes.ns as f64, probes.calls),
        "ns",
    );
    m.set("core.cache.probes", probes.calls as f64, "count");
    m.set(
        "core.cache.hit_ratio",
        per(probes.items as f64, probes.calls),
        "share",
    );
    if model.items > 0 {
        m.set("infer.forward_us_per_kernel", model.us_per_item(), "us");
        m.set("infer.kernels", model.items as f64, "count");
    }
}

fn mean(v: &[f64]) -> f64 {
    per(v.iter().sum(), v.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_learned_cost::{GnnConfig, GnnModel};

    #[test]
    fn reply_check_is_bit_exact_and_counts_codes() {
        let mut o = Outcome::default();
        let x = 1234.5678_f64;
        let next = f64::from_bits(x.to_bits() + 1);
        assert!(check_reply(
            &protocol::predict_reply(7, Some(x), false),
            7,
            x,
            &mut o
        ));
        assert!(!check_reply(
            &protocol::predict_reply(7, Some(next), false),
            7,
            x,
            &mut o
        ));
        assert!(!check_reply(
            &protocol::predict_reply(8, Some(x), false),
            7,
            x,
            &mut o
        ));
        assert!(!check_reply(
            &protocol::predict_reply(7, None, false),
            7,
            x,
            &mut o
        ));
        assert!(!check_reply(
            &protocol::predict_reply(7, Some(x), true),
            7,
            x,
            &mut o
        ));
        let busy = protocol::error_reply(Some(7), "overloaded", "busy");
        assert!(!check_reply(&busy, 7, x, &mut o));
        let counts: Vec<(&str, u64)> = o.failures.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(
            counts,
            [("degraded", 1), ("mismatch", 3), ("overloaded", 1)]
        );
    }

    #[test]
    fn request_templates_render_like_the_protocol() {
        let kernels = tpu_infer::calibration_kernels(6);
        let gnn = GnnModel::new(GnnConfig::default());
        let blob = FrozenModel::Gnn(tpu_infer::freeze_gnn(&gnn, &[]).unwrap()).to_bytes();
        let pool = Pool::new(&kernels, &blob).unwrap();
        for (i, k) in kernels.iter().enumerate() {
            assert_eq!(pool.line(i, 42), protocol::predict_request_line(42, k));
        }
    }
}
