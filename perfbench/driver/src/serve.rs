//! The `serve-mixed` workload: a closed loop of [`CLIENTS`] keep-alive
//! sessions against a daemon this process starts — `ServerCore` plus
//! `serve_tcp` on loopback, the code `epre serve --port` runs — with an
//! on-disk, byte-capped journal cache.
//!
//! Each request is one suite routine at `distribution`, drawn from a
//! seeded stream. One request in [`COLD_ONE_IN`] is cold: the routine
//! with its functions renamed by a seeded tag, so every cache key
//! misses and the governed pipeline, the oracle and a cache write run.
//! The rest are warm: a resubmit of the primed 50-routine pool, served
//! from the cache. The daemon only ever receives generated request
//! text.
//!
//! The traced run replays the same streams in process, each request
//! once through `ServerCore::handle` as a whole and once through the
//! public functions `handle` composes, each call timed from outside, and
//! fails unless the stages add up to the whole `handle` time.

use std::hint::black_box;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epre::{OptLevel, Optimizer, RequestBudget};
use epre_harness::{
    fingerprint64, header_line, run_module_governed, FaultPolicy, Harness, SandboxReport,
    SplitMix64,
};
use epre_interp::Value;
use epre_ir::{parse_function, parse_module, Function, Module};
use epre_lint::LintOptions;
use epre_serve::client::{self, ClientConfig, Session};
use epre_serve::{
    policy_from_label, serve_tcp, DoneFrame, FlightRecorder, FunctionFrame, OptimizeRequest,
    Request, RequestSummary, Response, ResultCache, ServeConfig, ServeMetrics, ServerCore,
};

use crate::corpus::{check_table1, compile_suite, execute, renamed};
use crate::stats::{
    describe, mean, median, process_cpu_ms, samples_needed, windowed_percentile, windowed_rate,
    Sample, StealLog,
};
use crate::{Report, CLASSES};

/// Concurrent client sessions: one per CPU of the two-CPU host the
/// workload was sized for.
pub const CLIENTS: usize = 2;
/// One request in this many is cold.
pub const COLD_ONE_IN: usize = 4;
/// Cache cap: the primed pool fits many times over, the cold stream
/// does not, so the run evicts and compacts.
const CACHE_CAP_BYTES: u64 = 4 << 20;
const LEVEL: OptLevel = OptLevel::Distribution;
const POLICY: &str = "best-effort";
/// Setups timed in an untraced run, half before the measurement and half
/// after it; `setup_s` is their median.
const SETUP_REPS: usize = 8;
/// Largest share of the mean whole-`handle` time that the timed stages
/// may miss, either way, before the traced run fails its reconciliation.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

/// Per-layer metrics of this workload, each reported once per class.
pub const LAYER_METRICS: [(&str, &str); 16] = [
    ("serve.handle_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("ir.print_ms", "ms"),
    ("serve.respond_ms", "ms"),
    ("serve.cache_probe_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("harness.governed_ms", "ms"),
    ("harness.oracle_ms", "ms"),
    ("harness.oracle_inconclusive", "count"),
    ("serve.cache_write_ms", "ms"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_compactions", "count"),
    ("serve.unattributed_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.reconnects", "count"),
    ("serve.degraded", "count"),
];

/// One drawn request: a pool routine, and for a cold request the tag
/// that renames it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Index into the pool.
    pub routine: usize,
    /// `Some(tag)` for a cold request.
    pub cold: Option<u64>,
}

/// The seeded request stream of one client. The stream is stratified
/// so that seeds differ in order, not in mix: every block of
/// [`COLD_ONE_IN`] requests holds exactly one cold request, at a seeded
/// position, and cold and warm requests each walk seeded shuffles of
/// the whole pool, so every routine is drawn equally often in both
/// classes.
pub struct Stream {
    rng: SplitMix64,
    routines: usize,
    drawn: usize,
    cold_at: usize,
    decks: [Vec<usize>; 2],
}

impl Stream {
    /// Client `client`'s stream under `seed`, over `routines` routines.
    pub fn new(seed: u64, client: usize, routines: usize) -> Stream {
        let mix = (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let rng = SplitMix64::new(seed ^ mix);
        Stream { rng, routines, drawn: 0, cold_at: 0, decks: [Vec::new(), Vec::new()] }
    }

    /// The next request.
    pub fn draw(&mut self) -> Draw {
        if self.drawn.is_multiple_of(COLD_ONE_IN) {
            self.cold_at = self.rng.below(COLD_ONE_IN);
        }
        let cold = self.drawn % COLD_ONE_IN == self.cold_at;
        self.drawn += 1;
        let deck = &mut self.decks[usize::from(!cold)];
        if deck.is_empty() {
            deck.extend(0..self.routines);
            for i in (1..deck.len()).rev() {
                deck.swap(i, self.rng.below(i + 1));
            }
        }
        let routine = deck.pop().expect("a refilled deck is not empty");
        Draw { routine, cold: cold.then(|| self.rng.next_u64()) }
    }
}

/// The clients' streams merged round-robin: the in-process replay order.
fn interleaved(seed: u64, routines: usize) -> impl Iterator<Item = Draw> {
    let mut streams: Vec<Stream> = (0..CLIENTS).map(|c| Stream::new(seed, c, routines)).collect();
    (0..).map(move |i| streams[i % CLIENTS].draw())
}

fn cold_suffix(tag: u64) -> impl Fn(&str) -> String {
    move |name| format!("{name}_c{tag:016x}")
}

/// One routine of the warm pool with its expected answer.
struct PoolEntry {
    name: String,
    entry: String,
    module: Module,
    request: OptimizeRequest,
    /// The in-process `Harness` answer, and its text's fingerprint.
    expected: Module,
    expected_fp: u64,
    reference: Option<Value>,
}

impl PoolEntry {
    fn text_for(&self, draw: Draw) -> String {
        match draw.cold {
            Some(tag) => format!("{}", renamed(&self.module, &cold_suffix(tag))),
            None => self.request.module_text.clone(),
        }
    }

    fn request_for(&self, draw: Draw, client: &str) -> OptimizeRequest {
        match draw.cold {
            Some(_) => request(self.text_for(draw), client),
            None => self.request.clone(),
        }
    }

    /// Fingerprint of the answer the daemon must give to `draw`.
    fn expected_fp(&self, draw: Draw) -> u64 {
        match draw.cold {
            Some(tag) => fingerprint64(&format!("{}", renamed(&self.expected, &cold_suffix(tag)))),
            None => self.expected_fp,
        }
    }
}

fn request(module_text: String, client: &str) -> OptimizeRequest {
    OptimizeRequest {
        client: client.to_string(),
        level: LEVEL.label().to_string(),
        policy: POLICY.to_string(),
        deadline_ms: None,
        idempotency: String::new(),
        request: String::new(),
        module_text,
    }
}

fn policy() -> FaultPolicy {
    policy_from_label(POLICY).expect("the benchmark's policy is servable")
}

/// Two workers more than there are clients: a session pins its worker,
/// and neither a client reconnecting after a `goaway` nor the priming
/// and shutdown connections may queue behind the clients' sessions.
fn config() -> ServeConfig {
    ServeConfig { workers: CLIENTS + 2, ..ServeConfig::default() }
}

/// Compile the suite and compute every routine's expected answer with
/// the same hardened pipeline the daemon runs, in process.
fn build_pool() -> Result<(Vec<PoolEntry>, f64), String> {
    let (routines, compile_ms) = compile_suite()?;
    let harness = Harness::new(LEVEL, policy());
    let mut pool = Vec::new();
    for r in routines {
        let out =
            harness.optimize(&r.module).map_err(|e| format!("{}: ground truth: {e:?}", r.name))?;
        if !out.is_clean() {
            return Err(format!("{}: the in-process harness answer is degraded", r.name));
        }
        let (reference, _) = execute(&r.module, &r.entry)?;
        let request = request(format!("{}", r.module), "perfbench-prime");
        pool.push(PoolEntry {
            expected_fp: fingerprint64(&format!("{}", out.module)),
            expected: out.module,
            request,
            reference,
            name: r.name,
            entry: r.entry,
            module: r.module,
        });
    }
    Ok((pool, compile_ms))
}

/// A fresh, empty run directory for one cache.
fn fresh_dir(name: &str) -> Result<PathBuf, String> {
    let dir = Path::new(".bench_run").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Remove a run directory, and the parent too once no run uses it.
fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    Ok(())
}

fn open_cache(dir: &Path) -> Result<ResultCache, String> {
    ResultCache::open_capped(&dir.join("cache.journal"), Some(CACHE_CAP_BYTES))
        .map_err(|e| format!("cache in {}: {e}", dir.display()))
}

/// The daemon under test, serving on an ephemeral loopback port.
struct Daemon {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let dir = fresh_dir("daemon")?;
        let core = Arc::new(ServerCore::new(config(), open_cache(&dir)?));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?.to_string();
        let thread = std::thread::spawn(move || serve_tcp(core, listener));
        Ok(Daemon { addr, thread, dir })
    }

    fn client_config(&self, seed: u64) -> ClientConfig {
        ClientConfig {
            addr: self.addr.clone(),
            attempts: 5,
            base_backoff: Duration::from_millis(10),
            seed,
            read_timeout: Duration::from_secs(30),
        }
    }

    /// Submit every pool routine once; each answer must be the expected one.
    fn prime(&self, pool: &[PoolEntry]) -> Result<(), String> {
        let mut session = Session::new(self.client_config(0));
        for p in pool {
            let out = session.submit(&p.request).map_err(|e| format!("priming {}: {e}", p.name))?;
            if out.done.status != "clean" || fingerprint64(&out.done.module_text) != p.expected_fp {
                return Err(format!(
                    "priming {}: the daemon's answer differs from the harness",
                    p.name
                ));
            }
        }
        Ok(())
    }

    /// Graceful shutdown: the daemon drains, flushes and returns.
    fn stop(self) -> Result<(), String> {
        client::shutdown(&self.client_config(0)).map_err(|e| format!("shutdown: {e}"))?;
        let served = self.thread.join().map_err(|_| "daemon thread panicked".to_string())?;
        served.map_err(|e| format!("daemon: {e}"))?;
        remove_dir(&self.dir)
    }
}

/// An answer: its text's fingerprint and whether its status was
/// `clean`; `None` when the request got no answer.
type Answer = Option<(u64, bool)>;

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    /// Per class: completion times and latencies.
    latency: [Vec<Sample>; 2],
    /// Per class: session reconnects during its requests.
    reconnects: [u64; 2],
    /// Every request and its answer.
    answers: Vec<(Draw, Answer)>,
}

fn class_of(draw: Draw) -> usize {
    usize::from(draw.cold.is_none())
}

fn client_loop(
    daemon: &Daemon,
    pool: &[PoolEntry],
    seed: u64,
    idx: usize,
    start: Instant,
    until: Instant,
) -> ClientLog {
    let mut session = Session::new(daemon.client_config(seed ^ idx as u64));
    let mut stream = Stream::new(seed, idx, pool.len());
    let name = format!("perfbench-{idx}");
    let mut log = ClientLog::default();
    while Instant::now() < until {
        let draw = stream.draw();
        let req = pool[draw.routine].request_for(draw, &name);
        let before = session.reconnects();
        let t0 = Instant::now();
        let outcome = session.submit(&req);
        let lat = t0.elapsed().as_secs_f64() * 1e3;
        let class = class_of(draw);
        log.reconnects[class] += session.reconnects() - before;
        let answer = match outcome {
            Ok(out) => {
                log.latency[class].push((start.elapsed().as_secs_f64(), lat));
                Some((fingerprint64(&out.done.module_text), out.done.status == "clean"))
            }
            Err(e) => {
                eprintln!("perfbench: client {idx}: {e}");
                None
            }
        };
        log.answers.push((draw, answer));
    }
    log
}

/// Check every answer against the in-process `Harness` answer for the
/// same request text, status included. Returns per class how many
/// answers were correct but degraded.
///
/// The renamed expected answer is only a shortcut: the oracle draws its
/// argument vectors per function name, so a renamed routine meets
/// inputs the original never did, and on some of them the oracle rolls
/// a function back. Any answer that misses the shortcut is therefore
/// held to the harness run on its exact text.
fn check_answers(
    pool: &[PoolEntry],
    answers: &[(Draw, Answer)],
    report: &mut Report,
) -> Result<[u64; 2], String> {
    let harness = Harness::new(LEVEL, policy());
    let mut degraded = [0; 2];
    for &(draw, answer) in answers {
        let p = &pool[draw.routine];
        let ok = match answer {
            None => false,
            Some((fp, true)) if fp == p.expected_fp(draw) => true,
            Some((fp, clean)) => {
                let module =
                    parse_module(&p.text_for(draw)).map_err(|e| format!("{}: {e}", p.name))?;
                let out = harness.optimize(&module).map_err(|e| format!("{}: {e:?}", p.name))?;
                let same =
                    fingerprint64(&format!("{}", out.module)) == fp && out.is_clean() == clean;
                degraded[class_of(draw)] += u64::from(same && !clean);
                same
            }
        };
        report.check(ok, || {
            format!(
                "{} ({}): answer differs from the in-process harness",
                p.name,
                CLASSES[class_of(draw)]
            )
        });
    }
    if degraded != [0, 0] {
        report.note(format!(
            "degraded answers, byte-equal to the in-process harness: cold {}, warm {}",
            degraded[0], degraded[1]
        ));
    }
    Ok(degraded)
}

/// The closed loop: [`CLIENTS`] sessions for `seconds`. Returns the
/// merged client logs, the measured wall time, s, and the host's steal
/// over it.
fn closed_loop(
    daemon: &Daemon,
    pool: &[PoolEntry],
    seed: u64,
    seconds: f64,
) -> (ClientLog, f64, StealLog) {
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(seconds);
    let (logs, steal) = StealLog::record(t0, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|i| s.spawn(move || client_loop(daemon, pool, seed, i, t0, until)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Vec<_>>()
        })
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all = ClientLog::default();
    for log in logs {
        for c in 0..2 {
            all.latency[c].extend(&log.latency[c]);
            all.reconnects[c] += log.reconnects[c];
        }
        all.answers.extend(log.answers);
    }
    for class in &mut all.latency {
        class.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    (all, elapsed, steal)
}

/// Σ dynamic ops and static instructions of the pool's expected
/// answers, each checked to compute what its unoptimized routine does.
fn answer_counts(pool: &[PoolEntry], report: &mut Report) -> Result<(u64, u64, f64), String> {
    let t0 = Instant::now();
    let (mut ops, mut insts) = (0, 0);
    for p in pool {
        let (got, n) = execute(&p.expected, &p.entry)?;
        report.check(epre::stats::results_agree(p.reference, got), || {
            format!("{}: served result {got:?} differs from unoptimized {:?}", p.name, p.reference)
        });
        ops += n;
        insts += p.expected.static_op_count() as u64;
    }
    Ok((ops, insts, t0.elapsed().as_secs_f64() * 1e3))
}

/// One setup — compile the suite, compute the expected answers, start
/// the daemon and prime its cache — timed as this process's CPU time,
/// which leaves out stolen time and waits on the disk.
fn timed_setup(
    setup_ms: &mut Vec<f64>,
    compile_ms: &mut Vec<f64>,
) -> Result<(Daemon, Vec<PoolEntry>), String> {
    let cpu0 = process_cpu_ms();
    let (pool, ms) = build_pool()?;
    let daemon = Daemon::start()?;
    daemon.prime(&pool)?;
    setup_ms.push(process_cpu_ms() - cpu0);
    compile_ms.push(ms);
    Ok((daemon, pool))
}

/// Run the serve workload and fill `report`.
pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Result<(), String> {
    let mut setup_ms = Vec::new();
    let mut compile_ms = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS / 2 {
        if let Some((daemon, _)) = live.take() {
            Daemon::stop(daemon)?;
        }
        live = Some(timed_setup(&mut setup_ms, &mut compile_ms)?);
    }
    let (daemon, pool) = live.expect("at least one setup");
    let (dyn_ops, static_insts, interp_ms) = answer_counts(&pool, report)?;
    check_table1(dyn_ops, LEVEL.label(), report)?;
    report.note(format!("serve-mixed: {CLIENTS} clients, 1 in {COLD_ONE_IN} cold, seed {seed}"));

    // The warm-up draws from another seed's stream, so its cold tags
    // cannot turn the measured stream's cold requests into cache hits.
    let (warm_up, _, _) = closed_loop(&daemon, &pool, !seed, seconds * crate::WARMUP_SHARE);
    check_answers(&pool, &warm_up.answers, report)?;
    let share = if trace { 0.4 } else { 1.0 };
    let (log, elapsed, steal) = closed_loop(&daemon, &pool, seed, share * seconds);
    daemon.stop()?;
    let degraded = check_answers(&pool, &log.answers, report)?;
    report.note(describe("full (cold)", &log.latency[0]));
    report.note(describe("fast (warm)", &log.latency[1]));
    report
        .note(format!("host steal: {:.1}% of wanted CPU time", 100.0 * steal.share(0.0, elapsed)));

    if trace {
        return traced(
            &pool,
            seed,
            seconds,
            &log,
            degraded,
            report,
            median(&compile_ms),
            interp_ms,
            dyn_ops,
        );
    }
    let pct = |c: usize, p: f64| {
        let samples = &log.latency[c];
        windowed_percentile(samples, p, &steal).ok_or_else(|| {
            format!("{} {} samples: p{p} needs {}", CLASSES[c], samples.len(), samples_needed(p))
        })
    };
    // The second half of the setups, so that `setup_s` sees the host
    // over the whole run.
    while setup_ms.len() < SETUP_REPS {
        timed_setup(&mut setup_ms, &mut compile_ms)?.0.stop()?;
    }
    report.note(format!("setup: {} runs, process CPU time", setup_ms.len()));
    report.metric("setup_s", median(&setup_ms) / 1e3, "s");
    report.metric("full_ms_p50", pct(0, 50.0)?, "ms");
    report.metric("fast_ms_p50", pct(1, 50.0)?, "ms");
    let ends: Vec<f64> = log.latency.iter().flatten().map(|&(end, _)| end).collect();
    report.metric("rps", windowed_rate(&ends, elapsed, &steal), "1/s");
    report.metric("dyn_ops", dyn_ops as f64, "count");
    report.metric("static_insts", static_insts as f64, "count");
    Ok(())
}

/// Per-class stage totals of the traced in-process replay.
#[derive(Default)]
struct Stages {
    requests: u64,
    total: f64,
    parse: f64,
    probe: f64,
    governed: f64,
    oracle: f64,
    write: f64,
    print: f64,
    respond: f64,
    hits: u64,
    probes: u64,
    inconclusive: u64,
    evictions: u64,
    compactions: u64,
}

impl Stages {
    fn parts(&self) -> f64 {
        self.parse
            + self.probe
            + self.governed
            + self.oracle
            + self.write
            + self.print
            + self.respond
    }
}

/// What `ServerCore` keeps beside its cache for each request: the
/// per-pass and latency metrics and the flight recorder.
struct Composed {
    cache: ResultCache,
    metrics: ServeMetrics,
    recorder: FlightRecorder,
}

impl Composed {
    fn open(dir: &Path) -> Result<Composed, String> {
        let cfg = config();
        Ok(Composed {
            cache: open_cache(dir)?,
            metrics: ServeMetrics::new(cfg.workers),
            recorder: FlightRecorder::new(cfg.recorder_capacity),
        })
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// `ServerCore::handle`'s optimize path, composed from the public
/// functions it calls and timed per call. Returns the answer text and
/// whether it is clean. `respond` is the request's bookkeeping: its
/// ids, the recorder entry, the latency observation and the frames.
fn staged(env: &Composed, req: &OptimizeRequest, s: &mut Stages) -> Result<(String, bool), String> {
    let cfg = config();
    let policy = policy();
    let t_all = Instant::now();

    let t = Instant::now();
    let rid = req.request_id();
    let token = env.recorder.begin(&rid, &req.client);
    s.respond += ms_since(t);

    let t = Instant::now();
    let module = parse_module(&req.module_text).map_err(|e| format!("parse: {e}"))?;
    s.parse += ms_since(t);

    let rb = RequestBudget::admit(cfg.caps, None);
    let config_line = header_line(LEVEL.label(), policy.label(), &rb.keyed_budget());

    let t = Instant::now();
    let mut slots: Vec<Option<Function>> = vec![None; module.functions.len()];
    let mut misses = Vec::new();
    for (i, f) in module.functions.iter().enumerate() {
        let key = ResultCache::key(&config_line, &format!("{f}"));
        let replayed = env.cache.lookup(&key).and_then(|body| {
            let parsed = parse_function(&body).ok()?;
            (parsed.name == f.name).then_some(parsed)
        });
        match replayed {
            Some(parsed) => slots[i] = Some(parsed),
            None => misses.push(i),
        }
    }
    s.probe += ms_since(t);
    s.probes += module.functions.len() as u64;
    s.hits += (module.functions.len() - misses.len()) as u64;

    let t = Instant::now();
    let live = rb.live_budget().ok_or("no live budget")?;
    let mut report = SandboxReport::default();
    if !misses.is_empty() {
        let mut sub = module.clone();
        sub.functions = misses.iter().map(|&i| module.functions[i].clone()).collect();
        let (optimized, rep) = run_module_governed(
            &sub,
            &|| env.metrics.instrument(Optimizer::new(LEVEL).passes()),
            policy,
            &LintOptions::invariants_only(),
            &live,
            cfg.breaker_threshold,
            cfg.request_jobs,
        )
        .map_err(|e| format!("governed run: {e}"))?;
        for (&i, f) in misses.iter().zip(optimized.functions) {
            slots[i] = Some(f);
        }
        report = rep;
    }
    s.governed += ms_since(t);

    let t = Instant::now();
    let mut candidate = module.clone();
    candidate.functions = slots.into_iter().map(|f| f.expect("every slot filled")).collect();
    // (answer, functions to cache, faults, rolled-back names, quarantined, inconclusive, clean)
    let (answer, clean_fns, faults, rolled_back, quarantined, inconclusive, clean) =
        if misses.is_empty() {
            (candidate, Vec::new(), Vec::new(), Vec::new(), 0, 0, true)
        } else {
            let harness = Harness {
                level: LEVEL,
                policy,
                oracle: cfg.oracle,
                budget: live,
                breaker_threshold: cfg.breaker_threshold,
                function_deadline: None,
            };
            let out = harness.finish_with_oracle(&module, candidate, report);
            let rolled_back: Vec<String> =
                out.rolled_back_functions().into_iter().map(str::to_string).collect();
            let fully_ran = out.quarantined.is_empty() && out.skipped == 0;
            let faults: Vec<String> = out.faults.iter().map(|ft| ft.function.clone()).collect();
            let clean_fns: Vec<usize> = misses
                .iter()
                .copied()
                .filter(|&i| {
                    let name = &module.functions[i].name;
                    fully_ran && !rolled_back.contains(name) && !faults.contains(name)
                })
                .collect();
            let clean = out.is_clean();
            let (quarantined, inconclusive) = (out.quarantined.len(), out.inconclusive);
            (out.module, clean_fns, faults, rolled_back, quarantined, inconclusive, clean)
        };
    s.oracle += ms_since(t);
    s.inconclusive += inconclusive as u64;

    let t = Instant::now();
    let (ev, cp) = (env.cache.evictions(), env.cache.compactions());
    for &i in &clean_fns {
        let key = ResultCache::key(&config_line, &format!("{}", module.functions[i]));
        env.cache
            .insert(&key, &format!("{}", answer.functions[i]))
            .map_err(|e| format!("cache insert: {e}"))?;
    }
    s.write += ms_since(t);
    s.evictions += env.cache.evictions() - ev;
    s.compactions += env.cache.compactions() - cp;

    let t = Instant::now();
    let module_text = format!("{answer}");
    s.print += ms_since(t);

    let t = Instant::now();
    black_box(fingerprint64(&req.module_text)); // the quarantine's evidence key
    let frames: Vec<FunctionFrame> = module
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| FunctionFrame {
            name: f.name.clone(),
            cached: !misses.contains(&i),
            faults: faults.iter().filter(|n| **n == f.name).count() as u64,
            rolled_back: rolled_back.contains(&f.name),
            request: rid.clone(),
        })
        .collect();
    let status = if clean { "clean" } else { "degraded" };
    let class = if misses.is_empty() { "warm" } else { "cold" };
    let done = DoneFrame {
        status: status.into(),
        idempotency: req.idempotency_key(),
        request: rid.clone(),
        module_text,
        reused: (module.functions.len() - misses.len()) as u64,
        fresh: misses.len() as u64,
        faults: faults.len() as u64,
        rollbacks: rolled_back.len() as u64,
        quarantined: quarantined as u64,
        inconclusive: inconclusive as u64,
        client_quarantined: false,
    };
    let duration_us = t_all.elapsed().as_micros() as u64;
    env.metrics.observe_latency(class, duration_us);
    env.recorder.end(
        token,
        RequestSummary {
            request: rid,
            client: req.client.clone(),
            class: class.to_string(),
            status: status.to_string(),
            reused: done.reused,
            fresh: done.fresh,
            faults: done.faults,
            duration_us,
            spans: Vec::new(),
        },
    );
    black_box(frames);
    s.respond += ms_since(t);

    s.total += ms_since(t_all);
    s.requests += 1;
    Ok((done.module_text, clean))
}

/// Answer text of one in-process `ServerCore::handle` call, and whether
/// it is clean.
fn handle(core: &ServerCore, req: &Request) -> Result<(String, bool), String> {
    let mut done = None;
    core.handle(req, &mut |resp| {
        if let Response::Done(frame) = resp {
            done = Some(frame);
        }
        Ok(())
    })
    .map_err(|e| format!("handle: {e}"))?;
    let done = done.ok_or("handle ended without a done frame")?;
    Ok((done.module_text, done.status == "clean"))
}

#[allow(clippy::too_many_arguments)]
fn traced(
    pool: &[PoolEntry],
    seed: u64,
    seconds: f64,
    tcp: &ClientLog,
    tcp_degraded: [u64; 2],
    report: &mut Report,
    compile_ms: f64,
    interp_ms: f64,
    dyn_ops: u64,
) -> Result<(), String> {
    // Whole `handle` calls and the composed stages, each on a primed
    // cache of its own.
    let (handle_dir, staged_dir) = (fresh_dir("handle")?, fresh_dir("staged")?);
    let core = ServerCore::new(config(), open_cache(&handle_dir)?);
    let composed = Composed::open(&staged_dir)?;
    let mut prime = Stages::default();
    for p in pool {
        let (text, clean) = handle(&core, &Request::Optimize(p.request.clone()))?;
        report.check(clean && fingerprint64(&text) == p.expected_fp, || {
            format!("priming {} through handle: answer differs from the harness", p.name)
        });
        let (text, clean) = staged(&composed, &p.request, &mut prime)?;
        report.check(clean && fingerprint64(&text) == p.expected_fp, || {
            format!("priming {} through the stages: answer differs from the harness", p.name)
        });
    }

    // Each request of the stream goes through both, in alternating
    // order, so drift in the host's speed and warm CPU caches favour
    // neither.
    let mut handle_ms: [Vec<f64>; 2] = Default::default();
    let mut stages = [Stages::default(), Stages::default()];
    let mut answers = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(0.6 * seconds);
    for (i, draw) in interleaved(seed, pool.len()).enumerate() {
        if Instant::now() >= until {
            break;
        }
        let c = class_of(draw);
        let req = Request::Optimize(pool[draw.routine].request_for(draw, "perfbench-0"));
        let Request::Optimize(optimize) = &req else {
            unreachable!("built as an optimize request")
        };
        for step in [i % 2, 1 - i % 2] {
            let answer = if step == 0 {
                let t = Instant::now();
                let answer = handle(&core, &req);
                handle_ms[c].push(ms_since(t));
                answer
            } else {
                staged(&composed, optimize, &mut stages[c])
            };
            answers.push((draw, answer.ok().map(|(t, clean)| (fingerprint64(&t), clean))));
        }
    }
    drop((core, composed));
    remove_dir(&handle_dir)?;
    remove_dir(&staged_dir)?;
    let replay_degraded = check_answers(pool, &answers, report)?;

    let (mut traced_total, mut traced_parts, mut handle_total) = (0.0, 0.0, 0.0);
    for (c, class) in CLASSES.iter().enumerate() {
        let s = &stages[c];
        let n = s.requests.max(1) as f64;
        let handle_mean = mean(&handle_ms[c]);
        let tcp_mean = mean(&tcp.latency[c].iter().map(|&(_, ms)| ms).collect::<Vec<_>>());
        let m = |x: f64| x / n;
        report.metric(&format!("serve.handle_ms.{class}"), handle_mean, "ms");
        report.metric(&format!("ir.parse_ms.{class}"), m(s.parse), "ms");
        report.metric(&format!("ir.print_ms.{class}"), m(s.print), "ms");
        report.metric(&format!("serve.respond_ms.{class}"), m(s.respond), "ms");
        report.metric(&format!("serve.cache_probe_ms.{class}"), m(s.probe), "ms");
        report.metric(
            &format!("serve.cache_hit_ratio.{class}"),
            s.hits as f64 / s.probes.max(1) as f64,
            "ratio",
        );
        report.metric(&format!("harness.governed_ms.{class}"), m(s.governed), "ms");
        report.metric(&format!("harness.oracle_ms.{class}"), m(s.oracle), "ms");
        report.metric(
            &format!("harness.oracle_inconclusive.{class}"),
            m(s.inconclusive as f64),
            "count",
        );
        report.metric(&format!("serve.cache_write_ms.{class}"), m(s.write), "ms");
        report.metric(&format!("serve.cache_evictions.{class}"), m(s.evictions as f64), "count");
        report.metric(
            &format!("serve.cache_compactions.{class}"),
            m(s.compactions as f64),
            "count",
        );
        report.metric(&format!("serve.unattributed_ms.{class}"), handle_mean - m(s.parts()), "ms");
        report.metric(&format!("serve.wire_ms.{class}"), tcp_mean - handle_mean, "ms");
        report.metric(&format!("serve.reconnects.{class}"), tcp.reconnects[c] as f64, "count");
        report.metric(
            &format!("serve.degraded.{class}"),
            (tcp_degraded[c] + replay_degraded[c]) as f64,
            "count",
        );
        report.note(format!(
            "{class}: tcp {tcp_mean:.3} ms over {}, handle {handle_mean:.3} ms, stages {:.3} ms, \
             staged total {:.3} ms, over {} requests",
            tcp.latency[c].len(),
            m(s.parts()),
            m(s.total),
            s.requests
        ));
        traced_total += s.total;
        traced_parts += s.parts();
        handle_total += handle_ms[c].iter().sum::<f64>();
    }
    // The reconciliation: the stages against the whole `handle` time,
    // per request over both classes.
    let requests = (stages[0].requests + stages[1].requests).max(1) as f64;
    let (handle_mean, parts_mean) = (handle_total / requests, traced_parts / requests);
    let gap = (handle_mean - parts_mean) / handle_mean;
    report.metric("trace.total_ms", traced_total / requests, "ms");
    report.metric("trace.overhead_ms", traced_total / requests - handle_mean, "ms");
    report.metric("trace.residual_ratio", gap, "ratio");
    report.note(format!(
        "reconcile: handle {handle_mean:.3} ms/request, stages {parts_mean:.3} ms/request, \
         unattributed {:.2}% (tolerance {:.0}%); staged total {:.3} ms/request",
        gap * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        traced_total / requests
    ));
    report.check(gap.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "traced stages ({parts_mean:.3} ms) miss the whole handle time ({handle_mean:.3} ms) \
             by {:.2}%",
            gap * 100.0
        )
    });
    report.metric("interp.ms", interp_ms, "ms");
    report.metric("interp.ops", dyn_ops as f64, "count");
    report.metric("frontend.compile_ms", compile_ms, "ms");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(seed: u64, client: usize, n: usize) -> Vec<Draw> {
        let mut s = Stream::new(seed, client, 50);
        (0..n).map(|_| s.draw()).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(take(7, 0, 500), take(7, 0, 500));
        assert_eq!(take(7, 1, 500), take(7, 1, 500));
    }

    #[test]
    fn different_seed_or_client_different_stream() {
        assert_ne!(take(7, 0, 500), take(8, 0, 500));
        assert_ne!(take(7, 0, 500), take(7, 1, 500));
    }

    #[test]
    fn every_seed_draws_the_same_mix() {
        for seed in [1, 2, 3] {
            let draws = take(seed, 0, 4000);
            for block in draws.chunks(COLD_ONE_IN) {
                assert_eq!(block.iter().filter(|d| d.cold.is_some()).count(), 1);
            }
            let mut per_class = [[0usize; 50]; 2];
            for d in &draws {
                per_class[usize::from(d.cold.is_none())][d.routine] += 1;
            }
            assert!(per_class[0].iter().all(|&n| n == 20), "cold: each routine 20 times in 1000");
            assert!(per_class[1].iter().all(|&n| n == 60), "warm: each routine 60 times in 3000");
            let tags: std::collections::HashSet<u64> =
                draws.iter().filter_map(|d| d.cold).collect();
            assert_eq!(tags.len(), 1000, "cold tags are unique");
        }
    }

    #[test]
    fn interleaving_alternates_the_client_streams() {
        let merged: Vec<Draw> = interleaved(3, 50).take(10).collect();
        let (a, b) = (take(3, 0, 5), take(3, 1, 5));
        for i in 0..5 {
            assert_eq!(merged[2 * i], a[i]);
            assert_eq!(merged[2 * i + 1], b[i]);
        }
    }

    #[test]
    fn a_degraded_answer_is_held_to_the_harness_on_its_exact_text() {
        let (pool, _) = build_pool().unwrap();
        let routine = pool.iter().position(|p| p.name == "fpppp").unwrap();
        // A tag under which the oracle's per-name argument vectors make it
        // roll fpppp back: the daemon answers degraded, and so does the
        // in-process harness on the same text.
        let draw = Draw { routine, cold: Some(0xbf13_1cd0_37e7_8b51) };
        let module = parse_module(&pool[routine].text_for(draw)).unwrap();
        let out = Harness::new(LEVEL, policy()).optimize(&module).unwrap();
        assert!(!out.is_clean());
        let fp = fingerprint64(&format!("{}", out.module));

        let mut report = Report::default();
        assert_eq!(
            check_answers(&pool, &[(draw, Some((fp, false)))], &mut report).unwrap(),
            [1, 0]
        );
        assert_eq!(report.failed, 0);
        for wrong in [Some((fp, true)), Some((fp ^ 1, false)), None] {
            let mut report = Report::default();
            check_answers(&pool, &[(draw, wrong)], &mut report).unwrap();
            assert_eq!(report.failed, 1, "{wrong:?} must fail");
        }
    }
}
