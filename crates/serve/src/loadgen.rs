//! A mixed-workload load generator for the daemon.
//!
//! `epre loadgen` drives a running server with N concurrent retrying
//! clients for a fixed duration, mixing four request classes:
//!
//! * **cold** — a freshly generated module the cache has never seen;
//!   exercises the full governed pipeline,
//! * **warm** — a resubmit from a small primed pool; must replay from
//!   the cache byte-identically,
//! * **poison** — frame-level garbage on a raw connection; must draw a
//!   typed error and poison only that connection,
//! * **oversized** — a length prefix beyond [`MAX_FRAME_BYTES`]; must be
//!   refused typed, never buffered or hung on.
//!
//! Cold and warm traffic rides keep-alive [`Session`]s, so the
//! generator also exercises `goaway` rotation and transparent
//! reconnects under load. Every optimize answer is checked against
//! ground truth computed in-process by the same [`Harness`] the server
//! uses — a wrong byte anywhere is counted, and the run fails. Every
//! operation is timed; an operation exceeding the hang threshold is
//! counted as a hang even if it eventually answered, because "slower
//! than the threshold" is indistinguishable from "hung" to a caller
//! with a deadline.
//!
//! The report carries per-class p50/p95/p99 latency and throughput, and
//! renders both as text and as a JSON run entry for `BENCH_SERVE.json`.

use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use epre_harness::{FaultPolicy, Harness, SplitMix64};
use epre_ir::parse_module;

use crate::client::{ClientConfig, Session};
use crate::core::level_from_label;
use crate::json::{self, obj, Json};
use crate::protocol::{read_frame, OptimizeRequest, Response, MAX_FRAME_BYTES};

/// Load-generator knobs. The mix weights are relative — `{2, 6, 1, 1}`
/// means 60% warm — and a zero weight disables a class.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent client threads.
    pub clients: usize,
    /// How long to generate load.
    pub duration: Duration,
    /// Seed for the per-thread mix/jitter RNGs and module generation;
    /// equal seeds generate the same request sequence per thread.
    pub seed: u64,
    /// Relative weight of cold (never-seen module) requests.
    pub mix_cold: u32,
    /// Relative weight of warm (primed pool resubmit) requests.
    pub mix_warm: u32,
    /// Relative weight of poison (frame-level garbage) connections.
    pub mix_poison: u32,
    /// Relative weight of oversized (frame beyond the cap) connections.
    pub mix_oversized: u32,
    /// Distinct modules in the warm pool (primed before the clock).
    pub warm_pool: usize,
    /// An operation slower than this counts as a hang.
    pub hang_threshold: Duration,
    /// Scrape the daemon's live metrics at the end of the run and embed
    /// a reconciliation summary (`epre loadgen --metrics-snapshot`).
    pub metrics_snapshot: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:9944".into(),
            clients: 4,
            duration: Duration::from_secs(5),
            seed: 0x10AD,
            mix_cold: 3,
            mix_warm: 5,
            mix_poison: 1,
            mix_oversized: 1,
            warm_pool: 4,
            hang_threshold: Duration::from_secs(10),
            metrics_snapshot: false,
        }
    }
}

/// The optimization level the generator submits under (and computes
/// ground truth for): the paper's full pipeline, same as the serve
/// bench.
const LEVEL: &str = "distribution";

const CLASSES: [&str; 4] = ["cold", "warm", "poison", "oversized"];

/// Per-class latency/outcome accounting.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Operations attempted.
    pub ops: u64,
    /// Answers that contradicted ground truth (or the wrong frame kind).
    pub wrongs: u64,
    /// Transient failures (exhausted retries, torn streams); not wrong
    /// answers, but not answers either.
    pub failures: u64,
    /// Operations that exceeded the hang threshold.
    pub hangs: u64,
    /// Latencies of completed operations, microseconds, sorted.
    pub latencies_us: Vec<u64>,
}

impl ClassStats {
    /// The `p`-th percentile latency in microseconds (nearest-rank on
    /// the sorted samples; 0 when the class saw no traffic).
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((self.latencies_us.len() - 1) as f64 * p / 100.0).round() as usize;
        self.latencies_us[idx]
    }
}

/// The aggregated outcome of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Concurrent client threads that generated the load.
    pub clients: usize,
    /// Wall-clock generation window, milliseconds.
    pub duration_ms: u64,
    /// Per-class statistics, in [`CLASSES`] order.
    pub classes: Vec<(String, ClassStats)>,
    /// Keep-alive session reconnects across all clients (goaway
    /// rotations and dropped peers, recovered transparently).
    pub reconnects: u64,
    /// The daemon's own view of the run, scraped from its live metrics
    /// at the end (`--metrics-snapshot`): a JSON object, or `None` when
    /// no snapshot was taken.
    pub server: Option<Json>,
}

impl LoadgenReport {
    /// Total operations across all classes.
    pub fn total_ops(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.ops).sum()
    }

    /// Total wrong answers (the number that must be zero).
    pub fn wrongs(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.wrongs).sum()
    }

    /// Total hangs (the other number that must be zero).
    pub fn hangs(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.hangs).sum()
    }

    /// Total transient failures.
    pub fn failures(&self) -> u64 {
        self.classes.iter().map(|(_, c)| c.failures).sum()
    }

    /// Overall throughput, operations per second.
    pub fn rps(&self) -> f64 {
        if self.duration_ms == 0 {
            return 0.0;
        }
        self.total_ops() as f64 * 1e3 / self.duration_ms as f64
    }

    /// The run as a `BENCH_SERVE.json` entry (appended with
    /// [`epre_bench::merge_named_runs`] by the CLI; `run` numbering is
    /// the merger's job).
    pub fn json_entry(&self) -> Json {
        let per_sec = |ops: u64| {
            if self.duration_ms == 0 {
                0.0
            } else {
                ops as f64 * 1e3 / self.duration_ms as f64
            }
        };
        let ms = |us: u64| Json::fixed(us as f64 / 1e3, 3);
        let classes = self.classes.iter().map(|(name, c)| {
            let fields = obj(vec![
                ("ops", Json::U64(c.ops)),
                ("rps", Json::fixed(per_sec(c.ops), 3)),
                ("p50_ms", ms(c.percentile_us(50.0))),
                ("p95_ms", ms(c.percentile_us(95.0))),
                ("p99_ms", ms(c.percentile_us(99.0))),
            ]);
            (name.clone(), fields)
        });
        let mut entry = vec![
            ("loadgen", Json::Bool(true)),
            ("clients", Json::U64(self.clients as u64)),
            ("duration_ms", Json::U64(self.duration_ms)),
            ("total_ops", Json::U64(self.total_ops())),
            ("rps", Json::fixed(self.rps(), 3)),
            ("reconnects", Json::U64(self.reconnects)),
            ("wrong", Json::U64(self.wrongs())),
            ("hangs", Json::U64(self.hangs())),
            ("failures", Json::U64(self.failures())),
            ("classes", Json::Obj(classes.collect())),
        ];
        if let Some(server) = &self.server {
            entry.push(("server", server.clone()));
        }
        obj(entry)
    }

    /// A human-readable summary table.
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "loadgen: {} client(s), {}ms, {} op(s), {:.0} op/s, {} reconnect(s)\n",
            self.clients,
            self.duration_ms,
            self.total_ops(),
            self.rps(),
            self.reconnects,
        );
        out.push_str("  class      ops  wrong  hang  fail    p50ms    p95ms    p99ms\n");
        for (name, c) in &self.classes {
            out.push_str(&format!(
                "  {name:<9}{:>5}{:>7}{:>6}{:>6}{:>9.2}{:>9.2}{:>9.2}\n",
                c.ops,
                c.wrongs,
                c.hangs,
                c.failures,
                c.percentile_us(50.0) as f64 / 1e3,
                c.percentile_us(95.0) as f64 / 1e3,
                c.percentile_us(99.0) as f64 / 1e3,
            ));
        }
        if let Some(server) = &self.server {
            out.push_str(&format!("  server metrics snapshot: {}\n", server.encode()));
        }
        out
    }
}

/// Distill the daemon's JSON metrics render into the loadgen record: the
/// request/saturation totals plus, per latency class, the histogram's
/// count, cumulative sum, and nearest-rank p99 upper bound (from
/// [`epre_telemetry::quantile_le`] over the fixed bucket ladder).
/// Integer-only, like the exposition it is derived from.
fn distill_metrics(body: &str) -> Result<Json, String> {
    let parsed = json::parse(body).map_err(|e| format!("metrics json: {e}"))?;
    let metrics = parsed
        .get("metrics")
        .and_then(Json::as_arr)
        .ok_or("metrics json: missing 'metrics' array")?;
    let named = |m: &Json, name: &str| m.get("name").and_then(Json::as_str) == Some(name);
    let counter = |name: &str| -> Json {
        let value = metrics.iter().find(|m| named(m, name)).and_then(|m| m.get("value"));
        Json::U64(value.and_then(Json::as_u64).unwrap_or(0))
    };
    let ints = |m: &Json, key: &str| -> Vec<u64> {
        let items = m.get(key).and_then(Json::as_arr).unwrap_or_default();
        items.iter().filter_map(Json::as_u64).collect()
    };
    let mut classes = Vec::new();
    for m in metrics.iter().filter(|m| named(m, "epre_request_latency_us")) {
        let Some(label) = m.get("label").and_then(Json::as_str) else { continue };
        let Some(class) = label.strip_prefix("class=") else { continue };
        let scalar = |key: &str| m.get(key).and_then(Json::as_u64).unwrap_or(0);
        let p99 = epre_telemetry::quantile_le(&ints(m, "bounds"), &ints(m, "counts"), 99, 100);
        let fields = obj(vec![
            ("count", Json::U64(scalar("count"))),
            ("sum_us", Json::U64(scalar("sum"))),
            ("p99_us_le", p99.map_or(Json::Null, Json::U64)),
        ]);
        classes.push((class.to_string(), fields));
    }
    Ok(obj(vec![
        ("requests", counter("epre_requests_total")),
        ("completed", counter("epre_completed_total")),
        ("workers_saturated", counter("epre_workers_saturated_total")),
        ("slow_requests", counter("epre_slow_requests_total")),
        ("classes", Json::Obj(classes)),
    ]))
}

/// A tiny module with a lexically redundant pair (so PRE has real work)
/// whose text is unique per `id` — unique text means a unique cache
/// key, which is what makes the cold class cold.
fn generated_module_text(id: u64) -> String {
    format!(
        "module data 0\n\
         function ldg{id}(r0:i) -> i\n\
         block b0:\n\
         \x20 r1 <- loadi {}:i\n\
         \x20 r2 <- add.i r0, r1\n\
         \x20 r3 <- add.i r0, r1\n\
         \x20 r4 <- mul.i r2, r3\n\
         \x20 ret r4\n\
         end\n",
        id % 9973 + 1
    )
}

/// Ground truth: the same hardened pipeline the server runs, in
/// process. The server was proven byte-identical to this in the core
/// tests; the load generator re-proves it under sustained concurrent
/// traffic, for every answer.
fn expected_text(module_text: &str) -> Result<String, String> {
    let module = parse_module(module_text).map_err(|e| format!("generated module: {e}"))?;
    let level = level_from_label(LEVEL).expect("the generator's level is servable");
    let harness = Harness::new(level, FaultPolicy::BestEffort);
    let out = harness.optimize(&module).map_err(|e| format!("ground truth: {e:?}"))?;
    Ok(format!("{}", out.module))
}

fn optimize_request(module_text: String, client: String) -> OptimizeRequest {
    OptimizeRequest {
        client,
        level: LEVEL.into(),
        policy: "best-effort".into(),
        deadline_ms: None,
        idempotency: String::new(),
        request: String::new(),
        module_text,
    }
}

/// One raw adversarial connection: send `bytes`, expect a typed error
/// frame back. Returns `Ok(true)` when the server answered typed,
/// `Ok(false)` when it answered with something else entirely (a wrong
/// answer), `Err` on transient transport failure.
fn adversarial_once(addr: &str, bytes: &[u8], timeout: Duration) -> Result<bool, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream.set_read_timeout(Some(timeout)).map_err(|e| format!("timeout: {e}"))?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| format!("timeout: {e}"))?;
    let mut w = BufWriter::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    w.write_all(bytes).map_err(|e| format!("send: {e}"))?;
    w.flush().map_err(|e| format!("send: {e}"))?;
    let mut r = BufReader::new(stream);
    match read_frame(&mut r) {
        Ok(Some(payload)) => match Response::decode(&payload) {
            // Any typed refusal is the right answer; which code depends
            // on whether admission shed the connection first.
            Ok(Response::Error { .. }) => Ok(true),
            Ok(_) => Ok(false),
            Err(e) => Err(format!("undecodable refusal: {e}")),
        },
        Ok(None) => Err("server closed without a typed refusal".into()),
        Err(e) => Err(format!("read: {e}")),
    }
}

/// The payload of one oversized-class operation: a frame header
/// claiming one byte more than the cap, followed by a token of body —
/// the server must refuse on the header alone, not buffer toward it.
fn oversized_bytes() -> Vec<u8> {
    format!("{}\nx", MAX_FRAME_BYTES + 1).into_bytes()
}

struct ThreadOutcome {
    samples: Vec<(usize, u64)>, // (class index, latency µs) of completed ops
    class_counts: [ClassStats; 4],
    reconnects: u64,
}

#[allow(clippy::needless_range_loop)]
fn client_thread(
    cfg: &LoadgenConfig,
    warm: &[(OptimizeRequest, String)],
    thread_idx: usize,
) -> ThreadOutcome {
    let mut rng = SplitMix64::new(cfg.seed ^ (thread_idx as u64).wrapping_mul(0x9E37_79B9));
    let mut session = Session::new(ClientConfig {
        addr: cfg.addr.clone(),
        attempts: 5,
        base_backoff: Duration::from_millis(10),
        seed: cfg.seed ^ thread_idx as u64,
        read_timeout: cfg.hang_threshold,
    });
    let weights =
        [cfg.mix_cold as u64, cfg.mix_warm as u64, cfg.mix_poison as u64, cfg.mix_oversized as u64];
    let total: u64 = weights.iter().sum();
    let mut stats: [ClassStats; 4] = Default::default();
    let mut samples = Vec::new();
    let mut cold_counter = (thread_idx as u64) << 32;
    let client = format!("loadgen-{thread_idx}");
    let deadline = Instant::now() + cfg.duration;
    while Instant::now() < deadline {
        let mut draw = rng.next_u64() % total.max(1);
        let mut class = 0;
        for (i, w) in weights.iter().enumerate() {
            if draw < *w {
                class = i;
                break;
            }
            draw -= w;
        }
        stats[class].ops += 1;
        let t0 = Instant::now();
        let outcome: Result<bool, String> = match class {
            0 => {
                cold_counter += 1;
                let text = generated_module_text(cold_counter);
                match session.submit(&optimize_request(text.clone(), client.clone())) {
                    Ok(out) => Ok(out.done.status == "clean"
                        && expected_text(&text).is_ok_and(|exp| exp == out.done.module_text)),
                    Err(e) => Err(format!("{e}")),
                }
            }
            1 => {
                let (req, expected) = &warm[(rng.next_u64() as usize) % warm.len()];
                match session.submit(req) {
                    Ok(out) => {
                        Ok(out.done.status == "clean" && &out.done.module_text == expected)
                    }
                    Err(e) => Err(format!("{e}")),
                }
            }
            2 => adversarial_once(&cfg.addr, b"%%% not a frame %%%\n", cfg.hang_threshold),
            _ => adversarial_once(&cfg.addr, &oversized_bytes(), cfg.hang_threshold),
        };
        let lat = t0.elapsed();
        match outcome {
            Ok(true) => {
                samples.push((class, lat.as_micros() as u64));
                if lat > cfg.hang_threshold {
                    stats[class].hangs += 1;
                }
            }
            Ok(false) => stats[class].wrongs += 1,
            Err(_) => {
                stats[class].failures += 1;
                if lat > cfg.hang_threshold {
                    stats[class].hangs += 1;
                }
            }
        }
    }
    ThreadOutcome { samples, class_counts: stats, reconnects: session.reconnects() }
}

/// Run the generator against a serving daemon at `cfg.addr`.
///
/// Primes the warm pool first (those submissions are not timed), then
/// unleashes `cfg.clients` threads for `cfg.duration`. Never panics on
/// server misbehavior — wrong answers, hangs, and failures come back as
/// counts in the report for the caller to judge.
///
/// # Errors
/// Setup only: ground-truth computation failing, or the warm pool
/// failing to prime (the server is unreachable or refusing).
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let cfg = LoadgenConfig { clients: cfg.clients.max(1), ..cfg.clone() };

    // Build and prime the warm pool. Priming uses a keep-alive session
    // of its own; its latencies are warm-up, not measurement.
    let mut warm = Vec::new();
    let mut primer = Session::new(ClientConfig {
        addr: cfg.addr.clone(),
        read_timeout: cfg.hang_threshold,
        ..Default::default()
    });
    for i in 0..cfg.warm_pool.max(1) as u64 {
        let text = generated_module_text(u64::MAX - i);
        let expected = expected_text(&text)?;
        let req = optimize_request(text, "loadgen-prime".into());
        let out = primer.submit(&req).map_err(|e| format!("priming the warm pool: {e}"))?;
        if out.done.module_text != expected {
            return Err(format!(
                "warm pool priming answered wrong for module {i} — refusing to measure a \
                 server that fails before load starts"
            ));
        }
        warm.push((req, expected));
    }
    drop(primer);

    let warm = Arc::new(warm);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..cfg.clients)
        .map(|idx| {
            let cfg = cfg.clone();
            let warm = Arc::clone(&warm);
            std::thread::spawn(move || client_thread(&cfg, &warm, idx))
        })
        .collect();
    let outcomes: Vec<ThreadOutcome> =
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
    let duration_ms = t0.elapsed().as_millis() as u64;

    let mut classes: Vec<(String, ClassStats)> =
        CLASSES.iter().map(|n| ((*n).to_string(), ClassStats::default())).collect();
    let mut reconnects = 0;
    for o in outcomes {
        reconnects += o.reconnects;
        for (i, c) in o.class_counts.into_iter().enumerate() {
            classes[i].1.ops += c.ops;
            classes[i].1.wrongs += c.wrongs;
            classes[i].1.failures += c.failures;
            classes[i].1.hangs += c.hangs;
        }
        for (class, us) in o.samples {
            classes[class].1.latencies_us.push(us);
        }
    }
    for (_, c) in &mut classes {
        c.latencies_us.sort_unstable();
    }

    // The daemon's own view, scraped after the load stops. A failed
    // scrape fails the run: the operator asked for reconciliation, and
    // silence is not a reconciliation.
    let server = if cfg.metrics_snapshot {
        let body = crate::client::metrics(
            &ClientConfig {
                addr: cfg.addr.clone(),
                read_timeout: cfg.hang_threshold,
                ..Default::default()
            },
            "json",
        )
        .map_err(|e| format!("metrics snapshot: {e}"))?;
        Some(distill_metrics(&body)?)
    } else {
        None
    };
    Ok(LoadgenReport { clients: cfg.clients, duration_ms, classes, reconnects, server })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::core::{ServeConfig, ServerCore};
    use crate::server::serve_tcp;
    use std::net::TcpListener;

    fn spawn_server(config: ServeConfig) -> (String, Arc<ServerCore>, std::thread::JoinHandle<std::io::Result<()>>) {
        let core = Arc::new(ServerCore::new(config, ResultCache::in_memory()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = {
            let core = Arc::clone(&core);
            std::thread::spawn(move || serve_tcp(core, listener))
        };
        (addr, core, handle)
    }

    #[test]
    fn generated_modules_are_unique_and_have_ground_truth() {
        let a = generated_module_text(1);
        let b = generated_module_text(2);
        assert_ne!(a, b);
        let opt = expected_text(&a).unwrap();
        assert!(opt.contains("function ldg1"));
        // PRE removed the lexically redundant add: the optimized body
        // computes the sum once.
        assert!(a.matches("add.i").count() > opt.matches("add.i").count());
    }

    #[test]
    fn report_renders_text_and_json() {
        let mut cold = ClassStats { ops: 3, ..Default::default() };
        cold.latencies_us = vec![1000, 2000, 3000];
        let report = LoadgenReport {
            clients: 2,
            duration_ms: 1000,
            classes: vec![
                ("cold".into(), cold),
                ("warm".into(), ClassStats::default()),
            ],
            reconnects: 1,
            server: None,
        };
        assert_eq!(report.total_ops(), 3);
        assert_eq!(report.rps(), 3.0);
        let json = report.json_entry().encode();
        assert!(json.starts_with("{\"loadgen\":true,"), "{json}");
        assert!(json.contains("\"cold\":{\"ops\":3,\"rps\":3.000,\"p50_ms\":2.000"), "{json}");
        assert!(json.contains("\"p95_ms\":3.000,\"p99_ms\":3.000"), "{json}");
        assert!(json.contains("\"wrong\":0,\"hangs\":0"), "{json}");
        let text = report.render_text();
        assert!(text.contains("cold"), "{text}");
        assert!(text.contains("p99ms"), "{text}");
    }

    #[test]
    fn metrics_distillation_reads_the_json_render() {
        // A minimal daemon render: one counter and one class histogram
        // over the real bucket ladder.
        let bounds: Vec<String> =
            epre_telemetry::LATENCY_BUCKETS_US.iter().map(|b| b.to_string()).collect();
        let mut counts = vec![0u64; bounds.len() + 1];
        counts[4] = 9; // nine observations in the 5th bucket
        counts[10] = 1; // one straggler higher up
        let body = format!(
            "{{\"metrics\":[\
             {{\"name\":\"epre_requests_total\",\"type\":\"counter\",\"value\":10}},\
             {{\"name\":\"epre_request_latency_us\",\"type\":\"histogram\",\
              \"label\":\"class=cold\",\"bounds\":[{}],\"counts\":[{}],\
              \"sum\":1234,\"count\":10}}]}}",
            bounds.join(","),
            counts.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(","),
        );
        let fragment = distill_metrics(&body).unwrap();
        let text = fragment.encode();
        assert!(text.starts_with("{\"requests\":10,"), "{text}");
        let p99 = epre_telemetry::LATENCY_BUCKETS_US[10];
        assert!(
            text.contains(&format!(
                "\"cold\":{{\"count\":10,\"sum_us\":1234,\"p99_us_le\":{p99}}}"
            )),
            "{text}"
        );
        // And the fragment rides into the run entry.
        let report = LoadgenReport {
            clients: 1,
            duration_ms: 10,
            classes: vec![("cold".into(), ClassStats::default())],
            reconnects: 0,
            server: Some(fragment),
        };
        let json = report.json_entry().encode();
        assert!(json.contains(",\"server\":{\"requests\":10,"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }

    #[test]
    fn json_entry_matches_the_pinned_bytes() {
        let mut cold = ClassStats { ops: 3, ..Default::default() };
        cold.latencies_us = vec![1000, 2000, 3000];
        let mut warm = ClassStats { ops: 7, wrongs: 1, hangs: 2, failures: 3, ..Default::default() };
        warm.latencies_us = vec![5, 250, 1_999_999];
        let mut report = LoadgenReport {
            clients: 3,
            duration_ms: 1234,
            classes: vec![("cold".into(), cold), ("warm".into(), warm)],
            reconnects: 4,
            server: None,
        };
        assert_eq!(report.json_entry().encode(), "{\"loadgen\":true,\"clients\":3,\"duration_ms\":1234,\"total_ops\":10,\"rps\":8.104,\"reconnects\":4,\"wrong\":1,\"hangs\":2,\"failures\":3,\"classes\":{\"cold\":{\"ops\":3,\"rps\":2.431,\"p50_ms\":2.000,\"p95_ms\":3.000,\"p99_ms\":3.000},\"warm\":{\"ops\":7,\"rps\":5.673,\"p50_ms\":0.250,\"p95_ms\":1999.999,\"p99_ms\":1999.999}}}");
        let body = "{\"metrics\":[\
            {\"name\":\"epre_requests_total\",\"type\":\"counter\",\"value\":10},\
            {\"name\":\"epre_request_latency_us\",\"type\":\"histogram\",\
             \"label\":\"class=cold\",\"bounds\":[1,2,4],\"counts\":[0,9,1,0],\
             \"sum\":1234,\"count\":10},\
            {\"name\":\"epre_request_latency_us\",\"type\":\"histogram\",\
             \"label\":\"class=warm\",\"bounds\":[1,2,4],\"counts\":[0,0,0,2],\
             \"sum\":99,\"count\":2}]}";
        report.server = Some(distill_metrics(body).unwrap());
        assert_eq!(report.json_entry().encode(), "{\"loadgen\":true,\"clients\":3,\"duration_ms\":1234,\"total_ops\":10,\"rps\":8.104,\"reconnects\":4,\"wrong\":1,\"hangs\":2,\"failures\":3,\"classes\":{\"cold\":{\"ops\":3,\"rps\":2.431,\"p50_ms\":2.000,\"p95_ms\":3.000,\"p99_ms\":3.000},\"warm\":{\"ops\":7,\"rps\":5.673,\"p50_ms\":0.250,\"p95_ms\":1999.999,\"p99_ms\":1999.999}},\"server\":{\"requests\":10,\"completed\":0,\"workers_saturated\":0,\"slow_requests\":0,\"classes\":{\"cold\":{\"count\":10,\"sum_us\":1234,\"p99_us_le\":4},\"warm\":{\"count\":2,\"sum_us\":99,\"p99_us_le\":null}}}}");
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let c = ClassStats { latencies_us: (1..=100).collect(), ..Default::default() };
        assert_eq!(c.percentile_us(50.0), 51, "nearest rank on 0-indexed samples");
        assert_eq!(c.percentile_us(99.0), 99);
        assert_eq!(ClassStats::default().percentile_us(99.0), 0);
    }

    #[test]
    fn a_short_mixed_run_is_clean_and_the_daemon_survives() {
        let (addr, _core, handle) = spawn_server(ServeConfig {
            max_session_requests: 8, // force goaway rotation under load
            // Keep-alive sessions pin a worker for their lifetime; raw
            // poison/oversized connections need free workers beyond the
            // two persistent client sessions or they starve in the
            // admission queue.
            workers: 4,
            ..Default::default()
        });
        let cfg = LoadgenConfig {
            addr: addr.clone(),
            clients: 2,
            duration: Duration::from_millis(700),
            warm_pool: 2,
            metrics_snapshot: true,
            ..Default::default()
        };
        let report = run_loadgen(&cfg).unwrap();
        assert!(report.total_ops() > 0, "the run generated traffic");
        assert_eq!(report.wrongs(), 0, "zero wrong answers\n{}", report.render_text());
        assert_eq!(report.hangs(), 0, "zero hangs\n{}", report.render_text());
        assert_eq!(report.failures(), 0, "no transient failures expected in-process");
        let server = report.server.expect("--metrics-snapshot scraped the daemon").encode();
        assert!(server.starts_with("{\"requests\":"), "{server}");
        assert!(server.contains("\"cold\":{\"count\":"), "{server}");
        // The daemon survived the poison/oversized mix and still serves.
        let cfg = ClientConfig { addr, ..Default::default() };
        crate::client::ping(&cfg).unwrap();
        crate::client::shutdown(&cfg).unwrap();
        handle.join().unwrap().unwrap();
    }
}
