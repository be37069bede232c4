//! The transport-independent request engine.
//!
//! [`ServerCore`] owns everything a request needs — the result cache,
//! the per-client quarantine, the counters, the telemetry log — and
//! exposes one entry point, [`ServerCore::handle`], that maps a decoded
//! [`Request`] to a stream of [`Response`] frames through a caller-
//! supplied emitter. The TCP and stdio transports in
//! [`crate::server`] are thin shells around it, and tests drive it
//! in-process with a `Vec` emitter — same engine, no sockets.
//!
//! # The optimize path
//!
//! ```text
//! quarantine gate → parse → deadline admission → per-function cache
//! lookup → governed pipeline over the misses → reassemble in module
//! order → differential oracle over the WHOLE module → write-ahead
//! cache insert of clean fresh functions → frames
//! ```
//!
//! The oracle runs over the assembled module whenever *any* function
//! was freshly optimized, so a replayed body that rides along with new
//! work is re-checked in context. A fully-replayed request skips the
//! oracle — safely, because a body only enters the cache after passing
//! the oracle under the identical (config, input) key, the journal
//! fingerprint-verifies every body it loads, and each replay is
//! re-parsed and name-checked. Corruption anywhere in that chain
//! degrades the entry to a miss (and a fresh, oracle-checked run); it
//! never changes an answer.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use epre::{Budget, OptLevel, Optimizer, RequestBudget};
use epre_harness::{
    header_line, run_module_governed, FaultPolicy, Harness, OracleConfig, PassFaultModel,
    QuarantineOutcome, SandboxReport, ServeQuarantine,
};
use epre_ir::{parse_function, parse_module, Function};
use epre_lint::LintOptions;
use epre_telemetry::{Event, FunctionTrace, Trace, Tracer, Value};

use crate::cache::ResultCache;
use crate::events::{
    drain_event, goaway_event, recover_event, request_event, shed_event, DrainAccounting,
    RequestAccounting,
};
use crate::metrics::ServeMetrics;
use crate::protocol::{DoneFrame, ErrorCode, FunctionFrame, OptimizeRequest, Request, Response};
use crate::recorder::{FlightRecorder, RequestSummary};

/// Serve-side configuration (per-request knobs arrive with the request).
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission queue depth; connection attempts beyond it are shed
    /// with a typed `overloaded` response.
    pub queue_capacity: usize,
    /// Worker threads draining the queue. A keep-alive session pins its
    /// worker until it ends, so size this above the expected number of
    /// concurrent long-lived clients or new connections will queue
    /// behind them (the `max_session_requests` churn bound guarantees
    /// they eventually drain regardless).
    pub workers: usize,
    /// Parallel jobs inside one request's governed driver.
    pub request_jobs: usize,
    /// Per-request circuit-breaker threshold (faults per pass).
    pub breaker_threshold: usize,
    /// Per-client quarantine threshold: distinct (pass, module) fault
    /// evidence pairs before a client's requests are refused.
    pub client_threshold: usize,
    /// Differential-oracle settings applied to every response.
    pub oracle: OracleConfig,
    /// Server-side resource caps; a request's deadline can only tighten
    /// them.
    pub caps: Budget,
    /// Chaos injection: splice this adversarial pass model into every
    /// pipeline (chaos-testing only).
    pub chaos: Option<PassFaultModel>,
    /// Keep-alive: how long a session may sit idle between frames before
    /// the server ends it with `goaway idle-timeout`.
    pub idle_timeout: Duration,
    /// Keep-alive: requests one session may serve before the server ends
    /// it with `goaway max-requests` — a churn bound so long-lived
    /// clients periodically rebalance across workers.
    pub max_session_requests: usize,
    /// Graceful drain: how long [`crate::server::serve_tcp`] waits for
    /// in-flight work after shutdown before abandoning stragglers.
    pub drain_deadline: Duration,
    /// Slow-request threshold, microseconds: any request at or over it
    /// writes its flight-recorder summary (full span breakdown) to the
    /// slow log *before* its terminal frame. `None` disables the log.
    pub slow_us: Option<u64>,
    /// Flight-recorder ring size (recent request summaries + daemon
    /// events kept in memory for SIGQUIT / crash dumps).
    pub recorder_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 16,
            workers: 2,
            request_jobs: 1,
            breaker_threshold: 3,
            client_threshold: 3,
            oracle: OracleConfig::default(),
            caps: Budget::governed(),
            chaos: None,
            idle_timeout: Duration::from_secs(10),
            max_session_requests: 256,
            drain_deadline: Duration::from_secs(30),
            slow_us: None,
            recorder_capacity: 256,
        }
    }
}

/// Monotonic server counters, exported through `stats` frames and the
/// telemetry log. All relaxed atomics — they are counters, not locks.
#[derive(Debug, Default)]
pub struct ServerStats {
    requests: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    shed_quarantined: AtomicU64,
    rejected_parse: AtomicU64,
    rejected_protocol: AtomicU64,
    functions_reused: AtomicU64,
    functions_fresh: AtomicU64,
    sessions: AtomicU64,
    conn_empty: AtomicU64,
    goaway_idle: AtomicU64,
    goaway_max_requests: AtomicU64,
    goaway_draining: AtomicU64,
    drain_abandoned: AtomicU64,
}

/// Why the server ends a keep-alive session with a `goaway` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoawayReason {
    /// No frame arrived within the session idle timeout.
    IdleTimeout,
    /// The session served its per-connection request cap.
    MaxRequests,
    /// The server is draining toward shutdown.
    Draining,
}

impl GoawayReason {
    /// Wire label, carried in the `goaway` frame's `reason` field.
    pub fn label(self) -> &'static str {
        match self {
            GoawayReason::IdleTimeout => "idle-timeout",
            GoawayReason::MaxRequests => "max-requests",
            GoawayReason::Draining => "draining",
        }
    }
}

/// The engine: cache + quarantine + counters + telemetry + live
/// metrics + flight recorder, no transport.
pub struct ServerCore {
    /// The serving configuration.
    pub config: ServeConfig,
    cache: ResultCache,
    quarantine: ServeQuarantine,
    stats: ServerStats,
    telemetry: Option<Mutex<Box<dyn Write + Send>>>,
    metrics: ServeMetrics,
    recorder: FlightRecorder,
    slow_log: Option<Mutex<Box<dyn Write + Send>>>,
    shutdown: AtomicBool,
}

impl ServerCore {
    /// Build an engine over `cache`. Logs the cache's recovery event
    /// immediately if a telemetry sink is attached later — call
    /// [`ServerCore::attach_telemetry`] before serving to capture it.
    pub fn new(config: ServeConfig, cache: ResultCache) -> ServerCore {
        ServerCore {
            quarantine: ServeQuarantine::new(config.client_threshold),
            metrics: ServeMetrics::new(config.workers),
            recorder: FlightRecorder::new(config.recorder_capacity),
            config,
            cache,
            stats: ServerStats::default(),
            telemetry: None,
            slow_log: None,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Attach a telemetry sink (JSON Lines, one event per line) and log
    /// the cache-recovery event through it.
    pub fn attach_telemetry(&mut self, sink: Box<dyn Write + Send>) {
        self.telemetry = Some(Mutex::new(sink));
        let rec = self.cache.recovery();
        self.log_events(vec![recover_event(&rec)]);
    }

    /// Attach the slow-request log (JSON Lines, one summary per slow
    /// request). Without a sink, slow requests go to stderr.
    pub fn attach_slow_log(&mut self, sink: Box<dyn Write + Send>) {
        self.slow_log = Some(Mutex::new(sink));
    }

    /// The result cache (counters are read by `stats`).
    pub fn cache(&self) -> &ResultCache {
        &self.cache
    }

    /// The live-metrics handles (transports update the gauges).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The flight recorder (the CLI dumps it on SIGQUIT and at drain).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Render the live metrics plus every `stats` counter, as Prometheus
    /// text exposition (the default) or the JSON mirror when `format` is
    /// `"json"`. The stats counters are *mirrored in at render time*
    /// from the same atomics `submit --stats` reads — the two views
    /// reconcile by construction, not by double bookkeeping. Stats names
    /// gain the `epre_` prefix; point-in-time values (cache occupancy,
    /// open quarantines) render as gauges, monotonic ones as `_total`
    /// counters.
    pub fn render_metrics(&self, format: &str) -> String {
        let mut snap = self.metrics.snapshot();
        for (name, value) in self.stats_snapshot() {
            match name.as_str() {
                "cache_entries" | "cache_file_bytes" | "cache_live_bytes"
                | "quarantined_clients" => snap.push_gauge(
                    &format!("epre_{name}"),
                    None,
                    "point-in-time server state, mirrored from the stats snapshot",
                    value,
                ),
                _ => snap.push_counter(
                    &format!("epre_{name}_total"),
                    None,
                    "monotonic server counter, mirrored from the stats snapshot",
                    value,
                ),
            }
        }
        if format == "json" {
            snap.to_json().encode()
        } else {
            snap.to_text()
        }
    }

    /// Has a `shutdown` request been accepted?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Flip the shutdown flag from outside a request — the SIGTERM
    /// path's entry into the same graceful drain a `shutdown` request
    /// takes. Idempotent.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Record an admission-queue overflow (the acceptor sheds the
    /// connection with a typed `overloaded` response).
    pub fn note_overload_shed(&self) {
        self.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
        self.recorder.note("shed", "admission queue full");
        self.log_events(vec![shed_event(ErrorCode::Overloaded.label(), "")]);
    }

    /// Record one keep-alive session beginning (a connection that sent
    /// at least one frame).
    pub fn note_session(&self) {
        self.stats.sessions.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a connection that closed before sending any frame — a port
    /// scan, a health check, a peer that thought better of it. Counted,
    /// never interpreted: control traffic (the shutdown poke) is a real
    /// `ping` frame, so an empty connection can only ever be noise.
    pub fn note_empty_conn(&self) {
        self.stats.conn_empty.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a session ended by `goaway`.
    pub fn note_goaway(&self, reason: GoawayReason) {
        let counter = match reason {
            GoawayReason::IdleTimeout => &self.stats.goaway_idle,
            GoawayReason::MaxRequests => &self.stats.goaway_max_requests,
            GoawayReason::Draining => &self.stats.goaway_draining,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.recorder.note("goaway", reason.label());
        self.log_events(vec![goaway_event(reason.label())]);
    }

    /// Record in-flight sessions abandoned at the drain deadline.
    pub fn note_drain_abandoned(&self, n: u64) {
        self.stats.drain_abandoned.fetch_add(n, Ordering::Relaxed);
    }

    /// Graceful drain's final act: compact and fsync the cache, then log
    /// one `drain` event with the session ledger. Called by the
    /// transports after admitted work is done (or abandoned at the
    /// deadline) — never on the hard-kill path, whose whole point is
    /// that recovery needs no goodbye.
    ///
    /// # Errors
    /// The cache flush (compaction staging write, rename, or fsync).
    pub fn drain_flush(&self) -> io::Result<()> {
        let flush = self.cache.flush();
        self.recorder.note("drain", "cache flushed; daemon exiting");
        let s = &self.stats;
        self.log_events(vec![drain_event(&DrainAccounting {
            abandoned: s.drain_abandoned.load(Ordering::Relaxed),
            sessions: s.sessions.load(Ordering::Relaxed),
            cache_entries: self.cache.len() as u64,
            cache_file_bytes: self.cache.file_bytes(),
            cache_evictions: self.cache.evictions(),
            cache_compactions: self.cache.compactions(),
        })]);
        flush
    }

    /// Record a request refused before reaching `handle` (unreadable or
    /// malformed frame).
    pub fn note_protocol_reject(&self) {
        self.stats.rejected_protocol.fetch_add(1, Ordering::Relaxed);
        self.log_events(vec![shed_event(ErrorCode::Protocol.label(), "")]);
    }

    /// Counter snapshot in stable, documented order.
    pub fn stats_snapshot(&self) -> Vec<(String, u64)> {
        let s = &self.stats;
        let rec = self.cache.recovery();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("requests".into(), load(&s.requests)),
            ("completed".into(), load(&s.completed)),
            ("degraded".into(), load(&s.degraded)),
            ("shed_overload".into(), load(&s.shed_overload)),
            ("shed_deadline".into(), load(&s.shed_deadline)),
            ("shed_quarantined".into(), load(&s.shed_quarantined)),
            ("rejected_parse".into(), load(&s.rejected_parse)),
            ("rejected_protocol".into(), load(&s.rejected_protocol)),
            ("functions_reused".into(), load(&s.functions_reused)),
            ("functions_fresh".into(), load(&s.functions_fresh)),
            ("cache_hits".into(), self.cache.hits()),
            ("cache_misses".into(), self.cache.misses()),
            ("cache_entries".into(), self.cache.len() as u64),
            ("cache_recovered".into(), rec.recovered as u64),
            ("cache_recovered_torn".into(), u64::from(rec.resumed_torn)),
            ("cache_corrupt_dropped".into(), rec.corrupt_dropped as u64),
            ("quarantined_clients".into(), self.quarantine.open_clients().len() as u64),
            // Cache health (the operator's view of bounded growth) and
            // the keep-alive session ledger — appended after the original
            // counters so existing consumers keep their line numbers.
            ("cache_file_bytes".into(), self.cache.file_bytes()),
            ("cache_live_bytes".into(), self.cache.live_bytes()),
            ("cache_evictions".into(), self.cache.evictions()),
            ("cache_compactions".into(), self.cache.compactions()),
            ("sessions".into(), load(&s.sessions)),
            ("conn_empty".into(), load(&s.conn_empty)),
            ("goaway_idle".into(), load(&s.goaway_idle)),
            ("goaway_max_requests".into(), load(&s.goaway_max_requests)),
            ("goaway_draining".into(), load(&s.goaway_draining)),
            ("drain_abandoned".into(), load(&s.drain_abandoned)),
        ]
    }

    /// Serve one decoded request, emitting response frames through
    /// `emit`. Always ends with exactly one terminal frame. I/O errors
    /// from `emit` abort the conversation (the client vanished — its
    /// retry will be served from cache).
    pub fn handle(
        &self,
        req: &Request,
        emit: &mut dyn FnMut(Response) -> io::Result<()>,
    ) -> io::Result<()> {
        match req {
            Request::Ping => emit(Response::Ack { what: "pong".into() }),
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                emit(Response::Ack { what: "shutdown".into() })
            }
            Request::Stats => emit(Response::Stats(self.stats_snapshot())),
            Request::Metrics { format } => {
                emit(Response::Metrics { body: self.render_metrics(format) })
            }
            Request::Optimize(r) => self.handle_optimize(r, emit),
        }
    }

    /// Retire a finished (or refused) request: count it against the
    /// slow-request threshold, write the slow log *before* the caller
    /// emits the terminal frame (so any answer a client holds is already
    /// on disk), and move the summary from in-flight into the ring.
    fn finish_request(&self, token: u64, summary: RequestSummary) {
        if self.config.slow_us.is_some_and(|t| summary.duration_us >= t) {
            self.metrics.slow_requests.inc();
            let line = summary.slow_line();
            if let Some(sink) = &self.slow_log {
                let mut w = sink.lock().expect("slow log poisoned");
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
                let _ = w.flush();
            } else {
                eprintln!("epre serve: slow request: {line}");
            }
        }
        self.recorder.end(token, summary);
    }

    /// Refuse a request with a typed error before (or instead of) the
    /// pipeline: one latency observation under `class`, one recorder
    /// entry with the error code as status, one terminal `error` frame
    /// echoing the request id.
    #[allow(clippy::too_many_arguments)]
    fn refuse(
        &self,
        rid: &str,
        client: &str,
        class: &'static str,
        code: ErrorCode,
        message: String,
        token: u64,
        started: Instant,
        emit: &mut dyn FnMut(Response) -> io::Result<()>,
    ) -> io::Result<()> {
        let duration_us = started.elapsed().as_micros() as u64;
        self.metrics.observe_latency(class, duration_us);
        self.finish_request(token, RequestSummary {
            request: rid.to_string(),
            client: client.to_string(),
            class: class.to_string(),
            status: code.label().to_string(),
            reused: 0,
            fresh: 0,
            faults: 0,
            duration_us,
            spans: Vec::new(),
        });
        emit(Response::Error { code, message, request: rid.to_string() })
    }

    fn handle_optimize(
        &self,
        r: &OptimizeRequest,
        emit: &mut dyn FnMut(Response) -> io::Result<()>,
    ) -> io::Result<()> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        // The end-to-end trace id: client-minted when present, derived
        // from the same content the idempotency key covers otherwise —
        // either way it is echoed in every frame of the answer.
        let rid = if r.request.is_empty() { r.request_id() } else { r.request.clone() };
        let started = Instant::now();
        let token = self.recorder.begin(&rid, &r.client);
        self.metrics.in_flight.inc();
        let result = self.optimize_admitted(r, &rid, token, started, emit);
        self.metrics.in_flight.dec();
        result
    }

    fn optimize_admitted(
        &self,
        r: &OptimizeRequest,
        rid: &str,
        token: u64,
        started: Instant,
        emit: &mut dyn FnMut(Response) -> io::Result<()>,
    ) -> io::Result<()> {
        // Gate 1: a quarantined client is refused before any work.
        if self.quarantine.is_open(&r.client) {
            self.stats.shed_quarantined.fetch_add(1, Ordering::Relaxed);
            self.log_events(vec![shed_event(ErrorCode::Quarantined.label(), &r.client)]);
            let message = format!(
                "client {:?} is quarantined ({} distinct fault evidence pairs)",
                r.client,
                self.quarantine.evidence_of(&r.client)
            );
            return self
                .refuse(rid, &r.client, "shed", ErrorCode::Quarantined, message, token, started, emit);
        }

        // Gate 2: the request must name a servable configuration.
        let Some(level) = level_from_label(&r.level) else {
            self.stats.rejected_protocol.fetch_add(1, Ordering::Relaxed);
            let message = format!("unknown optimization level {:?}", r.level);
            return self
                .refuse(rid, &r.client, "poison", ErrorCode::Protocol, message, token, started, emit);
        };
        let policy = match policy_from_label(&r.policy) {
            Ok(p) => p,
            Err(message) => {
                self.stats.rejected_protocol.fetch_add(1, Ordering::Relaxed);
                return self.refuse(
                    rid, &r.client, "poison", ErrorCode::Protocol, message, token, started, emit,
                );
            }
        };

        // Gate 3: the module must parse.
        let module = match parse_module(&r.module_text) {
            Ok(m) => m,
            Err(e) => {
                self.stats.rejected_parse.fetch_add(1, Ordering::Relaxed);
                self.log_events(vec![shed_event(ErrorCode::Parse.label(), &r.client)]);
                let message = format!("module does not parse: {e}");
                return self.refuse(
                    rid, &r.client, "poison", ErrorCode::Parse, message, token, started, emit,
                );
            }
        };

        // Gate 4: deadline admission. The keyed (requested) deadline
        // names the work for caching; the live (remaining) deadline
        // governs it.
        let rb = RequestBudget::admit(self.config.caps, r.deadline_ms);
        let config_line = header_line(level.label(), policy.label(), &rb.keyed_budget());
        let t_admit = Instant::now();

        // Per-function cache partition: a hit must re-parse to a
        // function of the same name, or it degrades to a miss.
        let n = module.functions.len();
        let mut slots: Vec<Option<Function>> = vec![None; n];
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, f) in module.functions.iter().enumerate() {
            let key = ResultCache::key(&config_line, &format!("{f}"));
            let replayed = self.cache.lookup(&key).and_then(|body| {
                let parsed = parse_function(&body).ok()?;
                (parsed.name == f.name).then_some(parsed)
            });
            match replayed {
                Some(parsed) => slots[i] = Some(parsed),
                None => miss_idx.push(i),
            }
        }
        let reused = n - miss_idx.len();
        let t_probe = Instant::now();

        // Run the governed pipeline over the misses only.
        let mut report = SandboxReport::default();
        if !miss_idx.is_empty() {
            let Some(live) = rb.live_budget() else {
                self.stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
                self.log_events(vec![shed_event(ErrorCode::Deadline.label(), &r.client)]);
                let message = "request deadline expired before optimization started".to_string();
                return self.refuse(
                    rid, &r.client, "shed", ErrorCode::Deadline, message, token, started, emit,
                );
            };
            let mut sub = module.clone();
            sub.functions = miss_idx.iter().map(|&i| module.functions[i].clone()).collect();
            let chaos = self.config.chaos;
            let metrics = &self.metrics;
            let passes_for = move || {
                let mut passes = Vec::new();
                if let Some(model) = chaos {
                    passes.push(model.build());
                }
                passes.extend(Optimizer::new(level).passes());
                metrics.instrument(passes)
            };
            let governed = run_module_governed(
                &sub,
                &passes_for,
                policy,
                &LintOptions::invariants_only(),
                &live,
                self.config.breaker_threshold,
                self.config.request_jobs,
            );
            match governed {
                Ok((optimized, rep)) => {
                    for (slot, f) in miss_idx.iter().zip(optimized.functions) {
                        slots[*slot] = Some(f);
                    }
                    report = rep;
                }
                // Only FailFast returns Err, and fail-fast was rejected
                // above — but a daemon treats "impossible" as sheddable,
                // not as a panic.
                Err(fault) => {
                    self.stats.rejected_protocol.fetch_add(1, Ordering::Relaxed);
                    let message = format!("pipeline fault escaped containment: {fault}");
                    return self.refuse(
                        rid, &r.client, "poison", ErrorCode::Protocol, message, token, started,
                        emit,
                    );
                }
            }
        }
        let t_run = Instant::now();

        // Assemble in module order. Any request that optimized at least
        // one function runs the differential oracle over the WHOLE
        // module — replayed and fresh functions alike. A fully-replayed
        // request skips it: every cached body was oracle-validated at
        // insert time under this exact (config, input) key, is
        // fingerprint-verified when the journal loads, and was re-parsed
        // and name-checked above — a second oracle run would re-prove a
        // proven fact at full interpretation cost, which is exactly the
        // work the cache exists to skip.
        let mut candidate = module.clone();
        candidate.functions =
            slots.into_iter().map(|s| s.expect("every slot filled")).collect();
        let out = if miss_idx.is_empty() {
            epre_harness::HardenedOutput {
                module: candidate,
                faults: Vec::new(),
                divergences: Vec::new(),
                retries: 0,
                skipped: 0,
                quarantined: Vec::new(),
                inconclusive: 0,
            }
        } else {
            let harness = Harness {
                level,
                policy,
                oracle: self.config.oracle,
                budget: rb.live_budget().unwrap_or(self.config.caps),
                breaker_threshold: self.config.breaker_threshold,
                function_deadline: None,
            };
            harness.finish_with_oracle(&module, candidate, report)
        };
        let t_oracle = Instant::now();
        let rolled_back: Vec<String> =
            out.rolled_back_functions().into_iter().map(str::to_string).collect();

        // Write-ahead cache insert: only functions whose pipeline ran
        // clean and complete, from a request with no quarantine/skip
        // (a skipped pass would cache an under-optimized body that a
        // fresh run would not reproduce).
        let request_fully_ran = out.quarantined.is_empty() && out.skipped == 0;
        let miss_set: std::collections::BTreeSet<usize> = miss_idx.iter().copied().collect();
        if request_fully_ran {
            for (i, (input_f, out_f)) in
                module.functions.iter().zip(&out.module.functions).enumerate()
            {
                let clean = !rolled_back.iter().any(|rb| rb == &input_f.name)
                    && !out.faults.iter().any(|ft| ft.function == input_f.name);
                if miss_set.contains(&i) && clean {
                    let key = ResultCache::key(&config_line, &format!("{input_f}"));
                    if let Err(e) = self.cache.insert(&key, &format!("{out_f}")) {
                        // A full disk must not fail the request: the
                        // result is still correct, only uncached.
                        self.log_events(vec![shed_event("cache-write-failed", &r.client)]);
                        let _ = e;
                        break;
                    }
                }
            }
        }

        // Per-client quarantine evidence: each contained fault counts
        // once per distinct (pass, module) pair.
        let module_fp = format!("{:016x}", epre_harness::fingerprint64(&r.module_text));
        let mut client_quarantined = false;
        for fault in &out.faults {
            if self.quarantine.record(&r.client, &fault.pass, &module_fp)
                == QuarantineOutcome::Tripped
            {
                client_quarantined = true;
            }
        }

        // Frames: one per function in module order, then the terminal.
        for (i, f) in module.functions.iter().enumerate() {
            emit(Response::Function(FunctionFrame {
                name: f.name.clone(),
                cached: !miss_set.contains(&i),
                faults: out.faults.iter().filter(|ft| ft.function == f.name).count() as u64,
                rolled_back: rolled_back.iter().any(|rb| rb == &f.name),
                request: rid.to_string(),
            }))?;
        }
        let status = if out.is_clean() { "clean" } else { "degraded" };
        let idempotency =
            if r.idempotency.is_empty() { r.idempotency_key() } else { r.idempotency.clone() };
        let done = DoneFrame {
            status: status.into(),
            idempotency,
            request: rid.to_string(),
            module_text: format!("{}", out.module),
            reused: reused as u64,
            fresh: miss_idx.len() as u64,
            faults: out.faults.len() as u64,
            rollbacks: rolled_back.len() as u64,
            quarantined: out.quarantined.len() as u64,
            inconclusive: out.inconclusive as u64,
            client_quarantined,
        };

        self.stats.completed.fetch_add(1, Ordering::Relaxed);
        if status == "degraded" {
            self.stats.degraded.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.functions_reused.fetch_add(reused as u64, Ordering::Relaxed);
        self.stats.functions_fresh.fetch_add(miss_idx.len() as u64, Ordering::Relaxed);

        // Request class + latency: a fully-replayed answer is warm,
        // anything that ran the pipeline is cold.
        let class = if miss_idx.is_empty() { "warm" } else { "cold" };
        let t_done = Instant::now();
        let seg = |a: Instant, b: Instant| b.saturating_duration_since(a);
        let segments = [
            ("admission", started, t_admit, 1u64),
            ("cache-probe", t_admit, t_probe, n as u64),
            ("governed-run", t_probe, t_run, miss_idx.len() as u64),
            ("oracle", t_run, t_oracle, u64::from(!miss_idx.is_empty())),
            ("respond", t_oracle, t_done, 1),
        ];

        // The per-request trace lane: virtual durations are derived from
        // the request's shape (so traced runs are byte-identical at any
        // --request-jobs), wall clocks ride along for the recorder and
        // are never exported.
        let mut lane = FunctionTrace::new(rid, 0);
        for (pass, a, b, dur) in segments {
            let fields = match pass {
                "admission" => vec![
                    ("client".to_string(), Value::Str(r.client.clone())),
                    ("level".to_string(), Value::Str(level.label().to_string())),
                    ("policy".to_string(), Value::Str(policy.label().to_string())),
                ],
                "cache-probe" => vec![
                    ("hits".to_string(), Value::U64(reused as u64)),
                    ("misses".to_string(), Value::U64(miss_idx.len() as u64)),
                ],
                "governed-run" => vec![
                    ("faults".to_string(), Value::U64(out.faults.len() as u64)),
                    ("retries".to_string(), Value::U64(out.retries as u64)),
                    ("skipped".to_string(), Value::U64(out.skipped as u64)),
                ],
                "oracle" => vec![
                    ("ran".to_string(), Value::Bool(!miss_idx.is_empty())),
                    ("inconclusive".to_string(), Value::U64(out.inconclusive as u64)),
                    ("rollbacks".to_string(), Value::U64(rolled_back.len() as u64)),
                ],
                _ => vec![("status".to_string(), Value::Str(status.to_string()))],
            };
            lane.span(pass, dur, seg(a, b).as_nanos() as u64, fields);
        }
        let mut events = lane.events().to_vec();
        events.push(request_event(&RequestAccounting {
            request: rid.to_string(),
            client: r.client.clone(),
            status: status.into(),
            reused: reused as u64,
            fresh: miss_idx.len() as u64,
            faults: out.faults.len() as u64,
            rollbacks: rolled_back.len() as u64,
            cache_hits: reused as u64,
            cache_misses: miss_idx.len() as u64,
        }));
        self.log_events(events);

        let duration_us = started.elapsed().as_micros() as u64;
        self.metrics.observe_latency(class, duration_us);
        // Recorder + slow log settle BEFORE the terminal frame goes out:
        // an answer the client holds is always already accounted for.
        self.finish_request(token, RequestSummary {
            request: rid.to_string(),
            client: r.client.clone(),
            class: class.to_string(),
            status: status.to_string(),
            reused: reused as u64,
            fresh: miss_idx.len() as u64,
            faults: out.faults.len() as u64,
            duration_us,
            spans: segments
                .iter()
                .map(|(pass, a, b, _)| (pass.to_string(), seg(*a, *b).as_micros() as u64))
                .collect(),
        });

        emit(Response::Done(done))
    }

    fn log_events(&self, events: Vec<Event>) {
        if let Some(sink) = &self.telemetry {
            let rendered = Trace::from_events(events).to_jsonl();
            let mut w = sink.lock().expect("telemetry sink poisoned");
            // Telemetry is best-effort: a full disk must not take the
            // server down with it.
            let _ = w.write_all(rendered.as_bytes());
            let _ = w.flush();
        }
    }
}

/// Map a wire label to an [`OptLevel`] (all five levels are servable).
pub fn level_from_label(label: &str) -> Option<OptLevel> {
    let mut levels = OptLevel::PAPER_LEVELS.to_vec();
    levels.push(OptLevel::DistributionLvn);
    levels.into_iter().find(|l| l.label() == label)
}

/// Map a wire label to a [`FaultPolicy`]. `fail-fast` is rejected with
/// an explanation: a daemon degrades per function, it does not abort a
/// whole request on the first fault.
pub fn policy_from_label(label: &str) -> Result<FaultPolicy, String> {
    match label {
        "best-effort" => Ok(FaultPolicy::BestEffort),
        "retry-then-skip" => Ok(FaultPolicy::RetryThenSkip),
        "fail-fast" => Err("policy 'fail-fast' is not servable: the daemon degrades per \
                            function instead of failing whole requests"
            .into()),
        other => Err(format!("unknown fault policy {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};
    use std::sync::Arc;

    const SRC: &str = "function tri(n)\n\
                       integer n, i, s\n\
                       begin\n\
                       s = 0\n\
                       do i = 1, n\n\
                         s = s + i\n\
                       enddo\n\
                       return s\nend\n\
                       function mix(a, b)\n\
                       integer a, b, t\n\
                       begin\n\
                       t = a * b + a\n\
                       return t + a * b\nend\n";

    fn module_text() -> String {
        format!("{}", compile(SRC, NamingMode::Disciplined).unwrap())
    }

    fn optimize_request(text: &str) -> OptimizeRequest {
        OptimizeRequest {
            client: "test".into(),
            level: "distribution".into(),
            policy: "best-effort".into(),
            deadline_ms: None,
            idempotency: String::new(),
            request: String::new(),
            module_text: text.to_string(),
        }
    }

    fn drive(core: &ServerCore, req: &Request) -> Vec<Response> {
        let mut frames = Vec::new();
        core.handle(req, &mut |resp| {
            frames.push(resp);
            Ok(())
        })
        .unwrap();
        frames
    }

    fn done_of(frames: &[Response]) -> &DoneFrame {
        match frames.last() {
            Some(Response::Done(d)) => d,
            other => panic!("expected a done frame, got {other:?}"),
        }
    }

    #[test]
    fn serves_a_clean_module_and_matches_the_harness() {
        let text = module_text();
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let frames = drive(&core, &Request::Optimize(optimize_request(&text)));
        assert_eq!(frames.len(), 3, "two function frames + done");
        let done = done_of(&frames);
        assert_eq!(done.status, "clean");
        assert_eq!((done.reused, done.fresh), (0, 2));

        // Byte-identical to the plain hardened run under the same knobs.
        let module = parse_module(&text).unwrap();
        let harness = Harness::new(OptLevel::Distribution, FaultPolicy::BestEffort);
        let expected = harness.optimize(&module).unwrap();
        assert_eq!(done.module_text, format!("{}", expected.module));
    }

    #[test]
    fn second_submit_is_served_from_cache_byte_identically() {
        let text = module_text();
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let first = drive(&core, &Request::Optimize(optimize_request(&text)));
        let second = drive(&core, &Request::Optimize(optimize_request(&text)));
        let (d1, d2) = (done_of(&first), done_of(&second));
        assert_eq!((d2.reused, d2.fresh), (2, 0), "warm submit reuses every function");
        assert_eq!(d1.module_text, d2.module_text, "cache replay is byte-identical");
        assert_eq!(d1.idempotency, d2.idempotency);
        for f in &second[..2] {
            match f {
                Response::Function(f) => assert!(f.cached),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn chaos_pass_degrades_but_never_lies() {
        let text = module_text();
        let config =
            ServeConfig { chaos: Some(PassFaultModel::NonTerminating), ..Default::default() };
        let core = ServerCore::new(config, ResultCache::in_memory());
        let frames = drive(&core, &Request::Optimize(optimize_request(&text)));
        let done = done_of(&frames);
        assert_eq!(done.status, "degraded");
        assert!(done.faults >= 1, "the chaos pass faulted under its budget");
        // The module still agrees with the input: faulting passes roll
        // back, and the oracle guards the assembled result.
        let module = parse_module(&text).unwrap();
        let out = parse_module(&done.module_text).unwrap();
        let divergences = epre_harness::compare_modules(&module, &out, &OracleConfig::default());
        assert!(divergences.is_empty());
        // Nothing from a degraded, quarantine-tripping request was
        // cached with a skipped pipeline.
        let warm = drive(&core, &Request::Optimize(optimize_request(&text)));
        assert_eq!(done_of(&warm).module_text, done.module_text, "degraded replay agrees");
    }

    #[test]
    fn parse_and_protocol_rejections_are_typed() {
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let mut bad = optimize_request("this is not iloc");
        let frames = drive(&core, &Request::Optimize(bad.clone()));
        assert!(
            matches!(frames.last(), Some(Response::Error { code: ErrorCode::Parse, .. })),
            "{frames:?}"
        );
        bad.level = "warp-speed".into();
        let frames = drive(&core, &Request::Optimize(bad.clone()));
        assert!(matches!(frames.last(), Some(Response::Error { code: ErrorCode::Protocol, .. })));
        bad.level = "distribution".into();
        bad.policy = "fail-fast".into();
        let frames = drive(&core, &Request::Optimize(bad));
        assert!(matches!(frames.last(), Some(Response::Error { code: ErrorCode::Protocol, .. })));
    }

    #[test]
    fn expired_deadline_is_shed_with_a_typed_response() {
        let text = module_text();
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let mut req = optimize_request(&text);
        req.deadline_ms = Some(0);
        let frames = drive(&core, &Request::Optimize(req));
        assert!(
            matches!(frames.last(), Some(Response::Error { code: ErrorCode::Deadline, .. })),
            "{frames:?}"
        );
        let stats = core.stats_snapshot();
        let shed = stats.iter().find(|(k, _)| k == "shed_deadline").unwrap().1;
        assert_eq!(shed, 1);
    }

    #[test]
    fn faulty_client_is_quarantined_and_then_refused() {
        let text = module_text();
        let config = ServeConfig {
            chaos: Some(PassFaultModel::QuadraticGrowth),
            client_threshold: 2,
            breaker_threshold: 100, // let every fault through to evidence
            ..Default::default()
        };
        let core = ServerCore::new(config, ResultCache::in_memory());
        // Distinct modules build distinct (pass, module) evidence pairs.
        let mut req1 = optimize_request(&text);
        req1.client = "noisy".into();
        let mut req2 = req1.clone();
        req2.module_text = format!("{text}\n");
        drive(&core, &Request::Optimize(req1.clone()));
        let frames = drive(&core, &Request::Optimize(req2));
        let tripped = match frames.last() {
            Some(Response::Done(d)) => d.client_quarantined,
            Some(Response::Error { code: ErrorCode::Quarantined, .. }) => true,
            other => panic!("unexpected terminal {other:?}"),
        };
        assert!(tripped, "second distinct faulting module trips threshold 2");
        let frames = drive(&core, &Request::Optimize(req1));
        assert!(
            matches!(frames.last(), Some(Response::Error { code: ErrorCode::Quarantined, .. })),
            "quarantined client is refused, {frames:?}"
        );
        // Other clients are unaffected by the noisy one.
        let clean_core_req = optimize_request(&text);
        let frames = drive(&core, &Request::Optimize(clean_core_req));
        assert!(matches!(frames.last(), Some(Response::Done(_))));
    }

    #[test]
    fn request_id_is_echoed_in_every_frame_and_derived_when_absent() {
        let text = module_text();
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let req = optimize_request(&text);
        let expected = req.request_id();
        let frames = drive(&core, &Request::Optimize(req.clone()));
        for f in &frames {
            match f {
                Response::Function(f) => assert_eq!(f.request, expected),
                Response::Done(d) => assert_eq!(d.request, expected),
                other => panic!("unexpected frame {other:?}"),
            }
        }
        // A client-minted id wins over derivation, including on errors.
        let mut minted = optimize_request("not iloc");
        minted.request = "feedc0defeedc0de".into();
        let frames = drive(&core, &Request::Optimize(minted));
        match frames.last() {
            Some(Response::Error { code: ErrorCode::Parse, request, .. }) => {
                assert_eq!(request, "feedc0defeedc0de");
            }
            other => panic!("expected a parse refusal, got {other:?}"),
        }
    }

    #[test]
    fn metrics_render_reconciles_with_stats_by_construction() {
        let text = module_text();
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        drive(&core, &Request::Optimize(optimize_request(&text)));
        drive(&core, &Request::Optimize(optimize_request(&text)));
        drive(&core, &Request::Optimize(optimize_request("not iloc")));

        let frames = drive(&core, &Request::Metrics { format: "text".into() });
        let body = match frames.last() {
            Some(Response::Metrics { body }) => body.clone(),
            other => panic!("expected metrics, got {other:?}"),
        };
        // Every stats counter appears, mirrored, with the same value.
        for (name, value) in core.stats_snapshot() {
            let mirrored = match name.as_str() {
                "cache_entries" | "cache_file_bytes" | "cache_live_bytes"
                | "quarantined_clients" => format!("epre_{name} {value}"),
                _ => format!("epre_{name}_total {value}"),
            };
            assert!(body.contains(&mirrored), "missing {mirrored:?} in:\n{body}");
        }
        // Live series: one cold + one warm + one poison observation, and
        // the governed pipeline charged per-pass time.
        assert!(body.contains("epre_request_latency_us_count{class=\"cold\"} 1"), "{body}");
        assert!(body.contains("epre_request_latency_us_count{class=\"warm\"} 1"), "{body}");
        assert!(body.contains("epre_request_latency_us_count{class=\"poison\"} 1"), "{body}");
        assert!(body.contains("epre_pass_runs_total{pass=\"pre\"}"), "{body}");

        // The JSON render agrees and is integer-only.
        let frames = drive(&core, &Request::Metrics { format: "json".into() });
        match frames.last() {
            Some(Response::Metrics { body }) => {
                assert!(body.starts_with("{\"metrics\":["), "{body}");
                assert!(body.contains("\"epre_requests_total\""), "{body}");
                assert!(!body.contains('.'), "integer-only JSON render:\n{body}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn flight_recorder_accounts_for_served_and_refused_requests() {
        let text = module_text();
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        drive(&core, &Request::Optimize(optimize_request(&text)));
        drive(&core, &Request::Optimize(optimize_request("not iloc")));
        let dump = core.recorder().dump();
        assert!(dump.starts_with("{\"flight_recorder\":true,"), "{dump}");
        assert!(dump.contains("\"class\":\"cold\",\"status\":\"clean\""), "{dump}");
        assert!(dump.contains("\"class\":\"poison\",\"status\":\"parse\""), "{dump}");
        assert!(dump.contains("\"spans\":{\"admission\":"), "served spans recorded:\n{dump}");
        assert!(!dump.contains("\"in_flight\":true"), "nothing is in flight now:\n{dump}");
    }

    #[test]
    fn slow_log_writes_full_span_breakdown_before_the_answer() {
        let text = module_text();
        let config = ServeConfig { slow_us: Some(0), ..Default::default() };
        let mut core = ServerCore::new(config, ResultCache::in_memory());
        let sink: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        core.attach_slow_log(Box::new(SharedSink(Arc::clone(&sink))));
        drive(&core, &Request::Optimize(optimize_request(&text)));
        let logged = String::from_utf8(sink.lock().unwrap().clone()).unwrap();
        assert!(logged.starts_with("{\"slow\":true,"), "{logged}");
        for span in ["admission", "cache-probe", "governed-run", "oracle", "respond"] {
            assert!(logged.contains(&format!("\"{span}\":")), "missing {span}: {logged}");
        }
        let frames = drive(&core, &Request::Metrics { format: "text".into() });
        match frames.last() {
            Some(Response::Metrics { body }) => {
                assert!(body.contains("epre_slow_requests_total 1"), "{body}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    struct SharedSink(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stats_and_acks_answer() {
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let frames = drive(&core, &Request::Ping);
        assert_eq!(frames, vec![Response::Ack { what: "pong".into() }]);
        let frames = drive(&core, &Request::Stats);
        match &frames[0] {
            Response::Stats(counters) => {
                assert!(counters.iter().any(|(k, _)| k == "cache_hits"));
                assert!(counters.iter().any(|(k, _)| k == "requests"));
            }
            other => panic!("expected stats, got {other:?}"),
        }
        assert!(!core.shutdown_requested());
        drive(&core, &Request::Shutdown);
        assert!(core.shutdown_requested());
    }
}
