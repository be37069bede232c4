//! Daemon **serving throughput**: wall-clock time for an in-process
//! [`ServerCore`] to answer an optimization request for the whole
//! 50-routine suite cold (empty result cache, every function optimized
//! through the governed pipeline) versus warm (unchanged-module
//! resubmit, every function replayed from the content-addressed cache).
//!
//! Both paths run the full admission/oracle machinery — the warm path
//! still re-parses every cached body and differentially verifies the
//! assembled module — so the speedup measures exactly what the cache is
//! allowed to skip: the optimization pipeline itself. Results are
//! printed and appended to `BENCH_SERVE.json` at the workspace root.
//!
//! Usage: `cargo bench -p epre-bench --bench serve [-- --quick]`
//!
//! `--quick` runs one repetition instead of three; it is the CI smoke
//! configuration (`scripts/ci.sh`).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use epre_frontend::NamingMode;
use epre_ir::{Inst, Module};
use epre_serve::{OptimizeRequest, Request, Response, ResultCache, ServeConfig, ServerCore};
use epre_suite::all_routines;
use epre_telemetry::json::{obj, Json};

/// All 50 routines fused into one module so the daemon has real work to
/// serve; same fusion as the throughput bench (names prefixed to stay
/// unique, module optimized but never executed).
fn combined_module() -> Module {
    let mut out = Module::new();
    for r in all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        let local: HashSet<String> = m.functions.iter().map(|f| f.name.clone()).collect();
        out.data_words = out.data_words.max(m.data_words);
        for mut f in m.functions {
            f.name = format!("{}__{}", r.name, f.name);
            for block in &mut f.blocks {
                for inst in &mut block.insts {
                    if let Inst::Call { callee, .. } = inst {
                        if local.contains(callee.as_str()) {
                            *callee = format!("{}__{}", r.name, callee);
                        }
                    }
                }
            }
            out.functions.push(f);
        }
    }
    out
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submit one request to an in-process core and return the terminal
/// accounting: (status, module_text, reused, fresh).
fn submit_once(core: &ServerCore, req: &OptimizeRequest) -> (String, String, u64, u64) {
    let mut done = None;
    core.handle(&Request::Optimize(req.clone()), &mut |resp| {
        if let Response::Done(frame) = resp {
            done = Some(frame);
        }
        Ok(())
    })
    .expect("in-process emit cannot fail");
    let d = done.expect("request must end with a terminal frame");
    (d.status, d.module_text, d.reused, d.fresh)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let module = combined_module();
    let functions = module.functions.len();
    let req = OptimizeRequest {
        client: "bench".into(),
        level: "distribution+lvn".into(),
        policy: "best-effort".into(),
        deadline_ms: None,
        idempotency: String::new(),
        request: String::new(),
        module_text: format!("{module}"),
    };
    println!(
        "serve: {functions} function(s) from 50 routines, {cpus} cpu(s), best of {reps} rep(s)"
    );

    // Cold: a fresh in-memory cache per repetition, so every function
    // goes through the governed pipeline every time.
    let mut cold = Duration::MAX;
    let mut cold_text = String::new();
    for _ in 0..reps {
        let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
        let t0 = Instant::now();
        let (status, text, reused, fresh) = submit_once(&core, &req);
        let t = t0.elapsed();
        assert_eq!(status, "clean", "cold submit must be clean");
        assert_eq!((reused, fresh), (0, functions as u64), "cold submit optimizes everything");
        cold = cold.min(t);
        cold_text = text;
    }

    // Warm: one core primed once, then timed unchanged-module resubmits
    // that replay every function from the cache (oracle still runs).
    let core = ServerCore::new(ServeConfig::default(), ResultCache::in_memory());
    submit_once(&core, &req);
    let mut warm = Duration::MAX;
    let mut warm_text = String::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        let (status, text, reused, fresh) = submit_once(&core, &req);
        let t = t0.elapsed();
        assert_eq!(status, "clean", "warm submit must be clean");
        assert_eq!((reused, fresh), (functions as u64, 0), "warm submit replays everything");
        warm = warm.min(t);
        warm_text = text;
    }
    assert_eq!(cold_text, warm_text, "cache replay must be byte-identical to recomputation");

    let speedup = cold.as_secs_f64() / warm.as_secs_f64();
    println!("  cold  {:>9.1}ms  ({:.0} fn/s)", ms(cold), functions as f64 / cold.as_secs_f64());
    println!("  warm  {:>9.1}ms  ({:.0} fn/s)", ms(warm), functions as f64 / warm.as_secs_f64());
    println!("  warm/cold speedup {speedup:.2}x (target >= 5x)");

    let entry = obj(vec![
        ("quick", Json::Bool(quick)),
        ("cpus", Json::U64(cpus as u64)),
        ("functions", Json::U64(functions as u64)),
        ("reps", Json::U64(reps as u64)),
        ("cold_ms", Json::fixed(ms(cold), 3)),
        ("warm_ms", Json::fixed(ms(warm), 3)),
        ("speedup", Json::fixed(speedup, 3)),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_SERVE.json");
    let existing = std::fs::read_to_string(path).ok();
    let json = epre_bench::merge_named_runs("serve", existing.as_deref(), entry)
        .unwrap_or_else(|e| panic!("{path}: {e}; the file is left as it was"));
    match std::fs::write(path, &json) {
        Ok(()) => {
            println!("\nwrote {path} ({} run(s) on record)", epre_bench::next_run_number(&json));
        }
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
    assert!(speedup >= 5.0, "unchanged-module resubmit must be >= 5x cold, got {speedup:.2}x");
}
