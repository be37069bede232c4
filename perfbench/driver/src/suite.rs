//! The `suite-*` workloads: all 50 suite routines fused into one module
//! and optimized in process at one level.
//!
//! The untraced run times `Optimizer::optimize` (serial, the `full`
//! class) and `Optimizer::optimize_jobs(…, 2)` (the `fast` class),
//! alternating one of each so drift hits both alike. The traced run
//! replays `Optimizer::try_optimize_function` from outside the program —
//! clone the module, then per function one fresh `AnalysisCache` and
//! each pass through `run_pass_budgeted` — timing every call. Traced and
//! untraced runs alternate, and the run fails unless the timed parts add
//! up to the untraced `Optimizer::optimize` time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use epre::stats::results_agree;
use epre::{run_pass_budgeted, Budget, OptLevel, Optimizer};
use epre_analysis::{AnalysisCache, CacheStats, Liveness};
use epre_cfg::{Cfg, Dominators};
use epre_interp::Value;
use epre_ir::Module;
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

use crate::corpus::{check_table1, compile_suite, execute, fuse, fused_name};
use crate::stats::{
    describe, median, samples_needed, thread_cpu_ms, windowed_percentile, windowed_rate, Sample,
    StealLog, WINDOWS,
};
use crate::Report;

/// Setups timed before the measurement; `frontend.compile_ms` is their
/// median.
const SETUP_FIRST: usize = 5;
/// Setups timed in an untraced run; `setup_s` is their median. After the
/// first [`SETUP_FIRST`] they are spread evenly over the measurement, so
/// the figure sees the host as the whole run does, not one instant of
/// it. A setup takes about 15 ms.
const SETUP_REPS: usize = 100;

/// Largest share of the untraced `optimize` time that the timed layers
/// may miss, either way, before the traced run fails its reconciliation.
pub const RECONCILE_TOLERANCE: f64 = 0.05;

struct Setup {
    module: Module,
    /// (fused entry name, unoptimized result) per routine, suite order.
    reference: Vec<(String, Option<Value>)>,
    compile_ms: f64,
}

/// Compile the suite, fuse it in the seeded order, and interpret the
/// unoptimized routines for their reference results.
fn setup(seed: u64) -> Result<Setup, String> {
    let (routines, compile_ms) = compile_suite()?;
    let module = fuse(&routines, seed);
    let mut reference = Vec::new();
    for r in &routines {
        let entry = fused_name(&r.name, &r.entry);
        let (result, _) = execute(&module, &entry)?;
        reference.push((entry, result));
    }
    Ok(Setup { module, reference, compile_ms })
}

/// One setup, timed as this thread's CPU time: a setup is
/// single-threaded, like the serial optimization, so this leaves out
/// stolen time.
fn timed_setup(seed: u64, setup_ms: &mut Vec<f64>) -> Result<Setup, String> {
    let cpu0 = thread_cpu_ms();
    let s = setup(seed)?;
    setup_ms.push(thread_cpu_ms() - cpu0);
    Ok(s)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run one suite workload at `level` and fill `report`.
pub fn run(
    level: OptLevel,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let mut last = None;
    let mut setup_ms = Vec::new();
    let mut compile_ms = Vec::new();
    for _ in 0..SETUP_FIRST {
        drop(last.take());
        let s = timed_setup(seed, &mut setup_ms)?;
        compile_ms.push(s.compile_ms);
        last = Some(s);
    }
    let compile_ms = median(&compile_ms);
    let s = last.expect("at least one setup");
    let opt = Optimizer::new(level);
    report.note(format!(
        "suite {}: {} functions, {} instructions in, seed {seed}",
        level.label(),
        s.module.functions.len(),
        s.module.static_op_count()
    ));

    // Correctness, outside the clock: every optimized routine computes
    // what its unoptimized self computes (the interpreter is the
    // reference, not the optimizer), and the parallel driver is
    // byte-identical to the serial one.
    let serial_out = opt.optimize(&s.module);
    let t_interp = Instant::now();
    let mut dyn_ops = 0u64;
    for (entry, expected) in &s.reference {
        match execute(&serial_out, entry) {
            Ok((got, ops)) => {
                dyn_ops += ops;
                report.check(results_agree(*expected, got), || {
                    format!(
                        "{entry}: optimized result {got:?} differs from unoptimized {expected:?}"
                    )
                });
            }
            Err(e) => report.check(false, || format!("optimized {e}")),
        }
    }
    let interp_ms = ms(t_interp.elapsed());
    check_table1(dyn_ops, level.label(), report)?;
    let serial_text = format!("{serial_out}");
    report.check(format!("{}", opt.optimize_jobs(&s.module, 2)) == serial_text, || {
        "optimize_jobs(module, 2) is not byte-identical to optimize(module)".to_string()
    });
    let static_insts = serial_out.static_op_count();

    // Untimed warm-up: caches, allocator and clock speed settle first.
    let t_warm = Instant::now();
    while t_warm.elapsed().as_secs_f64() < seconds * crate::WARMUP_SHARE {
        black_box(opt.optimize(black_box(&s.module)));
        black_box(opt.optimize_jobs(black_box(&s.module), 2));
    }

    if trace {
        return traced(&opt, &s, &serial_out, seconds, compile_ms, interp_ms, dyn_ops, report);
    }

    // The serial optimization runs on this thread, so its CPU time is
    // exact and excludes steal; the parallel one's wall time is
    // steal-corrected per window instead.
    let mut full: Vec<Sample> = Vec::new();
    let mut full_wall: Vec<Sample> = Vec::new();
    let mut fast: Vec<Sample> = Vec::new();
    let need = WINDOWS * samples_needed(50.0);
    let setup_every = seconds / (SETUP_REPS - SETUP_FIRST) as f64;
    let mut next_setup = 0.0;
    let t_loop = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let (elapsed, steal) = StealLog::record(t_loop, || {
        while t_loop.elapsed() < budget || full.len() < need || fast.len() < need {
            if setup_ms.len() < SETUP_REPS && t_loop.elapsed().as_secs_f64() >= next_setup {
                drop(timed_setup(seed, &mut setup_ms)?);
                next_setup += setup_every;
            }
            let (t0, cpu0) = (Instant::now(), thread_cpu_ms());
            let out = opt.optimize(black_box(&s.module));
            let end = t_loop.elapsed().as_secs_f64();
            full.push((end, thread_cpu_ms() - cpu0));
            full_wall.push((end, ms(t0.elapsed())));
            report.check(out == serial_out, || "optimize(module) is not deterministic".to_string());
            let t0 = Instant::now();
            let out = opt.optimize_jobs(black_box(&s.module), 2);
            fast.push((t_loop.elapsed().as_secs_f64(), ms(t0.elapsed())));
            report.check(out == serial_out, || {
                "optimize_jobs(module, 2) differs from serial".to_string()
            });
        }
        Ok::<f64, String>(t_loop.elapsed().as_secs_f64())
    });
    let elapsed = elapsed?;
    report.note(describe("full (optimize), wall", &full_wall));
    report.note(describe("full (optimize), thread CPU", &full));
    report.note(describe("fast (optimize_jobs 2)", &fast));
    report
        .note(format!("host steal: {:.1}% of wanted CPU time", 100.0 * steal.share(0.0, elapsed)));
    report.note(format!("setup: {} runs, thread CPU time", setup_ms.len()));

    report.metric("setup_s", median(&setup_ms) / 1e3, "s");
    report.metric("full_ms_p50", pct(&full, 50.0, &StealLog::default())?, "ms");
    report.metric("fast_ms_p50", pct(&fast, 50.0, &steal)?, "ms");
    let ends: Vec<f64> = full.iter().chain(&fast).map(|&(end, _)| end).collect();
    report.metric("rps", windowed_rate(&ends, elapsed, &steal), "1/s");
    report.metric("dyn_ops", dyn_ops as f64, "count");
    report.metric("static_insts", static_insts as f64, "count");
    Ok(())
}

fn pct(samples: &[Sample], p: f64, steal: &StealLog) -> Result<f64, String> {
    windowed_percentile(samples, p, steal)
        .ok_or_else(|| format!("too few samples ({}) for p{p}", samples.len()))
}

/// One traced replay of the serial pipeline.
#[derive(Default)]
struct Replay {
    /// The whole replay, layers and timing calls.
    total_ms: f64,
    clone_ms: f64,
    /// Per function: building the pass list and the analysis cache, and
    /// dropping both.
    fn_setup_ms: f64,
    fn_ms_max: f64,
    /// Per pass name: (ms, functions it changed, instructions after it).
    passes: BTreeMap<String, (f64, u64, u64)>,
    cache: CacheStats,
}

impl Replay {
    /// Σ of the timed layers: clone, per-function setup and every pass.
    fn layers_ms(&self) -> f64 {
        self.clone_ms + self.fn_setup_ms + self.passes.values().map(|p| p.0).sum::<f64>()
    }
}

/// `Optimizer::try_optimize_function` over a clone of the module, timed
/// per call from outside.
fn replay(opt: &Optimizer, module: &Module) -> Result<(Module, Replay), String> {
    let mut r = Replay::default();
    let t_total = Instant::now();
    let t0 = Instant::now();
    let mut out = module.clone();
    r.clone_ms = ms(t0.elapsed());
    for f in &mut out.functions {
        let t0 = Instant::now();
        let passes = opt.passes();
        let mut cache = AnalysisCache::new();
        let mut setup_ms = ms(t0.elapsed());
        let mut fn_ms = 0.0;
        for pass in &passes {
            let t0 = Instant::now();
            let changed = run_pass_budgeted(pass.as_ref(), f, &mut cache, &Budget::UNLIMITED)
                .map_err(|e| format!("traced replay: {e}"))?;
            let d = ms(t0.elapsed());
            fn_ms += d;
            let e = r.passes.entry(crate::metric_key(pass.name())).or_default();
            e.0 += d;
            e.1 += u64::from(changed);
            e.2 += f.static_op_count() as u64;
        }
        r.cache.merge(cache.stats());
        let t0 = Instant::now();
        drop(cache);
        drop(passes);
        setup_ms += ms(t0.elapsed());
        r.fn_setup_ms += setup_ms;
        r.fn_ms_max = r.fn_ms_max.max(fn_ms + setup_ms);
    }
    r.total_ms = ms(t_total.elapsed());
    Ok((out, r))
}

/// Standalone per-function analysis costs over the input module:
/// (cfg, dominators, liveness, ssa build, ssa destroy), ms.
fn analyses(module: &Module) -> [f64; 5] {
    let mut t = [0.0; 5];
    for f in &module.functions {
        let t0 = Instant::now();
        let cfg = Cfg::new(f);
        t[0] += ms(t0.elapsed());
        let t0 = Instant::now();
        black_box(Dominators::new(f, &cfg));
        t[1] += ms(t0.elapsed());
        let t0 = Instant::now();
        black_box(Liveness::new(f, &cfg));
        t[2] += ms(t0.elapsed());
        let mut g = f.clone();
        let t0 = Instant::now();
        build_ssa(&mut g, SsaOptions::default());
        t[3] += ms(t0.elapsed());
        let t0 = Instant::now();
        destroy_ssa(&mut g);
        t[4] += ms(t0.elapsed());
    }
    t
}

#[allow(clippy::too_many_arguments)]
fn traced(
    opt: &Optimizer,
    s: &Setup,
    serial_out: &Module,
    seconds: f64,
    compile_ms: f64,
    interp_ms: f64,
    dyn_ops: u64,
    report: &mut Report,
) -> Result<(), String> {
    // Untraced and traced runs alternate on the same inputs, so drift in
    // the host's speed hits both alike.
    let mut untraced = Vec::new();
    let mut reps = Vec::new();
    let t_loop = Instant::now();
    while t_loop.elapsed().as_secs_f64() < 0.8 * seconds || reps.len() < samples_needed(50.0) {
        let t0 = Instant::now();
        black_box(opt.optimize(black_box(&s.module)));
        untraced.push(ms(t0.elapsed()));
        let (out, r) = replay(opt, &s.module)?;
        report.check(out == *serial_out, || {
            "traced replay differs from Optimizer::optimize".to_string()
        });
        reps.push(r);
    }

    let mut standalone = Vec::new();
    let t_loop = Instant::now();
    while t_loop.elapsed().as_secs_f64() < 0.2 * seconds || standalone.len() < 5 {
        standalone.push(analyses(&s.module));
    }

    let n = reps.len() as f64;
    let avg = |f: &dyn Fn(&Replay) -> f64| reps.iter().map(f).sum::<f64>() / n;
    let p50 = |f: &dyn Fn(&Replay) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    for pass in opt.passes() {
        let name = crate::metric_key(pass.name());
        let get = |i: usize| {
            avg(&|r: &Replay| r.passes.get(&name).map_or(0.0, |p| [p.0, p.1 as f64, p.2 as f64][i]))
        };
        report.metric(&format!("passes.{name}.ms"), get(0), "ms");
        report.metric(&format!("passes.{name}.changed"), get(1), "count");
        report.metric(&format!("ir.insts.{name}"), get(2), "count");
    }
    let hits = avg(&|r| r.cache.hits as f64);
    let misses = avg(&|r| r.cache.misses as f64);
    report.metric("analysis.cache_hits", hits, "count");
    report.metric("analysis.cache_misses", misses, "count");
    report.metric("analysis.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    report.metric("core.clone_ms", avg(&|r| r.clone_ms), "ms");
    report.metric("core.fn_setup_ms", avg(&|r| r.fn_setup_ms), "ms");
    report.metric("core.fn_ms_max", avg(&|r| r.fn_ms_max), "ms");

    // The reconciliation: the layers against the untraced whole.
    let untraced_p50 = median(&untraced);
    let layers_p50 = p50(&Replay::layers_ms);
    let total_p50 = p50(&|r| r.total_ms);
    let gap = (untraced_p50 - layers_p50) / untraced_p50;
    report.metric("core.unattributed_ms", untraced_p50 - layers_p50, "ms");
    report.metric("trace.total_ms", total_p50, "ms");
    report.metric("trace.overhead_ms", total_p50 - untraced_p50, "ms");
    report.metric("trace.residual_ratio", gap, "ratio");
    report.note(format!(
        "reconcile: untraced optimize p50 {untraced_p50:.3} ms, layers p50 {layers_p50:.3} ms, \
         unattributed {:.2}% (tolerance {:.0}%); traced total p50 {total_p50:.3} ms; {} runs each",
        gap * 100.0,
        RECONCILE_TOLERANCE * 100.0,
        reps.len()
    ));
    report.check(gap.abs() <= RECONCILE_TOLERANCE, || {
        format!(
            "traced layers ({layers_p50:.3} ms) miss the untraced optimize time \
             ({untraced_p50:.3} ms) by {:.2}%",
            gap * 100.0
        )
    });

    let col = |i: usize| median(&standalone.iter().map(|t| t[i]).collect::<Vec<_>>());
    report.metric("cfg.build_ms", col(0), "ms");
    report.metric("cfg.dom_ms", col(1), "ms");
    report.metric("analysis.liveness_ms", col(2), "ms");
    report.metric("ssa.build_ms", col(3), "ms");
    report.metric("ssa.destroy_ms", col(4), "ms");
    report.metric("interp.ms", interp_ms, "ms");
    report.metric("interp.ops", dyn_ops as f64, "count");
    report.metric("frontend.compile_ms", compile_ms, "ms");
    Ok(())
}
