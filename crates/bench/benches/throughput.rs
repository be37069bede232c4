//! Optimizer **throughput**: wall-clock time to run every optimization
//! level over the whole 50-routine suite, serially and with the parallel
//! `--jobs` driver, plus the per-pass breakdown and analysis-cache hit
//! rates from the timed pipeline.
//!
//! Unlike `table1`/`table2` (which measure the *optimized code*), this
//! benchmark measures the *optimizer itself* — the subject of the
//! pass-manager work: cached analyses, allocation-free dataflow, and the
//! `std::thread::scope` module driver. Results are printed as a table and
//! written to `BENCH_OPT.json` at the workspace root.
//!
//! Usage: `cargo bench -p epre-bench --bench throughput [-- --quick]`
//!
//! `--quick` runs one repetition instead of three and a single thread
//! count; it is the CI smoke configuration (`scripts/bench_smoke.sh`).

use std::collections::HashSet;
use std::time::{Duration, Instant};

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_ir::{Inst, Module};
use epre_suite::all_routines;
use epre_telemetry::json::{obj, Json};

/// All 50 routines fused into one module so the per-function parallel
/// driver has real work to distribute. Function names (and intra-routine
/// call targets) are prefixed with the routine name to keep them unique;
/// intrinsics and cross-module names are left alone. The combined module
/// is optimized, never executed, so the routines' unrelated data segments
/// do not conflict.
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

/// Best-of-`reps` wall time for one closure.
fn best_of<F: FnMut()>(reps: usize, mut body: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        body();
        best = best.min(t0.elapsed());
    }
    best
}

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 1 } else { 3 };
    let jobs_list: &[usize] = if quick { &[4] } else { &[2, 4, 8] };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let module = combined_module();
    println!(
        "throughput: {} function(s) from 50 routines, {} cpu(s), best of {} rep(s)",
        module.functions.len(),
        cpus,
        reps
    );
    println!();
    println!(
        "{:18} {:>10} {}",
        "level",
        "serial",
        jobs_list.iter().map(|j| format!("{:>8}", format!("jobs={j}"))).collect::<String>()
    );

    let mut level_jsons = Vec::new();
    for level in ALL_LEVELS {
        let opt = Optimizer::new(level);
        // Reference output + serial wall time.
        let serial_out = opt.optimize(&module);
        let serial = best_of(reps, || {
            std::hint::black_box(opt.optimize(std::hint::black_box(&module)));
        });

        let mut cells = String::new();
        let mut jobs_json = Vec::new();
        for &jobs in jobs_list {
            let parallel_out = opt.optimize_jobs(&module, jobs);
            assert_eq!(
                format!("{serial_out}"),
                format!("{parallel_out}"),
                "{}: --jobs {jobs} must be byte-identical to serial",
                level.label()
            );
            let t = best_of(reps, || {
                std::hint::black_box(opt.optimize_jobs(std::hint::black_box(&module), jobs));
            });
            let speedup = serial.as_secs_f64() / t.as_secs_f64();
            cells.push_str(&format!("{:>8}", format!("{speedup:.2}x")));
            jobs_json.push(obj(vec![
                ("jobs", Json::U64(jobs as u64)),
                ("ms", Json::fixed(ms(t), 3)),
                ("speedup", Json::fixed(speedup, 3)),
            ]));
        }
        println!("{:18} {:>8.1}ms {cells}", level.label(), ms(serial));

        // Per-pass breakdown + cache hit rates, once per level (the timed
        // pipeline is the serial one; see `epre::timings`). The coalesce
        // share of total pass time is recorded per run — including in
        // `--quick` CI smokes — so the hot-spot trajectory stays visible
        // PR over PR.
        let (_, report) = opt.optimize_timed(&module);
        let pass_ms: f64 = report.passes.iter().map(|p| ms(p.duration)).sum();
        let coalesce_ms: f64 =
            report.passes.iter().filter(|p| p.pass == "coalesce").map(|p| ms(p.duration)).sum();
        let coalesce_share = if pass_ms > 0.0 { coalesce_ms / pass_ms } else { 0.0 };
        println!("{:18} coalesce {:.1}% of pass time", "", coalesce_share * 100.0);
        level_jsons.push(obj(vec![
            ("level", Json::Str(level.label().into())),
            ("serial_ms", Json::fixed(ms(serial), 3)),
            ("coalesce_share", Json::fixed(coalesce_share, 3)),
            ("jobs", Json::Arr(jobs_json)),
            ("timings", report.to_json()),
        ]));
    }

    let entry = obj(vec![
        ("quick", Json::Bool(quick)),
        ("cpus", Json::U64(cpus as u64)),
        ("functions", Json::U64(module.functions.len() as u64)),
        ("reps", Json::U64(reps as u64)),
        ("levels", Json::Arr(level_jsons)),
    ]);
    // Append to the run history instead of overwriting past results; the
    // `run` numbers increase monotonically across invocations.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_OPT.json");
    let existing = std::fs::read_to_string(path).ok();
    let json = epre_bench::merge_bench_runs(existing.as_deref(), entry)
        .unwrap_or_else(|e| panic!("{path}: {e}; the file is left as it was"));
    assert!(
        epre_bench::runs_monotonic(&json),
        "appending this run must keep the monotonic `run` history `epre report` enforces"
    );
    match std::fs::write(path, &json) {
        Ok(()) => println!("\nwrote {path} ({} run(s) on record)", epre_bench::next_run_number(&json)),
        Err(e) => eprintln!("\ncould not write {path}: {e}"),
    }
}
