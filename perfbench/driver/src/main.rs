//! Benchmark driver for the Effective PRE workspace.
//!
//! ```text
//! perfbench-driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench-driver --list-metrics
//! ```
//!
//! Workloads: `suite-distribution`, `suite-baseline` (the fused
//! 50-routine module optimized in process) and `serve-mixed` (a closed
//! loop of keep-alive clients against an in-process daemon). Every run
//! checks its outputs and prints, as its last stdout line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. `perfbench/README.md` says what each measures.

mod corpus;
mod serve;
mod stats;
mod suite;

use std::process::ExitCode;

use epre::{OptLevel, Optimizer};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["suite-distribution", "suite-baseline", "serve-mixed"];

/// End-to-end metrics: (name, unit). Every workload reports all of them.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
    ("full_ms_p50", "ms"),
    ("fast_ms_p50", "ms"),
    ("rps", "1/s"),
    ("dyn_ops", "count"),
    ("static_insts", "count"),
];

/// Share of `--seconds` spent on an untimed warm-up before measuring.
pub const WARMUP_SHARE: f64 = 0.05;

/// Request classes of the serve workload; per-class metrics end in one.
pub const CLASSES: [&str; 2] = ["cold", "warm"];

/// Per-layer metrics: (name, unit). A workload that does not exercise a
/// layer reports it as 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for pass in Optimizer::new(OptLevel::Distribution).passes() {
        let name = metric_key(pass.name());
        out.push((format!("passes.{name}.ms"), "ms"));
        out.push((format!("passes.{name}.changed"), "count"));
        out.push((format!("ir.insts.{name}"), "count"));
    }
    for (name, unit) in [
        ("analysis.cache_hits", "count"),
        ("analysis.cache_misses", "count"),
        ("analysis.hit_ratio", "ratio"),
        ("core.clone_ms", "ms"),
        ("core.fn_setup_ms", "ms"),
        ("core.fn_ms_max", "ms"),
        ("core.unattributed_ms", "ms"),
        ("cfg.build_ms", "ms"),
        ("cfg.dom_ms", "ms"),
        ("analysis.liveness_ms", "ms"),
        ("ssa.build_ms", "ms"),
        ("ssa.destroy_ms", "ms"),
        ("interp.ms", "ms"),
        ("interp.ops", "count"),
        ("frontend.compile_ms", "ms"),
        ("trace.total_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.residual_ratio", "ratio"),
    ] {
        out.push((name.to_string(), unit));
    }
    for class in CLASSES {
        for (name, unit) in serve::LAYER_METRICS {
            out.push((format!("{name}.{class}"), unit));
        }
    }
    out
}

/// A pass name as it appears in metric names (`+` is not allowed there).
pub fn metric_key(pass: &str) -> String {
    pass.replace('+', "_")
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Count one checked operation; a failed one is described on stderr.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", why());
        }
    }

    /// A human-readable line on stdout, before the result line.
    pub fn note(&self, line: String) {
        println!("# {line}");
    }

    /// Render the result line, holding the metrics to the declared list.
    fn render(
        &self,
        declared: &[(String, &'static str)],
        required: bool,
    ) -> Result<String, String> {
        for (name, _, _) in &self.metrics {
            if !declared.iter().any(|(d, _)| d == name) {
                return Err(format!("metric {name} is not declared"));
            }
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let found = self.metrics.iter().find(|(n, _, _)| n == name);
            let value = match found {
                Some((_, v, u)) if u == unit && v.is_finite() => *v,
                Some((_, v, u)) => return Err(format!("metric {name}: bad value {v} {u}")),
                None if required => return Err(format!("metric {name} was not measured")),
                None => 0.0,
            };
            fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {}", WORKLOADS.join(", ")));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--list-metrics") {
        let list = |v: &[(String, &str)]| {
            v.iter().map(|(n, u)| format!("[\"{n}\", \"{u}\"]")).collect::<Vec<_>>().join(", ")
        };
        let e2e: Vec<(String, &str)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
        println!(
            "{{\"workloads\": [{}], \"end_to_end\": [{}], \"per_layer\": [{}]}}",
            WORKLOADS.iter().map(|w| format!("\"{w}\"")).collect::<Vec<_>>().join(", "),
            list(&e2e),
            list(&per_layer())
        );
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-driver: {e}");
            return ExitCode::from(2);
        }
    };

    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "suite-distribution" => {
            suite::run(OptLevel::Distribution, args.seed, args.seconds, args.trace, &mut report)
        }
        "suite-baseline" => {
            suite::run(OptLevel::Baseline, args.seed, args.seconds, args.trace, &mut report)
        }
        _ => serve::run(args.seed, args.seconds, args.trace, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench-driver: {}: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let declared: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        report.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
        let ok = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
        report.metric("ok_ratio", ok, "ratio");
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    match report.render(&declared, !args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench-driver: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
