//! The traced pipeline: structured pass spans, transformation
//! provenance, and deterministic parallel trace merging.
//!
//! This is the same pipeline as [`crate::pipeline`] — every pass runs
//! through the same [`run_pass`] — with a [`FunctionTrace`] threaded
//! through it. Every pass invocation emits
//!
//! * a `span` event carrying the pass's change report, the static
//!   operation counts around it, and the counters the pass reported
//!   about its own work (into [`PassCx::counters`]), and
//! * a `provenance` event carrying the opcode-keyed eliminated/inserted
//!   delta ([`OpcodeDelta`]) that [`epre_telemetry::ledgers_from_trace`]
//!   reassembles into per-function accounts for `epre explain`.
//!
//! A final per-function `cache` event reports the
//! [`AnalysisCache`](epre_analysis::AnalysisCache)
//! hit/miss totals.
//!
//! ## Determinism
//!
//! Virtual span durations are derived from input size (`1 + ops_before`)
//! rather than the clock, lanes are keyed by module position rather than
//! worker thread, and the merge concatenates lanes in module order — so
//! the exported trace is byte-identical at `--jobs 1/2/8`. Wall-clock
//! time is recorded on the events only when `wall` is requested (the
//! `--timings` path) and is never exported.

use std::collections::BTreeMap;
use std::time::Instant;

use epre_ir::{Function, Inst, Module, Terminator};
use epre_passes::{Pass, PassCx};
use epre_telemetry::{FunctionTrace, OpcodeDelta, Trace, Tracer, Value};

use crate::fault::PassFault;
use crate::pipeline::{contain_panic, run_pass, Optimizer};
use crate::shards::WorkShards;

/// Opcode histogram of a function's static operations, keyed by the
/// textual mnemonic (terminators count as `jump`/`cbr`/`ret`). The total
/// over all keys equals [`Function::static_op_count`], which is what
/// makes the provenance conservation law hold by construction.
pub fn opcode_histogram(f: &Function) -> BTreeMap<String, u64> {
    let mut h: BTreeMap<String, u64> = BTreeMap::new();
    let mut bump = |k: &str| *h.entry(k.to_string()).or_insert(0) += 1;
    for block in &f.blocks {
        for inst in &block.insts {
            match inst {
                Inst::Bin { op, .. } => bump(op.mnemonic()),
                Inst::Un { op, .. } => bump(op.mnemonic()),
                Inst::LoadI { .. } => bump("loadi"),
                Inst::Copy { .. } => bump("copy"),
                Inst::Load { .. } => bump("load"),
                Inst::Store { .. } => bump("store"),
                Inst::Call { .. } => bump("call"),
                Inst::Phi { .. } => bump("phi"),
            }
        }
        match &block.term {
            Terminator::Jump { .. } => bump("jump"),
            Terminator::Branch { .. } => bump("cbr"),
            Terminator::Return { .. } => bump("ret"),
        }
    }
    h
}

/// Run one pass over `f` with tracing: [`run_pass`] plus a `span` and a
/// `provenance` event recorded into `trace`. When `wall` is set the span
/// also carries measured wall-clock nanoseconds (never exported; the
/// `--timings` aggregation reads them back).
fn run_pass_traced(
    pass: &dyn Pass,
    f: &mut Function,
    cx: &mut PassCx,
    trace: &mut FunctionTrace,
    wall: bool,
) -> Result<(), PassFault> {
    let before = opcode_histogram(f);
    let ops_before = f.static_op_count() as u64;
    let t0 = wall.then(Instant::now);
    let changed = run_pass(pass, f, cx)?;
    let wall_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
    let after = opcode_histogram(f);
    let ops_after = f.static_op_count() as u64;
    let delta = OpcodeDelta::between(&before, &after);

    let mut fields = vec![
        ("changed".to_string(), Value::Bool(changed)),
        ("ops_before".to_string(), Value::U64(ops_before)),
        ("ops_after".to_string(), Value::U64(ops_after)),
    ];
    if !cx.counters.is_empty() {
        fields.push(("counters".to_string(), cx.counters.to_map()));
    }
    trace.span(pass.name(), 1 + ops_before, wall_ns, fields);
    trace.instant(
        "provenance",
        pass.name(),
        vec![
            ("ops_before".to_string(), Value::U64(ops_before)),
            ("ops_after".to_string(), Value::U64(ops_after)),
            ("eliminated".to_string(), Value::Map(delta.eliminated)),
            ("inserted".to_string(), Value::Map(delta.inserted)),
        ],
    );
    Ok(())
}

/// Run the optimizer's full pass sequence over one function, recording
/// the lane's trace. The closing `cache` event carries the function's
/// analysis-cache hit/miss totals.
///
/// # Errors
/// The first [`PassFault`] encountered, if any. The partial trace is
/// discarded with the error (the module-level drivers report whole
/// traces only for whole successes).
pub fn optimize_function_traced(
    opt: &Optimizer,
    f: &mut Function,
    lane: u32,
    wall: bool,
) -> Result<FunctionTrace, PassFault> {
    let mut trace = FunctionTrace::new(&f.name, lane);
    let mut cx = PassCx::new(opt.budget());
    for pass in opt.passes() {
        run_pass_traced(pass.as_ref(), f, &mut cx, &mut trace, wall)?;
        cx.counters.clear();
    }
    let stats = cx.cache.stats();
    trace.instant(
        "cache",
        "pipeline",
        vec![
            ("hits".to_string(), Value::U64(stats.hits)),
            ("misses".to_string(), Value::U64(stats.misses)),
        ],
    );
    Ok(trace)
}

impl Optimizer {
    /// Optimize a copy of the module with up to `jobs` worker threads,
    /// additionally producing the merged telemetry [`Trace`].
    ///
    /// The optimized module is byte-identical to
    /// [`Optimizer::try_optimize_jobs`], and the trace is byte-identical
    /// across `jobs` values: lanes are keyed by module position and
    /// merged in module order, and all exported numbers are virtual.
    /// `wall` forces the serial path (per-pass wall-clock attribution
    /// across workers would perturb what it measures) and records real
    /// nanoseconds on the events for the `--timings` aggregation. As in
    /// [`Optimizer::try_optimize_jobs`], a panic at any `jobs` becomes a
    /// [`PassFault`] with kind `panic`.
    ///
    /// # Errors
    /// The first [`PassFault`] in module function order.
    pub fn try_optimize_traced(
        &self,
        module: &Module,
        jobs: usize,
        wall: bool,
    ) -> Result<(Module, Trace), PassFault> {
        let n = module.functions.len();
        let traced = |i: usize| {
            let mut f = module.functions[i].clone();
            optimize_function_traced(self, &mut f, i as u32, wall).map(|trace| (f, trace))
        };
        let jobs = if wall { 1 } else { jobs };
        let done: Vec<(Function, FunctionTrace)> = WorkShards::map_ordered(n, jobs, || (), |(), i| {
            contain_panic(&module.functions[i].name, || traced(i))
        })
        .into_iter()
        .collect::<Result<_, _>>()?;
        let (functions, lanes) = done.into_iter().unzip();
        Ok((Module { functions, ..*module }, Trace::from_lanes(lanes)))
    }

    /// Optimize a copy of the module with tracing, panicking on faults.
    ///
    /// See [`Optimizer::try_optimize_traced`] for the determinism
    /// guarantees.
    pub fn optimize_traced(&self, module: &Module, jobs: usize) -> (Module, Trace) {
        match self.try_optimize_traced(module, jobs, false) {
            Ok(pair) => pair,
            Err(fault) => panic!("{fault}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::OptLevel;
    use epre_frontend::{compile, NamingMode};
    use epre_telemetry::ledgers_from_trace;

    const FOO: &str = "function foo(y, z)\n\
                       real y, z, s, x\n\
                       integer i\n\
                       begin\n\
                       s = 0\n\
                       x = y + z\n\
                       do i = x, 100\n\
                         s = i + s + x\n\
                       enddo\n\
                       return s\nend\n";

    #[test]
    fn histogram_totals_match_static_op_count() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        for f in &m.functions {
            let h = opcode_histogram(f);
            let total: u64 = h.values().sum();
            assert_eq!(total, f.static_op_count() as u64, "{h:?}");
        }
    }

    #[test]
    fn traced_output_matches_untraced() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        for level in OptLevel::PAPER_LEVELS {
            let opt = Optimizer::new(level);
            let plain = opt.optimize(&m);
            let (traced, trace) = opt.optimize_traced(&m, 1);
            assert_eq!(format!("{plain}"), format!("{traced}"), "{level:?}");
            assert!(!trace.events.is_empty());
            // One span + one provenance per pass, one cache event.
            let spans = trace.events.iter().filter(|e| e.kind == "span").count();
            assert_eq!(spans, opt.passes().len());
            let provs = trace.events.iter().filter(|e| e.kind == "provenance").count();
            assert_eq!(provs, spans);
            assert_eq!(trace.events.iter().filter(|e| e.kind == "cache").count(), 1);
        }
    }

    #[test]
    fn span_counters_report_pass_work() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let (_, trace) =
            Optimizer::new(OptLevel::Distribution).optimize_traced(&m, 1);
        let pre_span = trace
            .events
            .iter()
            .find(|e| e.kind == "span" && e.pass == "pre")
            .expect("pre span present");
        let counters = pre_span.field_map("counters").expect("pre reports counters");
        assert!(
            counters.iter().any(|(n, _)| n == "exprs_hoisted"),
            "{counters:?}"
        );
        let reas = trace
            .events
            .iter()
            .find(|e| e.kind == "span" && e.pass == "reassociate+distribute")
            .expect("reassociate span present");
        let counters = reas.field_map("counters").expect("reassociate reports counters");
        assert!(counters.iter().any(|(n, _)| n == "regs_ranked"), "{counters:?}");
    }

    #[test]
    fn ledgers_from_traced_run_conserve() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let (out, trace) =
            Optimizer::new(OptLevel::Distribution).optimize_traced(&m, 1);
        let ledgers = ledgers_from_trace(&trace);
        assert_eq!(ledgers.len(), m.functions.len());
        for (ledger, (fin, fout)) in
            ledgers.iter().zip(m.functions.iter().zip(&out.functions))
        {
            assert_eq!(ledger.function, fin.name);
            assert_eq!(ledger.ops_before, fin.static_op_count() as u64);
            assert_eq!(ledger.ops_after, fout.static_op_count() as u64);
            assert!(ledger.conserves(), "{}", ledger.render());
        }
    }

    #[test]
    fn parallel_trace_is_byte_identical_to_serial() {
        let mut module = compile(FOO, NamingMode::Disciplined).unwrap();
        let template = module.functions[0].clone();
        for i in 1..5 {
            let mut f = template.clone();
            f.name = format!("foo{i}");
            module.functions.push(f);
        }
        let opt = Optimizer::new(OptLevel::Distribution);
        let (serial_m, serial_t) = opt.optimize_traced(&module, 1);
        for jobs in [2, 4, 8] {
            let (m, t) = opt.optimize_traced(&module, jobs);
            assert_eq!(format!("{serial_m}"), format!("{m}"), "jobs {jobs}");
            assert_eq!(serial_t.to_jsonl(), t.to_jsonl(), "jobs {jobs}");
            assert_eq!(serial_t.to_chrome(), t.to_chrome(), "jobs {jobs}");
        }
    }
}
