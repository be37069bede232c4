//! The optimization pipelines of the paper's experimental study (§4.1).

use std::panic::{catch_unwind, AssertUnwindSafe};

use epre_analysis::AnalysisCache;
use epre_ir::{Function, Module};
use epre_passes::passes::{Clean, Coalesce, ConstProp, Dce, Gvn, Lvn, Peephole, Pre, Reassociate};
use epre_passes::{Budget, Pass, PassCx};

use crate::fault::PassFault;
use crate::shards::WorkShards;

/// The paper's four measured optimization levels, plus extension levels
/// used by the ablation benchmarks.
///
/// | level | pipeline |
/// |-------|----------|
/// | `Baseline` | constprop → peephole → dce → coalesce → clean |
/// | `Partial` | **pre** → baseline |
/// | `Reassociation` | **reassociate** → **gvn** → pre → baseline |
/// | `Distribution` | **reassociate+distribute** → gvn → pre → baseline |
/// | `DistributionLvn` | distribution with local value numbering added (the §4.1 "missing pass") |
#[derive(Copy, Clone, PartialEq, Eq, Debug, Hash)]
pub enum OptLevel {
    /// The paper's `baseline` column.
    Baseline,
    /// The paper's `partial` column: PRE alone.
    Partial,
    /// The paper's `reassociation` column: reassociation (no distribution)
    /// + GVN before PRE.
    Reassociation,
    /// The paper's `distribution` column: reassociation with distribution
    /// + GVN before PRE.
    Distribution,
    /// Extension: `Distribution` plus hash-based local value numbering,
    /// one of the passes §4.1 reports missing.
    DistributionLvn,
}

impl OptLevel {
    /// All levels in the order of the paper's Table 1 columns.
    pub const PAPER_LEVELS: [OptLevel; 4] =
        [OptLevel::Baseline, OptLevel::Partial, OptLevel::Reassociation, OptLevel::Distribution];

    /// The level's column label in the paper.
    pub fn label(self) -> &'static str {
        match self {
            OptLevel::Baseline => "baseline",
            OptLevel::Partial => "partial",
            OptLevel::Reassociation => "reassociation",
            OptLevel::Distribution => "distribution",
            OptLevel::DistributionLvn => "distribution+lvn",
        }
    }
}

/// Runs a configured pass pipeline over modules or single functions.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer {
    level: OptLevel,
    budget: Budget,
}

impl Optimizer {
    /// An optimizer for the given level, with an unlimited per-pass
    /// budget (the historical behavior).
    pub fn new(level: OptLevel) -> Self {
        Optimizer { level, budget: Budget::UNLIMITED }
    }

    /// This optimizer with a per-pass-invocation resource budget. Every
    /// pass of every function is held to `budget`; an over-budget pass
    /// stops at its next cooperative checkpoint and surfaces as a
    /// [`PassFault`] with kind `budget`.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// The configured per-pass budget.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// The configured level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// The pass sequence for this level, in execution order.
    pub fn passes(&self) -> Vec<Box<dyn Pass>> {
        let mut seq: Vec<Box<dyn Pass>> = Vec::new();
        match self.level {
            OptLevel::Baseline => {}
            OptLevel::Partial => seq.push(Box::new(Pre)),
            OptLevel::Reassociation => {
                seq.push(Box::new(Reassociate { distribute: false }));
                seq.push(Box::new(Gvn));
                seq.push(Box::new(Pre));
            }
            OptLevel::Distribution => {
                seq.push(Box::new(Reassociate { distribute: true }));
                seq.push(Box::new(Gvn));
                seq.push(Box::new(Pre));
            }
            OptLevel::DistributionLvn => {
                seq.push(Box::new(Reassociate { distribute: true }));
                seq.push(Box::new(Gvn));
                seq.push(Box::new(Pre));
                seq.push(Box::new(Lvn));
            }
        }
        // The baseline sequence closes every level (§4.1: "followed by the
        // sequence of optimizations used to establish the baseline").
        seq.push(Box::new(ConstProp));
        seq.push(Box::new(Peephole));
        seq.push(Box::new(Dce));
        seq.push(Box::new(Coalesce));
        seq.push(Box::new(Clean));
        seq
    }

    /// Optimize one function in place, reporting a typed fault instead of
    /// panicking.
    ///
    /// Debug builds verify the IR after every pass; a violation stops the
    /// pipeline and returns a [`PassFault`] naming the pass, the function,
    /// and the exact verifier error (release builds skip the verification,
    /// as before, but share the same error route). `f` is left in the
    /// faulting pass's broken state for inspection; the sandbox in
    /// `epre-harness` builds rollback on top of this.
    ///
    /// # Errors
    /// The first [`PassFault`] encountered, if any.
    pub fn try_optimize_function(&self, f: &mut Function) -> Result<(), PassFault> {
        let mut cx = PassCx::new(self.budget);
        for pass in self.passes() {
            run_pass(pass.as_ref(), f, &mut cx)?;
            cx.counters.clear();
        }
        Ok(())
    }

    /// Optimize one function in place.
    ///
    /// Debug builds verify the IR after every pass; a violation panics
    /// with the [`PassFault`] naming the pass, the function, and the exact
    /// verifier error. For non-panicking variants see
    /// [`Optimizer::try_optimize_function`] (verifier route) and
    /// [`Optimizer::optimize_function_verified`] (lint route with per-pass
    /// blame).
    pub fn optimize_function(&self, f: &mut Function) {
        if let Err(fault) = self.try_optimize_function(f) {
            panic!("{fault}\n{f}");
        }
    }

    /// Optimize a copy of the module, reporting a typed fault instead of
    /// panicking.
    ///
    /// # Errors
    /// The first [`PassFault`] found in any function.
    pub fn try_optimize(&self, module: &Module) -> Result<Module, PassFault> {
        let mut out = module.clone();
        for f in &mut out.functions {
            self.try_optimize_function(f)?;
        }
        Ok(out)
    }

    /// Optimize a copy of the module.
    pub fn optimize(&self, module: &Module) -> Module {
        let mut out = module.clone();
        for f in &mut out.functions {
            self.optimize_function(f);
        }
        out
    }

    /// Optimize a copy of the module with up to `jobs` worker threads,
    /// reporting a typed fault instead of panicking.
    ///
    /// Functions are independent compilation units in this pipeline, so
    /// they are distributed over the workspace's one ordered parallel map
    /// ([`WorkShards::map_ordered`]): each worker owns a contiguous
    /// chunk of the module and steals from the back of a sibling's shard
    /// when its own runs dry, so one heavyweight function cannot strand
    /// the rest of a chunk behind it. The output is **deterministic**: functions
    /// are reassembled in module order, and the reported fault is the one
    /// belonging to the earliest function in that order — byte-identical
    /// to the serial result regardless of scheduling. `jobs <= 1` runs
    /// every function inline on the caller's thread. At any `jobs`, a
    /// panic (outside the per-pass verification) is contained with
    /// `catch_unwind` and surfaced as a [`PassFault`] with kind `panic`,
    /// so one bad function cannot take down its siblings or the caller.
    ///
    /// # Errors
    /// The first [`PassFault`] in module function order.
    pub fn try_optimize_jobs(&self, module: &Module, jobs: usize) -> Result<Module, PassFault> {
        let functions = WorkShards::map_ordered(module.functions.len(), jobs, || (), |(), i| {
            let src = &module.functions[i];
            contain_panic(&src.name, || {
                let mut f = src.clone();
                self.try_optimize_function(&mut f).map(|()| f)
            })
        });
        Ok(Module { functions: functions.into_iter().collect::<Result<_, _>>()?, ..*module })
    }

    /// Optimize a copy of the module with up to `jobs` worker threads.
    ///
    /// See [`Optimizer::try_optimize_jobs`] for the determinism and fault
    /// containment guarantees.
    pub fn optimize_jobs(&self, module: &Module, jobs: usize) -> Module {
        match self.try_optimize_jobs(module, jobs) {
            Ok(out) => out,
            Err(fault) => panic!("{fault}"),
        }
    }
}

/// Render a caught panic payload as a string (best effort).
pub fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one function's pipeline on a parallel worker, turning a panic
/// outside the per-pass checks into a [`PassFault`] with kind `panic`, so
/// one bad function cannot take down its siblings.
pub(crate) fn contain_panic<T>(
    function: &str,
    body: impl FnOnce() -> Result<T, PassFault>,
) -> Result<T, PassFault> {
    catch_unwind(AssertUnwindSafe(body))
        .unwrap_or_else(|payload| Err(PassFault::panic("pipeline", function, panic_payload(payload))))
}

/// Run one pass over `f` in the context `cx` — the one runner every
/// pipeline mode goes through.
///
/// The pass runs via [`Pass::run`], so fixed-point passes stop at their
/// cooperative checkpoints when over `cx.budget`. A budget trip leaves
/// `f` mid-transform (possibly in SSA form) and is reported as a
/// [`PassFault`] with kind `budget`; the debug-build checks below are
/// skipped for that outcome, since the half-transformed state is not a
/// claim about correctness. Callers needing all-or-nothing semantics
/// (the `epre-harness` sandbox) run on a clone and roll back, exactly as
/// they do for panics.
///
/// Debug builds then hold the pass to its contract: the IR must verify,
/// and [`AnalysisCache::validate`] recomputes every analysis left in
/// `cx.cache` from scratch and compares — a stale entry means the pass
/// failed to drop what its edits broke, and becomes a [`PassFault`] with
/// kind `verify` naming that pass. Release builds skip both checks.
/// Returns the pass's change report; `cx.counters` holds what it
/// reported about its work.
///
/// # Errors
/// A [`PassFault`] with kind `budget` when the pass exhausted its budget,
/// or kind `verify` when a debug-build check failed.
pub fn run_pass(pass: &dyn Pass, f: &mut Function, cx: &mut PassCx) -> Result<bool, PassFault> {
    let changed = pass.run(f, cx).map_err(|e| PassFault::budget(pass.name(), &f.name, e))?;
    if cfg!(debug_assertions) {
        if let Err(e) = f.verify() {
            return Err(PassFault::verify(pass.name(), &f.name, e.to_string()));
        }
        if let Err(e) = cx.cache.validate(f) {
            return Err(PassFault::verify(
                pass.name(),
                &f.name,
                format!("stale analysis cache after pass: {e}"),
            ));
        }
    }
    Ok(changed)
}

/// [`run_pass`] for callers that keep their own [`AnalysisCache`] and
/// discard the pass's counters (external timing harnesses).
///
/// # Errors
/// Exactly as [`run_pass`].
pub fn run_pass_budgeted(
    pass: &dyn Pass,
    f: &mut Function,
    cache: &mut AnalysisCache,
    budget: &Budget,
) -> Result<bool, PassFault> {
    let mut cx = PassCx { cache: std::mem::take(cache), ..PassCx::new(*budget) };
    let outcome = run_pass(pass, f, &mut cx);
    *cache = cx.cache;
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};
    use epre_interp::{Interpreter, Value};
    use epre_passes::BudgetExceeded;

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

    fn counts(level: OptLevel) -> (Option<Value>, u64) {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let opt = Optimizer::new(level).optimize(&m);
        opt.verify().unwrap();
        let mut i = Interpreter::new(&opt);
        let r = i.run("foo", &[Value::Float(1.0), Value::Float(2.0)]).unwrap();
        (r, i.counts().total)
    }

    #[test]
    fn levels_agree_on_results_and_improve_counts() {
        let (r_base, c_base) = counts(OptLevel::Baseline);
        let (r_part, c_part) = counts(OptLevel::Partial);
        let (r_reas, c_reas) = counts(OptLevel::Reassociation);
        let (r_dist, c_dist) = counts(OptLevel::Distribution);
        assert_eq!(r_base, r_part);
        assert_eq!(r_base, r_reas);
        assert_eq!(r_base, r_dist);
        // PRE must help strictly on the running example.
        assert!(c_part < c_base, "partial {c_part} vs baseline {c_base}");
        // On this small scalar loop, reassociation pays φ-copy/jump
        // overhead the later passes cannot recover — the paper's §4.2
        // documents such degradations (Table 1 has −% entries). Bound the
        // regression; the array kernel below shows the winning case.
        assert!(
            c_reas as f64 <= c_part as f64 * 1.4,
            "reassociation {c_reas} vs partial {c_part}"
        );
        assert!(
            c_dist as f64 <= c_reas as f64 * 1.05,
            "distribution {c_dist} vs reassociation {c_reas}"
        );
    }

    /// The paper's motivating case (§2.1): "this case is quite important,
    /// since it arises routinely in multi-dimensional array addressing
    /// computations". Reassociation must beat plain PRE strictly here.
    #[test]
    fn array_addressing_shows_reassociation_win() {
        let src = "function msum()\n\
                   real m(20, 20)\n\
                   integer i, j\n\
                   real s\n\
                   begin\n\
                   do j = 1, 20\n\
                     do i = 1, 20\n\
                       m(i, j) = i + j\n\
                     enddo\n\
                   enddo\n\
                   s = 0\n\
                   do j = 1, 20\n\
                     do i = 1, 20\n\
                       s = s + m(i, j)\n\
                     enddo\n\
                   enddo\n\
                   return s\nend\n";
        let m = compile(src, NamingMode::Disciplined).unwrap();
        let mut totals = Vec::new();
        let mut results = Vec::new();
        for level in OptLevel::PAPER_LEVELS {
            let opt = Optimizer::new(level).optimize(&m);
            opt.verify().unwrap();
            let mut i = Interpreter::new(&opt);
            results.push(i.run("msum", &[]).unwrap());
            totals.push(i.counts().total);
        }
        assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
        let (base, part, reas, dist) = (totals[0], totals[1], totals[2], totals[3]);
        assert!(part < base, "PRE helps: {totals:?}");
        assert!(reas < part, "reassociation helps further: {totals:?}");
        assert!(dist <= part, "distribution stays ahead of partial: {totals:?}");
    }

    #[test]
    fn pass_sequences_match_paper() {
        let names: Vec<&str> =
            Optimizer::new(OptLevel::Distribution).passes().iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            vec![
                "reassociate+distribute",
                "gvn",
                "pre",
                "constprop",
                "peephole",
                "dce",
                "coalesce",
                "clean"
            ]
        );
        let names: Vec<&str> =
            Optimizer::new(OptLevel::Baseline).passes().iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["constprop", "peephole", "dce", "coalesce", "clean"]);
    }

    #[test]
    fn labels() {
        assert_eq!(OptLevel::Baseline.label(), "baseline");
        assert_eq!(OptLevel::Distribution.label(), "distribution");
        assert_eq!(OptLevel::PAPER_LEVELS.len(), 4);
    }

    /// Same module (the running example, replicated under distinct names),
    /// every level, every thread count: the parallel driver must be
    /// byte-identical to the serial one.
    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let mut module = compile(FOO, NamingMode::Disciplined).unwrap();
        let template = module.functions[0].clone();
        for i in 1..7 {
            let mut f = template.clone();
            f.name = format!("foo{i}");
            module.functions.push(f);
        }
        for level in [OptLevel::PAPER_LEVELS.as_slice(), &[OptLevel::DistributionLvn]].concat() {
            let opt = Optimizer::new(level);
            let serial = opt.optimize(&module);
            for jobs in [1, 2, 4, 8] {
                let parallel = opt.optimize_jobs(&module, jobs);
                assert_eq!(
                    format!("{serial}"),
                    format!("{parallel}"),
                    "level {level:?}, jobs {jobs}"
                );
            }
        }
    }

    /// A worker panic is contained as a typed fault at every job count,
    /// through the plain and the traced driver; sibling functions are
    /// unaffected and the blamed function is deterministic.
    #[test]
    fn parallel_driver_contains_worker_panics() {
        let module = compile(FOO, NamingMode::Disciplined).unwrap();
        // A jump to a block the function does not have makes the CFG
        // constructor panic (index out of bounds) inside the first pass.
        let mut corrupt = Function::new("corrupt", None);
        corrupt.add_block(epre_ir::Block::new(epre_ir::Terminator::Jump {
            target: epre_ir::BlockId(7),
        }));
        let mut bad = module.clone();
        bad.functions.insert(0, corrupt.clone());
        bad.functions.push(module.functions[0].clone());
        bad.functions.last_mut().unwrap().name = "foo2".into();
        let alone = Module { functions: vec![corrupt], ..module.clone() };
        let opt = Optimizer::new(OptLevel::Partial);
        for m in [&bad, &alone] {
            for jobs in [1, 2, 4] {
                let faults = [
                    opt.try_optimize_jobs(m, jobs).map(drop),
                    opt.try_optimize_traced(m, jobs, false).map(drop),
                    opt.try_optimize_traced(m, jobs, true).map(drop),
                ];
                for fault in faults {
                    let err = fault.expect_err("the corrupt function must fault");
                    let functions = m.functions.len();
                    assert_eq!(err.function, "corrupt", "{functions} function(s), jobs {jobs}");
                    assert_eq!(err.kind_label(), "panic", "{functions} function(s), jobs {jobs}");
                }
            }
        }
    }

    /// Cache soundness: a pass that rewires the CFG but leaves the cached
    /// CFG in place must be caught by the debug-build cache validation
    /// and blamed by name.
    #[cfg(debug_assertions)]
    #[test]
    fn lying_pass_is_caught_by_cache_validation() {
        use epre_ir::Terminator;

        struct Liar;
        impl Pass for Liar {
            fn name(&self) -> &'static str {
                "liar"
            }
            fn run(&self, f: &mut Function, _cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
                // Rewire the entry to return directly: the IR still
                // verifies (the old successor is merely unreachable), but
                // any cached CFG is now stale — and the pass keeps it.
                f.blocks[0].term = Terminator::Return { value: None };
                Ok(false)
            }
        }

        let mut b = epre_ir::FunctionBuilder::new("victim", None);
        let tail = b.new_block();
        b.jump(tail);
        b.switch_to(tail);
        b.ret(None);
        let mut f = b.finish();

        let mut cx = PassCx::new(Budget::UNLIMITED);
        cx.cache.cfg(&f); // warm the entry the lie will invalidate
        let err = run_pass(&Liar, &mut f, &mut cx).expect_err("stale cache must be detected");
        assert_eq!(err.pass, "liar");
        assert_eq!(err.kind_label(), "verify");
        assert!(format!("{err}").contains("stale analysis cache"), "{err}");
    }

    /// The honest version of the same rewrite drops the CFG it broke, and
    /// the pipeline continues.
    #[test]
    fn honest_change_report_keeps_the_cache_consistent() {
        use epre_ir::Terminator;

        struct Honest;
        impl Pass for Honest {
            fn name(&self) -> &'static str {
                "honest"
            }
            fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
                f.blocks[0].term = Terminator::Return { value: None };
                cx.cache.invalidate_cfg();
                Ok(true)
            }
        }

        let mut b = epre_ir::FunctionBuilder::new("victim", None);
        let tail = b.new_block();
        b.jump(tail);
        b.switch_to(tail);
        b.ret(None);
        let mut f = b.finish();

        let mut cx = PassCx::new(Budget::UNLIMITED);
        cx.cache.cfg(&f);
        let changed = run_pass(&Honest, &mut f, &mut cx).expect("an honest pass passes validation");
        assert!(changed);
        assert!(!cx.cache.has_cfg(), "the pass must drop the CFG it broke");
    }
}
