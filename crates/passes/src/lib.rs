//! # epre-passes — the optimization passes of the Effective PRE pipeline
//!
//! Every transformation the paper uses or measures, each implemented as an
//! independent function-level pass (the paper structures its optimizer "as
//! a sequence of passes, where each pass is a Unix filter that consumes and
//! produces ILOC"; here each pass is a `&mut Function` filter):
//!
//! **The paper's contributions (§3):**
//!
//! * [`reassoc`] — global reassociation: ranks, forward propagation,
//!   associative-commutative sorting, optional distribution of multiply
//!   over add,
//! * [`gvn`] — partition-based global value numbering (Alpern, Wegman &
//!   Zadeck) followed by the global renaming that encodes value equivalence
//!   into the name space,
//! * [`pre`] — partial redundancy elimination in the Drechsler–Stadel
//!   edge-placement formulation.
//!
//! **The baseline optimizer (§4.1):**
//!
//! * [`sccp`] — sparse conditional constant propagation (Wegman–Zadeck),
//! * [`peephole`] — global peephole optimization (algebraic identities,
//!   constant folding, subtraction reconstruction, multiply-by-constant
//!   strength reduction — deliberately *after* reassociation, §5.2),
//! * [`dce`] — dead code elimination,
//! * [`coalesce`] — the coalescing phase of a Chaitin-style register
//!   allocator (removes copies),
//! * [`clean`] — empty-block elimination and CFG tidying.
//!
//! **Comparators and extensions (§5.3, §4.1 "missing passes"):**
//!
//! * [`cse`] — dominator-scoped CSE and AVAIL-based global CSE, the two
//!   weaker members of the redundancy-elimination hierarchy,
//! * [`lvn`] — hash-based local value numbering.
//!
//! All passes preserve the structural verifier and the interpreter-observable
//! semantics of the function; the property tests at the crate root check
//! both on randomly generated programs.
//!
//! ## The pass contract
//!
//! [`Pass::run`] is the only way into a pass. It takes the function and
//! a [`PassCx`]: the pipeline's [`AnalysisCache`], the [`Budget`] the
//! invocation is held to, and the [`PassCounters`] the pass reports its
//! own work into (expressions hoisted, partitions found, ops folded, …).
//! Every pass reports its counters on every run, and every pass leaves
//! the cache consistent with the function it returns: it drops exactly
//! the analyses its edits broke. The SSA round-trippers (`reassoc`,
//! `gvn`, `sccp`) drop everything; `dce` and `coalesce` keep the CFG;
//! `peephole` drops the CFG only when it folded a branch. The change
//! flag a pass returns feeds traces and timings; the pipeline's
//! debug-build cache validation catches a pass that leaves a stale
//! analysis behind and blames it by name.
//!
//! Each pass module exposes one entry point that takes the context (the
//! `run` beside its pass object below; `reassoc::reassociate` also
//! returns Table 2's [`reassoc::ReassocStats`]). Callers with no pipeline
//! around them use [`Pass::apply`].

pub mod budget;
pub mod clean;
pub mod coalesce;
pub mod cse;
pub mod dce;
pub mod gvn;
pub mod lvn;
pub mod peephole;
pub mod pre;
pub mod reassoc;
pub mod sccp;

pub use budget::{Budget, BudgetExceeded, BudgetKind, Meter};
pub use epre_telemetry::PassCounters;

use epre_analysis::AnalysisCache;
use epre_ir::Function;

/// The context one pass invocation runs in.
///
/// A pipeline keeps one per function: the cache carries analyses from
/// pass to pass, and the counters are cleared between passes.
#[derive(Debug, Default)]
pub struct PassCx {
    /// Analyses shared with the passes before and after this one.
    pub cache: AnalysisCache,
    /// The resource limits the invocation is held to.
    pub budget: Budget,
    /// What the pass reports about its own work.
    pub counters: PassCounters,
}

impl PassCx {
    /// A fresh context: empty cache, no counters, `budget`.
    pub fn new(budget: Budget) -> Self {
        PassCx { budget, ..PassCx::default() }
    }
}

/// A function-level optimization pass.
///
/// Passes are stateless filters; any analyses they need are computed
/// internally, mirroring the paper's pass structure ("each pass performs a
/// single optimization, including all the required control-flow and
/// data-flow analyses") — or borrowed from the pipeline's
/// [`AnalysisCache`] in [`PassCx::cache`].
pub trait Pass {
    /// Short, stable pass name (used in pipeline descriptions and logs).
    fn name(&self) -> &'static str;

    /// Transform `f` in place under `cx`. Returns `true` if the function
    /// may have changed.
    ///
    /// Implementations report their work into `cx.counters`, drop every
    /// analysis in `cx.cache` their edits made stale, and hold themselves
    /// to `cx.budget`: fixed-point passes place a cooperative checkpoint
    /// ([`Meter::tick`]) inside every loop that could fail to converge,
    /// single-sweep passes check the growth and deadline dimensions
    /// afterwards ([`Meter::finish`]).
    ///
    /// On `Err` the function may be left mid-transform; callers that need
    /// all-or-nothing semantics (the sandbox, the pipeline driver) run on
    /// a clone and roll back, exactly as they do for panics.
    ///
    /// # Errors
    /// [`BudgetExceeded`] naming the first exhausted dimension.
    fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded>;

    /// Run the pass with no pipeline around it: a fresh [`PassCx`] with
    /// an unlimited budget. Returns the change flag.
    fn apply(&self, f: &mut Function) -> bool {
        match self.run(f, &mut PassCx::new(Budget::UNLIMITED)) {
            Ok(changed) => changed,
            Err(_) => unreachable!("unlimited budget cannot be exceeded"),
        }
    }
}

/// The pass objects the pipelines are built from.
pub mod passes {
    use super::*;

    /// Sparse conditional constant propagation.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ConstProp;

    impl Pass for ConstProp {
        fn name(&self) -> &'static str {
            "constprop"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::sccp::run(f, cx)
        }
    }

    /// Global peephole optimization.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Peephole;

    impl Pass for Peephole {
        fn name(&self) -> &'static str {
            "peephole"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::peephole::run(f, cx)
        }
    }

    /// Dead code elimination.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Dce;

    impl Pass for Dce {
        fn name(&self) -> &'static str {
            "dce"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::dce::run(f, cx)
        }
    }

    /// Chaitin-style copy coalescing.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Coalesce;

    impl Pass for Coalesce {
        fn name(&self) -> &'static str {
            "coalesce"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::coalesce::run(f, cx)
        }
    }

    /// Empty-block elimination / CFG tidying.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Clean;

    impl Pass for Clean {
        fn name(&self) -> &'static str {
            "clean"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::clean::run(f, cx)
        }
    }

    /// Partial redundancy elimination (Drechsler–Stadel).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Pre;

    impl Pass for Pre {
        fn name(&self) -> &'static str {
            "pre"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::pre::run(f, cx)
        }
    }

    /// Partition-based global value numbering + renaming.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Gvn;

    impl Pass for Gvn {
        fn name(&self) -> &'static str {
            "gvn"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::gvn::run(f, cx)
        }
    }

    /// Hash-based local value numbering.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Lvn;

    impl Pass for Lvn {
        fn name(&self) -> &'static str {
            "lvn"
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            crate::lvn::run(f, cx)
        }
    }

    /// Global reassociation (rank + forward propagation + sorting), with or
    /// without distribution of multiplication over addition.
    #[derive(Debug, Clone, Copy)]
    pub struct Reassociate {
        /// Distribute low-ranked multipliers over higher-ranked sums
        /// (the paper's `distribution` level).
        pub distribute: bool,
    }

    impl Pass for Reassociate {
        fn name(&self) -> &'static str {
            if self.distribute {
                "reassociate+distribute"
            } else {
                "reassociate"
            }
        }
        fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            let options = crate::reassoc::ReassocOptions { distribute: self.distribute };
            crate::reassoc::reassociate(f, options, cx)?;
            // The SSA round trip renames registers even when nothing
            // propagates; report a change conservatively.
            Ok(true)
        }
    }
}
