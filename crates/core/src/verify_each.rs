//! `verify_each` pipeline mode: run the lint suite after every pass and
//! attribute each new violation to the pass that introduced it.
//!
//! The paper's methodology treats every pass as a well-behaved ILOC
//! filter. The plain pipeline only checks that in debug builds, fail-fast,
//! after the fact. This mode makes it a contract: lint the function before
//! the pipeline starts (pre-existing findings belong to the *input*, not
//! to any pass), re-lint after each pass, and diff the reports by
//! diagnostic fingerprint. A pass that introduces a new **error**-severity
//! finding aborts the pipeline with a [`PipelineViolation`] naming the
//! pass, the function, and exactly the violations it introduced; new
//! warnings are collected per pass as [`PassBlame`] entries for quality
//! tracking.

use std::collections::HashSet;
use std::fmt;

use epre_ir::{Function, Module};
use epre_lint::{lint_function, Diagnostic, LintOptions, Severity};
use epre_passes::Pass;

use crate::pipeline::Optimizer;

/// New findings (any severity) first observed right after one pass ran.
#[derive(Debug, Clone)]
pub struct PassBlame {
    /// The pass that introduced the findings.
    pub pass: &'static str,
    /// The findings, in lint order.
    pub diagnostics: Vec<Diagnostic>,
}

/// A pass introduced error-severity lint findings: the IR invariants were
/// broken by that specific pass.
#[derive(Debug, Clone)]
pub struct PipelineViolation {
    /// The function being optimized.
    pub function: String,
    /// The pass being blamed.
    pub pass: &'static str,
    /// The new error-severity findings that pass introduced.
    pub errors: Vec<Diagnostic>,
}

impl fmt::Display for PipelineViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pass `{}` broke function `{}`: {} new violation(s)",
            self.pass,
            self.function,
            self.errors.len()
        )?;
        for d in &self.errors {
            writeln!(f, "  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for PipelineViolation {}

/// Run `passes` over `f` in order, linting after every pass.
///
/// Returns the per-pass blame log of new non-error findings on success.
///
/// # Errors
/// Returns a [`PipelineViolation`] naming the offending pass as soon as a
/// pass introduces an error-severity finding; `f` is left in the broken
/// state that pass produced, for inspection.
pub fn run_passes_verified(
    f: &mut Function,
    passes: &[Box<dyn Pass>],
    opts: &LintOptions,
) -> Result<Vec<PassBlame>, PipelineViolation> {
    let mut seen: HashSet<String> =
        lint_function(f, opts).diagnostics.iter().map(Diagnostic::fingerprint).collect();
    let mut blames = Vec::new();
    for pass in passes {
        pass.apply(f);
        let report = lint_function(f, opts);
        let new: Vec<Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| !seen.contains(&d.fingerprint()))
            .cloned()
            .collect();
        let errors: Vec<Diagnostic> =
            new.iter().filter(|d| d.severity() == Severity::Error).cloned().collect();
        if !errors.is_empty() {
            return Err(PipelineViolation { function: f.name.clone(), pass: pass.name(), errors });
        }
        if !new.is_empty() {
            blames.push(PassBlame { pass: pass.name(), diagnostics: new });
        }
        seen = report.diagnostics.iter().map(Diagnostic::fingerprint).collect();
    }
    Ok(blames)
}

impl Optimizer {
    /// [`Optimizer::optimize_function`] in `verify_each` mode: lint after
    /// every pass (invariant rules only — intermediate states legitimately
    /// carry critical edges, dead code, and remaining redundancy).
    ///
    /// # Errors
    /// Returns a [`PipelineViolation`] blaming the first pass that
    /// introduces an invariant violation.
    pub fn optimize_function_verified(
        &self,
        f: &mut Function,
    ) -> Result<Vec<PassBlame>, PipelineViolation> {
        run_passes_verified(f, &self.passes(), &LintOptions::invariants_only())
    }

    /// [`Optimizer::optimize`] in `verify_each` mode.
    ///
    /// # Errors
    /// Returns the first [`PipelineViolation`] found in any function.
    pub fn optimize_verified(&self, module: &Module) -> Result<Module, PipelineViolation> {
        let mut out = module.clone();
        for f in &mut out.functions {
            self.optimize_function_verified(f)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::OptLevel;
    use epre_frontend::{compile, NamingMode};
    use epre_ir::{Inst, Ty};
    use epre_passes::passes::{ConstProp, Dce};
    use epre_passes::{BudgetExceeded, PassCx};

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
    fn every_level_is_invariant_clean_on_example() {
        for level in
            [OptLevel::PAPER_LEVELS.as_slice(), &[OptLevel::DistributionLvn]].concat()
        {
            let m = compile(FOO, NamingMode::Disciplined).unwrap();
            let opt = Optimizer::new(level);
            let verified = opt.optimize_verified(&m).expect("no pass breaks invariants");
            // verify_each must not change what the pipeline produces.
            let plain = opt.optimize(&m);
            assert_eq!(format!("{verified}"), format!("{plain}"));
        }
    }

    /// A deliberately broken pass: introduces a read of a register that no
    /// path defines.
    struct UseGhost;
    impl Pass for UseGhost {
        fn name(&self) -> &'static str {
            "use-ghost"
        }
        fn run(&self, f: &mut Function, _cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            let dst = f.new_reg(Ty::Int);
            let ghost = f.new_reg(Ty::Int);
            f.blocks[0].insts.push(Inst::Copy { dst, src: ghost });
            Ok(true)
        }
    }

    #[test]
    fn injected_invariant_break_is_blamed_on_the_pass() {
        let m = compile(FOO, NamingMode::Disciplined).unwrap();
        let mut f = m.function("foo").unwrap().clone();
        let passes: Vec<Box<dyn Pass>> =
            vec![Box::new(ConstProp), Box::new(UseGhost), Box::new(Dce)];
        let e = run_passes_verified(&mut f, &passes, &LintOptions::invariants_only())
            .expect_err("the broken pass must be caught");
        assert_eq!(e.pass, "use-ghost", "blame names the culprit: {e}");
        assert_eq!(e.function, "foo");
        assert!(!e.errors.is_empty());
        assert_eq!(e.errors[0].rule.code(), "L020", "{e}");
    }

    /// A pass that does nothing; pre-existing input findings must not be
    /// blamed on it.
    struct Nop;
    impl Pass for Nop {
        fn name(&self) -> &'static str {
            "nop"
        }
        fn run(&self, _f: &mut Function, _cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
            Ok(false)
        }
    }

    #[test]
    fn preexisting_violations_belong_to_the_input() {
        // Build a function with a use-before-def already present.
        let mut f = Function::new("broken", None);
        let dst = f.new_reg(Ty::Int);
        let ghost = f.new_reg(Ty::Int);
        let mut blk = epre_ir::Block::new(epre_ir::Terminator::Return { value: None });
        blk.insts.push(Inst::Copy { dst, src: ghost });
        f.add_block(blk);
        let passes: Vec<Box<dyn Pass>> = vec![Box::new(Nop)];
        let blames = run_passes_verified(&mut f, &passes, &LintOptions::invariants_only())
            .expect("nop introduced nothing new");
        assert!(blames.is_empty());
    }
}
