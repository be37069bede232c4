//! Staged execution of the pipeline, for reproducing the paper's running
//! example (Figures 2–10): the IR snapshot after every transformation.

use epre_ir::Function;
use epre_passes::passes::{Clean, Coalesce, ConstProp, Dce, Gvn, Peephole, Pre, Reassociate};
use epre_passes::Pass;
use epre_ssa::{build_ssa, SsaOptions};

use crate::fault::PassFault;

/// A stage of the paper's walkthrough, matching its figure numbers.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Figure 3: the intermediate form as lowered.
    Intermediate,
    /// Figure 4: pruned SSA with copies folded.
    PrunedSsa,
    /// Figures 5–7: after reassociation (copies inserted, forward
    /// propagation, sorting).
    Reassociated,
    /// Figure 8: after global value numbering/renaming.
    ValueNumbered,
    /// Figure 9: after partial redundancy elimination.
    AfterPre,
    /// Figure 10: after the baseline sequence incl. coalescing.
    Final,
}

impl Stage {
    /// All stages in order, with the paper figure each reproduces.
    pub const ALL: [(Stage, &'static str); 6] = [
        (Stage::Intermediate, "Figure 3: intermediate form"),
        (Stage::PrunedSsa, "Figure 4: pruned SSA form"),
        (Stage::Reassociated, "Figures 5-7: after reassociation (copies, forward propagation, sorting)"),
        (Stage::ValueNumbered, "Figure 8: after value numbering"),
        (Stage::AfterPre, "Figure 9: after partial redundancy elimination"),
        (Stage::Final, "Figure 10: after coalescing"),
    ];
}

/// The snapshots produced by [`run_staged`].
#[derive(Debug, Clone)]
pub struct StagedOutput {
    /// `(stage, description, snapshot)` triples in pipeline order.
    pub snapshots: Vec<(Stage, &'static str, Function)>,
}

impl StagedOutput {
    /// The snapshot for a stage.
    pub fn stage(&self, s: Stage) -> &Function {
        &self.snapshots.iter().find(|(st, _, _)| *st == s).expect("all stages recorded").2
    }
}

/// Debug-build verification between stages, naming the stage and the
/// function through the typed [`PassFault`] route so a broken snapshot is
/// attributable at a glance.
fn debug_verify_stage(f: &Function, stage: Stage) -> Result<(), PassFault> {
    if cfg!(debug_assertions) {
        if let Err(e) = f.verify() {
            return Err(PassFault::verify(format!("stage {stage:?}"), &f.name, e.to_string()));
        }
    }
    Ok(())
}

/// Run the `distribution`-level pipeline over `f`, capturing the IR after
/// each of the paper's walkthrough stages and reporting a typed fault
/// instead of panicking.
///
/// # Errors
/// The [`PassFault`] of the first stage whose snapshot fails debug-build
/// verification.
pub fn try_run_staged(f: &Function, distribute: bool) -> Result<StagedOutput, PassFault> {
    let mut snapshots = Vec::new();
    let mut cur = f.clone();
    snapshots.push((Stage::Intermediate, Stage::ALL[0].1, cur.clone()));

    // Figure 4 is a *view*: the pipeline's reassociation pass builds SSA
    // internally, so reproduce the snapshot on a scratch copy.
    let mut ssa_view = cur.clone();
    build_ssa(&mut ssa_view, SsaOptions { fold_copies: true });
    debug_verify_stage(&ssa_view, Stage::PrunedSsa)?;
    snapshots.push((Stage::PrunedSsa, Stage::ALL[1].1, ssa_view));

    Reassociate { distribute }.apply(&mut cur);
    debug_verify_stage(&cur, Stage::Reassociated)?;
    snapshots.push((Stage::Reassociated, Stage::ALL[2].1, cur.clone()));

    Gvn.apply(&mut cur);
    debug_verify_stage(&cur, Stage::ValueNumbered)?;
    snapshots.push((Stage::ValueNumbered, Stage::ALL[3].1, cur.clone()));

    Pre.apply(&mut cur);
    debug_verify_stage(&cur, Stage::AfterPre)?;
    snapshots.push((Stage::AfterPre, Stage::ALL[4].1, cur.clone()));

    ConstProp.apply(&mut cur);
    Peephole.apply(&mut cur);
    Dce.apply(&mut cur);
    Coalesce.apply(&mut cur);
    Clean.apply(&mut cur);
    debug_verify_stage(&cur, Stage::Final)?;
    snapshots.push((Stage::Final, Stage::ALL[5].1, cur));

    Ok(StagedOutput { snapshots })
}

/// Run the `distribution`-level pipeline over `f`, capturing the IR after
/// each of the paper's walkthrough stages.
///
/// # Panics
/// Panics with the [`PassFault`] rendering when a stage snapshot fails
/// debug-build verification; see [`try_run_staged`] for the non-panicking
/// route.
pub fn run_staged(f: &Function, distribute: bool) -> StagedOutput {
    match try_run_staged(f, distribute) {
        Ok(out) => out,
        Err(fault) => panic!("{fault}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_frontend::{compile, NamingMode};
    use epre_interp::{Interpreter, Value};

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
    fn all_stages_recorded_and_verified() {
        let m = compile(FOO, NamingMode::Simple).unwrap();
        let staged = run_staged(m.function("foo").unwrap(), true);
        assert_eq!(staged.snapshots.len(), 6);
        for (stage, _, f) in &staged.snapshots {
            assert!(f.verify().is_ok(), "stage {stage:?} fails verification");
        }
        // SSA stage has φs; final stage has none.
        assert!(staged.stage(Stage::PrunedSsa).blocks.iter().any(|b| b.phi_count() > 0));
        assert!(staged.stage(Stage::Final).blocks.iter().all(|b| b.phi_count() == 0));
    }

    #[test]
    fn final_stage_runs_and_beats_input() {
        let m = compile(FOO, NamingMode::Simple).unwrap();
        let staged = run_staged(m.function("foo").unwrap(), true);
        let mut m0 = epre_ir::Module::new();
        m0.functions.push(staged.stage(Stage::Intermediate).clone());
        let mut m1 = epre_ir::Module::new();
        m1.functions.push(staged.stage(Stage::Final).clone());
        let args = [Value::Float(1.0), Value::Float(2.0)];
        let mut i0 = Interpreter::new(&m0);
        let mut i1 = Interpreter::new(&m1);
        let r0 = i0.run("foo", &args).unwrap();
        let r1 = i1.run("foo", &args).unwrap();
        assert_eq!(r0, r1);
        assert!(
            i1.counts().total < i0.counts().total,
            "final {} vs input {}",
            i1.counts().total,
            i0.counts().total
        );
    }

    #[test]
    fn paper_claim_loop_shorter_without_longer_paths() {
        // "the sequence of transformations reduced the length of the loop
        // by 1 operation without increasing the length of any path".
        // Check the spirit: dynamic counts improve for several trip counts
        // including the zero-trip path.
        let m = compile(FOO, NamingMode::Simple).unwrap();
        let staged = run_staged(m.function("foo").unwrap(), true);
        for (y, z) in [(200.0, 200.0), (1.0, 2.0), (50.0, 0.0)] {
            let mut m0 = epre_ir::Module::new();
            m0.functions.push(staged.stage(Stage::Intermediate).clone());
            let mut m1 = epre_ir::Module::new();
            m1.functions.push(staged.stage(Stage::Final).clone());
            let args = [Value::Float(y), Value::Float(z)];
            let mut i0 = Interpreter::new(&m0);
            let mut i1 = Interpreter::new(&m1);
            let r0 = i0.run("foo", &args).unwrap();
            let r1 = i1.run("foo", &args).unwrap();
            assert_eq!(r0, r1);
            assert!(i1.counts().total <= i0.counts().total, "path lengthened at ({y},{z})");
        }
    }
}
