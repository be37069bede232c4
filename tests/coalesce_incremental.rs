//! Differential equivalence campaign for the incremental coalescer.
//!
//! The Chaitin-style coalescing pass was rewritten from
//! one-merge-per-round (full liveness + all-pairs interference rebuild
//! between merges) to a batched formulation over bitset adjacency rows
//! and union-find copy classes. The old implementation is retained as
//! `epre_passes::coalesce::reference`; these tests drive both through the
//! full pipeline over the 50-routine suite at every level and require:
//!
//! * **semantic equivalence** — the differential-execution oracle finds
//!   zero divergences between old-pipeline and new-pipeline outputs;
//! * **fixed-point completeness** — immediately after the new pass runs,
//!   zero coalescable (non-self, type-compatible, non-param-pair,
//!   non-interfering) copies remain in any function;
//! * **scheduling determinism** — the rewritten pass produces
//!   byte-identical modules at `--jobs 1/2/8` over the combined suite.

use std::collections::HashSet;

use epre::{run_pass, Budget, OptLevel, Optimizer, PassCx};
use epre_frontend::NamingMode;
use epre_harness::{compare_modules_detailed, OracleConfig};
use epre_ir::{Function, Inst, Module};
use epre_passes::{coalesce, BudgetExceeded, Pass};

const ALL_LEVELS: [OptLevel; 5] = [
    OptLevel::Baseline,
    OptLevel::Partial,
    OptLevel::Reassociation,
    OptLevel::Distribution,
    OptLevel::DistributionLvn,
];

/// The pre-incremental coalescer as a drop-in `Pass`, so the reference
/// pipeline differs from the real one in exactly one slot.
struct ReferenceCoalesce;

impl Pass for ReferenceCoalesce {
    fn name(&self) -> &'static str {
        "coalesce"
    }
    fn run(&self, f: &mut Function, cx: &mut PassCx) -> Result<bool, BudgetExceeded> {
        Ok(coalesce::reference::run_with_cache(f, &mut cx.cache))
    }
}

/// Run the level's full pipeline per function through `run_pass`
/// (debug builds verify the IR and validate the analysis cache after
/// every pass). `reference_coalesce` swaps the coalesce slot for the old
/// implementation; `check_fixed_point` asserts the completeness property
/// right after the (new) coalescer runs.
fn optimize_with(
    module: &Module,
    level: OptLevel,
    reference_coalesce: bool,
    check_fixed_point: bool,
) -> Module {
    let opt = Optimizer::new(level);
    let mut out = module.clone();
    for f in &mut out.functions {
        let mut cx = PassCx::new(Budget::UNLIMITED);
        for pass in opt.passes() {
            if pass.name() == "coalesce" && reference_coalesce {
                run_pass(&ReferenceCoalesce, f, &mut cx)
                    .unwrap_or_else(|e| panic!("reference pipeline fault: {e}"));
            } else {
                run_pass(pass.as_ref(), f, &mut cx).unwrap_or_else(|e| panic!("pipeline fault: {e}"));
            }
            cx.counters.clear();
            if pass.name() == "coalesce" && check_fixed_point {
                assert_eq!(
                    coalesce::coalescable_copies(f),
                    0,
                    "coalescable copies left in {} at {level:?}",
                    f.name
                );
            }
        }
    }
    out
}

/// Old-vs-new coalescer over the whole suite × every level, through the
/// differential-execution oracle: zero mismatches allowed.
#[test]
fn old_vs_new_coalescer_suite_differential() {
    let config = OracleConfig::default();
    let mut comparisons = 0usize;
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        for level in ALL_LEVELS {
            let new = optimize_with(&m, level, false, false);
            let old = optimize_with(&m, level, true, false);
            let outcome = compare_modules_detailed(&old, &new, &config);
            assert!(
                outcome.divergences.is_empty(),
                "{} at {level:?}: {:?}",
                r.name,
                outcome.divergences
            );
            comparisons += outcome.comparisons;
        }
    }
    assert!(comparisons > 0, "the oracle must actually have compared executions");
}

/// Property: the new coalescer's fixed point leaves **zero** remaining
/// coalescable copies, in every function of every routine at every level.
#[test]
fn coalescer_leaves_zero_coalescable_copies_suite_wide() {
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap_or_else(|e| panic!("{}: {e}", r.name));
        for level in ALL_LEVELS {
            let _ = optimize_with(&m, level, false, true);
        }
    }
}

/// All 50 routines fused into one module (same construction as the
/// throughput benchmark) so the work-stealing parallel driver has real
/// work to shard.
fn combined_module() -> Module {
    let mut out = Module::new();
    for r in epre_suite::all_routines() {
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

/// Byte-identity of the rewritten pass under the work-stealing driver:
/// jobs 1, 2, and 8 must produce the same module text.
#[test]
fn rewritten_coalescer_jobs_1_2_8_byte_identity() {
    let m = combined_module();
    for level in [OptLevel::Baseline, OptLevel::Distribution] {
        let opt = Optimizer::new(level);
        let serial = format!("{}", opt.optimize_jobs(&m, 1));
        for jobs in [2, 8] {
            let parallel = format!("{}", opt.optimize_jobs(&m, jobs));
            assert_eq!(serial, parallel, "jobs={jobs} diverged at {level:?}");
        }
    }
}
