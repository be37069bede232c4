//! Partial redundancy elimination (Morel–Renvoise, in the Drechsler–Stadel
//! edge-placement formulation the paper uses — §2, §4: "Our implementation
//! of PRE uses a variation described by Drechsler and Stadel. Their
//! formulation supports edge placement for enhanced optimization and
//! simplifies the data-flow equations … avoiding the bidirectional
//! equations typical of some other approaches").
//!
//! The pass works over the function's lexical [`ExprUniverse`]:
//!
//! ```text
//! ANTOUT(b) = ∩ ANTIN(succ)          ANTIN(b) = ANTLOC(b) ∪ (ANTOUT(b) ∩ TRANSP(b))
//! AVIN(b)   = ∩ AVOUT(pred)          AVOUT(b) = COMP(b)   ∪ (AVIN(b)  ∩ TRANSP(b))
//! EARLIEST(i,j) = ANTIN(j) ∩ ¬AVOUT(i) ∩ (¬TRANSP(i) ∪ ¬ANTOUT(i))   [i ≠ entry]
//! EARLIEST(entry,j) = ANTIN(j) ∩ ¬AVOUT(entry)
//! LATER(i,j)   = EARLIEST(i,j) ∪ (LATERIN(i) ∩ ¬ANTLOC(i))
//! LATERIN(j)   = ∩ LATER(i,j)        LATERIN(entry) = ∅
//! INSERT(i,j)  = LATER(i,j) ∩ ¬LATERIN(j)
//! DELETE(b)    = ANTLOC(b) ∩ ¬LATERIN(b)                              [b ≠ entry]
//! ```
//!
//! Insertions land on edges; all critical edges are split up front so each
//! insertion has a landing site. Deletion removes the upward-exposed
//! occurrences of the expression; because the §2.2 naming discipline gives
//! every lexical expression a single target register, a deleted occurrence
//! needs no replacement copy — the register already holds the value. PRE
//! therefore refuses to touch expressions whose occurrences target
//! different registers ([`ExprUniverse::is_disciplined`]); global value
//! numbering's renaming (the paper's §3.2) is what makes that rare.
//!
//! A key property, used by the paper's argument and our property tests:
//! **PRE never lengthens an execution path** — the dynamic operation count
//! of the transformed function never exceeds the original on any input.

use epre_analysis::{solve, BitSet, Direction, ExprId, ExprKey, ExprUniverse, LocalPredicates, Meet};
use epre_cfg::edit::split_critical_edges;
use epre_cfg::Cfg;
use epre_ir::{BlockId, Function, Inst};

use crate::budget::{Budget, BudgetExceeded, Meter};
use epre_telemetry::PassCounters;

/// What one [`run_budgeted_stats`] invocation did, in the paper's own
/// vocabulary: how many critical edges were split, how many expression
/// computations were hoisted onto edges, and how many upward-exposed
/// occurrences were deleted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreStats {
    /// Outer application rounds that changed the function.
    pub rounds: u64,
    /// Critical edges split to create insertion landing sites.
    pub edges_split: u64,
    /// Expression computations inserted on edges (the paper's "hoisted").
    pub exprs_hoisted: u64,
    /// Upward-exposed occurrences deleted as redundant.
    pub occurrences_deleted: u64,
    /// Cooperative-checkpoint ticks consumed.
    pub ticks: u64,
}

impl PreStats {
    /// Did the invocation change the function at all?
    pub fn changed(&self) -> bool {
        self.edges_split + self.exprs_hoisted + self.occurrences_deleted > 0
    }
}

/// Run PRE to a fixed point. Returns true if any round changed the
/// function (including critical-edge splitting, which edits the CFG).
///
/// A single application exposes *second-order* opportunities: hoisting a
/// `loadi` out of a block un-kills the expressions that consumed the
/// constant, so they become hoistable on the next application (Morel &
/// Renvoise already observed that their transformation benefits from
/// repetition). Each round only deletes or moves computations, so the
/// iteration converges; a generous bound guards against pathological
/// inputs.
pub fn run(f: &mut Function) -> bool {
    match run_budgeted(f, &Budget::UNLIMITED) {
        Ok(any) => any,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// [`run`] under a resource [`Budget`]: cooperative checkpoints per outer
/// application round *and* per LATER/LATERIN sweep inside each round —
/// both loops are fixed points, and the growth dimension also polices
/// edge-split and insertion blowup between rounds.
///
/// # Errors
/// [`BudgetExceeded`] when a round or sweep starts over budget; completed
/// rounds stay applied (callers needing atomicity run a clone).
pub fn run_budgeted(f: &mut Function, budget: &Budget) -> Result<bool, BudgetExceeded> {
    run_budgeted_stats(f, budget).map(|s| s.changed())
}

/// [`run_budgeted`], additionally reporting what the invocation did as a
/// [`PreStats`].
///
/// # Errors
/// [`BudgetExceeded`] exactly as [`run_budgeted`].
pub fn run_budgeted_stats(f: &mut Function, budget: &Budget) -> Result<PreStats, BudgetExceeded> {
    let mut meter = budget.start(f);
    let mut stats = PreStats::default();
    for _ in 0..10 {
        meter.tick(f)?;
        if !run_once_metered(f, &mut meter, &mut stats)? {
            break;
        }
        stats.rounds += 1;
    }
    stats.ticks = meter.ticks();
    Ok(stats)
}

/// Instrumented entry point for the pipeline: [`run_budgeted_stats`] with
/// the stats folded into `counters`.
///
/// # Errors
/// [`BudgetExceeded`] exactly as [`run_budgeted`].
pub fn run_counted(
    f: &mut Function,
    budget: &Budget,
    counters: &mut PassCounters,
) -> Result<bool, BudgetExceeded> {
    let stats = run_budgeted_stats(f, budget)?;
    counters.add("rounds", stats.rounds);
    counters.add("edges_split", stats.edges_split);
    counters.add("exprs_hoisted", stats.exprs_hoisted);
    counters.add("occurrences_deleted", stats.occurrences_deleted);
    counters.add("ticks", stats.ticks);
    Ok(stats.changed())
}

/// One application of Drechsler–Stadel PRE; returns true if anything
/// changed (edges split, insertions, or deletions).
pub fn run_once(f: &mut Function) -> bool {
    let mut meter = Budget::UNLIMITED.start(f);
    match run_once_metered(f, &mut meter, &mut PreStats::default()) {
        Ok(changed) => changed,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// [`run_once`] charging its LATER/LATERIN sweeps to a caller-owned
/// [`Meter`], so the budget spans all rounds of an outer fixed point.
fn run_once_metered(
    f: &mut Function,
    meter: &mut Meter,
    stats: &mut PreStats,
) -> Result<bool, BudgetExceeded> {
    debug_assert!(f.blocks.iter().all(|b| b.phi_count() == 0), "PRE expects φ-free code");
    let splits = split_critical_edges(f);
    stats.edges_split += splits as u64;
    let cfg = Cfg::new(f);
    let universe = ExprUniverse::new(f);
    if universe.is_empty() {
        return Ok(splits > 0);
    }
    let cap = universe.len();
    let lp = LocalPredicates::new(f, &universe);

    // Only disciplined expressions participate (see module docs).
    let mut disciplined = BitSet::new(cap);
    for (e, _) in universe.iter() {
        if universe.is_disciplined(e) {
            disciplined.insert(e.index());
        }
    }
    let n = f.blocks.len();
    // Take the local predicates apart rather than cloning them: PRE owns
    // `lp` and ANTLOC/COMP are masked in place.
    let LocalPredicates { transp, mut antloc, mut comp } = lp;
    for b in 0..n {
        antloc[b].intersect_with(&disciplined);
        comp[b].intersect_with(&disciplined);
    }
    // kill = ¬TRANSP.
    let kill: Vec<BitSet> = transp
        .iter()
        .map(|t| {
            let mut k = BitSet::full(cap);
            k.difference_with(t);
            k
        })
        .collect();

    let avail = solve(&cfg, Direction::Forward, Meet::Intersection, &comp, &kill);
    let antic = solve(&cfg, Direction::Backward, Meet::Intersection, &antloc, &kill);

    // EARLIEST per edge. Rewritten from the textbook form into pure set
    // subtraction so the only allocation is the stored result:
    //   EARLIEST(i,j) = ANTIN(j) − AVOUT(i) − (TRANSP(i) ∩ ANTOUT(i))
    // (the last term is dropped for the entry block, whose AVOUT boundary
    // already handles it).
    let edges = cfg.edges();
    let mut scratch = BitSet::new(cap);
    let mut earliest: Vec<BitSet> = Vec::with_capacity(edges.len());
    for &(i, j) in &edges {
        let mut e = antic.ins[j.index()].clone();
        e.difference_with(&avail.outs[i.index()]);
        if i != BlockId::ENTRY {
            scratch.assign_from(&transp[i.index()]);
            scratch.intersect_with(&antic.outs[i.index()]);
            e.difference_with(&scratch);
        }
        earliest.push(e);
    }

    // Incoming-edge index so the LATERIN meet visits each edge once per
    // sweep instead of scanning the whole edge list per block.
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (k, &(_, to)) in edges.iter().enumerate() {
        in_edges[to.index()].push(k);
    }

    // LATER / LATERIN to a fixed point. Both systems are recomputed into a
    // single scratch buffer and swapped in on change — no per-iteration
    // allocation.
    let mut laterin: Vec<BitSet> = (0..n)
        .map(|b| if b == 0 { BitSet::new(cap) } else { BitSet::full(cap) })
        .collect();
    let mut later: Vec<BitSet> = earliest.clone();
    loop {
        meter.tick(f)?;
        let mut changed = false;
        for (k, &(i, _)) in edges.iter().enumerate() {
            // LATER(i,j) = EARLIEST(i,j) ∪ (LATERIN(i) − ANTLOC(i))
            scratch.assign_from(&earliest[k]);
            scratch.union_with_minus(&laterin[i.index()], &antloc[i.index()]);
            if scratch != later[k] {
                std::mem::swap(&mut later[k], &mut scratch);
                changed = true;
            }
        }
        for j in 1..n {
            // LATERIN(j) = ∩ over incoming edges (∅ for unreachable blocks).
            match in_edges[j].split_first() {
                None => scratch.clear(),
                Some((&first, rest)) => {
                    scratch.assign_from(&later[first]);
                    for &k in rest {
                        scratch.intersect_with(&later[k]);
                    }
                }
            }
            if scratch != laterin[j] {
                std::mem::swap(&mut laterin[j], &mut scratch);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // INSERT / DELETE.
    let mut any_change = splits > 0;
    let mut insert: Vec<(BlockId, BlockId, Vec<ExprId>)> = Vec::new();
    for (k, &(i, j)) in edges.iter().enumerate() {
        scratch.assign_from(&later[k]);
        scratch.difference_with(&laterin[j.index()]);
        if !scratch.is_empty() {
            insert.push((i, j, scratch.iter().map(|x| ExprId(x as u32)).collect()));
        }
    }

    // Deletions first (they index the original instruction streams).
    for b in 1..n {
        let del = &mut scratch;
        del.assign_from(&antloc[b]);
        del.difference_with(&laterin[b]);
        if del.is_empty() {
            continue;
        }
        let block = &mut f.blocks[b];
        let mut killed = BitSet::new(cap);
        let mut keep: Vec<bool> = vec![true; block.insts.len()];
        let occurrences = universe.occurrences(BlockId(b as u32));
        for (idx, (inst, &occurrence)) in block.insts.iter().zip(occurrences).enumerate() {
            if let Some(e) = occurrence {
                if del.contains(e.index()) && !killed.contains(e.index()) {
                    keep[idx] = false;
                    any_change = true;
                    stats.occurrences_deleted += 1;
                }
            }
            if let Some(d) = inst.dst() {
                for &e in universe.used_by(d) {
                    killed.insert(e.index());
                }
            }
        }
        let mut it = keep.iter();
        block.insts.retain(|_| *it.next().unwrap());
    }

    // Insertions.
    for (i, j, exprs) in insert {
        any_change = true;
        stats.exprs_hoisted += exprs.len() as u64;
        let insts = materialize(&universe, &exprs);
        if cfg.succs(i).len() == 1 {
            let block = &mut f.blocks[i.index()];
            block.insts.extend(insts);
        } else {
            debug_assert_eq!(cfg.preds(j).len(), 1, "critical edges were split");
            let block = &mut f.blocks[j.index()];
            for (k, inst) in insts.into_iter().enumerate() {
                block.insts.insert(k, inst);
            }
        }
    }

    debug_assert!(f.verify().is_ok(), "PRE broke the verifier: {f}");
    Ok(any_change)
}

/// Build the instructions for a set of expressions inserted on one edge,
/// in dependency order (an expression whose operand is another inserted
/// expression's name comes after it).
fn materialize(universe: &ExprUniverse, exprs: &[ExprId]) -> Vec<Inst> {
    let mut pending: Vec<ExprId> = exprs.to_vec();
    let mut out = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let pick = pending
            .iter()
            .position(|&e| {
                let ops = universe.key(e).operands();
                !pending.iter().any(|&o| o != e && ops.clone().any(|r| r == universe.name(o)))
            })
            .unwrap_or(0); // cycle cannot arise from hash-table naming
        let e = pending.remove(pick);
        out.push(inst_of(universe, e));
    }
    out
}

fn inst_of(universe: &ExprUniverse, e: ExprId) -> Inst {
    let dst = universe.name(e);
    match *universe.key(e) {
        ExprKey::Bin { op, ty, lhs, rhs } => Inst::Bin { op, ty, dst, lhs, rhs },
        ExprKey::Un { op, ty, src } => Inst::Un { op, ty, dst, src },
        ExprKey::Const(value) => Inst::LoadI { dst, value },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Terminator, Ty};

    /// Count computations of `add x, y` in the whole function.
    fn count_adds(f: &Function) -> usize {
        f.blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count()
    }

    /// The paper's §2 if-join example: x+y on one path and after the join.
    /// PRE must insert on the other path and delete the join's copy.
    #[test]
    fn if_join_partial_redundancy() {
        let mut b = FunctionBuilder::new("j", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        // then-arm computes x+y into the canonical name n.
        let n = b.new_reg(Ty::Int);
        b.switch_to(t);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        // join recomputes x+y into the same name.
        b.switch_to(j);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        assert_eq!(count_adds(&f), 2);
        run(&mut f);
        assert!(f.verify().is_ok());
        // Still two adds (one per path), but none at the join: the join's
        // occurrence was deleted and one was inserted on the else path.
        assert_eq!(count_adds(&f), 2);
        let join_adds = f
            .block(j)
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .count();
        assert_eq!(join_adds, 0, "{f}");
    }

    /// The §2 loop example: a loop-invariant x+y is hoisted out. The loop
    /// uses the paper's Figure 3 rotated shape (zero-trip guard at the
    /// top, test at the bottom) — PRE cannot and must not hoist out of a
    /// top-test `while` shape because that would lengthen the zero-trip
    /// path.
    #[test]
    fn hoists_loop_invariant() {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(i, z);
        let g = b.bin(BinOp::CmpGe, Ty::Int, i, x);
        b.branch(g, exit, body);
        b.switch_to(body);
        let n = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let i2 = b.bin(BinOp::Add, Ty::Int, i, n);
        b.copy_to(i, i2);
        let c = b.bin(BinOp::CmpLt, Ty::Int, i, x);
        b.branch(c, body, exit);
        b.switch_to(exit);
        b.ret(Some(i));
        let mut f = b.finish();
        run(&mut f);
        assert!(f.verify().is_ok());
        // x+y no longer computed in the loop body.
        let body_has_xy = f
            .block(body)
            .insts
            .iter()
            .any(|inst| matches!(inst, Inst::Bin { op: BinOp::Add, lhs, rhs, .. } if *lhs == x && *rhs == y));
        assert!(!body_has_xy, "{f}");
        // It is computed exactly once, on the guarded preheader edge (a
        // split landing block between the entry and the body).
        let total_xy = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|inst| matches!(inst, Inst::Bin { op: BinOp::Add, lhs, rhs, .. } if *lhs == x && *rhs == y))
            .count();
        assert_eq!(total_xy, 1, "{f}");
        // And never on the exit path: run both trip counts.
        for xv in [0i64, 5] {
            let mut m = epre_ir::Module::new();
            m.functions.push(f.clone());
            let mut it = epre_interp::Interpreter::new(&m);
            let r = it
                .run("l", &[epre_interp::Value::Int(xv), epre_interp::Value::Int(1)])
                .unwrap();
            assert!(r.is_some());
        }
    }

    /// Fully redundant expression (computed in both arms and after the
    /// join): handled like global CSE — deleted at the join with no
    /// insertion.
    #[test]
    fn full_redundancy_needs_no_insertion() {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(j);
        b.switch_to(e);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(j);
        b.switch_to(j);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        assert_eq!(count_adds(&f), 3);
        run(&mut f);
        assert_eq!(count_adds(&f), 2, "{f}");
    }

    /// PRE must NOT hoist an expression past a redefinition of its operand.
    #[test]
    fn respects_kills() {
        // x = ...; n = x + y; x = 0; n2 = x + y — the second x+y (same
        // lexical names) is NOT redundant because x changed.
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        let z = b.loadi(Const::Int(0));
        b.copy_to(x, z);
        let n2 = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n2, lhs: x, rhs: y });
        let s = b.bin(BinOp::Mul, Ty::Int, n, n2);
        b.ret(Some(s));
        let mut f = b.finish();
        let before = f.static_op_count();
        run(&mut f);
        assert_eq!(f.static_op_count(), before, "nothing to remove");
    }

    /// Undisciplined expressions (same computation, different targets) are
    /// left alone — the §2.2 example before GVN renaming.
    #[test]
    fn skips_undisciplined_names() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let t = b.new_block();
        let j = b.new_block();
        b.branch(p, t, j);
        b.switch_to(t);
        let _n1 = b.bin(BinOp::Add, Ty::Int, x, y); // fresh name
        b.jump(j);
        b.switch_to(j);
        let n2 = b.bin(BinOp::Add, Ty::Int, x, y); // different fresh name
        b.ret(Some(n2));
        let mut f = b.finish();
        let before = count_adds(&f);
        run(&mut f);
        assert_eq!(count_adds(&f), before, "undisciplined: PRE must not touch");
    }

    /// PRE never lengthens any path: dynamic counts do not increase.
    #[test]
    fn never_lengthens_paths() {
        // The §2 if-join shape, measured with the interpreter on both
        // branch outcomes.
        let build = || {
            let mut b = FunctionBuilder::new("m", Some(Ty::Int));
            let x = b.param(Ty::Int);
            let y = b.param(Ty::Int);
            let p = b.param(Ty::Int);
            let n = b.new_reg(Ty::Int);
            let t = b.new_block();
            let e = b.new_block();
            let j = b.new_block();
            b.branch(p, t, e);
            b.switch_to(t);
            b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
            b.jump(j);
            b.switch_to(e);
            b.jump(j);
            b.switch_to(j);
            b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
            b.ret(Some(n));
            b.finish()
        };
        let mut opt = build();
        run(&mut opt);
        let orig = build();
        for p in [0i64, 1] {
            let mut m1 = epre_ir::Module::new();
            m1.functions.push(orig.clone());
            let mut m2 = epre_ir::Module::new();
            m2.functions.push(opt.clone());
            let args =
                [epre_interp::Value::Int(3), epre_interp::Value::Int(4), epre_interp::Value::Int(p)];
            let mut i1 = epre_interp::Interpreter::new(&m1);
            let mut i2 = epre_interp::Interpreter::new(&m2);
            let r1 = i1.run("m", &args).unwrap();
            let r2 = i2.run("m", &args).unwrap();
            assert_eq!(r1, r2);
            assert!(i2.counts().total <= i1.counts().total, "path lengthened for p={p}");
        }
    }

    /// Expression anticipated from the entry is placed once, not once per
    /// use (checks the LATER postponement chain and the entry special
    /// case in EARLIEST).
    #[test]
    fn entry_anticipated_expression_single_placement() {
        let mut b = FunctionBuilder::new("e", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let n = b.new_reg(Ty::Int);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.jump(b2);
        b.switch_to(b2);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: n, lhs: x, rhs: y });
        b.ret(Some(n));
        let mut f = b.finish();
        run(&mut f);
        assert_eq!(count_adds(&f), 1, "{f}");
        // And it is placed no earlier than needed: lazy placement keeps it
        // in b1 (the first use), not hoisted to the entry block.
        assert_eq!(
            f.block(b1).insts.len() + f.blocks[0].insts.len(),
            1,
            "exactly one computation at or before first use: {f}"
        );
        let _ = Terminator::Return { value: None };
    }
}
