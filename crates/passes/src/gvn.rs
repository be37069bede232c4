//! Partition-based global value numbering and global renaming (§3.2).
//!
//! The paper uses Alpern, Wegman & Zadeck's algorithm: start from the
//! **optimistic** assumption that all values computed by the same operator
//! are equivalent and use the statements of the program to *disprove*
//! equivalences, refining a partition of the SSA names until it stabilizes.
//! Then "rename all values to reflect these equivalences": every
//! congruence class gets one register, which
//!
//! * encodes value equivalence into the name space (two congruent
//!   expressions become *lexically identical*, so PRE sees them),
//! * establishes the §2.2 naming discipline PRE requires (each expression
//!   one name; copies — which after SSA destruction come only from
//!   φ-nodes — target *variable names*).
//!
//! Initial partition keys: constants by value; parameters, loads and calls
//! as singletons (opaque); binary/unary operators by `(op, ty)`;
//! φ-nodes by their block. Commutative operators compare operand classes
//! order-insensitively (a mild strengthening the basic AWZ formulation
//! leaves out; it matters because reassociation sorts operands by rank,
//! not by class). As in the paper, "the names are the only things changed
//! during this phase; no instructions are added, deleted, or moved" —
//! except the φs, which SSA destruction then turns into copies.

use std::collections::HashMap;

use epre_ir::{BlockId, Function, Inst, Reg};
use epre_ssa::{build_ssa, destroy_ssa, SsaOptions};

use crate::budget::{Budget, BudgetExceeded};
use epre_telemetry::PassCounters;

/// What one GVN invocation proved and rewrote: the size of the final
/// congruence partition and how many operations the renaming actually
/// touched.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GvnStats {
    /// Number of congruence classes in the stabilized partition.
    pub partitions: u64,
    /// Instructions and terminators whose registers the renaming changed
    /// (the paper's "congruent ops renamed").
    pub ops_renamed: u64,
    /// Partition-refinement iterations consumed.
    pub ticks: u64,
}

/// Run GVN + renaming on `f`. The function enters and leaves non-SSA form.
/// Returns `true` unconditionally: the SSA round trip renames registers
/// even when no classes merge, so the function must be treated as changed.
pub fn run(f: &mut Function) -> bool {
    match run_budgeted(f, &Budget::UNLIMITED) {
        Ok(changed) => changed,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// [`run`] under a resource [`Budget`]: one cooperative checkpoint per
/// partition-refinement iteration (AWZ refinement only ever splits
/// classes, so healthy runs take at most `reg_count` iterations — a
/// budget trip means the refinement is broken or adversarial). Takes no
/// analysis cache: the pass rebuilds SSA internally.
///
/// # Errors
/// [`BudgetExceeded`] when a refinement iteration starts over budget; the
/// function is left in SSA form, un-renamed (callers needing atomicity
/// run a clone).
pub fn run_budgeted(f: &mut Function, budget: &Budget) -> Result<bool, BudgetExceeded> {
    run_budgeted_stats(f, budget).map(|_| true)
}

/// [`run_budgeted`], additionally reporting what the invocation did as a
/// [`GvnStats`].
///
/// # Errors
/// [`BudgetExceeded`] exactly as [`run_budgeted`].
pub fn run_budgeted_stats(f: &mut Function, budget: &Budget) -> Result<GvnStats, BudgetExceeded> {
    build_ssa(f, SsaOptions { fold_copies: true });
    let (partition, ticks) = refine(f, budget)?;
    let ops_renamed = rename(f, &partition);
    dedupe_phis(f);
    destroy_ssa(f);
    Ok(GvnStats { partitions: u64::from(partition.classes), ops_renamed, ticks })
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
    counters.add("partitions", stats.partitions);
    counters.add("ops_renamed", stats.ops_renamed);
    counters.add("ticks", stats.ticks);
    Ok(true)
}

/// Congruence class of every register of `f` (indexed by register
/// number), as computed by AWZ optimistic partition refinement — the
/// analysis half of [`run`], without the renaming.
///
/// `f` must be in SSA form: the partition keys each register by its
/// unique definition, so a register defined twice would silently keep
/// only its last definition's key. Registers with no definition map to
/// singleton classes. Two registers share a class number exactly when
/// GVN can prove they always hold the same value; this is the raw
/// material for value-based redundancy audits (see `epre-lint`).
pub fn value_classes(f: &Function) -> Vec<u32> {
    match refine(f, &Budget::UNLIMITED) {
        Ok((partition, _)) => partition.class,
        Err(_) => unreachable!("unlimited budget cannot be exceeded"),
    }
}

/// Initial partition key of a definition with operands or a value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum InitKey {
    Const(epre_ir::Const),
    Bin(epre_ir::BinOp, epre_ir::Ty),
    Un(epre_ir::UnOp, epre_ir::Ty),
    Phi(BlockId),
}

/// The definition of a register that takes part in refinement.
#[derive(Clone, Copy)]
enum Def<'a> {
    /// Parameters, loads, calls: a singleton class of their own.
    Opaque,
    Const(epre_ir::Const),
    Bin { op: epre_ir::BinOp, ty: epre_ir::Ty, lhs: Reg, rhs: Reg },
    Un { op: epre_ir::UnOp, ty: epre_ir::Ty, src: Reg },
    Phi { block: BlockId, args: &'a [(BlockId, Reg)] },
}

impl<'a> Def<'a> {
    fn of(block: BlockId, inst: &'a Inst) -> Self {
        match inst {
            Inst::LoadI { value, .. } => Def::Const(*value),
            &Inst::Bin { op, ty, lhs, rhs, .. } => Def::Bin { op, ty, lhs, rhs },
            &Inst::Un { op, ty, src, .. } => Def::Un { op, ty, src },
            Inst::Phi { args, .. } => Def::Phi { block, args },
            Inst::Load { .. } | Inst::Call { .. } => Def::Opaque,
            Inst::Copy { .. } => unreachable!("copies folded during SSA construction"),
            Inst::Store { .. } => unreachable!("stores define nothing"),
        }
    }

    fn init_key(self) -> Option<InitKey> {
        match self {
            Def::Opaque => None,
            Def::Const(c) => Some(InitKey::Const(c)),
            Def::Bin { op, ty, .. } => Some(InitKey::Bin(op, ty)),
            Def::Un { op, ty, .. } => Some(InitKey::Un(op, ty)),
            Def::Phi { block, .. } => Some(InitKey::Phi(block)),
        }
    }
}

/// The stabilized partition. Classes `0..classes` each hold at least one
/// parameter or definition. A register with neither is alone in class
/// "number of defined registers + its index", past every defined class.
struct Partition {
    /// Class per register, indexed by register number.
    class: Vec<u32>,
    /// Number of classes with a defined member.
    classes: u32,
}

/// AWZ refinement of the registers that have a definition or are
/// parameters, with a cooperative checkpoint per round. Also returns the
/// number of rounds consumed.
fn refine(f: &Function, budget: &Budget) -> Result<(Partition, u64), BudgetExceeded> {
    let mut meter = budget.start(f);
    let nregs = f.reg_count();
    // Gather definitions; the last one wins, as the key of a register
    // defined twice would (see `value_classes`).
    let mut def_of: Vec<Option<Def>> = vec![None; nregs];
    for &p in &f.params {
        def_of[p.index()] = Some(Def::Opaque);
    }
    for (bid, block) in f.iter_blocks() {
        for inst in &block.insts {
            if let Some(d) = inst.dst() {
                def_of[d.index()] = Some(Def::of(bid, inst));
            }
        }
    }
    let members: Vec<(Reg, Def)> = def_of
        .into_iter()
        .enumerate()
        .filter_map(|(r, d)| Some((Reg(r as u32), d?)))
        .collect();
    let undefined_base = members.len() as u32;
    let mut class: Vec<u32> = (0..nregs as u32).map(|r| undefined_base + r).collect();

    // Initial partition: members keyed by operator (or value, or φ
    // block); opaque definitions get fresh ids of their own.
    let mut classes = 0u32;
    let mut fresh = || {
        classes += 1;
        classes - 1
    };
    let mut key_ids: HashMap<InitKey, u32> = HashMap::new();
    for &(r, def) in &members {
        class[r.index()] = match def.init_key() {
            Some(k) => *key_ids.entry(k).or_insert_with(&mut fresh),
            None => fresh(),
        };
    }

    // Refinement to a fixed point: split classes whose members disagree
    // on operand classes. Every round splits or keeps each class, so the
    // partition is stable exactly when the class count stops growing.
    let mut leaf_ids: Vec<u32> = Vec::new();
    let mut bin_ids: HashMap<(u32, u32, u32), u32> = HashMap::new();
    let mut un_ids: HashMap<(u32, u32), u32> = HashMap::new();
    let mut phi_ids: HashMap<Vec<u32>, u32> = HashMap::new();
    let mut phi_args: Vec<(u32, u32)> = Vec::new();
    let mut phi_sig: Vec<u32> = Vec::new();
    let mut next_class: Vec<u32> = vec![0; members.len()];
    loop {
        meter.tick(f)?;
        leaf_ids.clear();
        leaf_ids.resize(classes as usize, u32::MAX);
        bin_ids.clear();
        un_ids.clear();
        phi_ids.clear();
        let mut next = 0u32;
        let mut fresh = || {
            next += 1;
            next - 1
        };
        for (&(r, def), slot) in members.iter().zip(&mut next_class) {
            let c = class[r.index()];
            *slot = match def {
                Def::Opaque | Def::Const(_) => {
                    let id = &mut leaf_ids[c as usize];
                    if *id == u32::MAX {
                        *id = fresh();
                    }
                    *id
                }
                Def::Bin { op, lhs, rhs, .. } => {
                    let (a, b) = (class[lhs.index()], class[rhs.index()]);
                    let (a, b) = if op.is_commutative() && b < a { (b, a) } else { (a, b) };
                    *bin_ids.entry((c, a, b)).or_insert_with(&mut fresh)
                }
                Def::Un { src, .. } => {
                    *un_ids.entry((c, class[src.index()])).or_insert_with(&mut fresh)
                }
                Def::Phi { args, .. } => {
                    // Align by predecessor id so positional comparison is
                    // meaningful across φs of the same block.
                    phi_args.clear();
                    phi_args.extend(args.iter().map(|&(b, v)| (b.0, class[v.index()])));
                    phi_args.sort_unstable();
                    phi_sig.clear();
                    phi_sig.push(c);
                    phi_sig.extend(phi_args.iter().map(|&(_, v)| v));
                    match phi_ids.get(phi_sig.as_slice()) {
                        Some(&id) => id,
                        None => {
                            let id = fresh();
                            phi_ids.insert(phi_sig.clone(), id);
                            id
                        }
                    }
                }
            };
        }
        let stable = next == classes;
        classes = next;
        if stable {
            break;
        }
        for (&(r, _), &c) in members.iter().zip(&next_class) {
            class[r.index()] = c;
        }
    }
    Ok((Partition { class, classes }, meter.ticks()))
}

/// Rewrite every definition and use so each class has exactly one
/// register. Returns how many instructions and terminators actually
/// changed.
fn rename(f: &mut Function, partition: &Partition) -> u64 {
    let class = &partition.class;
    // Representative per class: a parameter if the class has one (the
    // signature must not change), otherwise the lowest-numbered member.
    // A register outside every defined class keeps its own name.
    let mut rep = vec![Reg(0); partition.classes as usize];
    for (r, &c) in class.iter().enumerate().rev() {
        if let Some(slot) = rep.get_mut(c as usize) {
            *slot = Reg(r as u32);
        }
    }
    for &p in &f.params {
        rep[class[p.index()] as usize] = p;
    }
    let map = |r: Reg| rep.get(class[r.index()] as usize).copied().unwrap_or(r);

    let mut renamed = 0u64;
    for block in &mut f.blocks {
        for inst in &mut block.insts {
            let mut changed = false;
            let mut map_tracked = |r: Reg| {
                let new = map(r);
                changed |= new != r;
                new
            };
            inst.map_uses(&mut map_tracked);
            if let Some(d) = inst.dst() {
                inst.set_dst(map_tracked(d));
            }
            renamed += u64::from(changed);
        }
        let mut changed = false;
        block.term.map_uses(|r| {
            let new = map(r);
            changed |= new != r;
            new
        });
        renamed += u64::from(changed);
    }
    renamed
}

/// Drop duplicate φs (same destination and arguments) left by renaming.
fn dedupe_phis(f: &mut Function) {
    for block in &mut f.blocks {
        let n = block.phi_count();
        let mut seen: Vec<Inst> = Vec::new();
        let mut keep = vec![true; block.insts.len()];
        for (inst, k) in block.insts.iter().zip(&mut keep).take(n) {
            if seen.contains(inst) {
                *k = false;
            } else {
                seen.push(inst.clone());
            }
        }
        let mut it = keep.iter();
        block.insts.retain(|_| *it.next().unwrap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, Const, FunctionBuilder, Ty};

    /// The §2.2 example: x = y + z; a = y; b = a + z. After copy folding
    /// `a` is `y`, so `a + z` is congruent to `y + z`; renaming gives both
    /// computations the same name and PRE can see the redundancy.
    #[test]
    fn paper_2_2_naming_example() {
        let mut b = FunctionBuilder::new("n", Some(Ty::Int));
        let y = b.param(Ty::Int);
        let z = b.param(Ty::Int);
        let t1 = b.bin(BinOp::Add, Ty::Int, y, z); // x = y + z
        let a = b.copy(y); // a = y
        let t2 = b.bin(BinOp::Add, Ty::Int, a, z); // b = a + z
        let s = b.bin(BinOp::Mul, Ty::Int, t1, t2);
        b.ret(Some(s));
        let mut f = b.finish();
        run(&mut f);
        let adds: Vec<&Inst> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .collect();
        assert_eq!(adds.len(), 2);
        assert_eq!(adds[0], adds[1], "congruent expressions renamed identically: {f}");
        assert!(f.verify().is_ok());
    }

    #[test]
    fn constants_by_value() {
        let mut b = FunctionBuilder::new("c", Some(Ty::Int));
        let c1 = b.loadi(Const::Int(7));
        let c2 = b.loadi(Const::Int(7));
        let c3 = b.loadi(Const::Int(8));
        let s = b.bin(BinOp::Add, Ty::Int, c1, c2);
        let t = b.bin(BinOp::Add, Ty::Int, s, c3);
        b.ret(Some(t));
        let mut f = b.finish();
        run(&mut f);
        let loadis: Vec<&Inst> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::LoadI { .. }))
            .collect();
        // The two 7s share a destination register; 8 differs.
        let d7: Vec<_> = loadis
            .iter()
            .filter(|i| matches!(i, Inst::LoadI { value: Const::Int(7), .. }))
            .map(|i| i.dst())
            .collect();
        assert_eq!(d7[0], d7[1]);
        let d8 = loadis
            .iter()
            .find(|i| matches!(i, Inst::LoadI { value: Const::Int(8), .. }))
            .unwrap()
            .dst();
        assert_ne!(d7[0], d8);
    }

    #[test]
    fn loads_are_opaque() {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let v1 = b.load(Ty::Int, p);
        let v2 = b.load(Ty::Int, p);
        let s = b.bin(BinOp::Sub, Ty::Int, v1, v2);
        b.ret(Some(s));
        let mut f = b.finish();
        run(&mut f);
        // The two loads keep distinct names (memory may have changed).
        let loads: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Load { .. }))
            .map(|i| i.dst())
            .collect();
        assert_ne!(loads[0], loads[1]);
    }

    #[test]
    fn optimistic_congruence_through_loop_phis() {
        // Two loop variables with identical structure: i = j always.
        //   i = 0; j = 0; while (p) { i = i + 1; j = j + 1 }
        // Optimistic GVN proves i ≅ j; pessimistic approaches cannot.
        let mut b = FunctionBuilder::new("o", Some(Ty::Int));
        let p = b.param(Ty::Int);
        let i = b.new_reg(Ty::Int);
        let j = b.new_reg(Ty::Int);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let z = b.loadi(Const::Int(0));
        b.copy_to(i, z);
        b.copy_to(j, z);
        b.jump(head);
        b.switch_to(head);
        b.branch(p, body, exit);
        b.switch_to(body);
        let one = b.loadi(Const::Int(1));
        let i2 = b.bin(BinOp::Add, Ty::Int, i, one);
        b.copy_to(i, i2);
        let one2 = b.loadi(Const::Int(1));
        let j2 = b.bin(BinOp::Add, Ty::Int, j, one2);
        b.copy_to(j, j2);
        b.jump(head);
        b.switch_to(exit);
        let d = b.bin(BinOp::Sub, Ty::Int, i, j);
        b.ret(Some(d));
        let mut f = b.finish();
        run(&mut f);
        // After GVN the subtraction's operands are the same register.
        let sub = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .find(|i| matches!(i, Inst::Bin { op: BinOp::Sub, .. }))
            .unwrap();
        let u = sub.uses();
        assert_eq!(u[0], u[1], "i and j proven congruent: {f}");
        // Semantics preserved.
        let mut m = epre_ir::Module::new();
        m.functions.push(f);
        let mut it = epre_interp::Interpreter::new(&m);
        assert_eq!(
            it.run("o", &[epre_interp::Value::Int(0)]).unwrap(),
            Some(epre_interp::Value::Int(0))
        );
    }

    #[test]
    fn commutative_operands_congruent() {
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Add, Ty::Int, y, x);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        run(&mut f);
        let adds: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
            .map(|i| i.dst())
            .collect();
        assert_eq!(adds[0], adds[1]);
    }

    #[test]
    fn non_commutative_order_matters() {
        let mut b = FunctionBuilder::new("nc", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Sub, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Sub, Ty::Int, y, x);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let mut f = b.finish();
        run(&mut f);
        let subs: Vec<_> = f
            .blocks
            .iter()
            .flat_map(|b| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Sub, .. }))
            .map(|i| i.dst())
            .collect();
        assert_ne!(subs[0], subs[1]);
    }

    #[test]
    fn preserves_semantics_on_branchy_code() {
        // x = a+b in one arm; y = a+b in the other; use after join.
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let x = b.new_reg(Ty::Int);
        let t = b.new_block();
        let e = b.new_block();
        let j = b.new_block();
        b.branch(p, t, e);
        b.switch_to(t);
        let s1 = b.bin(BinOp::Add, Ty::Int, a, c);
        b.copy_to(x, s1);
        b.jump(j);
        b.switch_to(e);
        let s2 = b.bin(BinOp::Mul, Ty::Int, a, c);
        b.copy_to(x, s2);
        b.jump(j);
        b.switch_to(j);
        b.ret(Some(x));
        let mut f = b.finish();
        run(&mut f);
        assert!(f.verify().is_ok());
        let mut m = epre_ir::Module::new();
        m.functions.push(f);
        for p in [0i64, 1] {
            let mut it = epre_interp::Interpreter::new(&m);
            let r = it
                .run(
                    "s",
                    &[
                        epre_interp::Value::Int(6),
                        epre_interp::Value::Int(7),
                        epre_interp::Value::Int(p),
                    ],
                )
                .unwrap();
            assert_eq!(r, Some(epre_interp::Value::Int(if p == 0 { 42 } else { 13 })));
        }
    }

    /// Run `f` on integer arguments in the interpreter.
    fn eval(f: &Function, args: &[i64]) -> Option<epre_interp::Value> {
        let mut m = epre_ir::Module::new();
        m.functions.push(f.clone());
        let args: Vec<_> = args.iter().map(|&a| epre_interp::Value::Int(a)).collect();
        epre_interp::Interpreter::new(&m).run(&f.name, &args).unwrap()
    }

    /// Thousands of allocated but never-defined registers: they stay out
    /// of the refinement, each alone in a class no defined register
    /// shares, and the `partitions` counter counts only defined classes.
    #[test]
    fn sparse_registers_stay_out_of_the_partition() {
        let mut b = FunctionBuilder::new("sparse", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        for _ in 0..5000 {
            b.new_reg(Ty::Int);
        }
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let s2 = b.bin(BinOp::Add, Ty::Int, y, x);
        let m = b.bin(BinOp::Mul, Ty::Int, s1, s2);
        b.ret(Some(m));
        let f = b.finish();

        let mut ssa = f.clone();
        build_ssa(&mut ssa, SsaOptions { fold_copies: true });
        let class = value_classes(&ssa);
        assert_eq!(class.len(), ssa.reg_count());
        let mut defined: Vec<Reg> = ssa.params.clone();
        defined.extend(ssa.blocks.iter().flat_map(|b| &b.insts).filter_map(Inst::dst));
        let mut defined_classes: Vec<u32> = defined.iter().map(|r| class[r.index()]).collect();
        defined_classes.sort_unstable();
        defined_classes.dedup();
        // x, y, x+y (both orders), the product.
        assert_eq!(defined_classes.len(), 4);
        let mut all = class.clone();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), ssa.reg_count() - 1, "only the two adds share a class");

        let mut g = f.clone();
        let stats = run_budgeted_stats(&mut g, &Budget::UNLIMITED).unwrap();
        assert_eq!(stats.partitions, 4);
        assert!(g.verify().is_ok());
        assert_eq!(eval(&g, &[3, 4]), eval(&f, &[3, 4]));
    }

    /// A parameter nothing reads is a member of its own class and keeps
    /// its name: the function's signature never changes.
    #[test]
    fn unused_parameter_keeps_its_name() {
        let mut b = FunctionBuilder::new("unused", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let _unused = b.param(Ty::Int);
        let one = b.loadi(Const::Int(1));
        let s = b.bin(BinOp::Add, Ty::Int, x, one);
        b.ret(Some(s));
        let mut f = b.finish();
        let params = f.params.clone();
        run(&mut f);
        assert_eq!(f.params, params);
        assert!(f.verify().is_ok());
        assert_eq!(eval(&f, &[41, 7]), Some(epre_interp::Value::Int(42)));
    }

    /// Two φs whose arguments are congruent position by position but that
    /// live in different blocks: the block is part of the initial key, so
    /// they stay apart (each join picks on its own condition).
    #[test]
    fn phis_of_different_blocks_stay_apart() {
        let mut b = FunctionBuilder::new("two_joins", Some(Ty::Int));
        let a = b.param(Ty::Int);
        let c = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let q = b.param(Ty::Int);
        let v = b.new_reg(Ty::Int);
        let u = b.new_reg(Ty::Int);
        let (t1, e1, j1) = (b.new_block(), b.new_block(), b.new_block());
        let (t2, e2, j2) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(p, t1, e1);
        b.switch_to(t1);
        b.copy_to(v, a);
        b.jump(j1);
        b.switch_to(e1);
        b.copy_to(v, c);
        b.jump(j1);
        b.switch_to(j1);
        b.branch(q, t2, e2);
        b.switch_to(t2);
        b.copy_to(u, a);
        b.jump(j2);
        b.switch_to(e2);
        b.copy_to(u, c);
        b.jump(j2);
        b.switch_to(j2);
        let d = b.bin(BinOp::Sub, Ty::Int, v, u);
        b.ret(Some(d));
        let f = b.finish();

        let mut ssa = f.clone();
        build_ssa(&mut ssa, SsaOptions { fold_copies: true });
        let phis: Vec<Reg> =
            ssa.blocks.iter().flat_map(|b| b.phis()).filter_map(Inst::dst).collect();
        assert_eq!(phis.len(), 2, "{ssa}");
        let class = value_classes(&ssa);
        assert_ne!(class[phis[0].index()], class[phis[1].index()]);

        let mut g = f.clone();
        run(&mut g);
        assert!(g.verify().is_ok());
        for (p, q) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            assert_eq!(eval(&g, &[10, 3, p, q]), eval(&f, &[10, 3, p, q]), "p={p} q={q}");
        }
        assert_eq!(eval(&g, &[10, 3, 1, 0]), Some(epre_interp::Value::Int(7)));
    }
}
