//! §5.1 of the paper: "an expression defined in one basic block may not
//! be referenced in another basic block" — the unstated PRE correctness
//! requirement the authors "have never seen ... stated in the literature".
//!
//! The paper's example: `r10 <- sqrt(r9)` computed before a branch, with
//! `r10` used on one arm after `r9` is redefined. If PRE hoisted a
//! recomputation of the expression past the use, the use would read the
//! wrong value. Our pipeline respects the rule two ways: the disciplined
//! front end keeps expression names block-local, and forward propagation
//! enforces it for everything else. These tests build the dangerous shape
//! *by hand* and check PRE stays sound.

use epre_interp::{Interpreter, Value};
use epre_ir::{BinOp, Const, FunctionBuilder, Inst, Module, Ty};
use epre_passes::passes::Pre;
use epre_passes::Pass;

/// The §5.1 shape with an arithmetic expression standing in for sqrt
/// (calls are never PRE candidates in this pipeline, which is itself a
/// §5.1-motivated design decision — so exercise the rule with `add`):
///
/// ```text
/// b0: n  <- x + y          (expression name n, defined here)
///     cbr p -> b1, b2
/// b1: x <- 1000            (kills the expression's operand)
///     n2 <- x + y          (same lexical expression, x changed)
///     jump b2
/// b2: use n                (old value! n is live across blocks)
/// ```
///
/// The expression name `n` is live across the block boundary — exactly
/// what the rule forbids. PRE must not insert or delete in a way that
/// clobbers `n`'s value on the `p` path. (Here the two occurrences have
/// different destinations, so they are *undisciplined* and PRE refuses to
/// touch them — the mechanism that makes the rule hold.)
#[test]
fn live_expression_name_across_blocks_is_not_clobbered() {
    let build = || {
        let mut b = FunctionBuilder::new("f", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let p = b.param(Ty::Int);
        let n = b.bin(BinOp::Add, Ty::Int, x, y);
        let b1 = b.new_block();
        let b2 = b.new_block();
        b.branch(p, b1, b2);
        b.switch_to(b1);
        let big = b.loadi(Const::Int(1000));
        b.copy_to(x, big);
        let n2 = b.bin(BinOp::Add, Ty::Int, x, y);
        let _ = n2;
        b.jump(b2);
        b.switch_to(b2);
        // Use the *old* n: its value must be x_original + y.
        b.ret(Some(n));
        b.finish()
    };

    let orig = build();
    let mut optimized = build();
    Pre.apply(&mut optimized);
    optimized.verify().unwrap();

    for p in [0i64, 1] {
        let args = [Value::Int(3), Value::Int(4), Value::Int(p)];
        let mut m0 = Module::new();
        m0.functions.push(orig.clone());
        let mut m1 = Module::new();
        m1.functions.push(optimized.clone());
        let r0 = Interpreter::new(&m0).run("f", &args).unwrap();
        let r1 = Interpreter::new(&m1).run("f", &args).unwrap();
        assert_eq!(r0, r1, "p = {p}");
        assert_eq!(r1, Some(Value::Int(7)), "old value of n survives the branch");
    }
}

/// Calls (the paper's literal `sqrt` case) are opaque to PRE by
/// construction: no call is ever moved, inserted or deleted.
#[test]
fn calls_are_never_pre_candidates() {
    let mut b = FunctionBuilder::new("g", Some(Ty::Float));
    let x = b.param(Ty::Float);
    let p = b.param(Ty::Int);
    let s1 = b.call("sqrt", vec![x], Ty::Float);
    let b1 = b.new_block();
    let b2 = b.new_block();
    b.branch(p, b1, b2);
    b.switch_to(b1);
    let s2 = b.call("sqrt", vec![x], Ty::Float);
    let t = b.bin(BinOp::Add, Ty::Float, s1, s2);
    b.ret(Some(t));
    b.switch_to(b2);
    b.ret(Some(s1));
    let mut f = b.finish();
    let calls_before =
        f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Call { .. })).count();
    Pre.apply(&mut f);
    let calls_after =
        f.blocks.iter().flat_map(|b| &b.insts).filter(|i| matches!(i, Inst::Call { .. })).count();
    assert_eq!(calls_before, calls_after, "{f}");
}

/// The front end's disciplined lowering keeps every expression name
/// block-local: all uses of an expression register sit in the block that
/// (re)computes it. This is the §2.2/§5.1 invariant PRE relies on.
#[test]
fn disciplined_frontend_keeps_expression_names_block_local() {
    let src = "function f(a, b, n)\n\
               real a, b, t\n\
               integer n, i\n\
               begin\n\
               t = 0\n\
               do i = 1, n\n\
                 t = t + a * b\n\
                 if t > 10.0 then\n\
                   t = t - a * b\n\
                 endif\n\
               enddo\n\
               return t\n\
               end\n";
    let m = epre_frontend::compile(src, epre_frontend::NamingMode::Disciplined).unwrap();
    let f = m.function("f").unwrap();
    // For every *expression* register (defined by Bin/Un/LoadI), every use
    // must be preceded by a definition in the same block.
    use std::collections::HashSet;
    let mut expr_regs: HashSet<epre_ir::Reg> = HashSet::new();
    for block in &f.blocks {
        for inst in &block.insts {
            if inst.is_expression() {
                expr_regs.insert(inst.dst().unwrap());
            }
        }
    }
    for (bid, block) in f.iter_blocks() {
        let mut defined: HashSet<epre_ir::Reg> = HashSet::new();
        let check = |r: &epre_ir::Reg, defined: &HashSet<epre_ir::Reg>| {
            assert!(
                !expr_regs.contains(r) || defined.contains(r),
                "expression name {r} used in {bid} without a local definition"
            );
        };
        for inst in &block.insts {
            for u in inst.uses() {
                check(&u, &defined);
            }
            if let Some(d) = inst.dst() {
                defined.insert(d);
            }
        }
        for u in block.term.uses() {
            check(&u, &defined);
        }
    }
}
