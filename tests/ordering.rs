//! §5.2 of the paper: pass-ordering interactions. "Many compilers replace
//! an integer multiply with one constant argument by a series of shifts
//! ... Since shifts are not associative, this optimization should not be
//! performed until after global reassociation. For example, if
//! ((x × y) × 2) × z is prematurely converted ... we lose the opportunity
//! to group z with either x or y. This effect is measurable; indeed, we
//! have accidentally measured it more than once."

use epre_frontend::{compile, NamingMode};
use epre_interp::{Interpreter, Value};
use epre_ir::{BinOp, Const, FunctionBuilder, Inst, Module, Ty};
use epre_passes::passes::{Peephole, Reassociate};
use epre_passes::Pass;

/// Build ((x*y)*2)*z where x, y are loop-invariant and z varies: correct
/// ordering lets reassociation group (2*x*y) for hoisting.
fn build() -> epre_ir::Function {
    let mut b = FunctionBuilder::new("f", Some(Ty::Int));
    let x = b.param(Ty::Int);
    let y = b.param(Ty::Int);
    let n = b.param(Ty::Int);
    let acc = b.new_reg(Ty::Int);
    let z = b.new_reg(Ty::Int);
    let body = b.new_block();
    let exit = b.new_block();
    let zero = b.loadi(Const::Int(0));
    b.copy_to(acc, zero);
    b.copy_to(z, zero);
    let g = b.bin(BinOp::CmpGe, Ty::Int, z, n);
    b.branch(g, exit, body);
    b.switch_to(body);
    let xy = b.bin(BinOp::Mul, Ty::Int, x, y);
    let two = b.loadi(Const::Int(2));
    let xy2 = b.bin(BinOp::Mul, Ty::Int, xy, two);
    let xyz2 = b.bin(BinOp::Mul, Ty::Int, xy2, z);
    let acc2 = b.bin(BinOp::Add, Ty::Int, acc, xyz2);
    b.copy_to(acc, acc2);
    let one = b.loadi(Const::Int(1));
    let z2 = b.bin(BinOp::Add, Ty::Int, z, one);
    b.copy_to(z, z2);
    let c = b.bin(BinOp::CmpLt, Ty::Int, z, n);
    b.branch(c, body, exit);
    b.switch_to(exit);
    b.ret(Some(acc));
    b.finish()
}

fn run(f: &epre_ir::Function, n: i64) -> (Option<Value>, u64) {
    let mut m = Module::new();
    m.functions.push(f.clone());
    let mut i = Interpreter::new(&m);
    let r = i.run("f", &[Value::Int(3), Value::Int(5), Value::Int(n)]).unwrap();
    (r, i.counts().total)
}

#[test]
fn premature_strength_reduction_blocks_grouping() {
    use epre_passes::passes::{Clean, Coalesce, Dce, Gvn, Pre};

    let finish = |f: &mut epre_ir::Function| {
        Gvn.apply(f);
        Pre.apply(f);
        Peephole.apply(f);
        Dce.apply(f);
        Coalesce.apply(f);
        Clean.apply(f);
    };

    // Correct order: reassociate, THEN peephole (the pipeline's order).
    // The whole invariant product 2*x*y groups and hoists.
    let mut good = build();
    Reassociate { distribute: false }.apply(&mut good);
    finish(&mut good);

    // Wrong order: peephole first turns ×2 into the non-associative
    // x+x shape, hiding the multiply from reassociation — z can no
    // longer be grouped away from the invariants.
    let mut bad = build();
    Peephole.apply(&mut bad);
    Reassociate { distribute: false }.apply(&mut bad);
    finish(&mut bad);

    let (rg, cg) = run(&good, 10);
    let (rb, cb) = run(&bad, 10);
    assert_eq!(rg, rb, "both orders compute the same value");
    assert!(
        cg <= cb,
        "premature strength reduction must not be cheaper: good {cg} vs bad {cb}\n\
         good:\n{good}\nbad:\n{bad}"
    );
    // The grouped invariant product must be out of the loop in the good
    // order: the loop body contains at most one multiply (invariant ×  z).
    let loop_muls = |f: &epre_ir::Function| {
        // Count multiplies in blocks that are inside a cycle (reached from
        // themselves).
        let cfg = epre_cfg::Cfg::new(f);
        let dom = epre_cfg::Dominators::new(f, &cfg);
        let li = epre_cfg::LoopInfo::new(&cfg, &dom);
        f.iter_blocks()
            .filter(|(bid, _)| li.depth(*bid) > 0)
            .flat_map(|(_, b)| &b.insts)
            .filter(|i| matches!(i, Inst::Bin { op: BinOp::Mul, .. }))
            .count()
    };
    assert!(
        loop_muls(&good) <= 1,
        "good order leaves at most the loop-variant multiply inside:\n{good}"
    );
}

#[test]
fn pipeline_puts_peephole_after_reassociation() {
    // Guard the §5.2 ordering constraint structurally: in every level's
    // pass list, `peephole` comes after any reassociation pass.
    for level in epre::OptLevel::PAPER_LEVELS {
        let names: Vec<&str> =
            epre::Optimizer::new(level).passes().iter().map(|p| p.name()).collect();
        if let Some(ri) = names.iter().position(|n| n.starts_with("reassociate")) {
            let pi = names.iter().position(|n| *n == "peephole").unwrap();
            assert!(pi > ri, "{level:?}: {names:?}");
        }
    }
}

#[test]
fn full_pipeline_handles_the_example() {
    // End-to-end through the real optimizer: values agree at all levels.
    let src = "function f(x, y, n)\n\
               integer f, x, y, n, z, acc\n\
               begin\n\
               acc = 0\n\
               do z = 0, n - 1\n\
                 acc = acc + x * y * 2 * z\n\
               enddo\n\
               return acc\n\
               end\n";
    let m = compile(src, NamingMode::Disciplined).unwrap();
    let args = [Value::Int(3), Value::Int(5), Value::Int(10)];
    let mut results = Vec::new();
    for level in epre::OptLevel::PAPER_LEVELS {
        let opt = epre::Optimizer::new(level).optimize(&m);
        let mut i = Interpreter::new(&opt);
        results.push(i.run("f", &args).unwrap());
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
    assert_eq!(results[0], Some(Value::Int((0..10).map(|z| 30 * z).sum())));
}
