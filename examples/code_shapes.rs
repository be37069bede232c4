//! Figure 1 and §2.1 of the paper: the three-address shapes of
//! `x + y + z` and their consequences.
//!
//! With `rx = 3`, `rz = 2` and `ry` a variable, only the shape that groups
//! the constants lets constant propagation rewrite the expression as
//! `y + 5`. Reassociation produces that shape automatically by giving
//! constants rank 0 and sorting them together.
//!
//! Run with: `cargo run --example code_shapes`

use epre_ir::{BinOp, Const, FunctionBuilder, Inst, Ty};
use epre_passes::passes::{ConstProp, Dce, Peephole, Reassociate};
use epre_passes::Pass;

/// Build `(x + y) + z` — the left-leaning shape of Figure 1 — with
/// x = 3 and z = 2 constant.
fn left_leaning() -> epre_ir::Function {
    let mut b = FunctionBuilder::new("shape", Some(Ty::Int));
    let y = b.param(Ty::Int);
    let x = b.loadi(Const::Int(3));
    let t = b.bin(BinOp::Add, Ty::Int, x, y);
    let z = b.loadi(Const::Int(2));
    let u = b.bin(BinOp::Add, Ty::Int, t, z);
    b.ret(Some(u));
    b.finish()
}

fn count_adds(f: &epre_ir::Function) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
        .count()
}

fn main() {
    let original = left_leaning();
    println!("Figure 1, shape ((3 + y) + 2) — constants apart:\n\n{original}\n");

    // Constant propagation alone cannot fold anything: no operation has
    // two constant operands.
    let mut without = original.clone();
    ConstProp.apply(&mut without);
    Peephole.apply(&mut without);
    Dce.apply(&mut without);
    println!(
        "after constprop+peephole+dce WITHOUT reassociation: {} adds remain\n\n{without}\n",
        count_adds(&without)
    );

    // Reassociation sorts by rank — constants (rank 0) group together —
    // and then the same constant propagation folds 3 + 2.
    let mut with = original.clone();
    Reassociate { distribute: false }.apply(&mut with);
    ConstProp.apply(&mut with);
    Peephole.apply(&mut with);
    Dce.apply(&mut with);
    println!(
        "after reassociation + the same passes: {} add remains\n\n{with}\n",
        count_adds(&with)
    );

    assert_eq!(count_adds(&without), 2);
    assert_eq!(count_adds(&with), 1, "3 + 2 folded; only y + 5 remains");
    println!("reassociation exposed the constant fold: x + y + z became y + 5");
}
