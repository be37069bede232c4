//! §2.2 and §3.2 of the paper: how the *choice of names* limits PRE, and
//! how global value numbering repairs it.
//!
//! The paper's example:
//!
//! ```fortran
//! x = y + z
//! a = y
//! b = a + z
//! ```
//!
//! `y + z` and `a + z` are the same value, but PRE "cannot discover this
//! fact" — the expressions are not lexically identical. Partition-based
//! global value numbering proves `a ≅ y`, renames, and suddenly PRE (here:
//! even simple availability-based CSE) sees two occurrences of one
//! expression.
//!
//! Run with: `cargo run --example naming`

use epre_frontend::{compile, NamingMode};
use epre_ir::{BinOp, Inst};
use epre_passes::passes::{Coalesce, Dce, Gvn, Pre};
use epre_passes::Pass;

const SRC: &str = "function f(y, z)\n\
                   real y, z, x, a, b\n\
                   begin\n\
                   x = y + z\n\
                   a = y\n\
                   b = a + z\n\
                   return x * b\n\
                   end\n";

fn count_adds(f: &epre_ir::Function) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter(|i| matches!(i, Inst::Bin { op: BinOp::Add, .. }))
        .count()
}

fn main() {
    let module = compile(SRC, NamingMode::Disciplined).expect("compiles");
    let f0 = module.function("f").unwrap().clone();
    println!("lowered (naming discipline, but `a + z` ≠ `y + z` lexically):\n\n{f0}\n");

    // PRE alone: the redundancy is invisible.
    let mut pre_only = f0.clone();
    Pre.apply(&mut pre_only);
    Dce.apply(&mut pre_only);
    Coalesce.apply(&mut pre_only);
    println!("after PRE alone: {} adds (nothing found)\n", count_adds(&pre_only));

    // GVN first: a ≅ y, so `a + z` is renamed to the name of `y + z`;
    // then PRE deletes the recomputation.
    let mut gvn_pre = f0.clone();
    Gvn.apply(&mut gvn_pre);
    println!("after GVN renaming:\n\n{gvn_pre}\n");
    Pre.apply(&mut gvn_pre);
    Dce.apply(&mut gvn_pre);
    Coalesce.apply(&mut gvn_pre);
    println!("after GVN + PRE: {} add remains\n\n{gvn_pre}", count_adds(&gvn_pre));

    assert_eq!(count_adds(&pre_only), 2);
    assert_eq!(count_adds(&gvn_pre), 1);
}
