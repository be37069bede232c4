//! Per-block local predicates for PRE: `TRANSP`, `ANTLOC`, `COMP`.
//!
//! For an expression *e* and block *b* (Morel–Renvoise, refined by
//! Drechsler–Stadel):
//!
//! * `TRANSP[b][e]` — *b* is transparent for *e*: no operand of *e* is
//!   (re)defined in *b*;
//! * `ANTLOC[b][e]` — *e* is locally anticipatable: *b* computes *e* before
//!   any operand of *e* is defined in *b* (upward-exposed occurrence);
//! * `COMP[b][e]` — *e* is locally available: *b* computes *e* and no
//!   operand of *e* is defined afterwards (downward-exposed occurrence).

use crate::bitset::BitSet;
use crate::exprs::ExprUniverse;
use epre_ir::Function;

/// The three local predicate vectors, one [`BitSet`] per block, each over
/// the function's [`ExprUniverse`].
#[derive(Debug, Clone)]
pub struct LocalPredicates {
    /// `TRANSP` per block.
    pub transp: Vec<BitSet>,
    /// `ANTLOC` per block.
    pub antloc: Vec<BitSet>,
    /// `COMP` per block.
    pub comp: Vec<BitSet>,
}

impl LocalPredicates {
    /// Compute the predicates for `f` over `universe`.
    pub fn new(f: &Function, universe: &ExprUniverse) -> Self {
        let n = f.blocks.len();
        let cap = universe.len();
        let mut transp = vec![BitSet::full(cap); n];
        let mut antloc = vec![BitSet::new(cap); n];
        let mut comp = vec![BitSet::new(cap); n];

        for (bid, block) in f.iter_blocks() {
            let bi = bid.index();
            // `killed[e]`: some operand of e has been defined so far in b.
            let mut killed = BitSet::new(cap);
            for (inst, &occurrence) in block.insts.iter().zip(universe.occurrences(bid)) {
                if let Some(e) = occurrence {
                    if !killed.contains(e.index()) {
                        antloc[bi].insert(e.index());
                    }
                    // Downward exposure: mark computed; a later operand
                    // definition clears it again.
                    comp[bi].insert(e.index());
                }
                if let Some(d) = inst.dst() {
                    for &e in universe.used_by(d) {
                        killed.insert(e.index());
                        transp[bi].remove(e.index());
                        comp[bi].remove(e.index());
                    }
                }
            }
        }
        LocalPredicates { transp, antloc, comp }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::{BinOp, BlockId, Const, FunctionBuilder, Inst, Reg, Ty};

    /// One block: t1 = x+y ; x = 0 ; t2 = x+y
    /// The two x+y occurrences are distinct *lexical* occurrences of the
    /// same expression (same operand names).
    fn redefined_operand_block() -> (epre_ir::Function, Reg, Reg) {
        let mut b = FunctionBuilder::new("l", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let t1 = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: t1, lhs: x, rhs: y });
        let z = b.loadi(Const::Int(0));
        b.copy_to(x, z);
        let t2 = b.new_reg(Ty::Int);
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: t2, lhs: x, rhs: y });
        b.ret(Some(t2));
        (b.finish(), x, y)
    }

    #[test]
    fn antloc_comp_transp_with_redefinition() {
        let (f, x, _y) = redefined_operand_block();
        let u = ExprUniverse::new(&f);
        let lp = LocalPredicates::new(&f, &u);
        let add = u
            .iter()
            .find(|(_, k)| matches!(k, crate::exprs::ExprKey::Bin { op: BinOp::Add, .. }))
            .unwrap()
            .0;
        let b0 = BlockId::ENTRY.index();
        // First occurrence is upward exposed.
        assert!(lp.antloc[b0].contains(add.index()));
        // x is redefined between the occurrences, but the block recomputes
        // x+y afterwards, so it IS downward exposed.
        assert!(lp.comp[b0].contains(add.index()));
        // Not transparent: x (an operand) is defined in the block.
        assert!(!lp.transp[b0].contains(add.index()));
        // The constant 0 is computed and x's copy doesn't kill it.
        let c0 = u
            .iter()
            .find(|(_, k)| matches!(k, crate::exprs::ExprKey::Const(Const::Int(0))))
            .unwrap()
            .0;
        assert!(lp.comp[b0].contains(c0.index()));
        assert!(lp.antloc[b0].contains(c0.index()));
        let _ = x;
    }

    #[test]
    fn kill_after_compute_clears_comp() {
        // t1 = x+y ; x = 0  — x+y is upward but not downward exposed.
        let mut b = FunctionBuilder::new("k", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let t1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let z = b.loadi(Const::Int(0));
        b.copy_to(x, z);
        b.ret(Some(t1));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        let lp = LocalPredicates::new(&f, &u);
        let add = u
            .iter()
            .find(|(_, k)| matches!(k, crate::exprs::ExprKey::Bin { op: BinOp::Add, .. }))
            .unwrap()
            .0;
        assert!(lp.antloc[0].contains(add.index()));
        assert!(!lp.comp[0].contains(add.index()));
        assert!(!lp.transp[0].contains(add.index()));
    }

    #[test]
    fn untouched_block_is_transparent() {
        let mut b = FunctionBuilder::new("t", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let nxt = b.new_block();
        let t1 = b.bin(BinOp::Add, Ty::Int, x, y);
        b.jump(nxt);
        b.switch_to(nxt);
        b.ret(Some(t1));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        let lp = LocalPredicates::new(&f, &u);
        let add = u.used_by(x)[0];
        assert!(lp.transp[nxt.index()].contains(add.index()));
        assert!(!lp.antloc[nxt.index()].contains(add.index()));
        assert!(!lp.comp[nxt.index()].contains(add.index()));
        assert!(lp.transp[0].contains(add.index())); // operands x,y never defined in b0
        assert!(lp.antloc[0].contains(add.index()));
        assert!(lp.comp[0].contains(add.index()));
    }

    #[test]
    fn self_referential_definition_kills() {
        // i = i + 1 — with the same register as dst and operand: the
        // computation defines its own operand, so it is upward exposed but
        // neither downward exposed nor transparent.
        let mut b = FunctionBuilder::new("s", Some(Ty::Int));
        let i = b.param(Ty::Int);
        let one = b.param(Ty::Int); // operand defined outside the block
        b.push(Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: i, lhs: i, rhs: one });
        b.ret(Some(i));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        let lp = LocalPredicates::new(&f, &u);
        let add = u
            .iter()
            .find(|(_, k)| matches!(k, crate::exprs::ExprKey::Bin { op: BinOp::Add, .. }))
            .unwrap()
            .0;
        assert!(lp.antloc[0].contains(add.index()));
        assert!(!lp.comp[0].contains(add.index()));
        assert!(!lp.transp[0].contains(add.index()));
    }
}
