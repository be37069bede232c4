//! The lexical expression universe — PRE's problem domain.
//!
//! PRE, as Morel and Renvoise defined it and as the paper uses it, works on
//! **lexically identical expressions**: occurrences of the same operator
//! applied to the same register names. Under the naming discipline of §2.2
//! every lexical expression also has a single canonical *expression name*
//! (its target register), which is what makes deletion and insertion simple
//! register operations.
//!
//! [`ExprUniverse`] enumerates the distinct pure expressions of a function
//! and assigns each a dense [`ExprId`] used to index PRE's bit sets.
//! Operands of commutative operators are stored in canonical (sorted)
//! order so `a + b` and `b + a` denote the same expression.

use std::collections::hash_map::{Entry, HashMap};

use epre_ir::{BinOp, BlockId, Const, Function, Inst, Reg, Ty, UnOp};

/// Dense identifier of an expression in a function's [`ExprUniverse`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl ExprId {
    /// The id's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A lexical expression: operator plus operand register names (or the
/// constant, for `loadi`). Constants are expressions too — the paper's
/// naming example treats `1` as the expression named `r1`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum ExprKey {
    /// A binary expression. For commutative operators the operands are
    /// stored with `lhs <= rhs`.
    Bin {
        /// Operator.
        op: BinOp,
        /// Operand type.
        ty: Ty,
        /// Left operand (canonicalized).
        lhs: Reg,
        /// Right operand (canonicalized).
        rhs: Reg,
    },
    /// A unary expression.
    Un {
        /// Operator.
        op: UnOp,
        /// Operand type.
        ty: Ty,
        /// Operand.
        src: Reg,
    },
    /// A constant (`loadi`).
    Const(Const),
}

impl ExprKey {
    /// Build the canonical key for an instruction, or `None` if the
    /// instruction is not a pure expression (copy, φ, load, store, call).
    pub fn of_inst(inst: &Inst) -> Option<ExprKey> {
        match inst {
            Inst::Bin { op, ty, lhs, rhs, .. } => {
                let (lhs, rhs) = if op.is_commutative() && rhs < lhs {
                    (*rhs, *lhs)
                } else {
                    (*lhs, *rhs)
                };
                Some(ExprKey::Bin { op: *op, ty: *ty, lhs, rhs })
            }
            Inst::Un { op, ty, src, .. } => Some(ExprKey::Un { op: *op, ty: *ty, src: *src }),
            Inst::LoadI { value, .. } => Some(ExprKey::Const(*value)),
            _ => None,
        }
    }

    /// The register operands of the expression, in operand order (none
    /// for constants).
    pub fn operands(&self) -> impl Iterator<Item = Reg> + Clone {
        let (a, b) = match *self {
            ExprKey::Bin { lhs, rhs, .. } => (Some(lhs), Some(rhs)),
            ExprKey::Un { src, .. } => (Some(src), None),
            ExprKey::Const(_) => (None, None),
        };
        a.into_iter().chain(b)
    }
}

/// The set of distinct pure expressions of one function, densely numbered.
///
/// Also records, for each expression, the destination register of its first
/// occurrence. Under the §2.2 naming discipline every occurrence has the
/// same destination; [`ExprUniverse::is_disciplined`] reports whether that
/// held, and PRE refuses to transform expressions for which it did not.
///
/// The scan also keeps, per instruction, the expression it computes, so
/// the local predicates and PRE's deletions read each occurrence's id
/// instead of hashing the instruction again.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprUniverse {
    by_key: HashMap<ExprKey, ExprId>,
    keys: Vec<ExprKey>,
    /// Canonical destination register per expression.
    names: Vec<Reg>,
    /// Whether every occurrence of the expression targets `names[e]`.
    disciplined: Vec<bool>,
    /// For each register (by index), the expressions that use it as an
    /// operand; as long as the highest operand register needs, so equal
    /// functions give equal universes.
    used_by: Vec<Vec<ExprId>>,
    /// The expression each instruction computes, block after block.
    occurrences: Vec<Option<ExprId>>,
    /// Where each block's instructions start in `occurrences` (one entry
    /// per block, plus the end).
    block_start: Vec<usize>,
}

impl ExprUniverse {
    /// Scan `f` and build its expression universe.
    pub fn new(f: &Function) -> Self {
        let mut u = ExprUniverse {
            by_key: HashMap::new(),
            keys: Vec::new(),
            names: Vec::new(),
            disciplined: Vec::new(),
            used_by: Vec::new(),
            occurrences: Vec::with_capacity(f.inst_count()),
            block_start: Vec::with_capacity(f.blocks.len() + 1),
        };
        for (_, block) in f.iter_blocks() {
            u.block_start.push(u.occurrences.len());
            for inst in &block.insts {
                let occurrence = ExprKey::of_inst(inst).map(|key| u.intern(key, inst));
                u.occurrences.push(occurrence);
            }
        }
        u.block_start.push(u.occurrences.len());
        u
    }

    /// The id of `key`, computed by `inst`: numbered on first sight, else
    /// checked against the naming discipline.
    fn intern(&mut self, key: ExprKey, inst: &Inst) -> ExprId {
        let dst = inst.dst().expect("expressions define a register");
        let slot = match self.by_key.entry(key) {
            Entry::Occupied(known) => {
                let id = *known.get();
                if self.names[id.index()] != dst {
                    self.disciplined[id.index()] = false;
                }
                return id;
            }
            Entry::Vacant(slot) => slot,
        };
        let id = ExprId(self.keys.len() as u32);
        for r in slot.key().operands() {
            if self.used_by.len() <= r.index() {
                self.used_by.resize(r.index() + 1, Vec::new());
            }
            self.used_by[r.index()].push(id);
        }
        self.keys.push(slot.key().clone());
        slot.insert(id);
        self.names.push(dst);
        self.disciplined.push(true);
        id
    }

    /// Number of distinct expressions.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True if the function contains no pure expressions.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Look up the id of an instruction's expression.
    pub fn id_of_inst(&self, inst: &Inst) -> Option<ExprId> {
        ExprKey::of_inst(inst).and_then(|k| self.by_key.get(&k).copied())
    }

    /// The key of expression `e`.
    pub fn key(&self, e: ExprId) -> &ExprKey {
        &self.keys[e.index()]
    }

    /// The canonical destination register of `e` (its *expression name*).
    pub fn name(&self, e: ExprId) -> Reg {
        self.names[e.index()]
    }

    /// Did every occurrence of `e` target the same register? PRE may only
    /// move disciplined expressions.
    pub fn is_disciplined(&self, e: ExprId) -> bool {
        self.disciplined[e.index()]
    }

    /// Expressions that read register `r` (none for a register past the
    /// end of the table, such as one allocated after the scan).
    pub fn used_by(&self, r: Reg) -> &[ExprId] {
        self.used_by.get(r.index()).map_or(&[], Vec::as_slice)
    }

    /// The expression each instruction of block `b` computes, in
    /// instruction order, as the scanned function held it: `Some` exactly
    /// where [`ExprUniverse::id_of_inst`] would answer `Some`.
    pub fn occurrences(&self, b: BlockId) -> &[Option<ExprId>] {
        &self.occurrences[self.block_start[b.index()]..self.block_start[b.index() + 1]]
    }

    /// Iterate all `(id, key)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ExprId, &ExprKey)> {
        self.keys.iter().enumerate().map(|(i, k)| (ExprId(i as u32), k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epre_ir::FunctionBuilder;

    #[test]
    fn commutative_operands_canonicalize() {
        let a = Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(2), lhs: Reg(1), rhs: Reg(0) };
        let b = Inst::Bin { op: BinOp::Add, ty: Ty::Int, dst: Reg(3), lhs: Reg(0), rhs: Reg(1) };
        assert_eq!(ExprKey::of_inst(&a), ExprKey::of_inst(&b));
        // Subtraction is not commutative.
        let c = Inst::Bin { op: BinOp::Sub, ty: Ty::Int, dst: Reg(2), lhs: Reg(1), rhs: Reg(0) };
        let d = Inst::Bin { op: BinOp::Sub, ty: Ty::Int, dst: Reg(2), lhs: Reg(0), rhs: Reg(1) };
        assert_ne!(ExprKey::of_inst(&c), ExprKey::of_inst(&d));
    }

    #[test]
    fn non_expressions_have_no_key() {
        assert_eq!(ExprKey::of_inst(&Inst::Copy { dst: Reg(0), src: Reg(1) }), None);
        assert_eq!(
            ExprKey::of_inst(&Inst::Load { ty: Ty::Int, dst: Reg(0), addr: Reg(1) }),
            None
        );
        assert_eq!(
            ExprKey::of_inst(&Inst::Call { dst: None, callee: "f".into(), args: vec![] }),
            None
        );
    }

    #[test]
    fn universe_enumerates_distinct_expressions() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s1 = b.bin(BinOp::Add, Ty::Int, x, y);
        let _s2 = b.bin(BinOp::Add, Ty::Int, y, x); // same expression, new name
        let p = b.bin(BinOp::Mul, Ty::Int, x, y);
        let _c = b.loadi(Const::Int(5));
        let q = b.bin(BinOp::Add, Ty::Int, s1, p);
        b.ret(Some(q));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        // add(x,y), mul(x,y), const 5, add(s1,p) — the commuted add merges.
        assert_eq!(u.len(), 4);
        assert!(!u.is_empty());
        // The commuted duplicate broke the naming discipline for add(x,y).
        let add_id = u
            .iter()
            .find(|(_, k)| matches!(k, ExprKey::Bin { op: BinOp::Add, lhs, .. } if *lhs == x))
            .unwrap()
            .0;
        assert!(!u.is_disciplined(add_id));
        assert_eq!(u.name(add_id), s1);
        // mul is disciplined (single occurrence).
        let mul_id =
            u.iter().find(|(_, k)| matches!(k, ExprKey::Bin { op: BinOp::Mul, .. })).unwrap().0;
        assert!(u.is_disciplined(mul_id));
    }

    #[test]
    fn used_by_maps_operands_to_expressions() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let y = b.param(Ty::Int);
        let s = b.bin(BinOp::Add, Ty::Int, x, y);
        b.ret(Some(s));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        assert_eq!(u.used_by(x).len(), 1);
        assert_eq!(u.used_by(y).len(), 1);
        assert_eq!(u.used_by(s).len(), 0);
        // A register allocated after the scan (past the end of the table).
        assert_eq!(u.used_by(Reg(f.reg_count() as u32 + 100)), &[]);
        let id = u.used_by(x)[0];
        assert_eq!(u.key(id).operands().collect::<Vec<_>>(), vec![x, y]);
    }

    #[test]
    fn id_of_inst_round_trips() {
        let mut b = FunctionBuilder::new("u", Some(Ty::Int));
        let x = b.param(Ty::Int);
        let s = b.bin(BinOp::Add, Ty::Int, x, x);
        b.ret(Some(s));
        let f = b.finish();
        let u = ExprUniverse::new(&f);
        let inst = &f.block(epre_ir::BlockId::ENTRY).insts[0];
        let id = u.id_of_inst(inst).unwrap();
        assert_eq!(u.name(id), s);
    }
}
