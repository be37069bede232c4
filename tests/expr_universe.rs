//! The expression universe's per-instruction occurrence table against
//! the lookup it replaces: for every instruction of every suite routine,
//! as compiled and as each paper level leaves it, the recorded id must be
//! exactly what hashing the instruction through `id_of_inst` answers.

use epre::{OptLevel, Optimizer};
use epre_analysis::ExprUniverse;
use epre_frontend::NamingMode;
use epre_ir::Module;

fn check_occurrences(m: &Module, label: &str) {
    for f in &m.functions {
        let u = ExprUniverse::new(f);
        for (bid, block) in f.iter_blocks() {
            let occurrences = u.occurrences(bid);
            assert_eq!(occurrences.len(), block.insts.len(), "{label} {} {bid}", f.name);
            for (i, (inst, &occurrence)) in block.insts.iter().zip(occurrences).enumerate() {
                assert_eq!(occurrence, u.id_of_inst(inst), "{label} {} {bid}[{i}]: {inst}", f.name);
            }
        }
    }
}

#[test]
fn occurrence_table_matches_id_of_inst_on_the_suite() {
    for r in epre_suite::all_routines() {
        let m = r.compile(NamingMode::Disciplined).unwrap();
        check_occurrences(&m, r.name);
        for level in [OptLevel::Baseline, OptLevel::Partial, OptLevel::Distribution] {
            let optimized = Optimizer::new(level).optimize(&m);
            check_occurrences(&optimized, &format!("{} {level:?}", r.name));
        }
    }
}
