//! The optimizer's output bytes, pinned. The 50 suite routines are fused
//! into one module in suite order, optimized at every level, serially
//! and with two workers, and the printed module is hashed with 64-bit
//! FNV-1a. Each digest must equal a constant captured before the dense
//! table rewrite of GVN, PRE and SCCP: Table 1's dynamic counts can stay
//! put while the code changes, a digest cannot.

use std::collections::HashSet;

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_ir::{Inst, Module};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// Every suite routine in suite order, its functions prefixed with the
/// routine name (calls between them retargeted to match).
fn fused_suite() -> Module {
    let mut out = Module::new();
    for r in epre_suite::all_routines() {
        let mut m = r.compile(NamingMode::Disciplined).unwrap();
        let local: HashSet<String> = m.functions.iter().map(|f| f.name.clone()).collect();
        let rename = |n: &str| format!("{}__{n}", r.name);
        for f in &mut m.functions {
            f.name = rename(&f.name);
            for inst in f.blocks.iter_mut().flat_map(|b| b.insts.iter_mut()) {
                if let Inst::Call { callee, .. } = inst {
                    if local.contains(callee.as_str()) {
                        *callee = rename(callee);
                    }
                }
            }
        }
        out.data_words = out.data_words.max(m.data_words);
        out.functions.extend(m.functions);
    }
    out
}

const DIGESTS: [(OptLevel, u64); 5] = [
    (OptLevel::Baseline, 0x8e0d_c5cc_0d79_aa1f),
    (OptLevel::Partial, 0x0121_dc89_d199_ed7d),
    (OptLevel::Reassociation, 0xd6c9_b354_0f6c_96a3),
    (OptLevel::Distribution, 0xfa0b_926f_227f_46b8),
    (OptLevel::DistributionLvn, 0x267e_425c_491b_b961),
];

#[test]
fn optimized_suite_bytes_match_the_pinned_digests() {
    let m = fused_suite();
    let mut wrong = Vec::new();
    for (level, want) in DIGESTS {
        let opt = Optimizer::new(level);
        let serial = fnv1a64(format!("{}", opt.optimize(&m)).as_bytes());
        let parallel = fnv1a64(format!("{}", opt.optimize_jobs(&m, 2)).as_bytes());
        if serial != want || parallel != want {
            wrong.push(format!(
                "{level:?}: want {want:#018x}, serial {serial:#018x}, jobs=2 {parallel:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "optimized output changed:\n{}", wrong.join("\n"));
}
