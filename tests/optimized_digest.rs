//! The optimizer's output bytes, pinned. The 50 suite routines are fused
//! into one module in suite order, optimized at every level through every
//! driver the workspace offers, and the printed module is hashed with
//! 64-bit FNV-1a. Each digest must equal a constant captured before the
//! dense table rewrite of GVN, PRE and SCCP: Table 1's dynamic counts can
//! stay put while the code changes, a digest cannot. The traced driver's
//! JSON Lines export is pinned the same way, so span counters and
//! provenance cannot drift either.

use std::collections::HashSet;

use epre::{OptLevel, Optimizer};
use epre_frontend::NamingMode;
use epre_harness::{FaultPolicy, Harness, SandboxedOptimizer};
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

/// Digests of `optimize_traced(&m, 2).1.to_jsonl()` per level, captured
/// before every pass switched to always-on counters.
const TRACE_DIGESTS: [(OptLevel, u64); 5] = [
    (OptLevel::Baseline, 0x0081_6a77_d8fb_655e),
    (OptLevel::Partial, 0x8aa3_8e0c_7795_5df6),
    (OptLevel::Reassociation, 0xd5b3_cc91_3a09_cf41),
    (OptLevel::Distribution, 0x6c3f_c44a_4869_919d),
    (OptLevel::DistributionLvn, 0x4756_1f48_4d72_0b37),
];

fn digest(m: &Module) -> u64 {
    fnv1a64(format!("{m}").as_bytes())
}

#[test]
fn optimized_suite_bytes_match_the_pinned_digests() {
    let m = fused_suite();
    let mut wrong = Vec::new();
    for (level, want) in DIGESTS {
        let opt = Optimizer::new(level);
        let serial = digest(&opt.optimize(&m));
        let parallel = digest(&opt.optimize_jobs(&m, 2));
        if serial != want || parallel != want {
            wrong.push(format!(
                "{level:?}: want {want:#018x}, serial {serial:#018x}, jobs=2 {parallel:#018x}"
            ));
        }
    }
    assert!(wrong.is_empty(), "optimized output changed:\n{}", wrong.join("\n"));
}

#[test]
fn every_driver_produces_the_pinned_bytes() {
    let m = fused_suite();
    let mut wrong = Vec::new();
    for (level, want) in DIGESTS {
        let opt = Optimizer::new(level);
        let journal = std::env::temp_dir()
            .join(format!("epre-digest-{}-{}.journal", std::process::id(), level.label()));
        let harness = Harness::new(level, FaultPolicy::BestEffort);
        let runs: [(&str, Module); 6] = [
            ("optimize_traced(2)", opt.optimize_traced(&m, 2).0),
            ("optimize_timed", opt.optimize_timed(&m).0),
            ("optimize_verified", opt.optimize_verified(&m).unwrap()),
            (
                "SandboxedOptimizer::optimize_jobs(2)",
                SandboxedOptimizer::new(level, FaultPolicy::BestEffort)
                    .optimize_jobs(&m, 2)
                    .unwrap()
                    .0,
            ),
            ("Harness::optimize_jobs(2)", harness.optimize_jobs(&m, 2).unwrap().module),
            (
                "Harness::optimize_journaled(2)",
                harness.optimize_journaled(&m, 2, &journal, false).unwrap().output.module,
            ),
        ];
        std::fs::remove_file(&journal).ok();
        for (driver, out) in runs {
            let got = digest(&out);
            if got != want {
                wrong.push(format!("{level:?} {driver}: want {want:#018x}, got {got:#018x}"));
            }
        }
    }
    assert!(wrong.is_empty(), "a driver's output changed:\n{}", wrong.join("\n"));
}

#[test]
fn traced_jsonl_matches_the_pinned_digests() {
    let m = fused_suite();
    let mut wrong = Vec::new();
    for (level, want) in TRACE_DIGESTS {
        let got = fnv1a64(Optimizer::new(level).optimize_traced(&m, 2).1.to_jsonl().as_bytes());
        if got != want {
            wrong.push(format!("{level:?}: want {want:#018x}, got {got:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "trace export changed:\n{}", wrong.join("\n"));
}
