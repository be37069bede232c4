//! The input corpus: the 50 bundled suite routines compiled from
//! source, the fused module the suite workloads optimize, and the
//! renaming that makes a routine's text unique for a cold request.

use std::collections::HashSet;
use std::time::Instant;

use epre_frontend::NamingMode;
use epre_harness::SplitMix64;
use epre_interp::{Interpreter, Value};
use epre_ir::{Inst, Module};
use epre_serve::json::{self, Json};

/// One suite routine, compiled.
pub struct Routine {
    /// Suite name, e.g. `tomcatv`.
    pub name: String,
    /// Driver function that runs the routine on its built-in inputs.
    pub entry: String,
    /// The unoptimized module the front end produced.
    pub module: Module,
}

/// Compile all 50 routines; returns them with the wall time it took, ms.
pub fn compile_suite() -> Result<(Vec<Routine>, f64), String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for r in epre_suite::all_routines() {
        let module = r.compile(NamingMode::Disciplined).map_err(|e| format!("{}: {e}", r.name))?;
        out.push(Routine { name: r.name.to_string(), entry: r.entry.to_string(), module });
    }
    Ok((out, t0.elapsed().as_secs_f64() * 1e3))
}

/// `module` with every function renamed by `rename`, and every call to a
/// function of the module retargeted to match. Intrinsic calls keep
/// their names.
pub fn renamed(module: &Module, rename: &dyn Fn(&str) -> String) -> Module {
    let local: HashSet<&str> = module.functions.iter().map(|f| f.name.as_str()).collect();
    let mut out = module.clone();
    for f in &mut out.functions {
        f.name = rename(&f.name);
        for block in &mut f.blocks {
            for inst in &mut block.insts {
                if let Inst::Call { callee, .. } = inst {
                    if local.contains(callee.as_str()) {
                        *callee = rename(callee);
                    }
                }
            }
        }
    }
    out
}

/// The name a fused module gives routine `routine`'s function `name`.
pub fn fused_name(routine: &str, name: &str) -> String {
    format!("{routine}__{name}")
}

/// All routines fused into one module, in a seeded order: function
/// names are prefixed with the routine name to stay unique. Order does
/// not change any function's optimization, only which worker of the
/// parallel driver meets it first.
pub fn fuse(routines: &[Routine], seed: u64) -> Module {
    let mut order: Vec<usize> = (0..routines.len()).collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let mut out = Module::new();
    for &i in &order {
        let r = &routines[i];
        out.data_words = out.data_words.max(r.module.data_words);
        out.functions.extend(renamed(&r.module, &|n| fused_name(&r.name, n)).functions);
    }
    out
}

/// Run `entry` of `module` with no arguments on a fresh interpreter:
/// its result and dynamic operation count.
pub fn execute(module: &Module, entry: &str) -> Result<(Option<Value>, u64), String> {
    let mut interp = Interpreter::new(module);
    let result = interp.run(entry, &[]).map_err(|e| format!("{entry}: {e}"))?;
    Ok((result, interp.counts().total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuse_keeps_every_function_and_the_seed_fixes_the_order() {
        let (routines, _) = compile_suite().unwrap();
        let a = fuse(&routines, 1);
        let names = |m: &Module| m.functions.iter().map(|f| f.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&fuse(&routines, 1)));
        assert_ne!(names(&a), names(&fuse(&routines, 2)));
        let total: usize = routines.iter().map(|r| r.module.functions.len()).sum();
        assert_eq!(a.functions.len(), total);
    }

    #[test]
    fn renaming_preserves_behaviour() {
        let (routines, _) = compile_suite().unwrap();
        let r = routines.iter().find(|r| r.module.functions.len() > 1).unwrap();
        let m = renamed(&r.module, &|n| format!("{n}_x"));
        assert_eq!(
            execute(&r.module, &r.entry).unwrap(),
            execute(&m, &format!("{}_x", r.entry)).unwrap()
        );
    }
}

/// Table 1's committed total of dynamic operations at `level`, from
/// `BENCH_TABLE1.json` in the working directory; `None` when there is no
/// such file.
pub fn table1_total(level: &str) -> Result<Option<u64>, String> {
    let Ok(text) = std::fs::read_to_string("BENCH_TABLE1.json") else { return Ok(None) };
    let doc = json::parse(&text).map_err(|e| format!("BENCH_TABLE1.json: {e:?}"))?;
    let column = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap_or(&[]);
    let i = column("levels")
        .iter()
        .position(|l| l.as_str() == Some(level))
        .ok_or_else(|| format!("BENCH_TABLE1.json has no level {level}"))?;
    let total = column("totals").get(i).and_then(Json::as_u64);
    total.map(Some).ok_or_else(|| format!("BENCH_TABLE1.json has no total for {level}"))
}

/// Check a `dyn_ops` figure against Table 1's committed total.
pub fn check_table1(dyn_ops: u64, level: &str, report: &mut crate::Report) -> Result<(), String> {
    match table1_total(level)? {
        Some(total) => report.check(dyn_ops == total, || {
            format!("dyn_ops {dyn_ops} differs from the BENCH_TABLE1.json total {total} at {level}")
        }),
        None => report.note(format!("no BENCH_TABLE1.json here: dyn_ops not checked at {level}")),
    }
    Ok(())
}
