//! The paper's pass structure, literally: "each pass is a Unix filter
//! that consumes and produces ILOC". This binary reads textual ILOC from
//! stdin (or compiles a built-in demo if stdin is a TTY/empty), applies
//! the pass named on the command line, and prints the resulting ILOC.
//!
//! ```text
//! cargo run --example iloc_filter -- reassociate < in.iloc |
//! cargo run --example iloc_filter -- gvn |
//! cargo run --example iloc_filter -- pre
//! ```
//!
//! Pass names: reassociate, distribute, gvn, pre, constprop, peephole,
//! dce, coalesce, clean, lvn.

use std::io::Read;

use epre_ir::parse_module;
use epre_passes::passes::*;
use epre_passes::Pass;

fn pass_by_name(name: &str) -> Option<Box<dyn Pass>> {
    Some(match name {
        "reassociate" => Box::new(Reassociate { distribute: false }),
        "distribute" => Box::new(Reassociate { distribute: true }),
        "gvn" => Box::new(Gvn),
        "pre" => Box::new(Pre),
        "constprop" => Box::new(ConstProp),
        "peephole" => Box::new(Peephole),
        "dce" => Box::new(Dce),
        "coalesce" => Box::new(Coalesce),
        "clean" => Box::new(Clean),
        "lvn" => Box::new(Lvn),
        _ => return None,
    })
}

const DEMO: &str = "module data 0\n\
                    function demo(r0:i, r1:i) -> i\n\
                    block b0:\n  r2 <- add.i r0, r1\n  r3 <- add.i r0, r1\n  r4 <- mul.i r2, r3\n  ret r4\n\
                    end\n";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(pass) = args.first().and_then(|n| pass_by_name(n)) else {
        eprintln!(
            "usage: iloc_filter <pass> [< input.iloc]\n\
             passes: reassociate distribute gvn pre constprop peephole dce coalesce clean lvn"
        );
        std::process::exit(2);
    };

    let mut input = String::new();
    std::io::stdin().read_to_string(&mut input).expect("read stdin");
    if input.trim().is_empty() {
        input = DEMO.to_string();
        eprintln!("(no input on stdin; using the built-in demo module)");
    }

    let mut module = match parse_module(&input) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("parse error: {e}");
            std::process::exit(1);
        }
    };
    for f in &mut module.functions {
        pass.apply(f);
    }
    if let Err(e) = module.verify() {
        eprintln!("pass `{}` produced invalid ILOC: {e}", pass.name());
        std::process::exit(1);
    }
    print!("{module}");
}
