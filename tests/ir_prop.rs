#![cfg(feature = "prop-tests")]
// Gated: requires the proptest dev-dependency, which the offline build
// environment cannot fetch. Restore it in Cargo.toml and build with
// `--features prop-tests` to run these.

//! Property tests on the IR substrate itself: the textual ILOC format
//! round-trips arbitrary well-formed functions, the structural verifier
//! accepts everything the generator builds, and the cleanup-style passes
//! are idempotent.

use proptest::prelude::*;

use epre_ir::parse_function;
use epre_passes::passes::{Clean, Coalesce, Dce, Peephole};
use epre_passes::Pass;

mod common;
use common::{build, step_strategy};

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, .. ProptestConfig::default() })]

    /// print → parse is the identity on well-formed functions.
    #[test]
    fn text_format_round_trips(steps in prop::collection::vec(step_strategy(), 0..24),
                               diamond in any::<bool>()) {
        let f = build(&steps, diamond);
        prop_assert!(f.verify().is_ok());
        let text = format!("{f}");
        let g = parse_function(&text).expect("printed IR parses");
        prop_assert_eq!(&f, &g, "round trip changed the function:\n{}", text);
    }

    /// The cleanup passes are idempotent: a second application is a no-op.
    #[test]
    fn cleanup_passes_idempotent(steps in prop::collection::vec(step_strategy(), 0..24),
                                 diamond in any::<bool>()) {
        let mut f = build(&steps, diamond);
        for pass in [&Dce as &dyn Pass, &Peephole, &Coalesce, &Clean] {
            pass.apply(&mut f);
            prop_assert!(f.verify().is_ok(), "{} broke the verifier", pass.name());
            let once = f.clone();
            pass.apply(&mut f);
            prop_assert_eq!(&f, &once, "{} is not idempotent", pass.name());
        }
    }

    /// Static operation counts never grow under the baseline cleanup
    /// passes.
    #[test]
    fn cleanup_passes_never_grow_code(steps in prop::collection::vec(step_strategy(), 0..24),
                                      diamond in any::<bool>()) {
        let mut f = build(&steps, diamond);
        let mut prev = f.static_op_count();
        for pass in [&Dce as &dyn Pass, &Peephole, &Coalesce, &Clean] {
            pass.apply(&mut f);
            let now = f.static_op_count();
            prop_assert!(now <= prev, "{} grew the code {prev} -> {now}", pass.name());
            prev = now;
        }
    }
}
