//! # epre-bench — harnesses regenerating the paper's tables and figures
//!
//! Run with `cargo bench -p epre-bench`:
//!
//! * `--bench table1` — Table 1: dynamic ILOC operation counts for all 50
//!   routines at `baseline` / `partial` / `reassociation` / `distribution`,
//!   with the paper's improvement percentages (`new`, `total`),
//! * `--bench table2` — Table 2: static code expansion from forward
//!   propagation (before / after / factor, with totals),
//! * `--bench hierarchy` — the §5.3 redundancy-elimination hierarchy
//!   (dominator CSE ⊂ available-expressions CSE ⊂ PRE), an ablation the
//!   paper discusses qualitatively.
//!
//! Helper functions live here so the benches stay thin and testable.

use epre::{Optimizer, OptLevel};
use epre_frontend::NamingMode;
use epre_interp::Interpreter;
use epre_suite::Routine;
use epre_telemetry::json::{self, obj, Json};

/// Dynamic operation count of `routine` at `level`.
///
/// # Panics
/// Panics if the routine fails to compile or execute — benchmark inputs
/// are fixed and must work.
pub fn dynamic_count(routine: &Routine, level: OptLevel) -> u64 {
    let module = routine.compile(NamingMode::Disciplined).unwrap();
    let optimized = Optimizer::new(level).optimize(&module);
    let mut interp = Interpreter::new(&optimized);
    interp.run(routine.entry, &[]).unwrap_or_else(|e| panic!("{}: {e}", routine.name));
    interp.counts().total
}

/// The paper's percentage-improvement convention: `(old - new) / old`,
/// rendered like Table 1 (empty for no change, `0%`/`-0%` for tiny ones).
/// The single implementation lives in `epre-telemetry` (it also renders
/// the `epre report` table); this re-export keeps the bench API stable.
pub use epre_telemetry::improvement;

/// A history document's `runs` array, if it has one.
fn runs_of(history: &Json) -> Option<&[Json]> {
    history.get("runs").and_then(Json::as_arr)
}

/// A run's `run` number, if it carries one.
fn run_tag(run: &Json) -> Option<u64> {
    run.get("run").and_then(Json::as_u64)
}

/// One past the largest `run` number among `runs`, or 0 for none.
fn next_run(runs: &[Json]) -> u64 {
    runs.iter().filter_map(run_tag).max().map_or(0, |m| m + 1)
}

/// One past the largest `run` number in a bench-history file, or 0 when
/// there is none (missing, empty, unparseable, or legacy file).
pub fn next_run_number(history: &str) -> u64 {
    json::parse(history).ok().as_ref().and_then(runs_of).map_or(0, next_run)
}

/// Merge a fresh run into a named bench-history file instead of
/// overwriting it: parse the history, push the run, encode.
///
/// `entry` is the new run's JSON object *without* a `run` field (it is
/// assigned here, one past the largest already recorded). `existing` is
/// the current file contents, if any. The result is the history format
/// `{"bench":"<name>","runs":[...]}` with runs in recording order; any
/// other object (such as the flat single-run format from before run
/// histories) is preserved as run 0.
///
/// # Errors
/// `existing` is not a JSON object — a torn or hand-broken file — or
/// `entry` is not an object. The caller must then leave the file as it
/// is.
pub fn merge_named_runs(bench: &str, existing: Option<&str>, entry: Json) -> Result<String, String> {
    let tagged = |run: u64, fields: Vec<(String, Json)>| {
        Json::Obj(std::iter::once(("run".to_string(), Json::U64(run))).chain(fields).collect())
    };
    let Json::Obj(fields) = entry else { return Err("run entry must be a JSON object".into()) };
    let mut runs = Vec::new();
    if let Some(text) = existing.filter(|t| !t.trim().is_empty()) {
        let old = json::parse(text).map_err(|e| format!("bench history is not valid JSON: {e}"))?;
        match (old.get("bench").and_then(Json::as_str), runs_of(&old)) {
            (Some(name), Some(old_runs)) if name == bench => runs = old_runs.to_vec(),
            _ => match old {
                Json::Obj(legacy) => runs.push(tagged(0, legacy)),
                _ => return Err("bench history is not a JSON object".into()),
            },
        }
    }
    runs.push(tagged(next_run(&runs), fields));
    let history = obj(vec![("bench", Json::Str(bench.into())), ("runs", Json::Arr(runs))]);
    Ok(history.encode() + "\n")
}

/// [`merge_named_runs`] for the `BENCH_OPT.json` throughput history —
/// the original entry point, kept stable for the throughput bench.
///
/// # Errors
/// As [`merge_named_runs`].
pub fn merge_bench_runs(existing: Option<&str>, entry: Json) -> Result<String, String> {
    merge_named_runs("throughput", existing, entry)
}

/// Is a bench-history file intact, with `run` numbers strictly
/// increasing in file order? A clean history always is —
/// [`merge_named_runs`] assigns one past the maximum — so a file that
/// does not parse, a run without a number, or disorder or duplication is
/// the signature of a torn, hand-edited or corrupted file, and
/// `epre report` refuses to build on it. Empty files and objects without
/// a `runs` array (the legacy flat format) are trivially monotonic.
pub fn runs_monotonic(history: &str) -> bool {
    if history.trim().is_empty() {
        return true;
    }
    let Ok(doc) = json::parse(history) else { return false };
    let Some(runs) = runs_of(&doc) else { return doc.as_obj().is_some() };
    let tags: Vec<Option<u64>> = runs.iter().map(run_tag).collect();
    tags.iter().all(Option::is_some) && tags.windows(2).all(|w| w[0] < w[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(text: &str) -> Json {
        json::parse(text).unwrap()
    }

    #[test]
    fn improvement_formatting_matches_table1_conventions() {
        assert_eq!(improvement(100, 100), "");
        assert_eq!(improvement(1000, 999), "0%");
        assert_eq!(improvement(1000, 1001), "-0%");
        assert_eq!(improvement(100, 80), "20%");
        assert_eq!(improvement(100, 112), "-12%");
    }

    #[test]
    fn run_numbers_increase_monotonically() {
        assert_eq!(next_run_number(""), 0);
        assert_eq!(next_run_number("{\"bench\":\"throughput\",\"quick\":true}"), 0);
        assert_eq!(next_run_number("{\"runs\":[{\"run\":0,\"x\":1}]}"), 1);
        assert_eq!(next_run_number("{\"runs\":[{\"run\":0},{\"run\":7},{\"run\":3}]}"), 8);
    }

    #[test]
    fn merge_starts_appends_and_wraps_legacy() {
        // First run ever: history is created with run 0.
        let first = merge_bench_runs(None, entry("{\"quick\":true,\"cpus\":8}")).unwrap();
        assert_eq!(
            first,
            "{\"bench\":\"throughput\",\"runs\":[{\"run\":0,\"quick\":true,\"cpus\":8}]}\n"
        );
        // Second run appends as run 1 without disturbing run 0.
        let second = merge_bench_runs(Some(&first), entry("{\"quick\":false,\"cpus\":8}")).unwrap();
        assert_eq!(
            second,
            "{\"bench\":\"throughput\",\"runs\":[{\"run\":0,\"quick\":true,\"cpus\":8},{\"run\":1,\"quick\":false,\"cpus\":8}]}\n"
        );
        // A legacy flat file becomes run 0; the new entry becomes run 1.
        let legacy = "{\"bench\":\"throughput\",\"quick\":true,\"levels\":[]}\n";
        let merged = merge_bench_runs(Some(legacy), entry("{\"quick\":false}")).unwrap();
        assert_eq!(
            merged,
            "{\"bench\":\"throughput\",\"runs\":[{\"run\":0,\"bench\":\"throughput\",\"quick\":true,\"levels\":[]},{\"run\":1,\"quick\":false}]}\n"
        );
    }

    #[test]
    fn named_histories_do_not_cross_contaminate() {
        let serve = merge_named_runs("serve", None, entry("{\"cold_ms\":10}")).unwrap();
        assert_eq!(serve, "{\"bench\":\"serve\",\"runs\":[{\"run\":0,\"cold_ms\":10}]}\n");
        let serve2 = merge_named_runs("serve", Some(&serve), entry("{\"cold_ms\":12}")).unwrap();
        assert_eq!(
            serve2,
            "{\"bench\":\"serve\",\"runs\":[{\"run\":0,\"cold_ms\":10},{\"run\":1,\"cold_ms\":12}]}\n"
        );
        // A throughput history handed to the serve bench is treated as
        // legacy content, not silently re-tagged in place.
        let cross =
            merge_named_runs("serve", Some("{\"bench\":\"throughput\",\"runs\":[]}"), entry("{\"a\":1}"))
                .unwrap();
        assert!(cross.starts_with("{\"bench\":\"serve\",\"runs\":["));
    }

    #[test]
    fn monotonicity_accepts_clean_histories_and_rejects_tampering() {
        assert!(runs_monotonic(""));
        assert!(runs_monotonic("{\"bench\":\"throughput\",\"quick\":true}"), "legacy flat file");
        let mut h = merge_bench_runs(None, entry("{\"a\":1}")).unwrap();
        h = merge_bench_runs(Some(&h), entry("{\"a\":2}")).unwrap();
        h = merge_bench_runs(Some(&h), entry("{\"a\":3}")).unwrap();
        assert!(runs_monotonic(&h), "every merged history is monotonic: {h}");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":1},{\"run\":1}]}"), "duplicates");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":2},{\"run\":0}]}"), "disorder");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":}]}"), "digitless tag");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":0},{\"x\":1}]}"), "untagged run");
    }

    /// A history whose tail was lost in a partial write is two closing
    /// braces and the array's bracket short. It must be refused, never
    /// wrapped into a new, equally invalid file.
    #[test]
    fn torn_history_is_refused_not_rewritten() {
        let torn = "{\"bench\":\"serve\",\"runs\":[{\"run\":0,\"a\":1},{\"run\":1,\"a\":2";
        assert!(!runs_monotonic(torn));
        let err = merge_named_runs("serve", Some(torn), entry("{\"a\":3}")).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
        assert!(merge_named_runs("serve", Some("[1]"), entry("{\"a\":3}")).is_err());
        assert!(merge_named_runs("serve", None, Json::U64(3)).is_err(), "entry must be an object");
        assert_eq!(next_run_number(torn), 0);
    }

    #[test]
    fn dynamic_count_runs_a_routine() {
        let r = epre_suite::all_routines().into_iter().find(|r| r.name == "saxpy").unwrap();
        let base = dynamic_count(&r, OptLevel::Baseline);
        let part = dynamic_count(&r, OptLevel::Partial);
        assert!(base > 0 && part > 0);
        assert!(part <= base);
    }
}
