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

/// One past the largest `"run":N` tag anywhere in a throughput history
/// file, or 0 when none is present (missing, empty, or legacy file).
pub fn next_run_number(history: &str) -> u64 {
    let mut max: Option<u64> = None;
    let mut rest = history;
    while let Some(pos) = rest.find("\"run\":") {
        rest = &rest[pos + "\"run\":".len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        if let Ok(n) = digits.parse::<u64>() {
            max = Some(max.map_or(n, |m| m.max(n)));
        }
    }
    max.map_or(0, |m| m + 1)
}

/// Merge a fresh run into a named bench-history file instead of
/// overwriting it.
///
/// `entry` is the new run's JSON object *without* a `run` field (it is
/// assigned here, one past the largest already recorded). `existing` is
/// the current file contents, if any. The result is the history format
/// `{"bench":"<name>","runs":[...]}` with runs in recording order; a
/// legacy single-run file (the old flat format, which this function
/// recognizes by the absence of a `runs` array) is preserved as run 0.
///
/// # Panics
/// Panics if `entry` is not a brace-delimited JSON object.
pub fn merge_named_runs(bench: &str, existing: Option<&str>, entry: &str) -> String {
    let entry = entry.trim();
    assert!(
        entry.starts_with('{') && entry.ends_with('}'),
        "run entry must be a JSON object"
    );
    let prefix = format!("{{\"bench\":\"{bench}\",\"runs\":[");
    let mut runs: Vec<String> = Vec::new();
    if let Some(old) = existing {
        let old = old.trim();
        if let Some(list) =
            old.strip_prefix(prefix.as_str()).and_then(|rest| rest.strip_suffix("]}"))
        {
            if !list.is_empty() {
                runs.push(list.to_string());
            }
        } else if old.starts_with('{') && old.len() > 2 {
            // Legacy flat file from before run history: keep it as run 0.
            runs.push(format!("{{\"run\":0,{}", &old[1..]));
        }
    }
    let next = next_run_number(&runs.join(","));
    runs.push(format!("{{\"run\":{next},{}", &entry[1..]));
    format!("{prefix}{}]}}\n", runs.join(","))
}

/// [`merge_named_runs`] for the `BENCH_OPT.json` throughput history —
/// the original entry point, kept stable for the throughput bench.
pub fn merge_bench_runs(existing: Option<&str>, entry: &str) -> String {
    merge_named_runs("throughput", existing, entry)
}

/// Are the `"run":N` tags in a bench-history file strictly increasing in
/// file order? A clean history always is — [`merge_named_runs`] assigns
/// one past the maximum — so disorder or duplication is the signature of
/// a hand-edited or corrupted file, and `epre report` refuses to build
/// on it. Files without any `run` tag (empty, missing, legacy flat
/// format) are trivially monotonic.
pub fn runs_monotonic(history: &str) -> bool {
    let mut last: Option<u64> = None;
    let mut rest = history;
    while let Some(pos) = rest.find("\"run\":") {
        rest = &rest[pos + "\"run\":".len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        match digits.parse::<u64>() {
            Ok(n) => {
                if last.is_some_and(|l| n <= l) {
                    return false;
                }
                last = Some(n);
            }
            // A bare `"run":` with no digits is corruption, not history.
            Err(_) => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let first = merge_bench_runs(None, "{\"quick\":true,\"cpus\":8}");
        assert_eq!(
            first,
            "{\"bench\":\"throughput\",\"runs\":[{\"run\":0,\"quick\":true,\"cpus\":8}]}\n"
        );
        // Second run appends as run 1 without disturbing run 0.
        let second = merge_bench_runs(Some(&first), "{\"quick\":false,\"cpus\":8}");
        assert_eq!(
            second,
            "{\"bench\":\"throughput\",\"runs\":[{\"run\":0,\"quick\":true,\"cpus\":8},{\"run\":1,\"quick\":false,\"cpus\":8}]}\n"
        );
        // A legacy flat file becomes run 0; the new entry becomes run 1.
        let legacy = "{\"bench\":\"throughput\",\"quick\":true,\"levels\":[]}\n";
        let merged = merge_bench_runs(Some(legacy), "{\"quick\":false}");
        assert_eq!(
            merged,
            "{\"bench\":\"throughput\",\"runs\":[{\"run\":0,\"bench\":\"throughput\",\"quick\":true,\"levels\":[]},{\"run\":1,\"quick\":false}]}\n"
        );
    }

    #[test]
    fn named_histories_do_not_cross_contaminate() {
        let serve = merge_named_runs("serve", None, "{\"cold_ms\":10}");
        assert_eq!(serve, "{\"bench\":\"serve\",\"runs\":[{\"run\":0,\"cold_ms\":10}]}\n");
        let serve2 = merge_named_runs("serve", Some(&serve), "{\"cold_ms\":12}");
        assert_eq!(
            serve2,
            "{\"bench\":\"serve\",\"runs\":[{\"run\":0,\"cold_ms\":10},{\"run\":1,\"cold_ms\":12}]}\n"
        );
        // A throughput history handed to the serve bench is treated as
        // legacy content, not silently re-tagged in place.
        let cross = merge_named_runs("serve", Some("{\"bench\":\"throughput\",\"runs\":[]}"), "{\"a\":1}");
        assert!(cross.starts_with("{\"bench\":\"serve\",\"runs\":["));
    }

    #[test]
    fn monotonicity_accepts_clean_histories_and_rejects_tampering() {
        assert!(runs_monotonic(""));
        assert!(runs_monotonic("{\"bench\":\"throughput\",\"quick\":true}"), "legacy flat file");
        let mut h = merge_bench_runs(None, "{\"a\":1}");
        h = merge_bench_runs(Some(&h), "{\"a\":2}");
        h = merge_bench_runs(Some(&h), "{\"a\":3}");
        assert!(runs_monotonic(&h), "every merged history is monotonic: {h}");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":1},{\"run\":1}]}"), "duplicates");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":2},{\"run\":0}]}"), "disorder");
        assert!(!runs_monotonic("{\"runs\":[{\"run\":}]}"), "digitless tag");
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
