//! The `epre report` collection side: run the 50-routine suite at the
//! paper's four levels and fill a [`Table1`].
//!
//! The rendering lives in `epre-telemetry` (dependency-free and
//! unit-testable); this module owns the expensive part — compiling every
//! routine, optimizing it at each level, and interpreting the driver to
//! get the dynamic operation counts the paper's Table 1 reports.

use epre::{measure_module, OptLevel};
use epre_frontend::NamingMode;
use epre_telemetry::json::{self, Json};
use epre_telemetry::{Table1, Table1Row};

/// How many routines `--quick` keeps (the front of the alphabetical
/// suite order, like the quick mode of the throughput benchmark).
pub const QUICK_ROUTINES: usize = 8;

/// Measure the suite at every paper level and assemble the Table 1 data.
/// `quick` restricts the run to the first [`QUICK_ROUTINES`] routines
/// (CI-friendly); the full run covers all 50.
///
/// # Panics
/// Panics if a bundled routine fails to compile or execute, or if two
/// levels disagree on a routine's checksum — all of which mean a pass
/// miscompiled and the report must not silently print numbers from it.
pub fn collect_table1(quick: bool) -> Table1 {
    let mut routines = epre_suite::all_routines();
    if quick {
        routines.truncate(QUICK_ROUTINES);
    }
    let levels: Vec<String> =
        OptLevel::PAPER_LEVELS.iter().map(|l| l.label().to_string()).collect();
    let mut rows = Vec::with_capacity(routines.len());
    for r in &routines {
        let module = r
            .compile(NamingMode::Disciplined)
            .unwrap_or_else(|e| panic!("{}: bundled routine failed to compile: {e}", r.name));
        let measurements = measure_module(&module, r.entry, &[])
            .unwrap_or_else(|e| panic!("{}: driver failed to execute: {e}", r.name));
        rows.push(Table1Row {
            name: r.name.to_string(),
            counts: measurements.iter().map(|m| m.counts.total).collect(),
        });
    }
    Table1 { levels, rows }
}

/// One-line summary of the most recent loadgen run in a
/// `BENCH_SERVE.json` history, rendered next to Table 1 by
/// `epre report` so the serving story sits beside the paper's numbers.
///
/// The history is read through the workspace codec, and each number is
/// printed exactly as it was written (`rps`, per-class `p99_ms`).
/// Returns `None` when the history does not parse, has no loadgen run,
/// or that run lacks those fields.
pub fn latest_loadgen_summary(history: &str) -> Option<String> {
    let doc = json::parse(history).ok()?;
    let runs = doc.get("runs")?.as_arr()?;
    let entry = runs.iter().rev().find(|r| r.get("loadgen") == Some(&Json::Bool(true)))?;
    let number = |v: &Json, key: &str| v.get(key).filter(|n| n.as_f64().is_some()).map(Json::encode);
    let rps = number(entry, "rps")?;
    let parts: Vec<String> = entry
        .get("classes")?
        .as_obj()?
        .iter()
        .filter_map(|(name, c)| Some(format!("{name} p99 {} ms", number(c, "p99_ms")?)))
        .collect();
    if parts.is_empty() {
        return None;
    }
    let run_label = entry.get("run").and_then(Json::as_u64).map_or_else(String::new, |r| format!(" run {r}"));
    Some(format!("serve loadgen{run_label}: {rps} rps — {}", parts.join(", ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_report_has_paper_columns_and_improves() {
        let t = collect_table1(true);
        assert_eq!(
            t.levels,
            ["baseline", "partial", "reassociation", "distribution"]
        );
        assert_eq!(t.rows.len(), QUICK_ROUTINES);
        let totals = t.totals();
        assert!(totals[1] < totals[0], "PRE must beat baseline overall: {totals:?}");
        assert!(t.rows.iter().all(|r| r.counts.len() == 4));
        // The renderings work end to end on real data.
        assert!(t.render_text().lines().count() == QUICK_ROUTINES + 2);
        assert!(t.to_json().encode().starts_with("{\"bench\":\"table1\""));
    }

    #[test]
    fn loadgen_summary_scans_the_latest_run() {
        let history = concat!(
            "{\"bench\":\"serve\",\"runs\":[",
            "{\"run\":0,\"loadgen\":true,\"clients\":2,\"duration_ms\":100,",
            "\"total_ops\":5,\"rps\":50.000,\"reconnects\":0,\"wrong\":0,",
            "\"hangs\":0,\"failures\":0,\"classes\":{",
            "\"cold\":{\"ops\":3,\"rps\":30.0,\"p50_ms\":1.0,\"p95_ms\":2.0,\"p99_ms\":2.500}}},",
            "{\"run\":1,\"loadgen\":true,\"clients\":4,\"duration_ms\":200,",
            "\"total_ops\":40,\"rps\":200.125,\"reconnects\":1,\"wrong\":0,",
            "\"hangs\":0,\"failures\":2,\"classes\":{",
            "\"cold\":{\"ops\":20,\"rps\":100.0,\"p50_ms\":1.0,\"p95_ms\":2.0,\"p99_ms\":3.250},",
            "\"warm\":{\"ops\":20,\"rps\":100.0,\"p50_ms\":0.2,\"p95_ms\":0.4,\"p99_ms\":0.875}}}",
            "]}\n",
        );
        let line = latest_loadgen_summary(history).unwrap();
        assert_eq!(
            line,
            "serve loadgen run 1: 200.125 rps — cold p99 3.250 ms, warm p99 0.875 ms"
        );
        // No loadgen entry → no line, not a bogus one.
        assert_eq!(latest_loadgen_summary("{\"bench\":\"serve\",\"runs\":[]}"), None);
        assert_eq!(latest_loadgen_summary(""), None);
    }
}
