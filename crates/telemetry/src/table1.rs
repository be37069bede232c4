//! The paper's Table 1: dynamic operation counts per optimization level,
//! with percentage improvements vs the baseline column.
//!
//! The collection side (compiling and interpreting the suite) lives in
//! the root crate's `report` module; this module only renders, so it
//! stays dependency-free and unit-testable with synthetic rows.

use std::fmt::Write as _;

use crate::json::{obj, Json};

/// The paper's percentage-improvement convention: `(old − new) / old`,
/// rendered like Table 1 — empty for no change, `0%`/`-0%` for changes
/// under half a percent.
pub fn improvement(old: u64, new: u64) -> String {
    if old == new {
        return String::new();
    }
    let pct = 100.0 * (old as f64 - new as f64) / old as f64;
    if pct.abs() < 0.5 {
        return if pct >= 0.0 { "0%".into() } else { "-0%".into() };
    }
    format!("{pct:.0}%")
}

/// One routine's row: dynamic operation counts, one per level, in the
/// same order as [`Table1::levels`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1Row {
    /// Routine name (the paper's Table 1 row label).
    pub name: String,
    /// Dynamic operation counts, one per level.
    pub counts: Vec<u64>,
}

/// The full table: level labels plus one row per routine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table1 {
    /// Level labels, column order (first column is the baseline).
    pub levels: Vec<String>,
    /// Rows in suite order.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Column totals (the paper's final row).
    pub fn totals(&self) -> Vec<u64> {
        let mut totals = vec![0u64; self.levels.len()];
        for row in &self.rows {
            for (t, c) in totals.iter_mut().zip(&row.counts) {
                *t += c;
            }
        }
        totals
    }

    /// Render as an aligned text table: a routine column, then per level
    /// a count column and (for non-baseline levels) a `%` column giving
    /// the improvement vs the baseline column, ending with a totals row.
    pub fn render_text(&self) -> String {
        let name_w = self
            .rows
            .iter()
            .map(|r| r.name.len())
            .chain(["routine".len(), "total".len()])
            .max()
            .unwrap_or(7);
        let mut out = String::new();
        let _ = write!(out, "{:<name_w$}", "routine");
        for (i, level) in self.levels.iter().enumerate() {
            let _ = write!(out, "  {level:>12}");
            if i > 0 {
                let _ = write!(out, " {:>5}", "%");
            }
        }
        out.push('\n');
        let body = |name: &str, counts: &[u64], out: &mut String| {
            let _ = write!(out, "{name:<name_w$}");
            let base = counts.first().copied().unwrap_or(0);
            for (i, c) in counts.iter().enumerate() {
                let _ = write!(out, "  {c:>12}");
                if i > 0 {
                    let _ = write!(out, " {:>5}", improvement(base, *c));
                }
            }
            out.push('\n');
        };
        for row in &self.rows {
            body(&row.name, &row.counts, &mut out);
        }
        body("total", &self.totals(), &mut out);
        out
    }

    /// The table as one JSON object: `bench`, `levels`, per-row `name`,
    /// `counts` and `pct_vs_baseline` (the text rendering's `%` cells),
    /// then `totals`.
    pub fn to_json(&self) -> Json {
        let counts = |cs: &[u64]| Json::Arr(cs.iter().map(|&c| Json::U64(c)).collect());
        let rows = self.rows.iter().map(|row| {
            let base = row.counts.first().copied().unwrap_or(0);
            let pct = row.counts.iter().map(|&c| Json::Str(improvement(base, c))).collect();
            obj(vec![
                ("name", Json::Str(row.name.clone())),
                ("counts", counts(&row.counts)),
                ("pct_vs_baseline", Json::Arr(pct)),
            ])
        });
        obj(vec![
            ("bench", Json::Str("table1".into())),
            ("levels", Json::Arr(self.levels.iter().map(|l| Json::Str(l.clone())).collect())),
            ("rows", Json::Arr(rows.collect())),
            ("totals", counts(&self.totals())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table1 {
        Table1 {
            levels: vec!["baseline".into(), "partial".into(), "distribution".into()],
            rows: vec![
                Table1Row { name: "saxpy".into(), counts: vec![100, 80, 70] },
                Table1Row { name: "fold".into(), counts: vec![50, 50, 40] },
            ],
        }
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
    fn totals_sum_columns() {
        assert_eq!(sample().totals(), vec![150, 130, 110]);
    }

    #[test]
    fn text_rendering_is_aligned_and_totalled() {
        let text = sample().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[0].contains("baseline") && lines[0].contains("distribution"));
        assert!(lines[1].starts_with("saxpy"));
        assert!(lines[3].starts_with("total"));
        assert!(lines[1].contains("20%"), "{text}");
        assert!(lines[2].contains("20%"), "50 -> 40 is 20%: {text}");
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(widths.windows(2).all(|w| w[0] == w[1]), "aligned: {widths:?}");
    }

    #[test]
    fn json_rendering_is_well_formed_enough() {
        let json = sample().to_json().encode();
        assert!(json.starts_with("{\"bench\":\"table1\",\"levels\":[\"baseline\""));
        assert!(json.contains("\"rows\":[{\"name\":\"saxpy\",\"counts\":[100,80,70]"));
        assert!(json.contains("\"pct_vs_baseline\":[\"\",\"20%\",\"30%\"]"));
        assert!(json.ends_with("\"totals\":[150,130,110]}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
