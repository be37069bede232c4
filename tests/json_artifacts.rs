//! The checked-in JSON artifacts against the workspace codec: every
//! `BENCH_*.json` parses and re-encodes to its exact bytes, Table 1
//! rebuilt from its file renders those bytes again, and `epre report`
//! refuses a bench history whose tail was torn off.

use std::path::{Path, PathBuf};
use std::process::Command;

use epre_telemetry::json::{self, Json};
use epre_telemetry::{Table1, Table1Row};

const ARTIFACTS: [&str; 3] = ["BENCH_OPT.json", "BENCH_SERVE.json", "BENCH_TABLE1.json"];

fn artifact(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn bench_artifacts_roundtrip_byte_for_byte() {
    for name in ARTIFACTS {
        let text = artifact(name);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(doc.encode() + "\n" == text, "{name} does not re-encode to its own bytes");
    }
}

#[test]
fn table1_rebuilt_from_its_file_renders_the_same_bytes() {
    let text = artifact("BENCH_TABLE1.json");
    let doc = json::parse(&text).unwrap();
    let strings = |v: &Json| v.as_str().expect("a string").to_string();
    let counts = |v: &Json| -> Vec<u64> {
        v.as_arr().expect("a count array").iter().map(|c| c.as_u64().expect("a count")).collect()
    };
    let table = Table1 {
        levels: doc.get("levels").and_then(Json::as_arr).unwrap().iter().map(strings).collect(),
        rows: doc
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| Table1Row {
                name: strings(r.get("name").unwrap()),
                counts: counts(r.get("counts").unwrap()),
            })
            .collect(),
    };
    assert_eq!(table.to_json().encode() + "\n", text);
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("epre-json-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn report_refuses_a_torn_bench_history() {
    let dir = scratch_dir("torn");
    let torn = r#"{"bench":"serve","runs":[{"run":0,"a":1},{"run":1,"a":2"#;
    std::fs::write(dir.join("BENCH_SERVE.json"), torn).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_epre"))
        .args(["report", "--quick", "--out", "t.json"])
        .current_dir(&dir)
        .output()
        .expect("spawn epre");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("BENCH_SERVE.json"), "stderr: {stderr}");
    assert!(!dir.join("t.json").exists(), "refused before measuring");
    assert_eq!(std::fs::read_to_string(dir.join("BENCH_SERVE.json")).unwrap(), torn);
    let _ = std::fs::remove_dir_all(&dir);
}
