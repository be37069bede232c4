//! Trace export: JSON Lines and Chrome `trace_event` renderings.
//!
//! Both formats are built as [`Json`] values from the merged [`Trace`]
//! and encoded by the workspace codec. Neither rendering includes
//! [`crate::Event::wall_ns`], so equal traces render to byte-identical
//! output regardless of machine load or `--jobs`.

use crate::event::{Event, Value};
use crate::json::{obj, Json};
use crate::trace::Trace;

fn value_json(v: &Value) -> Json {
    match v {
        Value::U64(x) => Json::U64(*x),
        Value::Bool(b) => Json::Bool(*b),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Map(m) => Json::Obj(m.iter().map(|(k, x)| (k.clone(), Json::U64(*x))).collect()),
    }
}

/// `head` followed by the event's own fields.
fn with_fields(head: Vec<(&str, Json)>, e: &Event) -> Json {
    let head = head.into_iter().map(|(k, v)| (k.to_string(), v));
    Json::Obj(head.chain(e.fields.iter().map(|(k, v)| (k.clone(), value_json(v)))).collect())
}

impl Trace {
    /// Render as JSON Lines: one object per event, fixed key order
    /// (`seq`, `kind`, `function`, `pass`, `lane`, `ts`, `dur`, then the
    /// event's fields), trailing newline per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let head = vec![
                ("seq", Json::U64(e.seq)),
                ("kind", Json::Str(e.kind.clone())),
                ("function", Json::Str(e.function.clone())),
                ("pass", Json::Str(e.pass.clone())),
                ("lane", Json::U64(e.lane.into())),
                ("ts", Json::U64(e.ts)),
                ("dur", Json::U64(e.dur)),
            ];
            with_fields(head, e).encode_into(&mut out);
            out.push('\n');
        }
        out
    }

    /// Render in Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array), loadable in `about://tracing` / Perfetto.
    ///
    /// Each lane becomes a named thread (`tid = lane + 1`); spans render
    /// as complete (`"ph":"X"`) events and everything else as instants
    /// (`"ph":"i"`). Virtual timestamps are used as microseconds.
    pub fn to_chrome(&self) -> String {
        let tid = |e: &Event| Json::U64(u64::from(e.lane) + 1);
        // Thread-name metadata: one per distinct lane, in lane order.
        let mut named: Vec<u32> = Vec::new();
        let mut items = Vec::new();
        for e in &self.events {
            if named.contains(&e.lane) {
                continue;
            }
            named.push(e.lane);
            items.push(obj(vec![
                ("name", Json::Str("thread_name".into())),
                ("ph", Json::Str("M".into())),
                ("pid", Json::U64(1)),
                ("tid", tid(e)),
                ("args", obj(vec![("name", Json::Str(e.function.clone()))])),
            ]));
        }
        for e in &self.events {
            let span = e.kind == "span";
            let mut fields = vec![
                ("name", Json::Str(e.pass.clone())),
                ("cat", Json::Str(e.kind.clone())),
                ("ph", Json::Str(if span { "X" } else { "i" }.into())),
            ];
            if !span {
                fields.push(("s", Json::Str("t".into())));
            }
            fields.extend([("pid", Json::U64(1)), ("tid", tid(e)), ("ts", Json::U64(e.ts))]);
            if span {
                fields.push(("dur", Json::U64(e.dur)));
            }
            let args =
                vec![("seq", Json::U64(e.seq)), ("function", Json::Str(e.function.clone()))];
            fields.push(("args", with_fields(args, e)));
            items.push(obj(fields));
        }
        let mut out = obj(vec![("traceEvents", Json::Arr(items))]).encode();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FunctionTrace, Tracer};

    fn sample() -> Trace {
        let mut lane = FunctionTrace::new("f\"1", 0);
        lane.span(
            "pre",
            7,
            999,
            vec![
                ("changed".into(), Value::Bool(true)),
                ("counters".into(), Value::Map(vec![("edges_split".into(), 2)])),
            ],
        );
        lane.instant("provenance", "pre", vec![("ops_before".into(), Value::U64(9))]);
        Trace::from_lanes(vec![lane])
    }

    #[test]
    fn jsonl_has_fixed_prefix_and_escapes() {
        let s = sample().to_jsonl();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].starts_with("{\"seq\":0,\"kind\":\"span\",\"function\":\"f\\\"1\",\"pass\":\"pre\""),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"counters\":{\"edges_split\":2}"));
        assert!(lines[1].contains("\"ops_before\":9"));
        assert!(!s.contains("999"), "wall_ns must not be exported");
    }

    #[test]
    fn chrome_has_metadata_span_and_instant() {
        let s = sample().to_chrome();
        assert!(s.starts_with("{\"traceEvents\":["));
        assert!(s.ends_with("]}\n"));
        assert!(s.contains("\"ph\":\"M\""));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("\"tid\":1"));
        assert!(!s.contains("999"), "wall_ns must not be exported");
    }

    #[test]
    fn escaping_covers_control_chars() {
        let mut lane = FunctionTrace::new("a\"b\\c\nd\te\u{1}", 0);
        lane.instant("cache", "pipeline", Vec::new());
        let s = Trace::from_lanes(vec![lane]).to_jsonl();
        assert!(s.contains("\"function\":\"a\\\"b\\\\c\\nd\\te\\u0001\""), "{s}");
    }
}
