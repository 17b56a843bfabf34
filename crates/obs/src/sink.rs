//! Trace sinks: the human-readable summary table and the JSONL event
//! stream. The JSONL writer is hand-rolled (no serde in the workspace);
//! escaping covers everything [`crate::validate_jsonl`]'s parser accepts.

use crate::metrics::MetricValue;
use crate::schema::{TRACE_SCHEMA_NAME, TRACE_SCHEMA_VERSION};
use crate::span::FieldValue;
use crate::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write;

/// Escapes `s` as the body of a JSON string literal. The workspace's one
/// escaper: experience-record content ids hash its output, so its bytes
/// are part of that on-disk format.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (JSON has no inf/nan; encode them as
/// strings so the trace stays parseable).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        // Keep integers compact and round-trip everything else.
        if v == v.trunc() && v.abs() < 1e15 {
            format!("{}", v as i64)
        } else {
            format!("{v}")
        }
    } else {
        format!("\"{v}\"")
    }
}

fn field_json(v: &FieldValue) -> String {
    match v {
        FieldValue::I64(i) => format!("{i}"),
        FieldValue::U64(u) => format!("{u}"),
        FieldValue::F64(f) => json_f64(*f),
        FieldValue::Bool(b) => format!("{b}"),
        FieldValue::Str(s) => format!("\"{}\"", escape_json(s)),
    }
}

/// Writes the versioned JSONL event stream. Layout (one JSON object per
/// line): a `header` line, one `span` line per closed span (start order),
/// one `metric` line per registered metric (name order), and an `end` line
/// carrying the event counts so truncated files are detectable.
pub(crate) fn write_jsonl<W: Write>(rec: &Recorder, mut w: W) -> std::io::Result<()> {
    let meta = rec.meta();
    let mut meta_body = String::new();
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            meta_body.push(',');
        }
        let _ = write!(meta_body, "\"{}\":\"{}\"", escape_json(k), escape_json(v));
    }
    writeln!(
        w,
        "{{\"type\":\"header\",\"schema\":\"{TRACE_SCHEMA_NAME}\",\"version\":{TRACE_SCHEMA_VERSION},\"meta\":{{{meta_body}}}}}"
    )?;

    let spans = rec.spans();
    for s in &spans {
        let parent = match s.parent {
            Some(p) => format!("{p}"),
            None => "null".to_string(),
        };
        let mut fields = String::new();
        for (i, (k, v)) in s.fields.iter().enumerate() {
            if i > 0 {
                fields.push(',');
            }
            let _ = write!(fields, "\"{}\":{}", escape_json(k), field_json(v));
        }
        writeln!(
            w,
            "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_us\":{},\"dur_us\":{},\"fields\":{{{}}}}}",
            s.id,
            parent,
            escape_json(s.name),
            s.thread,
            s.start_ns / 1_000,
            s.dur_ns / 1_000,
            fields
        )?;
    }

    let metrics = rec.metrics().snapshot();
    for (name, kind, value) in &metrics {
        let body = match value {
            MetricValue::Counter(c) => format!("\"value\":{c}"),
            MetricValue::Gauge(g) => format!("\"value\":{}", json_f64(*g)),
            MetricValue::Histogram(h) => format!(
                "\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max)
            ),
        };
        writeln!(
            w,
            "{{\"type\":\"metric\",\"name\":\"{}\",\"kind\":\"{}\",{}}}",
            escape_json(name),
            kind.as_str(),
            body
        )?;
    }

    // Labeled series ride the same `metric` event with an extra `label`
    // key (readers must ignore unknown keys, so this needs no version
    // bump); they count toward the end marker like any other metric.
    let labeled = rec.metrics().snapshot_labeled();
    for (name, label, kind, value) in &labeled {
        let body = match value {
            MetricValue::Counter(c) => format!("\"value\":{c}"),
            MetricValue::Gauge(g) => format!("\"value\":{}", json_f64(*g)),
            MetricValue::Histogram(h) => format!(
                "\"count\":{},\"sum\":{},\"min\":{},\"max\":{}",
                h.count,
                json_f64(h.sum),
                json_f64(h.min),
                json_f64(h.max)
            ),
        };
        writeln!(
            w,
            "{{\"type\":\"metric\",\"name\":\"{}\",\"label\":\"{}\",\"kind\":\"{}\",{}}}",
            escape_json(name),
            escape_json(label),
            kind.as_str(),
            body
        )?;
    }

    writeln!(
        w,
        "{{\"type\":\"end\",\"spans\":{},\"metrics\":{}}}",
        spans.len(),
        metrics.len() + labeled.len()
    )
}

/// Renders the end-of-run summary: per-span-name aggregates (count, total
/// and mean wall time) followed by every metric.
pub(crate) fn summary(rec: &Recorder) -> String {
    let mut out = String::new();
    let spans = rec.spans();
    let _ = writeln!(out, "── observability summary ──");
    if !spans.is_empty() {
        #[derive(Default)]
        struct Agg {
            count: u64,
            total_ns: u64,
        }
        let mut by_name: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &spans {
            let a = by_name.entry(s.name).or_default();
            a.count += 1;
            a.total_ns += s.dur_ns;
        }
        let _ = writeln!(
            out,
            "{:<32} {:>8} {:>12} {:>12}",
            "span", "count", "total ms", "mean ms"
        );
        for (name, a) in &by_name {
            let total_ms = a.total_ns as f64 / 1e6;
            let _ = writeln!(
                out,
                "{:<32} {:>8} {:>12.3} {:>12.3}",
                name,
                a.count,
                total_ms,
                total_ms / a.count as f64
            );
        }
    }
    let metrics = rec.metrics().snapshot();
    let labeled = rec.metrics().snapshot_labeled();
    if !metrics.is_empty() || !labeled.is_empty() {
        let _ = writeln!(out, "{:<32} {:>10} {:>24}", "metric", "kind", "value");
        let render = |value: &MetricValue| match value {
            MetricValue::Counter(c) => format!("{c}"),
            MetricValue::Gauge(g) => format!("{g:.4}"),
            MetricValue::Histogram(h) => format!(
                "n={} mean={:.3} [{:.3}, {:.3}]",
                h.count,
                h.mean(),
                h.min,
                h.max
            ),
        };
        for (name, kind, value) in &metrics {
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>24}",
                name,
                kind.as_str(),
                render(value)
            );
        }
        for (name, label, kind, value) in &labeled {
            let _ = writeln!(
                out,
                "{:<32} {:>10} {:>24}",
                format!("{name}{{{label}}}"),
                kind.as_str(),
                render(value)
            );
        }
    }
    if spans.is_empty() && metrics.is_empty() && labeled.is_empty() {
        let _ = writeln!(out, "(nothing recorded)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_quotes_backslashes_and_controls() {
        assert_eq!(
            escape_json("a\"b\\c\nd\te\u{1}"),
            "a\\\"b\\\\c\\nd\\te\\u0001"
        );
    }

    #[test]
    fn non_finite_numbers_stay_parseable() {
        assert_eq!(json_f64(f64::NEG_INFINITY), "\"-inf\"");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn summary_mentions_spans_and_metrics() {
        let rec = Recorder::new();
        {
            let _g = crate::attach(&rec);
            let _s = crate::span!("phase.one");
            crate::counter!("c.hits", 3);
        }
        let s = rec.summary();
        assert!(s.contains("phase.one"));
        assert!(s.contains("c.hits"));
    }

    #[test]
    fn empty_recorder_summary_says_so() {
        assert!(Recorder::new().summary().contains("(nothing recorded)"));
    }

    #[test]
    fn labeled_metrics_validate_and_show_in_summary() {
        let rec = Recorder::new();
        rec.metrics()
            .labeled_counter("daemon.tenant.requests", "acme")
            .add(7);
        rec.metrics()
            .labeled_histogram("daemon.tenant.latency_ms", "acme")
            .observe(2.25);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let sum = crate::validate_jsonl(&out[..]).expect("labeled trace validates");
        assert_eq!(sum.metrics, 2);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("\"label\":\"acme\""));
        assert!(rec.summary().contains("daemon.tenant.requests{acme}"));
        assert!(!rec.is_empty());
    }
}
