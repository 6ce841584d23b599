//! Printing a run, the files it leaves, and comparing two of them.

use crate::host::Stamp;
use crate::run::{Metric, Report, Scale};
use crate::spans;
use sfcp_service::json::{self, Value};
use std::path::{Path, PathBuf};

fn num(v: f64) -> Value {
    Value::Float(if v.is_finite() { v } else { 0.0 })
}

impl Report {
    /// Whether every checked answer was right.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The one-line result: `correct`, `attempted`, `failed` and every
    /// metric's value and unit.
    #[must_use]
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Object(vec![
                    ("value".into(), num(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_json()
    }

    /// The human-readable lines printed before the result line.
    #[must_use]
    pub fn text(&self) -> String {
        let o = &self.opts;
        let mut out = format!(
            "perfbench workload={} seed={} seconds={} trace={} scale={}\n{}\n",
            o.workload.name(),
            o.seed,
            o.seconds,
            u8::from(o.trace),
            scale_name(o.scale),
            self.stamp.line()
        );
        for m in &self.metrics {
            out.push_str(&format!("{:<28} {:>14.4} {:<6}", m.name, m.value, m.unit));
            if let Some(s) = m.summary {
                out.push_str(&format!("  p25 {:.4} p75 {:.4} n={}", s.p25, s.p75, s.n));
            }
            if let Some(note) = &m.note {
                out.push_str(&format!("  ({note})"));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "checked {} answers, {} failed\n",
            self.attempted, self.failed
        ));
        for e in self.errors.iter().take(10) {
            out.push_str(&format!("  error: {e}\n"));
        }
        out
    }

    /// The full record: options, stamp, and every metric with its quartiles.
    #[must_use]
    pub fn record(&self) -> String {
        let o = &self.opts;
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), metric_value(m)))
            .collect();
        Value::Object(vec![
            ("workload".into(), Value::Str(o.workload.name().into())),
            ("seed".into(), Value::Int(o.seed as i64)),
            ("seconds".into(), num(o.seconds)),
            ("trace".into(), Value::Bool(o.trace)),
            ("scale".into(), Value::Str(scale_name(o.scale).into())),
            ("stamp".into(), self.stamp.to_value()),
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(self.attempted as i64)),
            ("failed".into(), Value::Int(self.failed as i64)),
            (
                "errors".into(),
                Value::Array(
                    self.errors
                        .iter()
                        .take(100)
                        .map(|e| Value::Str(e.clone()))
                        .collect(),
                ),
            ),
            ("metrics".into(), Value::Object(metrics)),
        ])
        .to_json()
    }

    /// Write the record, and for a traced run the span file, into `dir`.
    ///
    /// # Errors
    /// I/O failures.
    pub fn write(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let o = &self.opts;
        let stem = format!("{}-seed{}", o.workload.name(), o.seed);
        let record = dir.join(format!("{stem}-trace{}.json", u8::from(o.trace)));
        std::fs::write(&record, self.record())?;
        let mut written = vec![record];
        if o.trace {
            let mut extra = vec![("stamp".to_string(), self.stamp.to_value())];
            if let Some(summary) = &self.program_trace {
                let parsed = json::parse(summary.as_bytes()).unwrap_or(Value::Null);
                extra.push(("programTraceSummary".to_string(), parsed));
            }
            let path = dir.join(format!("{stem}-spans.json"));
            std::fs::write(&path, spans::to_chrome_json(&self.spans, extra))?;
            written.push(path);
        }
        Ok(written)
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Full => "full",
        Scale::Tiny => "tiny",
    }
}

fn metric_value(m: &Metric) -> Value {
    let mut members = vec![
        ("value".to_string(), num(m.value)),
        ("unit".to_string(), Value::Str(m.unit.into())),
    ];
    if let Some(s) = m.summary {
        members.push(("p25".into(), num(s.p25)));
        members.push(("p50".into(), num(s.p50)));
        members.push(("p75".into(), num(s.p75)));
        members.push(("n".into(), Value::Int(s.n as i64)));
    }
    if let Some(note) = &m.note {
        members.push(("note".into(), Value::Str(note.clone())));
    }
    Value::Object(members)
}

/// Compare two records (as written by [`Report::write`]): one line per
/// metric with both values and their ratio.
///
/// # Errors
/// Unreadable records, and records whose host stamps differ: those are
/// not comparable and are never compared.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let parse = |text: &str| json::parse(text.as_bytes()).map_err(|e| format!("bad record: {e}"));
    let (a, b) = (parse(a)?, parse(b)?);
    let stamp = |v: &Value| {
        v.get("stamp")
            .and_then(Stamp::from_value)
            .ok_or_else(|| "record without a stamp".to_string())
    };
    let (sa, sb) = (stamp(&a)?, stamp(&b)?);
    if let Some(why) = sa.mismatch(&sb) {
        return Err(format!("not comparable: {why}"));
    }
    for key in ["workload", "scale", "trace"] {
        if a.get(key) != b.get(key) {
            return Err(format!("not comparable: {key} differs"));
        }
    }
    let Some(Value::Object(ma)) = a.get("metrics") else {
        return Err("record without metrics".into());
    };
    let mut out = format!("{:<28} {:>14} {:>14} {:>8}\n", "metric", "a", "b", "b/a");
    for (name, va) in ma {
        let value = |v: Option<&Value>| match v.and_then(|m| m.get("value")) {
            Some(Value::Float(x)) => Some(*x),
            Some(Value::Int(x)) => Some(*x as f64),
            _ => None,
        };
        let (x, y) = (
            value(Some(va)),
            value(b.get("metrics").and_then(|m| m.get(name))),
        );
        if let (Some(x), Some(y)) = (x, y) {
            out.push_str(&format!("{name:<28} {x:>14.4} {y:>14.4} {:>8.3}\n", y / x));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(cpu: &str, commit: &str, solve: f64) -> String {
        let mut stamp = Stamp::probe();
        stamp.cpu_model = cpu.into();
        stamp.commit = commit.into();
        Value::Object(vec![
            ("workload".into(), Value::Str("random_forest".into())),
            ("scale".into(), Value::Str("full".into())),
            ("trace".into(), Value::Bool(false)),
            ("stamp".into(), stamp.to_value()),
            (
                "metrics".into(),
                Value::Object(vec![(
                    "solve_ms".into(),
                    Value::Object(vec![("value".into(), Value::Float(solve))]),
                )]),
            ),
        ])
        .to_json()
    }

    #[test]
    fn matching_hosts_compare_and_others_refuse() {
        let table = compare(&record("x", "a", 100.0), &record("x", "b", 50.5)).unwrap();
        assert!(
            table.contains("solve_ms") && table.contains("0.505"),
            "{table}"
        );
        let err = compare(&record("x", "a", 1.0), &record("y", "a", 1.0)).unwrap_err();
        assert!(
            err.starts_with("not comparable: cpu_model differs"),
            "{err}"
        );
    }
}
