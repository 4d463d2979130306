//! Named, unit-carrying metrics and the JSON lines the run prints.

use std::fmt::Write;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind a timing or ratio, when it has them.
    pub samples: Option<u64>,
}

/// An ordered set of metrics (one name, one value).
#[derive(Default, Debug)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.put_n(name, unit, value, None);
    }

    pub fn put_n(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: Option<u64>,
    ) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// A JSON string literal (the inputs here are ASCII names and messages).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: integers stay integers, other values keep every
/// digit Rust's shortest round-trip formatting gives.
pub fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `{"name": {"value": v, "unit": u}, ...}`, with the sample count too
/// when `samples` is set.
pub fn metrics_object(m: &Metrics, samples: bool) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|x| {
                let n = match (samples, x.samples) {
                    (true, Some(n)) => format!(", \"samples\": {n}"),
                    _ => String::new(),
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}{n}}}",
                    quote(&x.name),
                    num(x.value),
                    quote(x.unit)
                )
            })
            .collect();
    format!("{{{}}}", body.join(", "))
}
