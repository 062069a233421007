//! Order statistics and the JSON the benchmark prints.

use std::fmt::Write;

/// Median and quartiles of `values`, with the quartiles computed like
/// Python's `statistics.quantiles(values, n=4)` (the exclusive method).
/// A single value is its own median and quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let m = n + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            (q(1), q(2), q(3))
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) of sorted values.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reported metric: its samples in this run.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The samples the value summarises.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric from its samples.
    pub fn new(name: impl Into<String>, unit: &'static str, samples: Vec<f64>) -> Self {
        Metric {
            name: name.into(),
            unit,
            samples,
        }
    }

    /// A metric with a single value.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, vec![value])
    }

    /// The reported value: the median of the samples.
    pub fn value(&self) -> f64 {
        quartiles(&self.samples).1
    }
}

/// A number as JSON (non-finite values are not JSON; they print as 0).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
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
