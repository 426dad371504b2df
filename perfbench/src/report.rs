//! Result assembly: metrics with units, run facts, failures by code, and
//! the one-line JSON result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics in the order they were set; a name set twice keeps its last value.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        self.0.retain(|(n, ..)| n != name);
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, ..)| n == name).map(|(_, v, _)| *v)
    }

    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.0 {
            self.set(&n, v, &u);
        }
    }

    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, String)> {
        self.0.iter()
    }
}

/// Operations attempted and failures by reply code or check name.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: BTreeMap<String, u64>,
}

impl Outcome {
    pub fn fail(&mut self, code: &str) {
        *self.failures.entry(code.to_string()).or_default() += 1;
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn merge(&mut self, other: &Outcome) {
        self.attempted += other.attempted;
        for (code, n) in &other.failures {
            *self.failures.entry(code.clone()).or_default() += n;
        }
    }

    /// Share of attempted operations that succeeded and passed their checks.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed().min(self.attempted)) as f64 / self.attempted as f64
    }
}

/// Run facts printed beside the result: strings and numbers by name.
#[derive(Debug, Default, Clone)]
pub struct Facts(BTreeMap<String, String>);

impl Facts {
    pub fn num(&mut self, key: &str, value: f64) {
        self.0.insert(key.to_string(), json_num(value));
    }
    pub fn text(&mut self, key: &str, value: &str) {
        self.0.insert(key.to_string(), json_str(value));
    }
    pub fn extend(&mut self, other: Facts) {
        self.0.extend(other.0);
    }
    pub fn iter(&self) -> impl Iterator<Item = (&String, &String)> {
        self.0.iter()
    }
    pub fn insert_raw(&mut self, key: String, json: String) {
        self.0.insert(key, json);
    }
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
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

/// The facts line: `{"facts": {...}}`.
pub fn facts_line(facts: &Facts, outcome: &Outcome) -> String {
    let mut fields: Vec<String> = facts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    fields.push(format!("\"failures_by_code\": {{{}}}", failures.join(", ")));
    format!("{{\"facts\": {{{}}}}}", fields.join(", "))
}

/// The result line the benchmark ends with.
pub fn result_line(correct: bool, outcome: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed(),
        body.join(", ")
    )
}

/// Nearest-rank percentile of unsorted samples (0 when empty).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set (VmHWM) of a process, MiB; `None` is this process.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_result_line() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
        let mut m = Metrics::default();
        m.set("a_ms", 1.5, "ms");
        let mut o = Outcome {
            attempted: 4,
            ..Outcome::default()
        };
        o.fail("deadline");
        assert_eq!(o.ok_share(), 0.75);
        assert_eq!(
            result_line(true, &o, &m),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}"
        );
    }
}
