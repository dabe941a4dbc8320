//! The run's result: named metrics with units, operation counts, the
//! correctness verdict, and the run record, printed as one JSON line.

/// One run's output.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    record: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs; any makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds a run-record field (configuration, sample counts, notes).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    /// Records a wrong output; the run is then reported incorrect.
    pub fn wrong(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: wrong output: {what}");
        self.errors.push(what);
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(name),
                    number(*value),
                    quote(unit)
                )
            })
            .collect();
        let record: Vec<String> = self
            .record
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| quote(e)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \
             \"record\": {{{}}}, \"errors\": [{}]}}",
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            record.join(", "),
            errors.join(", ")
        )
    }
}

/// A JSON number; a value that is not finite is a bug in the run and is
/// printed as `null` so the wrapper rejects it.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
