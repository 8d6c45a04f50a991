//! The one report shape every `harness s*` mode writes to its
//! `BENCH_*.json` file:
//!
//! ```text
//! {"experiment": "s4_parse_fusion",
//!  "env": {"nproc": 2, "threads": 2, "rev": "<git commit>"},
//!  "gates": ["<what the mode asserted>", ..],
//!  "metrics": [{"name": "..", "value": 1.5, "unit": "ms", "better": "lower"}, ..]}
//! ```
//!
//! It is the shape `servebench` prints, so runs of any experiment from
//! different commits compare key for key. A mode asserts its gates
//! before it writes the file: a report on disk means every gate it lists
//! held. Gates are deterministic (outputs, work counters, allocation
//! counts); wall-clock times are metrics, reported and never gated.

use std::path::Path;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    better: Better,
}

/// One experiment's report: the gates it asserted and the metrics it
/// measured, in the order they were added.
pub struct Report {
    experiment: &'static str,
    gates: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    /// An empty report for `experiment` (e.g. `"s6_parallel"`).
    pub fn new(experiment: &'static str) -> Report {
        Report {
            experiment,
            gates: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records a gate the mode asserted, in words.
    pub fn gate(&mut self, text: impl Into<String>) {
        self.gates.push(text.into());
    }

    /// Records one measurement. Values are rounded to four decimals.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        better: Better,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            better,
        });
    }

    /// A wall-clock time in milliseconds (lower is better).
    pub fn ms(&mut self, name: impl Into<String>, ms: f64) {
        self.metric(name, ms, "ms", Better::Lower);
    }

    /// A size in bytes (lower is better).
    pub fn bytes(&mut self, name: impl Into<String>, n: usize) {
        self.metric(name, n as f64, "bytes", Better::Lower);
    }

    /// A count.
    pub fn count(&mut self, name: impl Into<String>, n: impl Into<u64>, better: Better) {
        self.metric(name, n.into() as f64, "count", better);
    }

    /// A count that depends on how concurrent threads interleave (epochs
    /// a storm happened to observe, requests admission shed), so that two
    /// runs of the same code may differ. Recorded under the unit
    /// [`SCHEDULE_COUNT`], which [`Change::noisy`] treats as noisy.
    pub fn schedule_count(&mut self, name: impl Into<String>, n: u64, better: Better) {
        self.metric(name, n as f64, SCHEDULE_COUNT, better);
    }

    /// The report as a JSON document, with `env` filled in as given.
    fn render(&self, nproc: usize, threads: usize, rev: &str) -> String {
        let mut out = format!(
            "{{\n  \"experiment\": {},\n  \"env\": {{\"nproc\": {nproc}, \"threads\": {threads}, \"rev\": {}}},\n  \"gates\": [",
            quote(self.experiment),
            quote(rev)
        );
        for (i, g) in self.gates.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&quote(g));
        }
        out.push_str("\n  ],\n  \"metrics\": [");
        for (i, m) in self.metrics.iter().enumerate() {
            out.push_str(if i == 0 { "\n    " } else { ",\n    " });
            out.push_str(&format!(
                "{{\"name\": {}, \"value\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quote(&m.name),
                (m.value * 1e4).round() / 1e4,
                quote(m.unit),
                m.better.name()
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Prints every metric, then writes the report to `path` with this
    /// process's environment: the machine's parallelism, the default
    /// pool's thread count (`JPAR_THREADS` or the machine's) and the git
    /// revision of the checkout.
    pub fn write(&self, path: &str) {
        for m in &self.metrics {
            println!(
                "  {:<48} {:>14} {}",
                m.name,
                (m.value * 1e4).round() / 1e4,
                m.unit
            );
        }
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let text = self.render(nproc, jpar::Pool::auto().threads(), &git_rev());
        std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("wrote {path}");
    }
}

/// One metric present in both reports a [`compare`] read.
#[derive(Debug, PartialEq)]
pub struct Change {
    pub name: String,
    pub unit: String,
    pub better: String,
    pub old: f64,
    pub new: f64,
}

/// The unit of [`Report::schedule_count`] figures.
pub const SCHEDULE_COUNT: &str = "count (schedule)";

impl Change {
    /// Wall-clock metrics (`ms`, `us`, and the `%` overheads derived from
    /// paired wall clocks) and schedule-dependent counts
    /// ([`SCHEDULE_COUNT`]) move between two runs of the same code.
    pub fn noisy(&self) -> bool {
        matches!(self.unit.as_str(), "ms" | "us" | "%") || self.unit == SCHEDULE_COUNT
    }

    /// Whether the value moved.
    pub fn changed(&self) -> bool {
        self.old != self.new
    }
}

/// Compares two report texts key by key, in the old report's metric
/// order. Errors when either text is not a report, when the experiments
/// differ, or when the two metric sets differ.
pub fn compare(old: &str, new: &str) -> Result<Vec<Change>, String> {
    let (old_exp, old) = read(old).map_err(|e| format!("old report: {e}"))?;
    let (new_exp, new) = read(new).map_err(|e| format!("new report: {e}"))?;
    if old_exp != new_exp {
        return Err(format!("experiment differs: {old_exp} vs {new_exp}"));
    }
    let names = |ms: &[Change]| -> Vec<String> {
        let mut v: Vec<String> = ms.iter().map(|m| m.name.clone()).collect();
        v.sort();
        v
    };
    if names(&old) != names(&new) {
        return Err(format!(
            "metric sets differ: {:?} vs {:?}",
            names(&old),
            names(&new)
        ));
    }
    Ok(old
        .into_iter()
        .map(|o| {
            let n = new.iter().find(|n| n.name == o.name).expect("same names");
            Change { new: n.old, ..o }
        })
        .collect())
}

/// Reads a report's experiment and metrics (each metric's value as
/// `old`). `jsondata` models the paper's natural numbers only, so every
/// bare number is quoted before parsing and read back as an `f64`.
fn read(text: &str) -> Result<(String, Vec<Change>), String> {
    let mut quoted = String::with_capacity(text.len() + 256);
    let (mut in_str, mut escaped, mut in_num) = (false, false, false);
    for c in text.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
        } else {
            let continues = c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-');
            if (in_num && !continues) || (!in_num && (c.is_ascii_digit() || c == '-')) {
                quoted.push('"');
                in_num = !in_num;
            }
            in_str = c == '"';
        }
        quoted.push(c);
    }
    let doc = jsondata::parse(&quoted).map_err(|e| e.to_string())?;
    let field = |v: &jsondata::Json, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(|f| f.as_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("missing string field {key:?}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_array())
        .ok_or("missing metrics array")?;
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = field(m, "value")?;
            Ok(Change {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: field(m, "better")?,
                old: value.parse().map_err(|_| format!("bad value {value:?}"))?,
                new: f64::NAN,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok((field(&doc, "experiment")?, metrics))
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit the workspace is checked out at, read from `.git` without
/// a subprocess (a detached `HEAD`, a loose ref, or a packed ref);
/// `"unknown"` outside a git checkout. This is `HEAD` only: uncommitted
/// changes are not seen, so a report written from a dirty tree names the
/// commit those changes sit on.
fn git_rev() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let rev = read(&git.join("HEAD")).and_then(|head| match head.strip_prefix("ref: ") {
        None => Some(head),
        Some(r) => read(&git.join(r)).or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(r)?.strip_suffix(' ').map(str::to_owned))
        }),
    });
    rev.unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_report_shape() {
        let mut r = Report::new("demo");
        r.gate("outputs agree");
        r.ms("find.ms", 1.234_56);
        r.count("find.allocs", 7u64, Better::Lower);
        r.metric("find.ratio", 0.5, "ratio", Better::Higher);
        let text = r.render(2, 4, "abc123");
        assert!(text.contains("\"experiment\": \"demo\""), "{text}");
        assert!(
            text.contains("\"env\": {\"nproc\": 2, \"threads\": 4, \"rev\": \"abc123\"}"),
            "{text}"
        );
        assert!(
            text.contains("\"gates\": [\n    \"outputs agree\"\n  ]"),
            "{text}"
        );
        for line in [
            "{\"name\": \"find.ms\", \"value\": 1.2346, \"unit\": \"ms\", \"better\": \"lower\"}",
            "{\"name\": \"find.allocs\", \"value\": 7, \"unit\": \"count\", \"better\": \"lower\"}",
            "{\"name\": \"find.ratio\", \"value\": 0.5, \"unit\": \"ratio\", \"better\": \"higher\"}",
        ] {
            assert!(text.contains(line), "missing {line} in {text}");
        }
        let empty = Report::new("none").render(1, 1, "x");
        assert!(empty.contains("\"gates\": [\n  ]"), "{empty}");
    }

    #[test]
    fn compare_reads_rendered_reports_back() {
        let mut a = Report::new("demo");
        a.gate("a \"quoted\" gate with 1.5 and -2 in it");
        a.ms("find.ms", 1.234_56);
        a.count("find.allocs", 7u64, Better::Lower);
        a.metric("find.ratio", 0.5, "ratio", Better::Higher);
        let mut b = Report::new("demo");
        b.ms("find.ms", 2.0);
        b.metric("find.ratio", 0.5, "ratio", Better::Higher);
        b.count("find.allocs", 7u64, Better::Lower);
        let (a, b) = (a.render(2, 2, "x"), b.render(1, 1, "y"));
        let changes = compare(&a, &b).unwrap();
        let names: Vec<&str> = changes.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["find.ms", "find.allocs", "find.ratio"]);
        assert_eq!((changes[0].old, changes[0].new), (1.2346, 2.0));
        assert!(changes[0].noisy() && changes[0].changed());
        assert!(changes[1..].iter().all(|c| !c.noisy() && !c.changed()));
        assert_eq!(changes[2].better, "higher");

        let mut c = Report::new("demo");
        c.ms("find.ms", 2.0);
        let err = compare(&a, &c.render(1, 1, "y")).unwrap_err();
        assert!(err.starts_with("metric sets differ"), "{err}");
        let err = compare(&a, &Report::new("other").render(1, 1, "y")).unwrap_err();
        assert_eq!(err, "experiment differs: demo vs other");
        assert!(compare("{", &a).unwrap_err().starts_with("old report"));
    }

    #[test]
    fn schedule_counts_are_noisy() {
        let run = |epochs: u64| {
            let mut r = Report::new("demo");
            r.schedule_count("storm.epochs", epochs, Better::Higher);
            r.count("insert.allocs", 29u64, Better::Lower);
            r.render(2, 2, "x")
        };
        let changes = compare(&run(41), &run(40)).unwrap();
        assert_eq!(changes[0].unit, SCHEDULE_COUNT);
        assert!(changes[0].noisy() && changes[0].changed());
        assert!(!changes[1].noisy() && !changes[1].changed());
    }

    #[test]
    fn wall_clock_units_are_noisy() {
        let run = |wall: f64| {
            let mut r = Report::new("demo");
            r.metric("overhead.find_scan.pct", wall, "%", Better::Lower);
            r.metric("analyze.find.wall_us", wall * 10.0, "us", Better::Lower);
            r.bytes("tree.retained_bytes", 1024);
            r.render(2, 2, "x")
        };
        let changes = compare(&run(13.75), &run(1.77)).unwrap();
        assert!(changes[..2].iter().all(|c| c.noisy() && c.changed()));
        assert!(!changes[2].noisy() && !changes[2].changed());
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn reads_the_checkout_revision() {
        let rev = git_rev();
        assert!(
            rev == "unknown" || (rev.len() == 40 && rev.chars().all(|c| c.is_ascii_hexdigit())),
            "{rev}"
        );
    }
}
