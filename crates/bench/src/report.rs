//! The one report shape: what every subcommand produces, `emit` prints and
//! writes, and `gate` compares.
//!
//! A [`Report`] is named rows of named columns. Each column is declared once,
//! in the [`Cell`] that computes it, together with the [`Rule`] `gate` judges
//! it by; the rules travel in the JSON's `gate` block, so a committed
//! reference carries its own policy.

use std::path::Path;
use std::process::ExitCode;

use regular_sim::time::SimDuration;
use regular_sweep::Json;

/// Rounds to two decimals: what every wall-clock figure and rate is held to.
pub fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// A simulated latency as a cell: exact milliseconds (latencies are whole
/// microseconds), or nothing when no operation was measured.
pub fn ms(latency: Option<SimDuration>) -> Json {
    latency.map_or(Json::Null, |d| Json::f64(d.as_micros() as f64 / 1_000.0))
}

/// A scalar for tables and messages: a number the way the JSON file holds
/// it, a string without its quotes.
pub fn text(value: &Json) -> String {
    value.as_str().map_or_else(|| value.to_pretty().trim_end().to_string(), str::to_string)
}

/// Schema tag of every report the bench binary writes and gates.
pub const REPORT_SCHEMA: &str = "regular-seq/bench/v2";

/// How `gate` judges one column of a [`Report`] against a reference report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Informational: printed with its delta, never fails.
    Info,
    /// Deterministic in the seed: any drift fails.
    Exact,
    /// A same-host ratio: current ≥ reference · (1 − f).
    Floor(f64),
    /// An absolute bound: current ≤ x.
    Ceiling(f64),
    /// Must hold; a `false` cell also fails the run that produced it.
    True,
}

impl Rule {
    fn to_json(self) -> Json {
        match self {
            Rule::Info => Json::str("info"),
            Rule::Exact => Json::str("exact"),
            Rule::True => Json::str("true"),
            Rule::Floor(f) => Json::obj(vec![("floor", Json::f64(f))]),
            Rule::Ceiling(x) => Json::obj(vec![("ceiling", Json::f64(x))]),
        }
    }

    fn from_json(json: &Json) -> Option<Rule> {
        match (json.as_str(), json) {
            (Some("info"), _) => Some(Rule::Info),
            (Some("exact"), _) => Some(Rule::Exact),
            (Some("true"), _) => Some(Rule::True),
            (None, Json::Obj(pairs)) => match pairs.as_slice() {
                [(key, Json::Num(v))] if key == "floor" => Some(Rule::Floor(*v)),
                [(key, Json::Num(v))] if key == "ceiling" => Some(Rule::Ceiling(*v)),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One cell as the code that computes it declares it: column name, the
/// column's rule, the value.
pub type Cell = (&'static str, Rule, Json);

/// What every bench subcommand produces and `gate` compares: named rows of
/// named columns. The JSON form is `{schema, kind, params, gate, rows}`; the
/// `gate` block carries each column's rule, so a committed reference holds
/// its own policy and regenerating one is `<subcommand> --out <reference>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Which subcommand produced it; `gate` refuses to compare two kinds.
    pub kind: String,
    /// How the rows were produced (never gated).
    pub params: Vec<(String, Json)>,
    /// Columns in first-declared order.
    pub columns: Vec<(String, Rule)>,
    /// Row name and one cell per column (`Json::Null` where the row has none).
    pub rows: Vec<(String, Vec<Json>)>,
}

impl Report {
    /// A report of `kind` with no rows yet.
    pub fn new(kind: &str, params: Vec<(&str, Json)>) -> Report {
        let mut report = Report {
            kind: kind.to_string(),
            params: Vec::new(),
            columns: Vec::new(),
            rows: Vec::new(),
        };
        params.into_iter().for_each(|(key, value)| report.param(key, value));
        report
    }

    /// Records one more parameter.
    pub fn param(&mut self, key: &str, value: Json) {
        self.params.push((key.to_string(), value));
    }

    /// Appends a row; a column is created by the first cell that names it.
    pub fn push(&mut self, name: impl Into<String>, cells: Vec<Cell>) {
        let mut row = vec![Json::Null; self.columns.len()];
        for (column, rule, value) in cells {
            let at = self.columns.iter().position(|(c, _)| c == column).unwrap_or_else(|| {
                self.columns.push((column.to_string(), rule));
                self.rows.iter_mut().for_each(|(_, earlier)| earlier.push(Json::Null));
                row.push(Json::Null);
                self.columns.len() - 1
            });
            assert!(self.columns[at].1 == rule, "column '{column}' declared with two rules");
            row[at] = value;
        }
        self.rows.push((name.into(), row));
    }

    /// The cells of `row` that hold a value, as `(column, rule, value)`.
    pub fn cells<'a>(&'a self, row: &'a [Json]) -> impl Iterator<Item = (&'a str, Rule, &'a Json)> {
        let cells = self.columns.iter().zip(row).filter(|(_, v)| **v != Json::Null);
        cells.map(|((column, rule), value)| (column.as_str(), *rule, value))
    }

    /// The value row `name` holds in `column`, if it holds one.
    pub fn cell(&self, name: &str, column: &str) -> Option<&Json> {
        let (_, row) = self.rows.iter().find(|(n, _)| n == name)?;
        self.cells(row).find(|(c, _, _)| *c == column).map(|(_, _, value)| value)
    }

    /// The `(row, column)` of every `true`-ruled cell that does not hold.
    pub fn broken(&self) -> Vec<(&str, &str)> {
        let mut broken = Vec::new();
        for (name, row) in &self.rows {
            for (column, rule, value) in self.cells(row) {
                if rule == Rule::True && *value != Json::Bool(true) {
                    broken.push((name.as_str(), column));
                }
            }
        }
        broken
    }

    /// The JSON document.
    pub fn to_json(&self) -> Json {
        let rows = self.rows.iter().map(|(name, row)| {
            let cells =
                self.cells(row).map(|(column, _, value)| (column.to_string(), value.clone()));
            Json::Obj(
                std::iter::once(("name".to_string(), Json::str(name.as_str())))
                    .chain(cells)
                    .collect(),
            )
        });
        Json::obj(vec![
            ("schema", Json::str(REPORT_SCHEMA)),
            ("kind", Json::str(self.kind.as_str())),
            ("params", Json::Obj(self.params.clone())),
            (
                "gate",
                Json::Obj(self.columns.iter().map(|(c, r)| (c.clone(), r.to_json())).collect()),
            ),
            ("rows", Json::Arr(rows.collect())),
        ])
    }

    /// Reads a report back; anything but a well-formed document whose rules
    /// this code implements is an error.
    pub fn from_json(json: &Json) -> Result<Report, String> {
        let field = |key: &str| json.get(key).ok_or_else(|| format!("missing '{key}'"));
        if field("schema")?.as_str() != Some(REPORT_SCHEMA) {
            return Err(format!("schema is not '{REPORT_SCHEMA}'"));
        }
        let kind = field("kind")?.as_str().ok_or("'kind' is not a string")?;
        let (Json::Obj(params), Json::Obj(gate), Json::Arr(rows)) =
            (field("params")?, field("gate")?, field("rows")?)
        else {
            return Err("'params' and 'gate' must be objects and 'rows' an array".to_string());
        };
        let mut report = Report { params: params.clone(), ..Report::new(kind, Vec::new()) };
        for (column, rule) in gate {
            let rule = Rule::from_json(rule)
                .ok_or_else(|| format!("column '{column}' has an unknown rule: {rule:?}"))?;
            report.columns.push((column.clone(), rule));
        }
        for row in rows {
            let (Json::Obj(cells), Some(name)) = (row, row.get("name").and_then(Json::as_str))
            else {
                return Err("a row is not an object with a 'name'".to_string());
            };
            let mut values = vec![Json::Null; report.columns.len()];
            for (column, value) in cells.iter().filter(|(column, _)| column != "name") {
                let at = report.columns.iter().position(|(c, _)| c == column);
                let at =
                    at.ok_or_else(|| format!("row '{name}': no rule for column '{column}'"))?;
                values[at] = value.clone();
            }
            report.rows.push((name.to_string(), values));
        }
        Ok(report)
    }

    /// Reads the report at `path`.
    pub fn load(path: &Path) -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let parsed = Json::parse(&text).and_then(|json| Report::from_json(&json));
        parsed.map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The rows as an aligned text table; columns no row fills are left out.
    pub fn table(&self) -> String {
        let used: Vec<usize> = (0..self.columns.len())
            .filter(|&c| self.rows.iter().any(|(_, row)| row[c] != Json::Null))
            .collect();
        let mut lines = vec![std::iter::once("name".to_string())
            .chain(used.iter().map(|&c| self.columns[c].0.clone()))
            .collect::<Vec<_>>()];
        for (name, row) in &self.rows {
            let cells = used.iter().map(|&c| match &row[c] {
                Json::Null => "-".to_string(),
                Json::Bool(b) => if *b { "yes" } else { "NO" }.to_string(),
                scalar => text(scalar),
            });
            lines.push(std::iter::once(name.clone()).chain(cells).collect());
        }
        let width = |c: usize| lines.iter().map(|l| l[c].chars().count()).max().unwrap_or(0);
        let widths: Vec<usize> = (0..=used.len()).map(width).collect();
        let mut out = String::new();
        for line in &lines {
            out.push_str(&format!("{:<w$}", line[0], w = widths[0]));
            for (cell, w) in line.iter().zip(&widths).skip(1) {
                out.push_str(&format!("  {cell:>w$}"));
            }
            out.push('\n');
        }
        out
    }
}

/// The one way a report leaves its subcommand: the aligned table on stdout,
/// the JSON at `out` when a path is given. Exit 1 when a `true`-ruled cell
/// does not hold — the run that produced it has failed.
pub fn emit(report: &Report, out: Option<&Path>) -> Result<ExitCode, String> {
    println!("== {} ==", report.kind);
    for (key, value) in &report.params {
        if !matches!(value, Json::Arr(_) | Json::Obj(_)) {
            println!("   {key}: {}", text(value));
        }
    }
    print!("{}", report.table());
    if let Some(path) = out {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        parent
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, report.to_json().to_pretty()))
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        println!("{} report written to {}", report.kind, path.display());
    }
    let broken = report.broken();
    for (row, column) in &broken {
        eprintln!("FAIL  {row}: '{column}' does not hold");
    }
    Ok(if broken.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_reject_rules_and_columns_the_code_does_not_know() {
        let mut report = Report::new("demo", vec![("why", Json::str("a test"))]);
        let cells =
            vec![("ok", Rule::True, Json::Bool(false)), ("x", Rule::Floor(0.5), Json::u64(3))];
        report.push("row", cells);
        report.push("bare", vec![("y", Rule::Ceiling(2.0), Json::f64(1.5))]);
        assert_eq!(report.broken(), [("row", "ok")]);
        assert!(!report.table().contains("null"), "absent cells print as '-'");
        let text = report.to_json().to_pretty();
        assert_eq!(Report::from_json(&Json::parse(&text).unwrap()), Ok(report));
        for (from, to) in [
            ("\"true\"", "\"sometimes\""),
            ("\"floor\"", "\"about\""),
            ("\"y\": 1.5", "\"z\": 1.5"),
            ("regular-seq/bench/v2", "regular-seq/bench/v1"),
            ("\"kind\": \"demo\",", ""),
        ] {
            assert!(text.contains(from), "the document has {from}");
            let mutated = Json::parse(&text.replace(from, to)).expect("still JSON");
            assert!(Report::from_json(&mutated).is_err(), "{from} -> {to} must not load");
        }
    }
}
