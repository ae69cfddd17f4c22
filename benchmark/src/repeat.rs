//! `check-repeat`: do two sets of runs of the same code agree?
//!
//! A result set is a file of JSON lines, one per run (the shell loop in
//! `benchmark/README.md` writes one): `{"workload": NAME, "seed": S, "result":
//! <the run's final line>}`. Two sets are compared workload by workload,
//! metric by metric, on the median over each set's runs — the comparison the
//! driver makes. On the `sim_*` workloads the protocol-time metrics are a
//! pure function of the seed, so there the medians must be *identical*;
//! everything else must sit within the metric's bound from `BENCHMARK.json`.

use std::collections::BTreeMap;

use regular_sweep::Json;

use crate::manifest::END_TO_END;
use crate::stats::median;
use crate::workloads::Workload;

/// Metric values per workload name, per metric name, one value per run.
pub type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Parses a result-set file.
///
/// # Errors
///
/// Returns a description of the first malformed line.
pub fn parse_set(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let bad = |what: &str| format!("line {}: {what}", i + 1);
        let json = Json::parse(line).map_err(|e| bad(&e))?;
        let workload =
            json.get("workload").and_then(Json::as_str).ok_or_else(|| bad("no workload"))?;
        let result = json.get("result").ok_or_else(|| bad("no result"))?;
        if result.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(bad("the run is not correct"));
        }
        let Some(Json::Obj(metrics)) = result.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        let per_metric = set.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value =
                m.get("value").and_then(Json::as_f64).ok_or_else(|| bad("metric without value"))?;
            per_metric.entry(name.clone()).or_default().push(value);
        }
    }
    Ok(set)
}

/// How one metric on one workload compared.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Sim-time metric on a sim workload, medians equal.
    Identical,
    /// Within the bound; the relative difference of the medians.
    WithinBound(f64),
    /// Sim-time metric on a sim workload whose medians differ.
    NotIdentical(f64),
    /// Past the bound; the relative difference of the medians.
    PastBound(f64),
    /// One of the sets has no value for it.
    Missing,
}

impl Verdict {
    /// True for the two passing verdicts.
    pub fn ok(&self) -> bool {
        matches!(self, Verdict::Identical | Verdict::WithinBound(_))
    }
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Median over set A's runs.
    pub a: f64,
    /// Median over set B's runs.
    pub b: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every end-to-end metric on every workload present in either set.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Vec<Row> {
    let mut rows = Vec::new();
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for workload in workloads {
        let exact = Workload::parse(workload).is_some_and(Workload::is_sim);
        for m in &END_TO_END {
            let values = |set: &ResultSet| {
                set.get(workload).and_then(|w| w.get(m.name)).filter(|v| !v.is_empty()).cloned()
            };
            let (va, vb) = match (values(a), values(b)) {
                (Some(va), Some(vb)) => (median(&va), median(&vb)),
                _ => {
                    rows.push(Row {
                        workload: workload.clone(),
                        metric: m.name,
                        a: 0.0,
                        b: 0.0,
                        verdict: Verdict::Missing,
                    });
                    continue;
                }
            };
            let diff = if va == vb { 0.0 } else { (vb - va).abs() / va.abs() };
            let verdict = if exact && m.sim_time {
                if va == vb {
                    Verdict::Identical
                } else {
                    Verdict::NotIdentical(diff)
                }
            } else if diff <= m.bound {
                Verdict::WithinBound(diff)
            } else {
                Verdict::PastBound(diff)
            };
            rows.push(Row { workload: workload.clone(), metric: m.name, a: va, b: vb, verdict });
        }
    }
    rows
}

/// Renders the comparison, one line per row.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    for r in rows {
        let verdict = match &r.verdict {
            Verdict::Identical => "identical".to_string(),
            Verdict::WithinBound(d) => format!("within bound ({:.2} %)", d * 100.0),
            Verdict::NotIdentical(d) => format!("NOT IDENTICAL ({:.4} %)", d * 100.0),
            Verdict::PastBound(d) => format!("PAST BOUND ({:.2} %)", d * 100.0),
            Verdict::Missing => "MISSING".to_string(),
        };
        out.push_str(&format!(
            "{:<24} {:<16} {:>14.4} {:>14.4}  {verdict}\n",
            r.workload, r.metric, r.a, r.b
        ));
    }
    out
}
