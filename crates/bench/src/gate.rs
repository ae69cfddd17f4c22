//! `gate CURRENT REFERENCE`: judge a fresh report by the rules its committed
//! reference carries.
//!
//! One loader ([`Report::load`]) and one loop over the reference's rows. A
//! row the current report lacks fails; a row only the current report has
//! warns (it is never gated until the reference is regenerated); reports of
//! different kinds, or a file that is not a report, are a usage error.

use std::path::Path;
use std::process::ExitCode;

use regular_sweep::Json;

use crate::cli::Args;
use crate::report::{text, Report, Rule};

/// Whether `current` satisfies `rule` given the reference's cell, and what to
/// print about it.
fn judge(rule: Rule, reference: &Json, current: &Json) -> (bool, String) {
    let (now, was) = (current.as_f64(), reference.as_f64());
    match rule {
        Rule::Exact => (current == reference, "exact".to_string()),
        Rule::True => (*current == Json::Bool(true), "must hold".to_string()),
        Rule::Ceiling(max) => (now.is_some_and(|now| now <= max), format!("ceiling {max}")),
        Rule::Floor(f) => {
            let floor = was.map(|was| was * (1.0 - f));
            let holds = now.zip(floor).is_some_and(|(now, floor)| now >= floor);
            (holds, format!("floor {:.4}", floor.unwrap_or(f64::NAN)))
        }
        Rule::Info => match now.zip(was.filter(|was| *was != 0.0)) {
            Some((now, was)) => (true, format!("{:+.1}%", (now - was) / was * 100.0)),
            None => (true, "informational".to_string()),
        },
    }
}

/// Judges every cell of every reference row; returns how many rows or cells
/// fail.
pub fn compare(current: &Report, reference: &Report) -> usize {
    let mut failed = 0;
    for (name, expected) in &reference.rows {
        if !current.rows.iter().any(|(n, _)| n == name) {
            println!("FAIL  {name}: missing from the current report");
            failed += 1;
            continue;
        }
        for (column, rule, was) in reference.cells(expected) {
            let now = current.cell(name, column);
            let (holds, how) = match now {
                Some(now) => judge(rule, was, now),
                None => (rule == Rule::Info, "missing from the current row".to_string()),
            };
            let status = if holds { "ok  " } else { "FAIL" };
            let now = now.map_or("-".to_string(), text);
            println!("{status}  {name}.{column}: {now} (reference {}; {how})", text(was));
            failed += usize::from(!holds);
        }
    }
    for (name, _) in &current.rows {
        if !reference.rows.iter().any(|(n, _)| n == name) {
            println!("WARN  {name}: not in the reference, so never gated (regenerate it)");
        }
    }
    failed
}

/// The `gate` subcommand.
pub fn gate(mut args: Args) -> Result<ExitCode, String> {
    let current = args.positional("CURRENT.json")?;
    let reference = args.positional("REFERENCE.json")?;
    args.finish()?;
    println!("== gate: {current} against {reference} ==");
    let (current, reference) =
        (Report::load(Path::new(&current))?, Report::load(Path::new(&reference))?);
    if current.kind != reference.kind {
        return Err(format!("a '{}' report cannot gate a '{}'", reference.kind, current.kind));
    }
    match compare(&current, &reference) {
        0 => println!("gate passed ({} reference rows)", reference.rows.len()),
        failed => {
            eprintln!("gate FAILED: {failed} cell(s) or row(s) of '{}' do not hold", current.kind);
            return Ok(ExitCode::FAILURE);
        }
    }
    Ok(ExitCode::SUCCESS)
}
