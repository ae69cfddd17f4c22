//! Pins the experiment table to what the sixteen bins it replaced printed:
//! the rows of `paper fig4` and `paper gryff-overhead --quick` must equal
//! constants recorded from the two bins of the parent commit (`29e7676`)
//! that ran those experiments, formatted the way those bins formatted them.

use regular_bench::paper::paper_report;
use regular_bench::report::Report;
use regular_sweep::Json;

/// The cells of row `name`, each formatted to the bins' two decimals.
fn row(report: &Report, name: &str, columns: &[&str]) -> Vec<String> {
    let cell = |column: &&str| {
        let value = report.cell(name, column).unwrap_or_else(|| panic!("no {name}.{column}"));
        match value {
            Json::Bool(b) => b.to_string(),
            number => format!("{:.2}", number.as_f64().expect("a number")),
        }
    };
    columns.iter().map(cell).collect()
}

#[test]
fn fig4_rows_equal_the_parents() {
    let report = paper_report("fig4", false).expect("fig4 is in the table");
    let columns =
        ["n", "p50", "p90", "p99", "p99.5", "p99.9", "max", "blocked", "immediate", "certified"];
    assert_eq!(
        row(&report, "fig4/spanner/reads", &columns),
        [
            "1044.00", "62.22", "192.23", "228.61", "228.68", "228.73", "228.74", "446.00",
            "693.00", "true"
        ]
    );
    assert_eq!(
        row(&report, "fig4/spanner-rss/reads", &columns),
        [
            "2199.00", "48.74", "62.28", "72.36", "74.92", "81.67", "81.85", "190.00", "2215.00",
            "true"
        ]
    );
    assert_eq!(report.rows.len(), 2, "one row per twin");
}

/// Eight single-data-center runs of 2.5 M messages each: three minutes
/// unoptimised, so tier-1 skips it and CI runs the bench tests in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes unoptimised; run with --release")]
fn gryff_overhead_quick_rows_equal_the_parents() {
    let report = paper_report("gryff-overhead", true).expect("gryff-overhead is in the table");
    // (write ratio, clients) -> throughput and p50 of Gryff, then of Gryff-RSC.
    // `--quick` stops issuing when its measurement window opens, so only the
    // drain is measured: throughput reads 0, as it did in the parent's bin.
    let parent = [
        ("write_ratio=0.5,clients=16", ["0.00", "0.63"], ["0.00", "0.49"]),
        ("write_ratio=0.5,clients=64", ["0.00", "2.25"], ["0.00", "2.01"]),
        ("write_ratio=0.05,clients=16", ["0.00", "0.32"], ["0.00", "0.33"]),
        ("write_ratio=0.05,clients=64", ["0.00", "1.27"], ["0.00", "1.23"]),
    ];
    for (point, gryff, rsc) in parent {
        let columns = ["throughput", "p50"];
        assert_eq!(row(&report, &format!("gryff-overhead/{point}/gryff/all"), &columns), gryff);
        assert_eq!(row(&report, &format!("gryff-overhead/{point}/gryff-rsc/all"), &columns), rsc);
    }
    assert_eq!(report.rows.len(), 8);
    assert!(report.broken().is_empty(), "every point certifies");
}
