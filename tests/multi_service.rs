//! The Section 4 scenario end to end: a Spanner-RSS store and a Gryff-RSC
//! store in ONE simulation, driven through the unified `Service`/`Session`
//! API, with `libRSS` inserting a real-time fence at the previous service
//! every time a session switches stores.
//!
//! The deployment itself lives in `regular_sweep::composed` (the conformance
//! sweep fans it across seed corpora); these tests pin the end-to-end
//! guarantees on specific configurations: the combined history — both
//! services, one process space — certifies against the RSS (Regular) witness
//! model, which is precisely what the paper's Figure 3 composition rule
//! buys.

use regular_seq::sweep::composed::{
    certify_composed, run_composed, ComposedRunConfig, GRYFF_SERVICE, SPANNER_SERVICE,
};

fn config(num_apps: usize, ops_per_service: usize, batch: usize) -> ComposedRunConfig {
    ComposedRunConfig {
        num_apps,
        ops_per_service,
        batch,
        duration_secs: 20,
        drain_secs: 10,
        ..ComposedRunConfig::default()
    }
}

#[test]
fn composed_spanner_rss_and_gryff_rsc_satisfy_rss_together() {
    let run = run_composed(42, &config(3, 3, 1));
    let spanner_ops = run.spanner_ops();
    let gryff_ops = run.gryff_ops();
    let auto_fences = run.auto_fences();
    assert!(spanner_ops > 100, "the Spanner-RSS store served transactions ({spanner_ops})");
    assert!(gryff_ops > 100, "the Gryff-RSC store served operations ({gryff_ops})");
    assert!(auto_fences > 50, "libRSS inserted fences on service switches ({auto_fences})");
    assert!(run.fences() >= auto_fences, "every planned fence executed as a protocol operation");
    let certified = certify_composed(&run)
        .unwrap_or_else(|v| panic!("the combined execution satisfies RSS: {}", v.reason));
    assert_eq!(
        certified.history.services(),
        vec![SPANNER_SERVICE, GRYFF_SERVICE],
        "both stores appear in one history"
    );
}

#[test]
fn composed_run_with_batched_sessions_satisfies_rss() {
    // Pipelined sessions hop between the stores too: each slot fences
    // independently, and the combined history still certifies as RSS.
    let run = run_composed(7, &config(2, 2, 4));
    let total = run.total_completed();
    assert!(total > 400, "batched composed sessions complete real load ({total})");
    certify_composed(&run)
        .unwrap_or_else(|v| panic!("batched composed run satisfies RSS: {}", v.reason));
}

#[test]
fn photo_sharing_app_over_the_composed_deployment_satisfies_rss() {
    // The ROADMAP's Table 1 scenario as a live workload: uploader lanes
    // write photo + album at the Spanner-RSS store then publish a request
    // at the Gryff-RSC queue; worker lanes claim requests and read the
    // album — every step a fenced service switch.
    use regular_seq::sweep::composed::ComposedWorkload;
    let cfg = ComposedRunConfig {
        workload: ComposedWorkload::PhotoApp,
        ops_per_service: 1,
        ..config(3, 1, 2)
    };
    let run = run_composed(11, &cfg);
    assert!(run.spanner_ops() > 100, "uploads and album reads completed ({})", run.spanner_ops());
    assert!(run.gryff_ops() > 100, "requests published and claimed ({})", run.gryff_ops());
    assert!(
        run.auto_fences() as f64 > 0.8 * (run.spanner_ops() + run.gryff_ops()) as f64 / 2.0,
        "nearly every step switches services ({} fences)",
        run.auto_fences()
    );
    certify_composed(&run).unwrap_or_else(|v| panic!("the photo app satisfies RSS: {}", v.reason));
}

#[test]
fn composed_runs_are_deterministic() {
    let a = run_composed(5, &config(2, 3, 1));
    let b = run_composed(5, &config(2, 3, 1));
    let counts = |r: &regular_seq::sweep::composed::ComposedOutcome| {
        r.apps.iter().map(|a| a.completed.len()).collect::<Vec<_>>()
    };
    assert_eq!(counts(&a), counts(&b));
    assert_eq!(a.auto_fences(), b.auto_fences());
}
