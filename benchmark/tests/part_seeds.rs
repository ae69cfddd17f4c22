//! The seeds of a pooled unit's parts: every seed kept certifies, every seed
//! passed over does not, and a clean draw is the run's seed and its strides.

use rss_benchmark::trace::Tracer;
use rss_benchmark::workloads::{part_seeds, run_unit, Size, Variant, Workload};

const WAN: Workload = Workload::SimSpannerWan;

fn certifies(seed: u64, load_ms: u64) -> bool {
    run_unit(WAN, Variant::Main, &[seed], load_ms, &mut Tracer::new(false)).correct()
}

#[test]
fn a_clean_draw_is_the_run_seed_and_its_strides() {
    let size = Size { load_ms: 20_000, parts: 3 };
    let (kept, passed_over) = part_seeds(WAN, 1, size, &mut Tracer::new(false));
    assert!(passed_over.is_empty());
    assert_eq!(kept.len(), 3);
    assert_eq!(kept[0], 1);
    assert_eq!(kept[2].wrapping_sub(kept[1]), kept[1].wrapping_sub(kept[0]));
}

#[test]
fn one_part_units_run_on_the_run_seed() {
    let size = Size { load_ms: 20_000, parts: 1 };
    assert_eq!(part_seeds(WAN, 9, size, &mut Tracer::new(false)), (vec![9], vec![]));
}

/// Seed 5835 is one on which `regular-spanner` (at the commit this benchmark
/// was written against) produces a 300 s Retwis history that is not RSS.
/// Whether it still does or not, what is kept certifies and what is passed
/// over does not.
#[test]
fn kept_seeds_certify_and_seeds_passed_over_do_not() {
    let size = Size { load_ms: 300_000, parts: 2 };
    let (kept, passed_over) = part_seeds(WAN, 5835, size, &mut Tracer::new(false));
    assert_eq!(kept.len(), 2);
    assert!(kept.iter().all(|&s| certifies(s, size.load_ms)));
    assert!(passed_over.iter().all(|&s| !certifies(s, size.load_ms)));
    assert!(passed_over.is_empty() || passed_over == [5835]);
}
