//! Structural mutation of hunt inputs.
//!
//! The mutator perturbs one [`HuntInput`] into a neighbour: tweak the engine
//! seed, edit scripted operations, shift/widen/retarget fault windows, flip
//! one-way cuts, add or drop delivery nudges, and stretch or shrink the run
//! length. Every mutation keeps the input inside bounds the normalizer in
//! [`HuntInput::fault_schedule`] can absorb, so a mutated input always
//! simulates. Fault targets are drawn from the input's own deployment: its
//! servers for crashes, its regions for partitions and cuts.
//!
//! All randomness flows through the caller's [`SmallRng`], so an explorer
//! seeded with a fixed value replays its entire search identically.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::{FaultEvent, HuntInput, HuntOp};

/// Upper bounds keeping mutated inputs cheap to simulate.
const MAX_SESSIONS: usize = 6;
const MAX_OPS_PER_SESSION: usize = 24;
const MAX_FAULTS: usize = 6;
const MAX_NUDGES: usize = 16;
const MAX_STOP_MS: u64 = 6_000;
const MIN_STOP_MS: u64 = 200;
/// Keys stay in a tiny space so racing sessions actually collide.
const KEY_SPACE: u64 = 4;

fn random_op(rng: &mut SmallRng) -> HuntOp {
    let key = rng.gen_range(0..KEY_SPACE);
    match rng.gen_range(0u32..4) {
        0 => HuntOp::Read(key),
        // Writes and rmws twice as likely as reads: conflicts live there.
        1 | 2 => HuntOp::Write(key),
        _ => HuntOp::Rmw(key),
    }
}

fn random_fault(rng: &mut SmallRng, input: &HuntInput) -> FaultEvent {
    let (servers, regions) = (input.servers(), input.regions());
    let at_ms = rng.gen_range(0..input.stop_ms.max(2));
    let dur_ms = rng.gen_range(1..=800u64);
    match rng.gen_range(0u32..4) {
        0 => FaultEvent::Crash { node: rng.gen_range(0..servers), at_ms, dur_ms },
        1 => FaultEvent::Partition { region: rng.gen_range(0..regions), at_ms, dur_ms },
        2 => FaultEvent::CutOneWay {
            from: rng.gen_range(0..regions),
            to: rng.gen_range(0..regions),
            at_ms,
            dur_ms,
        },
        _ => FaultEvent::Drop { at_ms, dur_ms, permille: rng.gen_range(0..=200u32) },
    }
}

/// Shifts, widens, narrows, or retargets one fault event in place, within
/// `servers` and `regions`.
fn perturb_fault(rng: &mut SmallRng, ev: &mut FaultEvent, servers: usize, regions: usize) {
    let shift = |rng: &mut SmallRng, at: &mut u64| {
        let delta = rng.gen_range(0..400u64);
        *at = if rng.gen_bool(0.5) { at.saturating_sub(delta) } else { *at + delta };
    };
    let stretch = |rng: &mut SmallRng, dur: &mut u64| {
        let delta = rng.gen_range(0..400u64);
        *dur = if rng.gen_bool(0.5) { dur.saturating_sub(delta).max(1) } else { *dur + delta };
    };
    match ev {
        FaultEvent::Crash { node, at_ms, dur_ms } => match rng.gen_range(0u32..3) {
            0 => shift(rng, at_ms),
            1 => stretch(rng, dur_ms),
            _ => *node = rng.gen_range(0..servers),
        },
        FaultEvent::Partition { region, at_ms, dur_ms } => match rng.gen_range(0u32..3) {
            0 => shift(rng, at_ms),
            1 => stretch(rng, dur_ms),
            _ => *region = rng.gen_range(0..regions),
        },
        FaultEvent::CutOneWay { from, to, at_ms, dur_ms } => match rng.gen_range(0u32..4) {
            0 => shift(rng, at_ms),
            1 => stretch(rng, dur_ms),
            2 => std::mem::swap(from, to), // flip the cut direction
            _ => *to = rng.gen_range(0..regions),
        },
        FaultEvent::Drop { at_ms, dur_ms, permille }
        | FaultEvent::Duplicate { at_ms, dur_ms, permille } => match rng.gen_range(0u32..3) {
            0 => shift(rng, at_ms),
            1 => stretch(rng, dur_ms),
            _ => *permille = rng.gen_range(0..=300u32),
        },
    }
}

/// Applies one random structural mutation to `input`, in place.
fn mutate_once(rng: &mut SmallRng, input: &mut HuntInput) {
    match rng.gen_range(0u32..10) {
        // Seed tweaks move the run through network-jitter space.
        0 => input.seed = input.seed.wrapping_add(rng.gen_range(1..=1_000u64)),
        // Append an op to a (possibly new) session.
        1 => {
            let op = random_op(rng);
            if input.sessions.is_empty()
                || (input.sessions.len() < MAX_SESSIONS && rng.gen_bool(0.2))
            {
                input.sessions.push(vec![op]);
            } else {
                let s = rng.gen_range(0..input.sessions.len());
                if input.sessions[s].len() < MAX_OPS_PER_SESSION {
                    let at = rng.gen_range(0..=input.sessions[s].len());
                    input.sessions[s].insert(at, op);
                }
            }
        }
        // Rewrite an existing op.
        2 => {
            if let Some(s) = pick_nonempty_session(rng, input) {
                let at = rng.gen_range(0..input.sessions[s].len());
                input.sessions[s][at] = random_op(rng);
            }
        }
        // Remove an op.
        3 => {
            if let Some(s) = pick_nonempty_session(rng, input) {
                let at = rng.gen_range(0..input.sessions[s].len());
                input.sessions[s].remove(at);
            }
        }
        // Add a fault event.
        4 => {
            if input.faults.len() < MAX_FAULTS {
                let ev = random_fault(rng, input);
                input.faults.push(ev);
            }
        }
        // Perturb a fault event (shift/widen/retarget/flip).
        5 => {
            if !input.faults.is_empty() {
                let at = rng.gen_range(0..input.faults.len());
                let (servers, regions) = (input.servers(), input.regions());
                perturb_fault(rng, &mut input.faults[at], servers, regions);
            }
        }
        // Remove a fault event.
        6 => {
            if !input.faults.is_empty() {
                let at = rng.gen_range(0..input.faults.len());
                input.faults.remove(at);
            }
        }
        // Add a delivery nudge: delay one dispatch by up to ~150 ms. Nudges
        // can only add delay, so causal delivery limits are respected by
        // construction.
        7 => {
            if input.nudges.len() < MAX_NUDGES {
                let seq = rng.gen_range(0..2_000u64);
                let extra_us = rng.gen_range(1_000..=150_000u64);
                if input.nudges.iter().all(|&(s, _)| s != seq) {
                    input.nudges.push((seq, extra_us));
                }
            }
        }
        // Remove a nudge.
        8 => {
            if !input.nudges.is_empty() {
                let at = rng.gen_range(0..input.nudges.len());
                input.nudges.remove(at);
            }
        }
        // Stretch or shrink the run.
        _ => {
            let delta = rng.gen_range(0..800u64);
            input.stop_ms = if rng.gen_bool(0.5) {
                input.stop_ms.saturating_sub(delta).max(MIN_STOP_MS)
            } else {
                (input.stop_ms + delta).min(MAX_STOP_MS)
            };
        }
    }
}

fn pick_nonempty_session(rng: &mut SmallRng, input: &HuntInput) -> Option<usize> {
    let candidates: Vec<usize> =
        (0..input.sessions.len()).filter(|&s| !input.sessions[s].is_empty()).collect();
    if candidates.is_empty() {
        None
    } else {
        Some(candidates[rng.gen_range(0..candidates.len())])
    }
}

/// Produces a mutated copy of `parent`: one to three stacked mutations, the
/// AFL-style "havoc" knob kept small so children stay near their parent.
pub fn mutate(rng: &mut SmallRng, parent: &HuntInput) -> HuntInput {
    let mut child = parent.clone();
    let rounds = rng.gen_range(1..=3u32);
    for _ in 0..rounds {
        mutate_once(rng, &mut child);
    }
    child
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn parent() -> HuntInput {
        HuntInput {
            seed: 1,
            sessions: vec![vec![HuntOp::Write(0), HuntOp::Rmw(0)], vec![HuntOp::Rmw(0)]],
            faults: vec![FaultEvent::Crash { node: 0, at_ms: 200, dur_ms: 100 }],
            nudges: vec![(4, 20_000)],
            stop_ms: 1_000,
            ..HuntInput::default()
        }
    }

    #[test]
    fn mutation_is_deterministic_per_seed() {
        let p = parent();
        let a = mutate(&mut SmallRng::seed_from_u64(42), &p);
        let b = mutate(&mut SmallRng::seed_from_u64(42), &p);
        assert_eq!(a, b);
    }

    #[test]
    fn mutants_stay_within_bounds_and_always_normalize() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut input = parent();
        for _ in 0..500 {
            input = mutate(&mut rng, &input);
            assert!(input.sessions.len() <= MAX_SESSIONS);
            assert!(input.sessions.iter().all(|s| s.len() <= MAX_OPS_PER_SESSION));
            assert!(input.faults.len() <= MAX_FAULTS);
            assert!(input.nudges.len() <= MAX_NUDGES);
            assert!((MIN_STOP_MS..=MAX_STOP_MS).contains(&input.stop_ms));
            // The normalizer must accept every mutant (panics otherwise).
            let _ = input.fault_schedule();
        }
    }
}
