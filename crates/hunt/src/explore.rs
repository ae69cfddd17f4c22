//! The coverage-guided explorer: seed corpus, evaluator cascade, and the
//! AFL-style mutation loop.
//!
//! The hunt runs as a cascade of increasingly expensive evaluators, stopping
//! at the first certification failure:
//!
//! 1. **Smoke** — a handful of hand-written inputs (contended write/rmw
//!    races, a crash mid-run, a lossy window). Catches bugs so shallow that
//!    search is overkill, and doubles as the seed corpus for stage 3.
//! 2. **Random** — fresh inputs drawn at random, no guidance. Catches bugs
//!    with dense trigger conditions.
//! 3. **Guided** — the corpus/mutation loop. Inputs whose coverage
//!    signatures contain features never seen before join the corpus;
//!    parents are picked round-robin weighted toward recent additions, so
//!    the search follows behavioural novelty into rare interleavings.
//!
//! Every execution is [`run_input`] on the simulator, so a found failure is
//! replayable from its input alone.

use std::time::Instant;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use regular_core::coverage::CoverageMap;
use regular_gryff::prelude::BugZoo;

use crate::mutate::mutate;
use crate::{run_input, FaultEvent, HuntInput, HuntOp, RunVerdict};

/// Hunt budgets and target.
#[derive(Debug, Clone)]
pub struct HuntConfig {
    /// Seed for the explorer's own randomness (mutation and generation).
    pub seed: u64,
    /// Hard cap on simulated executions across all cascade stages.
    pub max_execs: usize,
    /// Optional wall-clock budget in milliseconds.
    pub max_millis: Option<u64>,
    /// Mutant knobs to compile into the hunted protocol.
    pub bug_zoo: BugZoo,
}

impl Default for HuntConfig {
    fn default() -> Self {
        HuntConfig { seed: 1, max_execs: 256, max_millis: None, bug_zoo: BugZoo::none() }
    }
}

/// A certification failure the explorer found, with the input that triggers
/// it — everything the shrinker and the artifact writer need.
#[derive(Debug, Clone)]
pub struct FoundFailure {
    /// The triggering input.
    pub input: HuntInput,
    /// The failing verdict of that input.
    pub verdict: RunVerdict,
    /// Which cascade stage found it.
    pub stage: &'static str,
    /// Executions spent up to and including the finding one.
    pub execs_to_find: usize,
}

/// What a hunt did: statistics plus the failure, if any.
#[derive(Debug, Clone)]
pub struct HuntOutcome {
    /// Total simulated executions.
    pub executions: usize,
    /// Corpus entries retained by the guided stage.
    pub corpus_size: usize,
    /// Distinct coverage features observed across all executions.
    pub features_seen: usize,
    /// The first certification failure, if one was found in budget.
    pub found: Option<FoundFailure>,
}

/// The hand-written smoke inputs. Deliberately centred on the behaviours the
/// protocols get wrong when mutated: same-key write/rmw races across
/// regions, a replica crash mid-traffic, and a lossy window forcing retries.
pub fn seed_corpus() -> Vec<HuntInput> {
    let race = |seed: u64| HuntInput {
        seed,
        sessions: vec![
            vec![HuntOp::Write(0); 8],
            vec![HuntOp::Rmw(0); 8],
            vec![HuntOp::Rmw(0), HuntOp::Read(0), HuntOp::Rmw(0), HuntOp::Write(0)],
        ],
        stop_ms: 1_200,
        ..HuntInput::default()
    };
    vec![
        race(1),
        race(2),
        HuntInput {
            seed: 3,
            sessions: vec![
                vec![HuntOp::Write(0), HuntOp::Rmw(0), HuntOp::Write(1), HuntOp::Rmw(1)],
                vec![HuntOp::Rmw(1), HuntOp::Write(0), HuntOp::Rmw(0)],
            ],
            faults: vec![FaultEvent::Crash { node: 1, at_ms: 300, dur_ms: 400 }],
            stop_ms: 1_500,
            ..HuntInput::default()
        },
        HuntInput {
            seed: 4,
            sessions: vec![vec![HuntOp::Write(0), HuntOp::Rmw(0)], vec![HuntOp::Rmw(0)]],
            faults: vec![FaultEvent::Drop { at_ms: 100, dur_ms: 600, permille: 80 }],
            nudges: vec![(10, 60_000), (25, 90_000)],
            stop_ms: 1_200,
            ..HuntInput::default()
        },
    ]
}

/// Draws a fresh random input (the cascade's unguided middle stage).
fn random_input(rng: &mut SmallRng) -> HuntInput {
    let mut input = HuntInput {
        seed: rng.gen_range(0..1_000_000u64),
        sessions: vec![Vec::new(); rng.gen_range(1..=4usize)],
        stop_ms: rng.gen_range(600..=2_000u64),
        ..HuntInput::default()
    };
    // Grow it with the same structural mutations the guided stage uses, so
    // the random stage samples the same space.
    for _ in 0..rng.gen_range(4..=16u32) {
        input = mutate(rng, &input);
    }
    input
}

struct Budget {
    max_execs: usize,
    deadline: Option<(Instant, u64)>,
    spent: usize,
}

impl Budget {
    fn exhausted(&self) -> bool {
        self.spent >= self.max_execs
            || self.deadline.is_some_and(|(start, ms)| start.elapsed().as_millis() as u64 >= ms)
    }
}

/// Runs the full evaluator cascade under the configured budget and returns
/// at the first certification failure (or when the budget runs dry).
pub fn hunt(config: &HuntConfig) -> HuntOutcome {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut budget = Budget {
        max_execs: config.max_execs,
        deadline: config.max_millis.map(|ms| (Instant::now(), ms)),
        spent: 0,
    };
    let mut map = CoverageMap::new();
    // Corpus entries: (input, fresh features it contributed when admitted).
    let mut corpus: Vec<(HuntInput, usize)> = Vec::new();

    let execute = |input: &HuntInput,
                   budget: &mut Budget,
                   map: &mut CoverageMap,
                   stage: &'static str|
     -> Result<usize, Box<FoundFailure>> {
        budget.spent += 1;
        let verdict = run_input(input, None, config.bug_zoo);
        let fresh = map.absorb(&verdict.coverage);
        if verdict.failed() {
            Err(Box::new(FoundFailure {
                input: input.clone(),
                verdict,
                stage,
                execs_to_find: budget.spent,
            }))
        } else {
            Ok(fresh)
        }
    };

    let mut found: Option<Box<FoundFailure>> = None;

    // Stage 1: smoke. The seed corpus always enters the guided corpus, so
    // stage 3 starts from inputs that already exercise contention.
    for input in seed_corpus() {
        if budget.exhausted() || found.is_some() {
            break;
        }
        match execute(&input, &mut budget, &mut map, "smoke") {
            Ok(fresh) => corpus.push((input, fresh.max(1))),
            Err(f) => found = Some(f),
        }
    }

    // Stage 2: unguided random round — a slice of the remaining budget.
    if found.is_none() {
        let random_round = (config.max_execs / 4).max(4);
        for _ in 0..random_round {
            if budget.exhausted() || found.is_some() {
                break;
            }
            let input = random_input(&mut rng);
            match execute(&input, &mut budget, &mut map, "random") {
                Ok(fresh) if fresh > 0 => corpus.push((input, fresh)),
                Ok(_) => {}
                Err(f) => found = Some(f),
            }
        }
    }

    // Stage 3: guided search. Parents are drawn weighted toward entries
    // that contributed more fresh features, with a recency bias (later
    // entries sit at higher indices and win ties).
    if found.is_none() {
        while !budget.exhausted() && found.is_none() {
            let parent = if corpus.is_empty() {
                random_input(&mut rng)
            } else {
                let total: usize = corpus.iter().map(|(_, w)| *w).sum();
                let mut pick = rng.gen_range(0..total.max(1));
                let mut chosen = corpus.len() - 1;
                for (i, (_, w)) in corpus.iter().enumerate() {
                    if pick < *w {
                        chosen = i;
                        break;
                    }
                    pick -= w;
                }
                corpus[chosen].0.clone()
            };
            let child = mutate(&mut rng, &parent);
            match execute(&child, &mut budget, &mut map, "guided") {
                Ok(fresh) if fresh > 0 => corpus.push((child, fresh)),
                Ok(_) => {}
                Err(f) => found = Some(f),
            }
        }
    }

    HuntOutcome {
        executions: budget.spent,
        corpus_size: corpus.len(),
        features_seen: map.len(),
        found: found.map(|f| *f),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_protocol_survives_a_small_hunt() {
        let outcome =
            hunt(&HuntConfig { seed: 9, max_execs: 10, max_millis: None, bug_zoo: BugZoo::none() });
        assert!(outcome.found.is_none(), "no mutants enabled, nothing to find");
        assert_eq!(outcome.executions, 10, "the budget is spent exactly");
        assert!(outcome.features_seen > 0, "coverage accumulated");
        assert!(outcome.corpus_size >= seed_corpus().len(), "smoke inputs join the corpus");
    }
}
