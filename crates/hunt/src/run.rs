//! Executing one hunt input: simulate, record coverage, certify.
//!
//! [`run_input`] is the single evaluation function the whole hunter is built
//! on — the explorer calls it to score mutants, the shrinker calls it to
//! check that a reduction still fails, and the replay path in the artifact
//! records exactly the input it was handed. One input, one deterministic
//! verdict.

use regular_core::checker::certificate::{check_witness, WitnessModel};
use regular_core::coverage::CoverageSignature;
use regular_core::history::History;
use regular_core::types::OpId;
use regular_gryff::prelude::*;
use regular_session::SimPlane;
use regular_sim::net::LatencyMatrix;
use regular_sim::time::{SimDuration, SimTime};

use crate::input::{HuntInput, REGIONS};

/// A certification failure observed while executing a hunt input, with the
/// evidence a [`regular_sweep::artifact::FailureArtifact`] needs.
#[derive(Debug, Clone)]
pub struct HuntFailure {
    /// Human-readable description of the violation, in the sweep's idiom.
    pub violation: String,
    /// The rejected witness (empty when the constraints were cyclic and no
    /// witness could be assembled at all).
    pub witness: Vec<OpId>,
    /// The recorded history of the failing run.
    pub history: History,
}

/// The outcome of executing one hunt input.
#[derive(Debug, Clone)]
pub struct RunVerdict {
    /// Behaviour coverage of the run.
    pub coverage: CoverageSignature,
    /// `Some` when certification rejected the run.
    pub failure: Option<HuntFailure>,
    /// Operations in the recorded history (scripted ops plus closed-loop
    /// filler) — the size the shrinker minimizes.
    pub history_ops: usize,
}

impl RunVerdict {
    /// Did certification fail?
    pub fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// Simulates one input on the five-region Gryff-RSC WAN and certifies the
/// resulting history against the Regular witness model. Deterministic: the
/// same `(input, bug_zoo)` pair always produces the same verdict.
pub fn run_input(input: &HuntInput, bug_zoo: BugZoo) -> RunVerdict {
    let faults = input.fault_schedule();
    let mut config = GryffConfig::wan(Mode::GryffRsc).with_bug_zoo(bug_zoo);
    if !faults.is_empty() {
        // Timeout retries keep clients live through crash and cut windows.
        config = config.with_faults(faults, SimDuration::from_millis(400));
    }
    let clients = input
        .sessions
        .iter()
        .enumerate()
        .map(|(i, ops)| GryffClientSpec {
            region: i % REGIONS,
            sessions: SessionConfig::closed_loop(1, SimDuration::ZERO),
            workload: Box::new(ScriptedSessionWorkload::new(
                ops.iter().map(|op| op.to_session_op()).collect(),
            )),
        })
        .collect();
    // Coverage is a property of the plane: the simulator records it when
    // handed the protocol's message classifier.
    let plane = SimPlane { classify: Some(GryffMsg::class), ..SimPlane::default() };
    let result = run_gryff_on(
        &plane,
        GryffClusterSpec {
            config,
            net: LatencyMatrix::gryff_wan(),
            seed: input.seed,
            clients,
            stop_issuing_at: SimTime::from_millis(input.stop_ms),
            drain: SimDuration::from_secs(2),
            measure_from: SimTime::ZERO,
        },
    );
    let coverage = result.coverage.unwrap_or_else(CoverageSignature::empty);

    let (history, witness) = history_and_witness(&result.completed, WitnessModel::Regular);
    let history_ops = history.len();
    let failure = match witness {
        Err(violation) => Some(HuntFailure { violation, witness: Vec::new(), history }),
        Ok(witness) => match check_witness(&history, &witness, WitnessModel::Regular) {
            Err(v) => Some(HuntFailure {
                violation: format!("regular violation: {v:?}"),
                witness,
                history,
            }),
            Ok(()) => None,
        },
    };
    RunVerdict { coverage, failure, history_ops }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{FaultEvent, HuntOp};

    fn benign_input() -> HuntInput {
        HuntInput {
            seed: 3,
            sessions: vec![
                vec![HuntOp::Write(0), HuntOp::Read(0), HuntOp::Rmw(1)],
                vec![HuntOp::Rmw(0), HuntOp::Write(1)],
            ],
            faults: vec![FaultEvent::Crash { node: 2, at_ms: 400, dur_ms: 300 }],
            nudges: vec![(5, 40_000)],
            stop_ms: 1_500,
        }
    }

    #[test]
    fn a_clean_run_certifies_and_records_coverage() {
        let verdict = run_input(&benign_input(), BugZoo::none());
        assert!(
            !verdict.failed(),
            "no mutants enabled: {:?}",
            verdict.failure.map(|f| f.violation)
        );
        assert!(verdict.history_ops > 0, "the scripted sessions ran");
        assert!(!verdict.coverage.is_empty(), "coverage was recorded");
    }

    #[test]
    fn the_verdict_is_deterministic() {
        let input = benign_input();
        let a = run_input(&input, BugZoo::none());
        let b = run_input(&input, BugZoo::none());
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.history_ops, b.history_ops);
        assert_eq!(a.failed(), b.failed());
    }
}
