//! Delta-debugging minimization of failing hunt inputs.
//!
//! Given an input whose execution fails certification, the shrinker
//! searches for a smaller input that *still* fails, ddmin-style, over three
//! axes in a fixed order:
//!
//! 1. **Workload** — drop whole sessions, then chunks of operations within
//!    each session (chunk size halving from half the session down to single
//!    ops, the classic ddmin sweep).
//! 2. **Faults** — drop fault events, then delivery nudges, one at a time.
//! 3. **Duration** — shorten `stop_ms` while the failure persists. Because
//!    closed-loop sessions keep issuing filler reads until the stop
//!    instant, this axis is what actually bounds the history length.
//!
//! Each candidate reduction is re-simulated with [`run_input`]; it is kept
//! only if certification still fails (any violation counts — the minimal
//! trigger sometimes manifests as a different but related violation). The
//! passes repeat until a full round removes nothing, so the result is a
//! local minimum: removing any single tried element makes the failure
//! vanish. The process uses no randomness — shrinking the same input twice
//! yields the same artifact, and re-shrinking a shrunk input returns it
//! unchanged.

use regular_gryff::prelude::BugZoo;

use crate::{run_input, HuntInput, RunVerdict};

/// A minimized failing input plus the evidence of its (still failing) run.
#[derive(Debug)]
pub struct ShrinkResult {
    /// The minimized input.
    pub input: HuntInput,
    /// The failing verdict of the minimized input.
    pub verdict: RunVerdict,
    /// Simulated executions the shrink spent.
    pub executions: usize,
}

struct Shrinker {
    bug_zoo: BugZoo,
    executions: usize,
}

impl Shrinker {
    /// Does `candidate` still fail? Counts the execution either way.
    fn still_fails(&mut self, candidate: &HuntInput) -> bool {
        self.executions += 1;
        run_input(candidate, None, self.bug_zoo).failed()
    }

    /// Tries dropping whole sessions, back to front (later sessions are
    /// likelier to be incidental — the seed inputs put the core race
    /// first).
    fn drop_sessions(&mut self, input: &mut HuntInput) -> bool {
        let mut changed = false;
        let mut i = input.sessions.len();
        while i > 0 {
            i -= 1;
            if input.sessions.len() <= 1 {
                break;
            }
            let mut candidate = input.clone();
            candidate.sessions.remove(i);
            if self.still_fails(&candidate) {
                *input = candidate;
                changed = true;
            }
        }
        changed
    }

    /// ddmin over one session's ops: chunk sizes halve from `len / 2` down
    /// to 1; at each size, every aligned chunk is tried for removal.
    fn shrink_session_ops(&mut self, input: &mut HuntInput, session: usize) -> bool {
        let mut changed = false;
        let mut chunk = (input.sessions[session].len() / 2).max(1);
        loop {
            let mut start = 0;
            while start < input.sessions[session].len() {
                let end = (start + chunk).min(input.sessions[session].len());
                let mut candidate = input.clone();
                candidate.sessions[session].drain(start..end);
                if self.still_fails(&candidate) {
                    *input = candidate;
                    changed = true;
                    // Do not advance: the next chunk shifted into `start`.
                } else {
                    start = end;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        changed
    }

    /// Tries dropping fault events and nudges, one element at a time.
    fn drop_faults(&mut self, input: &mut HuntInput) -> bool {
        let mut changed = false;
        let mut i = input.faults.len();
        while i > 0 {
            i -= 1;
            let mut candidate = input.clone();
            candidate.faults.remove(i);
            if self.still_fails(&candidate) {
                *input = candidate;
                changed = true;
            }
        }
        let mut i = input.nudges.len();
        while i > 0 {
            i -= 1;
            let mut candidate = input.clone();
            candidate.nudges.remove(i);
            if self.still_fails(&candidate) {
                *input = candidate;
                changed = true;
            }
        }
        changed
    }

    /// Shortens the run: repeated 3/4 cuts while the failure persists, then
    /// one finer pass of -10% steps.
    fn shorten_run(&mut self, input: &mut HuntInput) -> bool {
        let mut changed = false;
        for step in [4u64, 10] {
            loop {
                let next = input.stop_ms - input.stop_ms / step;
                if next == input.stop_ms || next < 50 {
                    break;
                }
                let mut candidate = input.clone();
                candidate.stop_ms = next;
                if self.still_fails(&candidate) {
                    *input = candidate;
                    changed = true;
                } else {
                    break;
                }
            }
        }
        changed
    }
}

/// Minimizes `input` (which must fail certification under `bug_zoo`) to a
/// locally minimal failing input. Deterministic and idempotent.
pub fn shrink(input: &HuntInput, bug_zoo: BugZoo) -> ShrinkResult {
    let mut shrinker = Shrinker { bug_zoo, executions: 0 };
    let mut current = input.clone();
    debug_assert!(
        run_input(&current, None, bug_zoo).failed(),
        "shrink requires a failing input to start from"
    );
    loop {
        let mut changed = false;
        changed |= shrinker.drop_sessions(&mut current);
        for s in 0..current.sessions.len() {
            changed |= shrinker.shrink_session_ops(&mut current, s);
        }
        changed |= shrinker.drop_faults(&mut current);
        changed |= shrinker.shorten_run(&mut current);
        if !changed {
            break;
        }
    }
    let verdict = run_input(&current, None, bug_zoo);
    ShrinkResult { input: current, verdict, executions: shrinker.executions }
}
