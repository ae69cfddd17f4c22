//! The hunt input: one point in the (seed, workload, fault schedule,
//! delivery order) space, serializable into failure artifacts.
//!
//! A [`HuntInput`] is the *genome* the explorer mutates: a simulation seed,
//! per-session scripted operation lists, millisecond-granularity fault
//! events, and per-dispatch delivery nudges. It deliberately stores a
//! simplified encoding of each dimension (e.g. fault events rather than a
//! raw [`FaultSchedule`]) so mutation stays structural and every input —
//! however mangled by the mutator — normalizes into a schedule the engine
//! accepts: windows are clamped to positive length, node and region indices
//! wrapped into range, and overlapping crash windows of one node dropped.
//!
//! The JSON form ([`JsonLayout`]) is what a minimized `FailureArtifact`
//! carries in its `schedule` field: enough to re-simulate the exact failing
//! execution from nothing but the artifact.

use regular_core::types::Key;
use regular_gryff::prelude::SessionOp;
use regular_sim::fault::{FaultSchedule, LinkScope};
use regular_sim::net::Region;
use regular_sim::time::{SimDuration, SimTime};
use regular_sweep::{json_layout, Json, JsonLayout};

/// Number of regions (and replicas) in the hunted deployment — the paper's
/// five-region WAN.
pub const REGIONS: usize = 5;

/// One scripted client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HuntOp {
    /// Read a key.
    Read(u64),
    /// Write a fresh value to a key.
    Write(u64),
    /// Read-modify-write a key.
    Rmw(u64),
}

impl HuntOp {
    /// The session-layer operation this scripted op issues.
    pub fn to_session_op(self) -> SessionOp {
        match self {
            HuntOp::Read(k) => SessionOp::Read { key: Key(k) },
            HuntOp::Write(k) => SessionOp::Write { key: Key(k) },
            HuntOp::Rmw(k) => SessionOp::Rmw { key: Key(k) },
        }
    }

    /// The key this op touches.
    pub fn key(self) -> u64 {
        match self {
            HuntOp::Read(k) | HuntOp::Write(k) | HuntOp::Rmw(k) => k,
        }
    }
}

/// A scripted op is `[kind, key]`, its kind the index of its variant here;
/// not a layout, because the variant is a number inside the array.
const HUNT_OPS: [fn(u64) -> HuntOp; 3] = [HuntOp::Read, HuntOp::Write, HuntOp::Rmw];

impl JsonLayout for HuntOp {
    fn to_json(&self) -> Json {
        let kind = HUNT_OPS.iter().position(|op| op(self.key()) == *self);
        (kind.expect("every op is in HUNT_OPS"), self.key()).to_json()
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let (kind, key): (usize, u64) = JsonLayout::from_json(json)?;
        HUNT_OPS.get(kind).map(|op| op(key)).ok_or_else(|| format!("unknown hunt op kind {kind}"))
    }
}

/// One scripted fault, in milliseconds of simulated time. Events are
/// normalized (clamped, wrapped, de-overlapped) when lowered into a
/// [`FaultSchedule`], so mutation can shift and retarget them freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash a replica for a window, then recover it.
    Crash {
        /// Replica index (wrapped modulo the replica count).
        node: usize,
        /// Crash instant.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
    },
    /// Partition a region away from all others.
    Partition {
        /// Region index (wrapped modulo the region count).
        region: usize,
        /// Partition instant.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
    },
    /// Cut only the `from -> to` direction of a link (a grey failure).
    CutOneWay {
        /// Source region.
        from: usize,
        /// Destination region.
        to: usize,
        /// Cut instant.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
    },
    /// Drop every message with some probability, on all links.
    Drop {
        /// Window start.
        at_ms: u64,
        /// Window length (clamped to ≥ 1 ms).
        dur_ms: u64,
        /// Drop probability in permille (clamped to ≤ 1000).
        permille: u32,
    },
}

impl FaultEvent {
    /// The window start in milliseconds.
    pub fn at_ms(&self) -> u64 {
        match *self {
            FaultEvent::Crash { at_ms, .. }
            | FaultEvent::Partition { at_ms, .. }
            | FaultEvent::CutOneWay { at_ms, .. }
            | FaultEvent::Drop { at_ms, .. } => at_ms,
        }
    }
}

json_layout! {
    enum FaultEvent on "f" {
        "crash" => Crash { node, at_ms, dur_ms },
        "partition" => Partition { region, at_ms, dur_ms },
        "cut_oneway" => CutOneWay { from, to, at_ms, dur_ms },
        "drop" => Drop { at_ms, dur_ms, permille },
    }
}

/// One point in the explored input space.
#[derive(Debug, Clone, PartialEq)]
pub struct HuntInput {
    /// Engine seed (network jitter, probabilistic fault sampling).
    pub seed: u64,
    /// Scripted operations, one list per session. Each session becomes its
    /// own closed-loop client node in region `i % REGIONS`; a session that
    /// exhausts its script idles on key-0 reads until the run stops.
    pub sessions: Vec<Vec<HuntOp>>,
    /// Scripted faults (normalized when lowered into a [`FaultSchedule`]).
    pub faults: Vec<FaultEvent>,
    /// Delivery-order nudges: `(dispatch sequence, extra delay in µs)`.
    pub nudges: Vec<(u64, u64)>,
    /// Clients stop issuing at this instant (ms); the run then drains.
    pub stop_ms: u64,
}

impl HuntInput {
    /// Total scripted operations across all sessions.
    pub fn scripted_ops(&self) -> usize {
        self.sessions.iter().map(Vec::len).sum()
    }

    /// Lowers the fault events and nudges into an engine-ready
    /// [`FaultSchedule`], normalizing everything the engine would reject:
    /// windows are clamped to ≥ 1 ms, node/region indices wrapped into
    /// range, drop probabilities clamped to 1, and — because the engine
    /// refuses overlapping crash windows per node — later crash events
    /// overlapping an earlier window of the same node are dropped.
    pub fn fault_schedule(&self) -> FaultSchedule {
        let mut schedule = FaultSchedule::new();
        // (node -> windows) for the per-node crash overlap filter.
        let mut crash_windows: Vec<(usize, u64, u64)> = Vec::new();
        let mut events = self.faults.clone();
        events.sort_by_key(FaultEvent::at_ms);
        for ev in events {
            match ev {
                FaultEvent::Crash { node, at_ms, dur_ms } => {
                    let node = node % REGIONS;
                    let until = at_ms + dur_ms.max(1);
                    let overlaps = crash_windows
                        .iter()
                        .any(|&(n, from, to)| n == node && at_ms < to && until > from);
                    if overlaps {
                        continue;
                    }
                    crash_windows.push((node, at_ms, until));
                    schedule = schedule.crash(
                        node,
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(until),
                    );
                }
                FaultEvent::Partition { region, at_ms, dur_ms } => {
                    schedule = schedule.partition_region(
                        Region(region % REGIONS),
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + dur_ms.max(1)),
                    );
                }
                FaultEvent::CutOneWay { from, to, at_ms, dur_ms } => {
                    let (a, b) = (from % REGIONS, to % REGIONS);
                    schedule = schedule.cut_link_oneway(
                        Region(a),
                        Region(b),
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + dur_ms.max(1)),
                    );
                }
                FaultEvent::Drop { at_ms, dur_ms, permille } => {
                    schedule = schedule.drop_window(
                        LinkScope::All,
                        SimTime::from_millis(at_ms),
                        SimTime::from_millis(at_ms + dur_ms.max(1)),
                        f64::from(permille.min(1_000)) / 1_000.0,
                    );
                }
            }
        }
        for &(seq, extra_us) in &self.nudges {
            schedule = schedule.nudge_message(seq, SimDuration::from_micros(extra_us));
        }
        schedule
    }
}

json_layout! {
    struct HuntInput as "kind": "hunt-input" { seed, stop_ms, sessions, faults, nudges }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> HuntInput {
        HuntInput {
            seed: 11,
            sessions: vec![
                vec![HuntOp::Write(0), HuntOp::Rmw(0), HuntOp::Read(3)],
                vec![HuntOp::Rmw(0); 4],
            ],
            faults: vec![
                FaultEvent::Crash { node: 1, at_ms: 500, dur_ms: 800 },
                FaultEvent::Drop { at_ms: 100, dur_ms: 300, permille: 50 },
                FaultEvent::CutOneWay { from: 0, to: 2, at_ms: 50, dur_ms: 200 },
            ],
            nudges: vec![(7, 90_000), (12, 10_000)],
            stop_ms: 4_000,
        }
    }

    #[test]
    fn inputs_round_trip_through_json() {
        let input = sample();
        let json = input.to_json();
        let parsed = HuntInput::from_json(&json).expect("parses");
        assert_eq!(parsed, input);
        let reparsed =
            HuntInput::from_json(&Json::parse(&json.to_pretty()).unwrap()).expect("reparses");
        assert_eq!(reparsed, input);
    }

    #[test]
    fn fault_schedules_normalize_hostile_events() {
        let input = HuntInput {
            seed: 0,
            sessions: vec![],
            faults: vec![
                // Zero-length window: clamped to 1 ms, not a panic.
                FaultEvent::Partition { region: 9, at_ms: 10, dur_ms: 0 },
                // Out-of-range node: wrapped, not a panic.
                FaultEvent::Crash { node: 7, at_ms: 100, dur_ms: 50 },
                // Overlapping crash of the same (wrapped) node: dropped.
                FaultEvent::Crash { node: 2, at_ms: 120, dur_ms: 50 },
                // Disjoint later crash of the same node: kept.
                FaultEvent::Crash { node: 2, at_ms: 300, dur_ms: 10 },
                // Over-unity probability: clamped.
                FaultEvent::Drop { at_ms: 0, dur_ms: 5, permille: 4_000 },
            ],
            nudges: vec![(3, 1_000)],
            stop_ms: 1_000,
        };
        let schedule = input.fault_schedule();
        assert_eq!(schedule.crashes().len(), 2, "overlapping crash window dropped");
        assert_eq!(schedule.link_cuts().len(), 1);
        assert_eq!(schedule.message_windows().len(), 1);
        assert_eq!(schedule.message_nudges().len(), 1);
    }

    #[test]
    fn scripted_ops_counts_all_sessions() {
        assert_eq!(sample().scripted_ops(), 7);
    }
}
