//! Configuration of a simulated Gryff / Gryff-RSC deployment.

use regular_sim::fault::FaultSchedule;
use regular_sim::time::SimDuration;
use regular_storage::Durability;

/// Which read protocol the deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The linearizable baseline: reads take a second (write-back) round trip
    /// whenever the first-round quorum disagrees.
    Gryff,
    /// The RSC variant: reads always finish in one round; the observed value
    /// is piggybacked onto the client's next operation (Section 7, Appendix B).
    GryffRsc,
}

/// The bug zoo: known historical bugs of this codebase kept reintroducible
/// as hunting targets for the coverage-guided explorer (`regular-hunt`).
///
/// Each knob re-enables one real, previously-fixed bug. The knobs always
/// exist (so configs serialize and build identically everywhere), but their
/// *effects* are compiled only under `#[cfg(any(test, feature = "bug-zoo"))]`
/// — a release build ignores them entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BugZoo {
    /// The PR 5 carstamp regression: the RMW coordinator chooses its write
    /// carstamp with a fresh `(count+1, MAX_WRITER, 0)` instead of extending
    /// the observed base below the next write with `next_rmw()`. An RMW that
    /// races a concurrent base write at the same count then *always* wins the
    /// writer-id tie-break, making the committed base write unobservable —
    /// a violation the witness checker catches whenever the race actually
    /// happens in an execution.
    pub two_component_carstamps: bool,
}

impl BugZoo {
    /// No mutants enabled.
    pub fn none() -> Self {
        BugZoo::default()
    }

    /// True if any mutant is enabled.
    pub fn any(&self) -> bool {
        self.two_component_carstamps
    }
}

/// Static configuration of a deployment.
#[derive(Debug, Clone)]
pub struct GryffConfig {
    /// Protocol variant.
    pub mode: Mode,
    /// Number of replicas (the paper uses five, one per region).
    pub num_replicas: usize,
    /// Region of each replica.
    pub replica_regions: Vec<usize>,
    /// Per-event CPU cost at replicas.
    pub replica_service_time: SimDuration,
    /// Per-event CPU cost at clients.
    pub client_service_time: SimDuration,
    /// Client-side timeout after which a stalled operation's current round
    /// is re-sent (idempotently, under the same operation id). `None` (the
    /// default) disables the retry path — correct on a fault-free network.
    /// Fault schedules that crash replicas or drop messages must set it.
    pub op_timeout: Option<SimDuration>,
    /// Scripted faults installed into the engine for this deployment run.
    pub faults: FaultSchedule,
    /// Storage backing for replicas. `InMemory` (the default) keeps the
    /// pre-existing volatile behaviour — healthy-run histories are
    /// byte-identical to builds without the storage layer. `Wal` puts every
    /// durable state transition through a write-ahead log with group commit
    /// and rebuilds crashed replicas from the log alone.
    pub durability: Durability,
    /// Reintroducible historical bugs for the guided hunter. The field is
    /// always present; the mutant code paths only exist under
    /// `#[cfg(any(test, feature = "bug-zoo"))]`.
    pub bug_zoo: BugZoo,
}

impl GryffConfig {
    /// The five-region wide-area configuration of Section 7.2 (one replica in
    /// each of CA, VA, IR, OR, JP).
    pub fn wan(mode: Mode) -> Self {
        GryffConfig {
            mode,
            num_replicas: 5,
            replica_regions: vec![0, 1, 2, 3, 4],
            replica_service_time: SimDuration::from_micros(20),
            client_service_time: SimDuration::from_micros(2),
            op_timeout: None,
            faults: FaultSchedule::default(),
            durability: Durability::InMemory,
            bug_zoo: BugZoo::none(),
        }
    }

    /// A single-data-center configuration used by the overhead experiment
    /// (§7.4): five replicas, sub-millisecond latency.
    pub fn single_dc(mode: Mode) -> Self {
        GryffConfig {
            mode,
            num_replicas: 5,
            replica_regions: vec![0; 5],
            replica_service_time: SimDuration::from_micros(20),
            client_service_time: SimDuration::from_micros(2),
            op_timeout: None,
            faults: FaultSchedule::default(),
            durability: Durability::InMemory,
            bug_zoo: BugZoo::none(),
        }
    }

    /// Installs a scripted fault schedule for the deployment run and enables
    /// the client-side operation timeout faults require.
    pub fn with_faults(mut self, faults: FaultSchedule, op_timeout: SimDuration) -> Self {
        self.faults = faults;
        self.op_timeout = Some(op_timeout);
        self
    }

    /// Selects the storage backing for replicas.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// Enables bug-zoo mutants. Only effective in builds that compile the
    /// mutants in (`cfg(test)` or the `bug-zoo` feature); elsewhere the
    /// knobs are inert.
    pub fn with_bug_zoo(mut self, bug_zoo: BugZoo) -> Self {
        self.bug_zoo = bug_zoo;
        self
    }

    /// Size of a majority quorum.
    pub fn quorum(&self) -> usize {
        self.num_replicas / 2 + 1
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_replicas == 0 {
            return Err("num_replicas must be positive".to_string());
        }
        if self.replica_regions.len() != self.num_replicas {
            return Err("replica_regions must have one entry per replica".to_string());
        }
        Ok(())
    }
}

/// The replicas that answered one quorum round, bit `p` for the replica at
/// group position `p`: counting a quorum allocates nothing. A group has at
/// most 64 replicas; [`crate::replica::GryffReplica::new`] and
/// [`crate::client::GryffService::new`] check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Replied(u64);

impl Replied {
    /// Panics unless a group of `replicas` fits the mask.
    pub(crate) fn check_group(replicas: usize) {
        assert!(
            replicas <= 64,
            "Gryff counts quorums in a 64-bit mask; this group has {replicas} replicas"
        );
    }

    /// Records the answer of the replica at `position`; false if it had
    /// already answered this round.
    pub(crate) fn insert(&mut self, position: usize) -> bool {
        let bit = 1 << position;
        let fresh = self.0 & bit == 0;
        self.0 |= bit;
        fresh
    }

    /// Number of distinct replicas that answered.
    pub(crate) fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_config_matches_paper() {
        let cfg = GryffConfig::wan(Mode::GryffRsc);
        assert_eq!(cfg.num_replicas, 5);
        assert_eq!(cfg.quorum(), 3);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn validation_rejects_malformed_configs() {
        let mut cfg = GryffConfig::wan(Mode::Gryff);
        cfg.replica_regions.pop();
        assert!(cfg.validate().is_err());
        cfg.num_replicas = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn single_dc_quorum() {
        let cfg = GryffConfig::single_dc(Mode::Gryff);
        assert_eq!(cfg.quorum(), 3);
        assert!(cfg.validate().is_ok());
    }
}
