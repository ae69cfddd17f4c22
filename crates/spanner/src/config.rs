//! Configuration of a simulated Spanner / Spanner-RSS cluster.

use regular_sim::fault::FaultSchedule;
use regular_sim::net::LatencyMatrix;
use regular_sim::time::SimDuration;
use regular_storage::Durability;

/// Which read-only transaction protocol the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The strictly serializable baseline: read-only transactions block on
    /// conflicting prepared read-write transactions (Section 5, "Spanner
    /// background").
    Spanner,
    /// The RSS variant: read-only transactions may skip prepared read-write
    /// transactions whose earliest end time has not passed and that are not
    /// required by the client's causal past (Algorithms 1 and 2).
    SpannerRss,
}

/// The bug zoo: known historical bugs of this codebase kept reintroducible
/// as hunting targets for the coverage-guided explorer (`regular-hunt`).
///
/// Compiled only under `#[cfg(any(test, feature = "bug-zoo"))]`, together
/// with the client knob that reads it ([`crate::client::ClientConfig`]'s
/// `bug_zoo`): a build without them has no mutant to enable.
#[cfg(any(test, feature = "bug-zoo"))]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BugZoo {
    /// The read-only keying before skips were resolved per shard: the
    /// client looks a skipped prepared transaction up by `TxnId` alone, not
    /// by `(shard, TxnId)`. One shard's slow reply then resolves the
    /// transaction at every shard, and a read that skipped it at two shards
    /// returns its writes from one and the value before it from the other —
    /// a fractured read.
    pub skips_by_txn_id: bool,
}

#[cfg(any(test, feature = "bug-zoo"))]
impl BugZoo {
    /// No mutants enabled.
    pub fn none() -> Self {
        BugZoo::default()
    }
}

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct SpannerConfig {
    /// Protocol variant.
    pub mode: Mode,
    /// Number of shards (each has one leader node in the simulation;
    /// replication to followers is modeled as a delay).
    pub num_shards: usize,
    /// Region of each shard's leader (index into the latency matrix).
    pub leader_regions: Vec<usize>,
    /// Regions of each shard's replicas (including the leader region).
    pub replica_regions: Vec<Vec<usize>>,
    /// TrueTime uncertainty bound ε.
    pub truetime_epsilon: SimDuration,
    /// Per-event CPU cost at shard leaders (drives throughput saturation).
    pub shard_service_time: SimDuration,
    /// Per-event CPU cost at client/load-generator nodes.
    pub client_service_time: SimDuration,
    /// Client-side timeout after which a stuck commit is aborted and retried.
    pub commit_timeout: SimDuration,
    /// Back-off before retrying an aborted read-write transaction.
    pub retry_backoff: SimDuration,
    /// Ablation switch: Spanner-RSS read-only transactions wait for every
    /// conflicting prepare, like the baseline, instead of skipping those
    /// whose earliest end time `t_ee` has not passed.
    pub disable_tee_skip: bool,
    /// Client-side timeout after which a transaction stuck *before* its
    /// commit phase (execute round, read-only round) is abandoned and
    /// re-issued. `None` (the default) disables the retry path — correct on
    /// a fault-free network, where every round eventually completes. Fault
    /// schedules that crash shards or drop messages must set it, or lanes
    /// whose requests were lost stall forever.
    pub op_timeout: Option<SimDuration>,
    /// Scripted faults installed into the engine for this cluster run:
    /// partitions, drop/duplicate windows, shard crashes. Empty by default.
    pub faults: FaultSchedule,
    /// Storage backing for shard leaders. `InMemory` (the default) keeps the
    /// pre-existing volatile behaviour — healthy-run histories are
    /// byte-identical to builds without the storage layer. `Wal` puts every
    /// durable state transition through a write-ahead log with group commit
    /// and rebuilds crashed shards from the log alone.
    pub durability: Durability,
}

impl SpannerConfig {
    /// The three-shard wide-area configuration of the paper's Section 6
    /// evaluation: leaders in California, Virginia, and Ireland; replicas in
    /// the other two regions; ε = 10 ms.
    pub fn wan(mode: Mode) -> Self {
        SpannerConfig {
            mode,
            num_shards: 3,
            leader_regions: vec![0, 1, 2],
            replica_regions: vec![vec![0, 1, 2], vec![0, 1, 2], vec![0, 1, 2]],
            truetime_epsilon: SimDuration::from_millis(10),
            shard_service_time: SimDuration::from_micros(30),
            client_service_time: SimDuration::from_micros(2),
            commit_timeout: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(5),
            disable_tee_skip: false,
            op_timeout: None,
            faults: FaultSchedule::default(),
            durability: Durability::InMemory,
        }
    }

    /// The single-data-center, eight-shard configuration of the overhead
    /// experiment (Section 6.2): TrueTime error zero, all leaders in one
    /// region.
    pub fn single_dc(mode: Mode, num_shards: usize) -> Self {
        SpannerConfig {
            mode,
            num_shards,
            leader_regions: vec![0; num_shards],
            replica_regions: vec![vec![0]; num_shards],
            truetime_epsilon: SimDuration::ZERO,
            shard_service_time: SimDuration::from_micros(30),
            client_service_time: SimDuration::from_micros(2),
            commit_timeout: SimDuration::from_secs(2),
            retry_backoff: SimDuration::from_millis(1),
            disable_tee_skip: false,
            op_timeout: None,
            faults: FaultSchedule::default(),
            durability: Durability::InMemory,
        }
    }

    /// Installs a scripted fault schedule for the cluster run and enables
    /// the client-side operation timeout faults require.
    pub fn with_faults(mut self, faults: FaultSchedule, op_timeout: SimDuration) -> Self {
        self.faults = faults;
        self.op_timeout = Some(op_timeout);
        self
    }

    /// Selects the storage backing for shard leaders.
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The replication delay a shard leader pays before an entry is durable at
    /// a majority: one round trip to the nearest replica outside its region
    /// (zero when the shard is unreplicated or all replicas are local).
    pub fn replication_delay(&self, shard: usize, net: &LatencyMatrix) -> SimDuration {
        let leader = self.leader_regions[shard];
        self.replica_regions[shard]
            .iter()
            .filter(|&&r| r != leader)
            .map(|&r| net.rtt(regular_sim::net::Region(leader), regular_sim::net::Region(r)))
            .min()
            .unwrap_or(SimDuration::from_micros(100))
    }

    /// Shard responsible for a key.
    pub fn shard_of(&self, key: u64) -> usize {
        (key % self.num_shards as u64) as usize
    }

    /// Validates internal consistency of the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_shards == 0 {
            return Err("num_shards must be positive".to_string());
        }
        if self.leader_regions.len() != self.num_shards {
            return Err("leader_regions must have one entry per shard".to_string());
        }
        if self.replica_regions.len() != self.num_shards {
            return Err("replica_regions must have one entry per shard".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wan_config_matches_paper_setup() {
        let cfg = SpannerConfig::wan(Mode::SpannerRss);
        assert_eq!(cfg.num_shards, 3);
        assert_eq!(cfg.truetime_epsilon, SimDuration::from_millis(10));
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn single_dc_has_zero_epsilon() {
        let cfg = SpannerConfig::single_dc(Mode::Spanner, 8);
        assert_eq!(cfg.num_shards, 8);
        assert_eq!(cfg.truetime_epsilon, SimDuration::ZERO);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn replication_delay_uses_nearest_remote_replica() {
        let cfg = SpannerConfig::wan(Mode::Spanner);
        let net = LatencyMatrix::spanner_wan();
        // Shard 0's leader is in CA; its nearest remote replica is VA (62 ms).
        assert_eq!(cfg.replication_delay(0, &net), SimDuration::from_millis(62));
        // Shard 2's leader is in IR; nearest remote replica is VA (68 ms).
        assert_eq!(cfg.replication_delay(2, &net), SimDuration::from_millis(68));
        // Unreplicated single-DC shards pay a small local cost.
        let dc = SpannerConfig::single_dc(Mode::Spanner, 2);
        let local = LatencyMatrix::single_dc();
        assert!(dc.replication_delay(0, &local) < SimDuration::from_millis(1));
    }

    #[test]
    fn shard_mapping_covers_all_shards() {
        let cfg = SpannerConfig::wan(Mode::Spanner);
        let mut seen = vec![false; cfg.num_shards];
        for k in 0..100 {
            seen[cfg.shard_of(k)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn validation_rejects_malformed_configs() {
        let mut cfg = SpannerConfig::wan(Mode::Spanner);
        cfg.leader_regions.pop();
        assert!(cfg.validate().is_err());
        cfg.num_shards = 0;
        assert!(cfg.validate().is_err());
    }
}
