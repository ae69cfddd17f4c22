//! Coverage signatures: the fitness signal of coverage-guided schedule
//! search (`regular-hunt`).
//!
//! A [`CoverageSignature`] is the deduplicated, sorted set of *behaviour
//! features* one execution hit: which message types were delivered to nodes
//! in which protocol phases, which fault windows overlapped which
//! coordination activity, whether recovery re-drive paths or WAL torn-tail
//! recoveries ran, and how hard the fault plane actually bit (bucketed
//! drop/duplicate/expiry counts). Two runs with the same signature explored
//! the same behaviour classes; a run whose signature contains features no
//! previous run produced is *novel* and worth keeping in a fuzzing corpus —
//! the AFL bitmap idea, transplanted onto protocol simulations.
//!
//! The type lives in `regular-core` so every layer can speak it: the
//! simulator engine produces the raw message-delivery features, protocol
//! harnesses add stats-derived features, failure artifacts embed the final
//! signature, and the hunter ranks corpus entries by it.
//!
//! Feature identifiers are `u32`s with a stable layout:
//! `(domain << 16) | feature` — the high half names a [`domain`], the low
//! half is domain-specific. The layout is part of the artifact schema (the
//! signature is serialized into `FailureArtifact`s), so domains are
//! append-only.

/// Feature domains: the high 16 bits of a feature identifier.
///
/// Append new domains; never renumber — serialized signatures in saved
/// failure artifacts rely on the mapping.
pub mod domain {
    /// Message-type × receiver-phase pairs observed at delivery
    /// (`feature = (message class << 8) | phase tag`).
    pub const MESSAGE_PHASE: u16 = 1;
    /// Messages that expired at a crashed receiver, by message class.
    pub const EXPIRED_CLASS: u16 = 2;
    /// Fault-plane pressure buckets (log2 of dropped / duplicated / expired
    /// message counts).
    pub const NET_PRESSURE: u16 = 3;
    /// Recovery behaviour: re-driven coordinations, client retry buckets.
    pub const RECOVERY: u16 = 4;
    /// Durable-storage behaviour: WAL replays, torn tails, checkpoints.
    pub const STORAGE: u16 = 5;
    /// Fault-schedule shape: which fault families were active and how they
    /// overlapped the run (crash-during-rmw, one-way cuts, ...).
    pub const FAULT_SHAPE: u16 = 6;
}

/// Builds a feature identifier from a domain and a domain-specific feature.
pub const fn feature_id(domain: u16, feature: u16) -> u32 {
    ((domain as u32) << 16) | feature as u32
}

/// Splits a feature identifier back into `(domain, feature)`.
pub const fn split_feature(id: u32) -> (u16, u16) {
    ((id >> 16) as u16, (id & 0xffff) as u16)
}

/// The set of behaviour features one execution hit, sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageSignature {
    features: Vec<u32>,
}

impl CoverageSignature {
    /// An empty signature (an execution nobody instrumented).
    pub fn empty() -> Self {
        CoverageSignature::default()
    }

    /// Builds a signature from raw feature identifiers (sorted and
    /// deduplicated here, so callers can accumulate without discipline).
    pub fn from_features(mut features: Vec<u32>) -> Self {
        features.sort_unstable();
        features.dedup();
        CoverageSignature { features }
    }

    /// The features, sorted ascending.
    pub fn features(&self) -> &[u32] {
        &self.features
    }

    /// Number of distinct features hit.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// True when no features were recorded.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// True if the signature contains `id`.
    pub fn contains(&self, id: u32) -> bool {
        self.features.binary_search(&id).is_ok()
    }

    /// Counts features of this signature absent from `seen` — the novelty
    /// score corpus ranking keys on.
    pub fn novel_against(&self, seen: &CoverageMap) -> usize {
        self.features.iter().filter(|f| !seen.contains(**f)).count()
    }

    /// A compact human-readable summary, grouped by domain.
    pub fn describe(&self) -> String {
        if self.features.is_empty() {
            return "no coverage recorded".to_string();
        }
        let mut counts: Vec<(u16, usize)> = Vec::new();
        for &f in &self.features {
            let (dom, _) = split_feature(f);
            match counts.last_mut() {
                Some((d, n)) if *d == dom => *n += 1,
                _ => counts.push((dom, 1)),
            }
        }
        let name = |d: u16| match d {
            domain::MESSAGE_PHASE => "message-phase",
            domain::EXPIRED_CLASS => "expired",
            domain::NET_PRESSURE => "net",
            domain::RECOVERY => "recovery",
            domain::STORAGE => "storage",
            domain::FAULT_SHAPE => "fault-shape",
            _ => "other",
        };
        let parts: Vec<String> = counts.iter().map(|(d, n)| format!("{}:{n}", name(*d))).collect();
        format!("{} features ({})", self.features.len(), parts.join(", "))
    }
}

/// An accumulator for one run's features.
#[derive(Debug, Clone, Default)]
pub struct CoverageBuilder {
    features: Vec<u32>,
}

impl CoverageBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CoverageBuilder::default()
    }

    /// Records a feature (duplicates are fine; `build` dedups).
    pub fn hit(&mut self, domain: u16, feature: u16) {
        self.features.push(feature_id(domain, feature));
    }

    /// Records a log2-bucketed counter: the feature hit is
    /// `(tag << 8) | min(bucket, 255)` where `bucket = floor(log2(n)) + 1`
    /// for `n > 0` and `0` for `n == 0` — so "none", "a few", and "a storm"
    /// of faults are different behaviours, but 173 vs 174 drops are not.
    pub fn hit_bucketed(&mut self, domain: u16, tag: u8, n: u64) {
        let bucket = if n == 0 { 0 } else { (64 - n.leading_zeros()) as u16 };
        self.hit(domain, ((tag as u16) << 8) | bucket.min(255));
    }

    /// Finalizes the signature.
    pub fn build(self) -> CoverageSignature {
        CoverageSignature::from_features(self.features)
    }
}

/// The union of every signature a corpus has seen, for novelty queries.
#[derive(Debug, Clone, Default)]
pub struct CoverageMap {
    seen: Vec<u32>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> Self {
        CoverageMap::default()
    }

    /// True if `id` has been observed.
    pub fn contains(&self, id: u32) -> bool {
        self.seen.binary_search(&id).is_ok()
    }

    /// Number of distinct features observed so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Merges a signature, returning how many of its features were new.
    pub fn absorb(&mut self, sig: &CoverageSignature) -> usize {
        let mut fresh = 0;
        for &f in sig.features() {
            if let Err(at) = self.seen.binary_search(&f) {
                self.seen.insert(at, f);
                fresh += 1;
            }
        }
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feature_ids_round_trip() {
        let id = feature_id(domain::MESSAGE_PHASE, 0x1234);
        assert_eq!(split_feature(id), (domain::MESSAGE_PHASE, 0x1234));
    }

    #[test]
    fn signatures_sort_and_dedup() {
        let sig = CoverageSignature::from_features(vec![9, 3, 3, 7, 9]);
        assert_eq!(sig.features(), &[3, 7, 9]);
        assert_eq!(sig.len(), 3);
        assert!(sig.contains(7));
        assert!(!sig.contains(8));
    }

    #[test]
    fn bucketed_counters_merge_similar_magnitudes() {
        let bucket = |n: u64| {
            let mut b = CoverageBuilder::new();
            b.hit_bucketed(domain::NET_PRESSURE, 1, n);
            b.build()
        };
        assert_eq!(bucket(173), bucket(174), "same log2 bucket");
        assert_ne!(bucket(0), bucket(1), "zero is its own behaviour");
        assert_ne!(bucket(3), bucket(300));
    }

    #[test]
    fn coverage_map_tracks_novelty() {
        let mut map = CoverageMap::new();
        let a = CoverageSignature::from_features(vec![1, 2, 3]);
        let b = CoverageSignature::from_features(vec![3, 4]);
        assert_eq!(a.novel_against(&map), 3);
        assert_eq!(map.absorb(&a), 3);
        assert_eq!(b.novel_against(&map), 1);
        assert_eq!(map.absorb(&b), 1);
        assert_eq!(map.absorb(&b), 0, "absorbing twice adds nothing");
        assert_eq!(map.len(), 4);
    }

    #[test]
    fn describe_groups_by_domain() {
        let mut b = CoverageBuilder::new();
        b.hit(domain::MESSAGE_PHASE, 1);
        b.hit(domain::MESSAGE_PHASE, 2);
        b.hit(domain::STORAGE, 1);
        let sig = b.build();
        let text = sig.describe();
        assert!(text.contains("3 features"), "{text}");
        assert!(text.contains("message-phase:2"), "{text}");
        assert!(text.contains("storage:1"), "{text}");
        assert_eq!(CoverageSignature::empty().describe(), "no coverage recorded");
    }
}
