//! Latency and throughput metrics used to regenerate the paper's figures.
//!
//! The paper reports tail-latency CDFs (Figures 5 and 7), percentile columns
//! (p99, p99.9), and throughput-versus-median-latency curves (Figure 6 and
//! §7.4). [`LatencyRecorder`] collects per-operation latencies and answers
//! percentile queries; throughput over a measurement window is
//! `regular_session::measure`'s, the one window rule every report applies.

use crate::time::SimDuration;

/// Message delivery counters kept by the engine, including the fault plane's
/// outcomes (see [`crate::fault::FaultSchedule`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MessageStats {
    /// Messages delivered to a live node (both copies of a duplicate count).
    pub delivered: u64,
    /// Messages dropped by a network verdict, drop window, or cut link.
    pub dropped: u64,
    /// Extra message copies injected by duplicate verdicts.
    pub duplicated: u64,
    /// Messages that arrived at a node while it was crashed and were lost.
    pub expired: u64,
}

impl MessageStats {
    /// Sums the counters of two recorders (e.g. across simulations).
    pub fn merged(self, other: MessageStats) -> MessageStats {
        MessageStats {
            delivered: self.delivered + other.delivered,
            dropped: self.dropped + other.dropped,
            duplicated: self.duplicated + other.duplicated,
            expired: self.expired + other.expired,
        }
    }
}

/// What an execution cost the engine's event loop, in seed-exact counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events processed: starts, messages, timers, crashes and recoveries.
    pub events: u64,
    /// Events re-keyed because they reached the head of a busy node.
    pub deferrals: u64,
    /// Ref moves the indexed queue made: [`crate::queue::SimQueue::queue_ops`].
    pub queue_ops: u64,
}

/// One delivery a live plane's router performed, in delivery order.
///
/// The recorded log makes a live run's nondeterministic interleaving
/// inspectable after the fact: it is attached to failure artifacts so a
/// violation found on the live plane ships with the exact delivery
/// sequence that produced it. The simulator records none — its seed *is*
/// the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Delivery sequence number (0-based, global).
    pub seq: u64,
    /// Simulated delivery instant (microseconds).
    pub at_us: u64,
    /// Sending node.
    pub from: usize,
    /// Receiving node.
    pub to: usize,
}

/// Byte/frame counters of one run's socket traffic, from the hub's
/// perspective (`tx` = hub → workers, `rx` = workers → hub). All zeros on
/// the simulator and on the live plane's mpsc transport.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Frames sent by the hub.
    pub frames_tx: u64,
    /// Payload + header bytes sent by the hub.
    pub bytes_tx: u64,
    /// Frames received by the hub.
    pub frames_rx: u64,
    /// Payload + header bytes received by the hub.
    pub bytes_rx: u64,
}

/// Collects individual operation latencies and answers percentile queries.
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples_us: Vec<u64>,
    sorted: bool,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: SimDuration) {
        self.samples_us.push(latency.as_micros());
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// Merges all samples from `other` into `self`.
    pub fn merge(&mut self, other: &LatencyRecorder) {
        self.samples_us.extend_from_slice(&other.samples_us);
        self.sorted = false;
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples_us.sort_unstable();
            self.sorted = true;
        }
    }

    /// Returns the `p`-th percentile latency (`p` in `[0, 100]`), or `None`
    /// if no samples were recorded.
    ///
    /// Uses the nearest-rank method, which is what latency-measurement
    /// frameworks in the systems literature typically report.
    pub fn percentile(&mut self, p: f64) -> Option<SimDuration> {
        if self.samples_us.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples_us.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let idx = rank.clamp(1, n) - 1;
        Some(SimDuration::from_micros(self.samples_us[idx]))
    }

    /// Arithmetic mean latency.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples_us.is_empty() {
            return None;
        }
        let sum: u128 = self.samples_us.iter().map(|&v| v as u128).sum();
        Some(SimDuration::from_micros((sum / self.samples_us.len() as u128) as u64))
    }

    /// Maximum latency.
    pub fn max(&mut self) -> Option<SimDuration> {
        self.ensure_sorted();
        self.samples_us.last().map(|&us| SimDuration::from_micros(us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder_with(samples_ms: &[u64]) -> LatencyRecorder {
        let mut r = LatencyRecorder::new();
        for &ms in samples_ms {
            r.record(SimDuration::from_millis(ms));
        }
        r
    }

    #[test]
    fn empty_recorder() {
        let mut r = LatencyRecorder::new();
        assert!(r.is_empty());
        assert_eq!(r.percentile(50.0), None);
        assert_eq!(r.mean(), None);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut r = recorder_with(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(r.percentile(50.0), Some(SimDuration::from_millis(5)));
        assert_eq!(r.percentile(90.0), Some(SimDuration::from_millis(9)));
        assert_eq!(r.percentile(99.0), Some(SimDuration::from_millis(10)));
        assert_eq!(r.percentile(100.0), Some(SimDuration::from_millis(10)));
        assert_eq!(r.percentile(0.0), Some(SimDuration::from_millis(1)));
    }

    #[test]
    fn mean_and_max() {
        let mut r = recorder_with(&[2, 4, 6]);
        assert_eq!(r.mean(), Some(SimDuration::from_millis(4)));
        assert_eq!(r.max(), Some(SimDuration::from_millis(6)));
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = recorder_with(&[1, 2]);
        let b = recorder_with(&[3, 4]);
        a.merge(&b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.percentile(100.0), Some(SimDuration::from_millis(4)));
    }
}
