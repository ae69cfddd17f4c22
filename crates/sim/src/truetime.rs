//! TrueTime emulation with bounded uncertainty.
//!
//! Spanner relies on Google's TrueTime API, which returns an interval
//! `[earliest, latest]` guaranteed to contain the current absolute time. The
//! Spanner evaluation in the paper emulates a TrueTime error of 10 ms (the
//! p99.9 value observed in production) and sets it to zero for the overhead
//! experiment.
//!
//! In the simulator the "absolute time" is the simulated clock itself, so the
//! interval `[now - ε, now + ε]` always satisfies the TrueTime contract. The
//! bounds are symmetric and deterministic: every clock reports the same
//! maximal uncertainty, which models the worst case the protocols must absorb
//! (commit wait of ≈ 2ε) while keeping protocol timestamps monotone with real
//! time — exactly the property the paper's correctness argument (Appendix D.1)
//! relies on.

use crate::time::{SimDuration, SimTime};

/// An interval returned by [`TrueTime::now`]; the true (simulated) time is
/// guaranteed to lie within `[earliest, latest]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TtInterval {
    /// Lower bound on the current time.
    pub earliest: SimTime,
    /// Upper bound on the current time.
    pub latest: SimTime,
}

impl TtInterval {
    /// Width of the interval.
    pub fn width(&self) -> SimDuration {
        self.latest - self.earliest
    }
}

/// A per-node TrueTime clock with uncertainty bounded by `epsilon`.
#[derive(Debug, Clone)]
pub struct TrueTime {
    epsilon: SimDuration,
}

impl TrueTime {
    /// Creates a TrueTime clock with uncertainty bound `epsilon`.
    ///
    /// The `seed` parameter is accepted for interface stability (per-node
    /// clocks are constructed with distinct seeds) but the emulation is
    /// deterministic, so it is unused.
    pub fn new(epsilon: SimDuration, _seed: u64) -> Self {
        TrueTime { epsilon }
    }

    /// A perfect clock (ε = 0), used by the overhead experiments.
    pub fn perfect(seed: u64) -> Self {
        Self::new(SimDuration::ZERO, seed)
    }

    /// The configured uncertainty bound.
    pub fn epsilon(&self) -> SimDuration {
        self.epsilon
    }

    /// Returns an interval containing the true simulated time `now`.
    ///
    /// The returned interval always satisfies
    /// `earliest ≤ now ≤ latest` and `latest - earliest ≤ 2ε`.
    pub fn now(&mut self, now: SimTime) -> TtInterval {
        TtInterval { earliest: now - self.epsilon, latest: now + self.epsilon }
    }

    /// Returns the duration a process must wait (from `now`) until `t` is
    /// guaranteed to be in the past, i.e. until `TT.now().earliest > t`.
    ///
    /// This is the *commit wait* primitive: waiting `commit_wait(t, now)`
    /// guarantees that every clock's earliest bound has passed `t`.
    pub fn commit_wait(&self, t: SimTime, now: SimTime) -> SimDuration {
        let target = t + self.epsilon + SimDuration::from_micros(1);
        target.since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_contains_now() {
        let mut tt = TrueTime::new(SimDuration::from_millis(10), 3);
        for i in 0..1000u64 {
            let now = SimTime::from_micros(i * 137 + 20_000);
            let iv = tt.now(now);
            assert!(iv.earliest <= now, "earliest must not exceed now");
            assert!(iv.latest >= now, "latest must not precede now");
            assert!(iv.width() <= SimDuration::from_millis(20));
        }
    }

    #[test]
    fn perfect_clock_has_zero_width() {
        let mut tt = TrueTime::perfect(9);
        let iv = tt.now(SimTime::from_millis(5));
        assert_eq!(iv.earliest, iv.latest);
        assert_eq!(iv.width(), SimDuration::ZERO);
    }

    #[test]
    fn latest_is_monotone_with_real_time() {
        let mut a = TrueTime::new(SimDuration::from_millis(10), 1);
        let mut b = TrueTime::new(SimDuration::from_millis(10), 2);
        // Any clock's `latest` at a later instant exceeds any clock's `latest`
        // at an earlier instant — the property that keeps read timestamps
        // monotone across clients.
        let t1 = a.now(SimTime::from_millis(100)).latest;
        let t2 = b.now(SimTime::from_millis(101)).latest;
        assert!(t2 > t1);
    }

    #[test]
    fn commit_wait_clears_uncertainty() {
        let tt = TrueTime::new(SimDuration::from_millis(10), 1);
        let t = SimTime::from_millis(100);
        let now = SimTime::from_millis(100);
        let wait = tt.commit_wait(t, now);
        // After waiting, even a maximally lagging clock has earliest > t.
        let after = now + wait;
        assert!(after - tt.epsilon() > t);
    }

    #[test]
    fn commit_wait_zero_when_already_past() {
        let tt = TrueTime::new(SimDuration::from_millis(10), 1);
        let t = SimTime::from_millis(100);
        let now = SimTime::from_millis(200);
        assert_eq!(tt.commit_wait(t, now), SimDuration::ZERO);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = TrueTime::new(SimDuration::from_millis(10), 42);
        let mut b = TrueTime::new(SimDuration::from_millis(10), 43);
        for i in 0..100u64 {
            let now = SimTime::from_micros(50_000 + i * 61);
            assert_eq!(a.now(now), b.now(now));
        }
    }
}
