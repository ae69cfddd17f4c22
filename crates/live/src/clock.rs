//! The wall-to-simulated time mapping shared by every live thread.
//!
//! The live plane keeps the protocol code's notion of time — [`SimTime`]
//! microseconds — and defines it as *scaled wall time*: `sim_us = wall_us ×
//! scale`, anchored at an epoch captured when the run starts. A scale of 1
//! runs in real time; a scale of 30 compresses a 30-simulated-second fault
//! script into one wall-clock second. Because every thread reads the same
//! monotonic clock, the mapping is globally consistent without any
//! coordination, and TrueTime's `[now-ε, now+ε]` bounds hold exactly as they
//! do in the simulator.

use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use regular_sim::SimTime;

/// A shared, copyable handle mapping the monotonic wall clock to simulated
/// time.
#[derive(Debug, Clone, Copy)]
pub struct LiveClock {
    epoch: Instant,
    /// The epoch on the shareable wall clock, for cross-process agreement
    /// (see [`LiveClock::from_unix_anchor`]).
    unix_anchor_nanos: u64,
    scale: u64,
}

impl LiveClock {
    /// Starts the clock now, at simulated time zero, with the given
    /// compression factor (simulated microseconds per wall microsecond;
    /// clamped to at least 1).
    pub fn start(scale: u64) -> Self {
        let unix_anchor_nanos =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        LiveClock { epoch: Instant::now(), unix_anchor_nanos, scale: scale.max(1) }
    }

    /// Simulated time zero as nanoseconds since the UNIX epoch — the anchor
    /// a multi-process hub ships to its workers in the `Welcome` frame.
    ///
    /// `Instant` is process-private, but `CLOCK_REALTIME` is shared by every
    /// process on the machine, so shipping the `SystemTime` of the epoch
    /// lets each worker reconstruct the same simulated timeline. Skew over a
    /// run of wall-clock seconds on one host is far below the network
    /// latencies the router injects.
    pub fn unix_anchor_nanos(&self) -> u64 {
        self.unix_anchor_nanos
    }

    /// Reconstructs a clock from a hub-provided anchor (see
    /// [`LiveClock::unix_anchor_nanos`]). An anchor in the future (clock
    /// skew) clamps to "now": simulated time starts at zero rather than
    /// going negative.
    pub fn from_unix_anchor(anchor_nanos: u64, scale: u64) -> Self {
        let now_nanos =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        let elapsed = Duration::from_nanos(now_nanos.saturating_sub(anchor_nanos));
        let epoch = Instant::now().checked_sub(elapsed).unwrap_or_else(Instant::now);
        LiveClock { epoch, unix_anchor_nanos: anchor_nanos, scale: scale.max(1) }
    }

    /// The compression factor.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// The current simulated time.
    pub fn sim_now(&self) -> SimTime {
        let wall_us = self.epoch.elapsed().as_micros() as u64;
        SimTime(wall_us.saturating_mul(self.scale))
    }

    /// The wall-clock duration from now until simulated instant `t`
    /// (zero if `t` is already past).
    ///
    /// Rounded *up*, so sleeping this long never wakes before `t`: waking
    /// early would fire timers ahead of their simulated deadline, which the
    /// discrete-event engine can never do (commit-wait correctness depends
    /// on it). Waking late is always safe — the caller re-reads
    /// [`LiveClock::sim_now`] and fires only what is due.
    pub fn wall_until(&self, t: SimTime) -> Duration {
        let now = self.sim_now();
        if t <= now {
            return Duration::ZERO;
        }
        let sim_us = t.0 - now.0;
        Duration::from_micros(sim_us.div_ceil(self.scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regular_sim::SimDuration;

    #[test]
    fn clock_advances_scaled() {
        let c = LiveClock::start(1000);
        std::thread::sleep(Duration::from_millis(2));
        let t = c.sim_now();
        // 2ms wall at scale 1000 is at least 2 simulated seconds.
        assert!(t >= SimTime::from_secs(2), "sim clock too slow: {:?}", t);
    }

    #[test]
    fn anchored_clocks_agree_across_reconstructions() {
        let hub = LiveClock::start(50);
        std::thread::sleep(Duration::from_millis(2));
        let worker = LiveClock::from_unix_anchor(hub.unix_anchor_nanos(), hub.scale());
        let (a, b) = (hub.sim_now(), worker.sim_now());
        let skew = a.0.abs_diff(b.0);
        // Same process, same wall clock: the reconstruction should land
        // within a couple of simulated milliseconds (50x a few dozen µs).
        assert!(skew < 5_000, "reconstructed clock skew {skew}µs");
        // A future anchor clamps to sim-time zero instead of underflowing.
        let future = LiveClock::from_unix_anchor(u64::MAX, 10);
        assert!(future.sim_now() < SimTime::from_secs(1));
    }

    #[test]
    fn wall_until_rounds_up_and_saturates() {
        let c = LiveClock::start(10);
        assert_eq!(c.wall_until(SimTime(0)), Duration::ZERO);
        let target = c.sim_now() + SimDuration::from_micros(25);
        // 25 sim-us at scale 10 needs at least 2 wall-us and at most 3.
        assert!(c.wall_until(target) <= Duration::from_micros(3));
    }
}
