//! The session lifecycle state machine shared by every client node.
//!
//! Both protocol crates used to hand-roll the same logic (staggered
//! closed-loop starts, Poisson arrivals, stay-probability departures,
//! stop-issuing cutoffs). The scheduler centralizes it: runners translate the
//! returned `(delay, Wake)` pairs into engine timers and call back on firing.

use rand::rngs::SmallRng;
use rand::Rng;
use regular_core::hashing::FxHashSet;
use regular_sim::time::{SimDuration, SimTime};

use crate::config::{SessionConfig, SessionDriver};

/// What a scheduler-armed timer means when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// A session's think time expired: issue its next batch.
    Issue {
        /// The session to issue for.
        session: u64,
    },
    /// The next partly-open session arrives.
    Arrival,
}

/// Drives session arrivals, departures, and pacing for one client node.
#[derive(Debug)]
pub struct SessionScheduler {
    cfg: SessionConfig,
    stop_issuing_at: SimTime,
    /// Sessions still issuing; looked up on every wake, never iterated.
    active: FxHashSet<u64>,
    next_session: u64,
    arrivals: u64,
    shed: u64,
}

impl SessionScheduler {
    /// Creates a scheduler that stops issuing new batches at
    /// `stop_issuing_at` (in-flight operations drain normally).
    pub fn new(cfg: SessionConfig, stop_issuing_at: SimTime) -> Self {
        SessionScheduler {
            cfg,
            stop_issuing_at,
            active: FxHashSet::default(),
            next_session: 0,
            arrivals: 0,
            shed: 0,
        }
    }

    /// Sessions that arrived via `Wake::Arrival` (partly-open and
    /// open-loop), shed ones included — the *offered* load.
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Open-loop arrivals shed because `max_in_flight` sessions were already
    /// active. `shed > 0` is the load generator saying the system is past
    /// its knee at this arrival rate.
    pub fn shed(&self) -> u64 {
        self.shed
    }

    /// The configured pipelining depth.
    pub fn batch(&self) -> usize {
        self.cfg.batch
    }

    /// Number of currently active sessions.
    pub fn active_sessions(&self) -> usize {
        self.active.len()
    }

    /// True while `session` may still issue batches.
    pub fn is_active(&self, session: u64) -> bool {
        self.active.contains(&session)
    }

    fn spawn_session(&mut self) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.active.insert(id);
        id
    }

    /// Timers to arm when the simulation starts.
    pub fn on_start(&mut self, rng: &mut SmallRng) -> Vec<(SimDuration, Wake)> {
        match self.cfg.driver {
            SessionDriver::ClosedLoop { sessions, .. } => (0..sessions)
                .map(|_| {
                    let id = self.spawn_session();
                    // Stagger session starts slightly to avoid a thundering
                    // herd at time zero.
                    let jitter = SimDuration::from_micros(rng.gen_range(0..1_000));
                    (jitter, Wake::Issue { session: id })
                })
                .collect(),
            SessionDriver::PartlyOpen { arrival_rate, .. }
            | SessionDriver::OpenLoop { arrival_rate, .. } => {
                if arrival_rate > 0.0 {
                    vec![(exponential_delay(rng, arrival_rate), Wake::Arrival)]
                } else {
                    Vec::new()
                }
            }
        }
    }

    /// Handles a fired timer. Returns the session that must issue a batch
    /// *now*, if any, and the timer to arm, if any.
    pub fn on_wake(
        &mut self,
        now: SimTime,
        rng: &mut SmallRng,
        wake: Wake,
    ) -> (Option<u64>, Option<(SimDuration, Wake)>) {
        match wake {
            Wake::Issue { session } => {
                if now >= self.stop_issuing_at || !self.active.contains(&session) {
                    self.active.remove(&session);
                    (None, None)
                } else {
                    (Some(session), None)
                }
            }
            Wake::Arrival => {
                if now >= self.stop_issuing_at {
                    return (None, None);
                }
                self.arrivals += 1;
                // Open-loop arrivals keep coming regardless of what happens
                // to this one — that independence is the whole model — but an
                // arrival over the in-flight cap is shed, not queued.
                if let SessionDriver::OpenLoop { arrival_rate, max_in_flight } = self.cfg.driver {
                    let next = Some((exponential_delay(rng, arrival_rate), Wake::Arrival));
                    if self.active.len() >= max_in_flight {
                        self.shed += 1;
                        return (None, next);
                    }
                    return (Some(self.spawn_session()), next);
                }
                let id = self.spawn_session();
                let next = match self.cfg.driver {
                    SessionDriver::PartlyOpen { arrival_rate, .. } => {
                        Some((exponential_delay(rng, arrival_rate), Wake::Arrival))
                    }
                    SessionDriver::ClosedLoop { .. } | SessionDriver::OpenLoop { .. } => None,
                };
                (Some(id), next)
            }
        }
    }

    /// Handles a session completing its whole batch: decides whether the
    /// session continues (the returned think-time timer) or departs.
    pub fn on_batch_complete(
        &mut self,
        rng: &mut SmallRng,
        session: u64,
    ) -> Option<(SimDuration, Wake)> {
        if !self.active.contains(&session) {
            return None;
        }
        match self.cfg.driver {
            SessionDriver::ClosedLoop { think_time, .. } => {
                Some((think_time, Wake::Issue { session }))
            }
            SessionDriver::PartlyOpen { stay_probability, think_time, .. } => {
                if rng.gen_bool(stay_probability) {
                    Some((think_time, Wake::Issue { session }))
                } else {
                    self.active.remove(&session);
                    None
                }
            }
            // Open-loop sessions issue exactly one batch, then depart.
            SessionDriver::OpenLoop { .. } => {
                self.active.remove(&session);
                None
            }
        }
    }
}

/// Draws an exponentially distributed inter-arrival delay for the given rate
/// (events per second).
fn exponential_delay(rng: &mut SmallRng, rate_per_sec: f64) -> SimDuration {
    let u: f64 = rng.gen_range(1e-12..1.0);
    let secs = -u.ln() / rate_per_sec;
    SimDuration::from_micros((secs * 1_000_000.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn closed_loop_spawns_all_sessions_with_jitter() {
        let mut s = SessionScheduler::new(
            SessionConfig::closed_loop(3, SimDuration::ZERO),
            SimTime::from_secs(10),
        );
        let mut r = rng();
        let timers = s.on_start(&mut r);
        assert_eq!(timers.len(), 3);
        assert_eq!(s.active_sessions(), 3);
        assert!(timers.iter().all(|(d, _)| *d < SimDuration::from_millis(1)));
        let (issue, more) = s.on_wake(SimTime::from_millis(1), &mut r, timers[0].1);
        let issue = issue.expect("the session issues");
        assert!(more.is_none());
        // After the batch completes, the session thinks then re-issues.
        let next = s.on_batch_complete(&mut r, issue);
        assert_eq!(next, Some((SimDuration::ZERO, Wake::Issue { session: issue })));
    }

    #[test]
    fn stop_issuing_retires_sessions() {
        let mut s = SessionScheduler::new(
            SessionConfig::closed_loop(1, SimDuration::ZERO),
            SimTime::from_secs(1),
        );
        let mut r = rng();
        let timers = s.on_start(&mut r);
        let (issue, _) = s.on_wake(SimTime::from_secs(2), &mut r, timers[0].1);
        assert!(issue.is_none(), "no batches after the cutoff");
        assert_eq!(s.active_sessions(), 0);
    }

    #[test]
    fn partly_open_arrivals_spawn_and_reschedule() {
        let mut s = SessionScheduler::new(
            SessionConfig::partly_open(10.0, 0.0, SimDuration::ZERO),
            SimTime::from_secs(10),
        );
        let mut r = rng();
        let timers = s.on_start(&mut r);
        assert_eq!(timers.len(), 1);
        let (issue, more) = s.on_wake(SimTime::from_millis(5), &mut r, Wake::Arrival);
        assert!(matches!(more, Some((_, Wake::Arrival))), "the next arrival is scheduled");
        // stay_probability 0: the session leaves after one batch.
        let next = s.on_batch_complete(&mut r, issue.unwrap());
        assert!(next.is_none());
        assert_eq!(s.active_sessions(), 0);
    }

    #[test]
    fn open_loop_sessions_issue_once_and_depart() {
        let mut s =
            SessionScheduler::new(SessionConfig::open_loop(100.0, 8), SimTime::from_secs(10));
        let mut r = rng();
        let timers = s.on_start(&mut r);
        assert_eq!(timers.len(), 1);
        let (issue, more) = s.on_wake(SimTime::from_millis(5), &mut r, Wake::Arrival);
        assert!(more.is_some(), "the next arrival is always scheduled");
        assert_eq!(s.arrivals(), 1);
        // One batch, then gone — no think timer, no re-issue.
        let next = s.on_batch_complete(&mut r, issue.unwrap());
        assert!(next.is_none());
        assert_eq!(s.active_sessions(), 0);
        assert_eq!(s.shed(), 0);
    }

    #[test]
    fn open_loop_sheds_arrivals_over_the_cap() {
        let mut s =
            SessionScheduler::new(SessionConfig::open_loop(100.0, 2), SimTime::from_secs(10));
        let mut r = rng();
        let _ = s.on_start(&mut r);
        let now = SimTime::from_millis(1);
        let (a, _) = s.on_wake(now, &mut r, Wake::Arrival);
        let (b, _) = s.on_wake(now, &mut r, Wake::Arrival);
        assert!(a.is_some() && b.is_some());
        assert_eq!(s.active_sessions(), 2);
        // Third arrival while two are in flight: shed, but the arrival
        // process keeps going.
        let (c, more) = s.on_wake(now, &mut r, Wake::Arrival);
        assert!(c.is_none());
        assert!(more.is_some());
        assert_eq!(s.shed(), 1);
        assert_eq!(s.arrivals(), 3);
        // A completion frees a slot; the next arrival is admitted again.
        let _ = s.on_batch_complete(&mut r, a.unwrap());
        let (d, _) = s.on_wake(now, &mut r, Wake::Arrival);
        assert!(d.is_some());
    }

    #[test]
    fn zero_arrival_rate_schedules_nothing() {
        let mut s = SessionScheduler::new(
            SessionConfig::partly_open(0.0, 0.9, SimDuration::ZERO),
            SimTime::from_secs(10),
        );
        assert!(s.on_start(&mut rng()).is_empty());
    }
}
