//! Wide-area network models: regions, round-trip latency matrices, and the
//! pluggable [`NetworkModel`] trait the engine delivers messages through.
//!
//! The paper's evaluations use two wide-area configurations:
//!
//! * **Spanner / Spanner-RSS (Section 6)**: three regions — California,
//!   Virginia, Ireland — with round-trip times CA–VA = 62 ms, CA–IR = 136 ms,
//!   VA–IR = 68 ms.
//! * **Gryff / Gryff-RSC (Table 2)**: five regions — California, Virginia,
//!   Ireland, Oregon, Japan — with the round-trip matrix reproduced by
//!   [`LatencyMatrix::gryff_wan`].
//!
//! One-way message latency between two regions is half the round-trip time
//! plus optional random jitter.
//!
//! A [`NetworkModel`] decides, per message, both the latency *and* whether
//! the message is delivered at all (the [`Delivery`] verdict). The default
//! implementation on [`LatencyMatrix`] is the happy-path WAN: every message
//! is delivered at the sampled latency. Lossy or adversarial networks
//! implement the trait themselves, and scripted fault windows (partitions,
//! drop/duplicate windows, node crashes) are layered on top by the engine
//! through [`crate::fault::FaultSchedule`].

use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::{SimDuration, SimTime};

/// A geographic region (data center) hosting simulation nodes.
///
/// Regions are small integer identifiers into a [`LatencyMatrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Region(pub usize);

/// Well-known regions used by the paper's experiments.
pub mod regions {
    use super::Region;

    /// California (us-west).
    pub const CALIFORNIA: Region = Region(0);
    /// Virginia (us-east).
    pub const VIRGINIA: Region = Region(1);
    /// Ireland (eu-west).
    pub const IRELAND: Region = Region(2);
    /// Oregon (us-northwest); Gryff experiments only.
    pub const OREGON: Region = Region(3);
    /// Japan (ap-northeast); Gryff experiments only.
    pub const JAPAN: Region = Region(4);
}

/// The per-message verdict of a [`NetworkModel`]: what happens to one
/// message handed to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivery {
    /// Deliver after the given one-way latency.
    Deliver {
        /// One-way latency (jitter included).
        latency: SimDuration,
    },
    /// Deliver, but late: `extra` is added on top of the base latency
    /// (congestion, retransmission, a grey link).
    Delay {
        /// One-way latency (jitter included).
        latency: SimDuration,
        /// Additional delay beyond the base latency.
        extra: SimDuration,
    },
    /// Drop the message silently (the sender learns nothing).
    Drop,
    /// Deliver twice: once after `latency`, and an identical copy
    /// `echo_after` later (retransmission races, routing flaps).
    Duplicate {
        /// One-way latency of the first copy.
        latency: SimDuration,
        /// Extra delay of the duplicate copy relative to the first.
        echo_after: SimDuration,
    },
}

/// A pluggable network: topology, latency, and per-message delivery policy.
///
/// The engine consults the model once per sent message. Implementations must
/// be deterministic given the RNG (all randomness flows through `rng`), which
/// keeps every simulated run — including lossy ones — bit-for-bit replayable
/// from its seed.
pub trait NetworkModel: Send + 'static {
    /// Number of regions the model spans.
    fn num_regions(&self) -> usize;

    /// Samples the base one-way latency between two regions (jitter
    /// included).
    fn sample_latency(&self, from: Region, to: Region, rng: &mut SmallRng) -> SimDuration;

    /// The per-message verdict. The default is the happy path: deliver every
    /// message at the sampled latency.
    ///
    /// `now` is the simulated send instant, so time-varying models (fault
    /// windows, diurnal congestion) can script behavior against the clock.
    fn delivery(&mut self, now: SimTime, from: Region, to: Region, rng: &mut SmallRng) -> Delivery {
        let _ = now;
        Delivery::Deliver { latency: self.sample_latency(from, to, rng) }
    }
}

impl NetworkModel for LatencyMatrix {
    fn num_regions(&self) -> usize {
        LatencyMatrix::num_regions(self)
    }

    fn sample_latency(&self, from: Region, to: Region, rng: &mut SmallRng) -> SimDuration {
        self.sample_one_way(from, to, rng)
    }
}

/// A symmetric matrix of round-trip times between regions.
#[derive(Debug, Clone)]
pub struct LatencyMatrix {
    /// `rtt[i][j]` is the round-trip time between regions `i` and `j`.
    rtt: Vec<Vec<SimDuration>>,
    /// Maximum uniform jitter added to each one-way delivery.
    jitter: SimDuration,
}

impl LatencyMatrix {
    /// Builds a matrix from round-trip times given in milliseconds.
    ///
    /// `rtt_ms[i][j]` must equal `rtt_ms[j][i]`; the diagonal is the
    /// intra-region round-trip time.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or not symmetric.
    pub fn from_rtt_ms(rtt_ms: &[&[f64]], jitter: SimDuration) -> Self {
        let n = rtt_ms.len();
        let mut rtt = vec![vec![SimDuration::ZERO; n]; n];
        for (i, row) in rtt_ms.iter().enumerate() {
            assert_eq!(row.len(), n, "latency matrix must be square");
            for (j, ms) in row.iter().enumerate() {
                assert!(
                    *ms == rtt_ms[j][i],
                    "round-trip times must be symmetric: rtt_ms[{i}][{j}] = {ms} \
                     but rtt_ms[{j}][{i}] = {}",
                    rtt_ms[j][i]
                );
                rtt[i][j] = SimDuration::from_millis_f64(*ms);
            }
        }
        LatencyMatrix { rtt, jitter }
    }

    /// A single region where every message takes `one_way` to deliver.
    pub fn single_region(one_way: SimDuration) -> Self {
        LatencyMatrix { rtt: vec![vec![one_way * 2]], jitter: SimDuration::ZERO }
    }

    /// The three-region EC2 configuration of the Spanner evaluation (§6):
    /// CA–VA = 62 ms, CA–IR = 136 ms, VA–IR = 68 ms; 0.2 ms within a region.
    pub fn spanner_wan() -> Self {
        Self::from_rtt_ms(
            &[&[0.2, 62.0, 136.0], &[62.0, 0.2, 68.0], &[136.0, 68.0, 0.2]],
            SimDuration::from_micros(200),
        )
    }

    /// The five-region CloudLab configuration of the Gryff evaluation (Table 2).
    ///
    /// Order: CA, VA, IR, OR, JP.
    pub fn gryff_wan() -> Self {
        Self::from_rtt_ms(
            &[
                &[0.2, 72.0, 151.0, 59.0, 113.0],
                &[72.0, 0.2, 88.0, 93.0, 162.0],
                &[151.0, 88.0, 0.2, 145.0, 220.0],
                &[59.0, 93.0, 145.0, 0.2, 121.0],
                &[113.0, 162.0, 220.0, 121.0, 0.2],
            ],
            SimDuration::from_micros(200),
        )
    }

    /// A single data center with sub-millisecond latency, used by the overhead
    /// experiments (§6.2 and §7.4): inter-machine latency below 200 µs.
    pub fn single_dc() -> Self {
        LatencyMatrix {
            rtt: vec![vec![SimDuration::from_micros(150)]],
            jitter: SimDuration::from_micros(20),
        }
    }

    /// Number of regions in the matrix.
    pub fn num_regions(&self) -> usize {
        self.rtt.len()
    }

    /// Round-trip time between two regions (without jitter).
    ///
    /// # Panics
    ///
    /// Panics if either region is out of range.
    pub fn rtt(&self, a: Region, b: Region) -> SimDuration {
        self.rtt[a.0][b.0]
    }

    /// One-way latency between two regions (without jitter).
    pub fn one_way(&self, a: Region, b: Region) -> SimDuration {
        self.rtt(a, b) / 2
    }

    /// Samples the one-way delivery latency between two regions, adding
    /// uniform jitter in `[0, jitter]`.
    pub fn sample_one_way<R: Rng>(&self, a: Region, b: Region, rng: &mut R) -> SimDuration {
        let base = self.one_way(a, b);
        if self.jitter.is_zero() {
            base
        } else {
            base + SimDuration::from_micros(rng.gen_range(0..=self.jitter.as_micros()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn spanner_wan_matches_paper() {
        let m = LatencyMatrix::spanner_wan();
        assert_eq!(m.num_regions(), 3);
        assert_eq!(m.rtt(regions::CALIFORNIA, regions::VIRGINIA).as_millis(), 62);
        assert_eq!(m.rtt(regions::CALIFORNIA, regions::IRELAND).as_millis(), 136);
        assert_eq!(m.rtt(regions::VIRGINIA, regions::IRELAND).as_millis(), 68);
    }

    #[test]
    fn gryff_wan_matches_table_2() {
        let m = LatencyMatrix::gryff_wan();
        assert_eq!(m.num_regions(), 5);
        assert_eq!(m.rtt(regions::CALIFORNIA, regions::VIRGINIA).as_millis(), 72);
        assert_eq!(m.rtt(regions::CALIFORNIA, regions::IRELAND).as_millis(), 151);
        assert_eq!(m.rtt(regions::VIRGINIA, regions::IRELAND).as_millis(), 88);
        assert_eq!(m.rtt(regions::CALIFORNIA, regions::OREGON).as_millis(), 59);
        assert_eq!(m.rtt(regions::VIRGINIA, regions::OREGON).as_millis(), 93);
        assert_eq!(m.rtt(regions::IRELAND, regions::OREGON).as_millis(), 145);
        assert_eq!(m.rtt(regions::CALIFORNIA, regions::JAPAN).as_millis(), 113);
        assert_eq!(m.rtt(regions::VIRGINIA, regions::JAPAN).as_millis(), 162);
        assert_eq!(m.rtt(regions::IRELAND, regions::JAPAN).as_millis(), 220);
        assert_eq!(m.rtt(regions::OREGON, regions::JAPAN).as_millis(), 121);
    }

    #[test]
    fn matrix_is_symmetric() {
        for m in [LatencyMatrix::spanner_wan(), LatencyMatrix::gryff_wan()] {
            for i in 0..m.num_regions() {
                for j in 0..m.num_regions() {
                    assert_eq!(m.rtt(Region(i), Region(j)), m.rtt(Region(j), Region(i)));
                }
            }
        }
    }

    #[test]
    fn one_way_is_half_rtt() {
        let m = LatencyMatrix::spanner_wan();
        assert_eq!(m.one_way(regions::CALIFORNIA, regions::VIRGINIA).as_millis(), 31);
    }

    #[test]
    fn jitter_bounded() {
        // `spanner_wan` jitters every delivery by up to 200 µs over the
        // 31 ms one-way base.
        let m = LatencyMatrix::spanner_wan();
        let mut rng = SmallRng::seed_from_u64(7);
        let samples: Vec<SimDuration> = (0..100)
            .map(|_| m.sample_one_way(regions::CALIFORNIA, regions::VIRGINIA, &mut rng))
            .collect();
        for &d in &samples {
            assert!(d >= SimDuration::from_micros(31_000), "{d:?}");
            assert!(d <= SimDuration::from_micros(31_200), "{d:?}");
        }
        assert!(samples.iter().any(|&d| d > SimDuration::from_micros(31_000)), "jitter is drawn");
    }

    #[test]
    #[should_panic(expected = "round-trip times must be symmetric")]
    fn asymmetric_matrix_is_rejected() {
        let _ = LatencyMatrix::from_rtt_ms(
            &[&[0.2, 62.0, 136.0], &[62.0, 0.2, 68.0], &[136.0, 99.0, 0.2]],
            SimDuration::ZERO,
        );
    }

    #[test]
    fn latency_matrix_is_the_happy_path_network_model() {
        let mut m = LatencyMatrix::spanner_wan();
        let mut rng = SmallRng::seed_from_u64(3);
        assert_eq!(NetworkModel::num_regions(&m), 3);
        for _ in 0..50 {
            match m.delivery(
                SimTime::from_secs(1),
                regions::CALIFORNIA,
                regions::VIRGINIA,
                &mut rng,
            ) {
                Delivery::Deliver { latency } => {
                    assert!(latency >= SimDuration::from_millis(31));
                }
                other => panic!("the default model always delivers, got {other:?}"),
            }
        }
    }

    #[test]
    fn single_region_and_dc() {
        let m = LatencyMatrix::single_region(SimDuration::from_millis(1));
        assert_eq!(m.one_way(Region(0), Region(0)), SimDuration::from_millis(1));
        let dc = LatencyMatrix::single_dc();
        assert!(dc.rtt(Region(0), Region(0)) < SimDuration::from_millis(1));
    }
}
