//! Simulation statistics: the time series behind Figs. 11/12 and the
//! aggregate counters behind Figs. 1, 2, and 10.

/// One per-interval sample of network pressure (Figs. 11/12 series).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Simulation cycle of the sample.
    pub cycle: u64,
    /// Flits buffered across all network input ports.
    pub input_util: usize,
    /// Flits held across all output retransmission buffers.
    pub output_util: usize,
    /// Flits waiting in core injection queues.
    pub injection_util: usize,
    /// Routers whose 4 cores all have full injection queues.
    pub routers_all_cores_full: usize,
    /// Routers with more than half their cores' queues full.
    pub routers_half_cores_full: usize,
    /// Routers with at least one completely stalled output port.
    pub routers_blocked_port: usize,
    /// Flits delivered since the previous snapshot (attack onset shows
    /// as this rate collapsing while occupancy climbs).
    pub delivered_flits: u64,
    /// NACK-driven retransmissions since the previous snapshot.
    pub retransmissions: u64,
    /// Uncorrectable ECC events since the previous snapshot.
    pub uncorrectable_faults: u64,
}

/// Aggregate run statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Statistics time series, one entry per snapshot interval.
    pub snapshots: Vec<Snapshot>,
    /// Packets offered by the traffic source.
    pub injected_packets: u64,
    /// Packets whose tail reached its destination core.
    pub delivered_packets: u64,
    /// Flits offered.
    pub injected_flits: u64,
    /// Flits delivered.
    pub delivered_flits: u64,
    /// Sum of packet latencies (injection → tail delivery).
    pub latency_sum: u64,
    /// Number of latency samples.
    pub latency_samples: u64,
    /// Largest observed packet latency.
    pub latency_max: u64,
    /// Latency histogram in power-of-two buckets: `histogram[i]` counts
    /// packets with latency in `[2^i, 2^(i+1))` (bucket 0 holds 0–1).
    pub latency_histogram: [u64; 32],
    /// Total retransmissions driven by NACKs, over all links.
    pub retransmissions: u64,
    /// Single-bit ECC corrections performed at link ingress.
    pub corrected_faults: u64,
    /// Detected-but-uncorrectable ECC events (each triggers a NACK).
    pub uncorrectable_faults: u64,
    /// BIST scans performed.
    pub bist_scans: u64,
    /// Flits explicitly discarded by link quarantine (graceful
    /// degradation accounts for every victim instead of leaking it).
    pub dropped_flits: u64,
    /// Packets explicitly discarded by link quarantine.
    pub dropped_packets: u64,
    /// Links quarantined after exhausting their escalation ladder.
    pub quarantined_links: u64,
    /// Retry-budget exhaustions that escalated to forced obfuscation.
    pub budget_escalations: u64,
}

impl SimStats {
    /// Mean packet latency in cycles (0 when nothing delivered).
    pub fn avg_latency(&self) -> f64 {
        if self.latency_samples == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.latency_samples as f64
        }
    }

    /// Delivered fraction of injected packets.
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected_packets == 0 {
            1.0
        } else {
            self.delivered_packets as f64 / self.injected_packets as f64
        }
    }

    /// Throughput in delivered flits per cycle over `cycles`.
    pub fn throughput(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.delivered_flits as f64 / cycles as f64
        }
    }

    /// Record one packet latency into the aggregate fields.
    pub fn record_latency(&mut self, latency: u64) {
        self.latency_sum += latency;
        self.latency_samples += 1;
        self.latency_max = self.latency_max.max(latency);
        let bucket = (64 - latency.max(1).leading_zeros() as usize - 1).min(31);
        self.latency_histogram[bucket] += 1;
    }

    /// Approximate latency percentile (0.0–1.0) from the power-of-two
    /// histogram, interpolating within the bucket that holds the ranked
    /// packet and never above `latency_max`; `q = 0.0` gives the first
    /// non-empty bucket's lower bound.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        pow2_quantile(
            &self.latency_histogram,
            self.latency_samples,
            self.latency_max,
            q,
        )
    }

    /// Flit conservation at quiescence: every injected flit was either
    /// delivered or explicitly dropped by a quarantine. Only meaningful
    /// when the network is drained (no resident or queued flits) — while
    /// flits are in flight the books are legitimately open.
    pub fn flits_conserved(&self) -> bool {
        self.delivered_flits + self.dropped_flits == self.injected_flits
    }

    /// Packet conservation at quiescence: delivered + dropped == injected.
    pub fn packets_conserved(&self) -> bool {
        self.delivered_packets + self.dropped_packets == self.injected_packets
    }

    /// Flits the simulation has fully accounted for so far (delivered or
    /// explicitly dropped). With `resident + queued` from the simulator,
    /// `accounted + resident + queued == injected` holds at any cycle
    /// boundary where no ACK is in flight, and exactly at quiescence.
    pub fn accounted_flits(&self) -> u64 {
        self.delivered_flits + self.dropped_flits
    }
}

/// The `q`-quantile (0.0–1.0) of `count` samples binned into power-of-two
/// `buckets` (bucket 0 holds 0–1, bucket `i ≥ 1` holds `[2^i, 2^(i+1))`),
/// interpolating *within* the winning bucket: the `k`-th of `n` samples
/// in bucket `[lo, lo + w)` is estimated at the midpoint of its `1/n`
/// slice, `lo + (2k − 1)·w / 2n`. The estimate always lies inside the
/// bucket that actually holds the ranked sample and never exceeds `max`,
/// an upper bound on every sample. `q = 0.0` asks for the minimum and
/// returns the bucket's lower bound; no samples give 0.
///
/// The one quantile routine for the run's latency
/// ([`SimStats::latency_percentile`]), the attempt histograms
/// ([`crate::metrics::PowHistogram::quantile`]) and the telemetry alert
/// window.
pub(crate) fn pow2_quantile(buckets: &[u64], count: u64, max: u64, q: f64) -> u64 {
    assert!((0.0..=1.0).contains(&q));
    if count == 0 {
        return 0;
    }
    let bounds = |i: usize| -> (u64, u64) {
        if i == 0 {
            (0, 2)
        } else {
            (1u64 << i, 1u64 << i)
        }
    };
    if q == 0.0 {
        let first = buckets.iter().position(|&c| c > 0).expect("samples exist");
        return bounds(first).0;
    }
    let rank = (q * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (i, &n) in buckets.iter().enumerate() {
        if seen + n >= rank {
            let (lo, w) = bounds(i);
            let k = rank - seen; // 1-based rank within this bucket
            let est = lo + ((2 * k - 1) * w) / (2 * n);
            // Never report past the maximum (the top bucket is usually
            // mostly empty above it).
            return est.min(max);
        }
        seen += n;
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_within_the_bucket() {
        // Regression: eight samples all in bucket [32, 64) used to
        // collapse every quantile to the bucket bound 64. The k-th of 8
        // is now estimated at 32 + (2k − 1)·32/16 = 32 + (2k − 1)·2.
        let mut s = SimStats::default();
        for _ in 0..8 {
            s.record_latency(63);
        }
        assert_eq!(s.latency_percentile(0.125), 34); // k = 1
        assert_eq!(s.latency_percentile(0.5), 46); // k = 4
        assert_eq!(s.latency_percentile(1.0), 62); // k = 8
    }

    #[test]
    fn percentile_never_exceeds_the_observed_maximum() {
        let mut s = SimStats::default();
        s.record_latency(40); // bucket [32, 64), midpoint 48 > max 40
        assert_eq!(s.latency_percentile(0.99), 40);
    }

    #[test]
    fn latency_and_ratio_handle_empty_runs() {
        let s = SimStats::default();
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.delivery_ratio(), 1.0);
        assert_eq!(s.throughput(0), 0.0);
    }

    #[test]
    fn derived_metrics() {
        let s = SimStats {
            injected_packets: 10,
            delivered_packets: 5,
            delivered_flits: 20,
            latency_sum: 100,
            latency_samples: 5,
            latency_max: 40,
            ..SimStats::default()
        };
        assert_eq!(s.avg_latency(), 20.0);
        assert_eq!(s.delivery_ratio(), 0.5);
        assert_eq!(s.throughput(10), 2.0);
    }

    #[test]
    fn latency_histogram_and_percentiles() {
        let mut s = SimStats::default();
        for lat in [3u64, 5, 9, 17, 33, 65, 129, 257, 513, 1025] {
            s.record_latency(lat);
        }
        assert_eq!(s.latency_samples, 10);
        assert_eq!(s.latency_max, 1025);
        // Each sample lands in its own power-of-two bucket (3→[2,4),
        // 5→[4,8), …); the 5th of 10 samples is 33, estimated at the
        // midpoint of its bucket [32, 64) = 48, and the 9th is 513,
        // estimated at the midpoint of [512, 1024) = 768.
        assert_eq!(s.latency_percentile(0.5), 48);
        assert_eq!(s.latency_percentile(0.9), 768);
        // q = 0.0 reports the lower bound of the first non-empty bucket:
        // 3 lands in [2, 4), so the minimum estimate is 2, not 4.
        assert_eq!(s.latency_percentile(0.0), 2);
        let total: u64 = s.latency_histogram.iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn percentile_zero_reports_bucket_lower_bound() {
        // Regression: q = 0.0 used to return the bucket's *upper* bound,
        // overstating the observed minimum by up to 2×.
        let mut s = SimStats::default();
        s.record_latency(40); // bucket [32, 64)
        assert_eq!(s.latency_percentile(0.0), 32);
        // Bucket 0 holds latencies 0–1; its lower bound is 0.
        let mut t = SimStats::default();
        t.record_latency(1);
        assert_eq!(t.latency_percentile(0.0), 0);
    }

    #[test]
    fn percentile_of_empty_stats_is_zero() {
        assert_eq!(SimStats::default().latency_percentile(0.99), 0);
    }

    #[test]
    fn conservation_accounts_for_explicit_drops() {
        let mut s = SimStats {
            injected_flits: 10,
            delivered_flits: 7,
            injected_packets: 3,
            delivered_packets: 2,
            ..SimStats::default()
        };
        assert!(!s.flits_conserved());
        assert!(!s.packets_conserved());
        s.dropped_flits = 3;
        s.dropped_packets = 1;
        assert!(s.flits_conserved());
        assert!(s.packets_conserved());
        assert_eq!(s.accounted_flits(), 10);
    }
}
