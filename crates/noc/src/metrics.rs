//! Per-link and per-router metrics registry.
//!
//! Replaces the old ad-hoc `SimStats::link_flits` vector with a typed
//! registry of counters, gauges, and power-of-two histograms that is
//! always on (plain integer increments, no allocation on the hot path)
//! and cheap enough to leave enabled in every run. The registry feeds
//! the heatmap/table renderers in `htnoc-core::viz` and the per-link
//! tables the campaign and figure binaries print.

use noc_types::{LinkId, NodeId};

/// Monotonically increasing event count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(pub(crate) u64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Sampled instantaneous value with a high-water mark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    /// Most recently observed value.
    pub current: u64,
    /// Largest value ever observed.
    pub high_water: u64,
}

impl Gauge {
    /// Record a sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.current = v;
        self.high_water = self.high_water.max(v);
    }
}

/// Histogram with power-of-two buckets: bucket `i` counts samples in
/// `[2^i, 2^(i+1))`, with 0 and 1 both landing in bucket 0 (mirrors
/// `SimStats`' latency binning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowHistogram {
    pub(crate) buckets: [u64; 16],
    pub(crate) count: u64,
    pub(crate) max: u64,
}

impl PowHistogram {
    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let b = (64 - v.max(1).leading_zeros() - 1).min(15) as usize;
        self.buckets[b] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest sample recorded.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; 16] {
        &self.buckets
    }

    /// Approximate `q`-quantile (0.0–1.0), by the same within-bucket
    /// interpolation as
    /// [`SimStats::latency_percentile`](crate::stats::SimStats::latency_percentile).
    pub fn quantile(&self, q: f64) -> u64 {
        crate::stats::pow2_quantile(&self.buckets, self.count, self.max, q)
    }

    /// Add another histogram's samples to this one.
    pub fn merge(&mut self, other: &PowHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

/// Everything measured about one unidirectional link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkMetrics {
    /// Flits driven onto the wire (including retransmissions).
    pub flits: Counter,
    /// Retransmitted launches (launch attempts beyond the first).
    pub retransmissions: Counter,
    /// SECDED single-bit corrections at the downstream decoder.
    pub ecc_corrected: Counter,
    /// SECDED uncorrectable detections at the downstream decoder.
    pub ecc_uncorrectable: Counter,
    /// NACKs returned by the downstream input unit.
    pub nacks: Counter,
    /// BIST scans run on this link.
    pub bist_scans: Counter,
    /// L-Ob plans selected for replays crossing this link.
    pub lob_selections: Counter,
    /// Launch attempts each acknowledged flit needed (1 = clean).
    pub delivery_attempts: PowHistogram,
}

impl LinkMetrics {
    /// Fraction of `elapsed` cycles this link spent carrying a flit.
    pub fn utilization(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.flits.get() as f64 / elapsed as f64
        }
    }
}

/// Everything measured about one router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterMetrics {
    /// Flits ejected to this router's local cores.
    pub ejected_flits: Counter,
    /// Cycles a core had a flit waiting but no VC could admit it.
    pub injection_stalls: Counter,
    /// Sampled total network-input buffer occupancy (flits).
    pub input_occupancy: Gauge,
    /// Sampled retransmission-buffer occupancy across output ports.
    pub retx_occupancy: Gauge,
    /// Deepest any single input unit has ever been (flits).
    pub buffer_high_water: u64,
}

/// The per-link / per-router metrics registry, sized to the mesh at
/// simulator construction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    pub(crate) links: Vec<LinkMetrics>,
    pub(crate) routers: Vec<RouterMetrics>,
}

impl MetricsRegistry {
    /// A registry for `n_links` links and `n_routers` routers.
    pub fn new(n_links: usize, n_routers: usize) -> Self {
        Self {
            links: vec![LinkMetrics::default(); n_links],
            routers: vec![RouterMetrics::default(); n_routers],
        }
    }

    /// Mutable slice over all link metrics, for the sharded cycle
    /// engine's disjoint per-shard access (`crate::par`).
    pub(crate) fn link_slice_mut(&mut self) -> &mut [LinkMetrics] {
        &mut self.links
    }

    /// Metrics for one link.
    pub fn link(&self, id: LinkId) -> &LinkMetrics {
        &self.links[id.index()]
    }

    /// Mutable metrics for one link.
    pub fn link_mut(&mut self, id: LinkId) -> &mut LinkMetrics {
        &mut self.links[id.index()]
    }

    /// Metrics for one router.
    pub fn router(&self, id: NodeId) -> &RouterMetrics {
        &self.routers[id.index()]
    }

    /// Mutable metrics for one router.
    pub fn router_mut(&mut self, id: NodeId) -> &mut RouterMetrics {
        &mut self.routers[id.index()]
    }

    /// All link metrics, indexed by link id.
    pub fn links(&self) -> &[LinkMetrics] {
        &self.links
    }

    /// All router metrics, indexed by node id.
    pub fn routers(&self) -> &[RouterMetrics] {
        &self.routers
    }

    /// Launch attempts per acknowledged flit, summed over every link.
    pub fn delivery_attempts(&self) -> PowHistogram {
        let mut all = PowHistogram::default();
        for l in &self.links {
            all.merge(&l.delivery_attempts);
        }
        all
    }

    /// Per-link flit counts (the shape the old `SimStats::link_flits`
    /// vector had), for the viz link-heatmap renderer.
    pub fn link_flits(&self) -> Vec<u64> {
        self.links.iter().map(|l| l.flits.get()).collect()
    }

    /// The link with the most retransmissions — under a single-trojan
    /// flood, the infected link.
    pub fn max_retx_link(&self) -> Option<(LinkId, u64)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u16), l.retransmissions.get()))
            .max_by_key(|&(_, n)| n)
    }

    /// Render the per-link metrics as CSV (`elapsed` scales utilization).
    pub fn links_csv(&self, elapsed: u64) -> String {
        use std::fmt::Write;
        let mut out =
            String::from("link,flits,util,retx,ecc_corrected,ecc_uncorrectable,nacks,bist_scans,lob_selections,max_attempts\n");
        for (i, l) in self.links.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i},{},{:.4},{},{},{},{},{},{},{}",
                l.flits.get(),
                l.utilization(elapsed),
                l.retransmissions.get(),
                l.ecc_corrected.get(),
                l.ecc_uncorrectable.get(),
                l.nacks.get(),
                l.bist_scans.get(),
                l.lob_selections.get(),
                l.delivery_attempts.max(),
            );
        }
        out
    }

    /// Render the per-router metrics as CSV.
    pub fn routers_csv(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from(
            "router,ejected_flits,injection_stalls,input_occupancy_hwm,retx_occupancy_hwm,buffer_hwm\n",
        );
        for (i, r) in self.routers.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i},{},{},{},{},{}",
                r.ejected_flits.get(),
                r.injection_stalls.get(),
                r.input_occupancy.high_water,
                r.retx_occupancy.high_water,
                r.buffer_high_water,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut g = Gauge::default();
        g.observe(7);
        g.observe(3);
        assert_eq!(g.current, 3);
        assert_eq!(g.high_water, 7);
    }

    #[test]
    fn pow_histogram_buckets_by_power_of_two() {
        let mut h = PowHistogram::default();
        for v in [0, 1, 2, 3, 4, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.buckets()[0], 2, "0 and 1 share bucket 0");
        assert_eq!(h.buckets()[1], 2, "2 and 3 in [2,4)");
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[9], 1, "1000 in [512,1024)");
        // Rank 6 of 6 is the only sample in [512, 1024): the bucket
        // midpoint 768, which stays under the maximum.
        assert_eq!(h.quantile(1.0), 768);
        assert_eq!(h.quantile(0.5), 2, "rank 3 is the first of [2, 4)");
    }

    #[test]
    fn registry_sums_delivery_attempts_over_links() {
        let mut m = MetricsRegistry::new(3, 1);
        m.link_mut(LinkId(0)).delivery_attempts.record(1);
        m.link_mut(LinkId(2)).delivery_attempts.record(1);
        m.link_mut(LinkId(2)).delivery_attempts.record(9);
        let all = m.delivery_attempts();
        assert_eq!(all.count(), 3);
        assert_eq!(all.max(), 9);
        assert_eq!(all.buckets()[0], 2);
        assert_eq!(all.buckets()[3], 1, "9 in [8,16)");
        assert_eq!(
            all.quantile(0.99),
            9,
            "the [8,16) midpoint 12, capped at the max"
        );
    }

    #[test]
    fn max_retx_link_picks_the_hottest_link() {
        let mut m = MetricsRegistry::new(4, 2);
        m.link_mut(LinkId(2)).retransmissions.add(9);
        m.link_mut(LinkId(1)).retransmissions.add(3);
        assert_eq!(m.max_retx_link(), Some((LinkId(2), 9)));
    }

    #[test]
    fn csv_renders_one_row_per_entity() {
        let mut m = MetricsRegistry::new(3, 2);
        m.link_mut(LinkId(0)).flits.add(10);
        let links = m.links_csv(100);
        assert_eq!(links.lines().count(), 4, "header + 3 links");
        assert!(links.lines().nth(1).unwrap().starts_with("0,10,0.1000"));
        assert_eq!(m.routers_csv().lines().count(), 3, "header + 2 routers");
    }
}
