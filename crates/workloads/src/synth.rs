//! The synthetic trace generator.
//!
//! Each workload is a [`WorkloadSpec`]: target request mix, size means,
//! access skew, update intensity and burstiness. `generate` produces a
//! deterministic page-aligned [`Trace`] for a given footprint and request
//! count.
//!
//! The generator's structure mirrors what matters to the IDA experiments:
//!
//! - reads follow a Zipf distribution over the footprint (hot data is read
//!   often) with occasional sequential runs;
//! - writes are *updates*: they follow their own, typically more skewed,
//!   Zipf distribution, which invalidates previously written pages — the
//!   source of the invalid-LSB/CSB wordlines IDA coding exploits;
//! - arrivals are bursty: requests cluster in bursts separated by longer
//!   idle gaps, so device latency differences show up as queueing-time
//!   differences exactly as in the paper's open trace replay.

use crate::dist::{exponential_gap, Scatter, SizeMix, Zipf};
use crate::trace::{HostOp, HostOpKind, Trace};
use ida_obs::rng::Rng64;

/// Parameters of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (e.g. `proj_1`).
    pub name: String,
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Mean read request size in pages.
    pub read_size_pages: f64,
    /// Mean write request size in pages.
    pub write_size_pages: f64,
    /// Zipf exponent of the read address distribution.
    pub read_theta: f64,
    /// Zipf exponent of the write (update) address distribution. Writes
    /// hit a subset of the footprint (`update_fraction`).
    pub write_theta: f64,
    /// Fraction of the footprint eligible for updates.
    pub update_fraction: f64,
    /// Probability that a write targets the *read-hot* mapping instead of
    /// the independent update mapping — the knob for how often reads land
    /// on freshly rewritten (conventional) blocks.
    pub rw_correlation: f64,
    /// Probability that a read continues the previous read sequentially.
    pub seq_read_prob: f64,
    /// Mean gap between bursts (ns).
    pub burst_gap_ns: f64,
    /// Mean gap within a burst (ns).
    pub intra_gap_ns: f64,
    /// Mean burst length in requests.
    pub burst_len: f64,
    /// Page size assumed by the trace (bytes).
    pub page_size: u32,
    /// RNG seed (deterministic generation).
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            name: "default".into(),
            read_ratio: 0.9,
            read_size_pages: 4.0,
            write_size_pages: 2.0,
            read_theta: 0.6,
            write_theta: 1.1,
            update_fraction: 0.6,
            rw_correlation: 0.2,
            seq_read_prob: 0.3,
            burst_gap_ns: 2_000_000.0, // 2 ms between bursts
            intra_gap_ns: 20_000.0,    // 20 µs inside a burst
            burst_len: 16.0,
            page_size: 8 * 1024,
            seed: 0x0001_DA77,
        }
    }
}

impl WorkloadSpec {
    /// A writes-only trace over `footprint_pages` whose total volume is
    /// `volume × footprint` pages, with the given seed salt — the building
    /// block of the aging passes.
    pub fn scaled_writes(&self, footprint_pages: u64, volume: f64, salt: u64) -> Trace {
        let target_pages = (footprint_pages as f64 * volume) as u64;
        let mean_write = self.write_size_pages.max(1.0);
        let requests = ((target_pages as f64 / mean_write).ceil() as usize).max(1);
        let spec = WorkloadSpec {
            read_ratio: 0.0,
            seed: self.seed.wrapping_add(salt),
            name: format!("{}-writes", self.name),
            ..self.clone()
        };
        spec.generate(footprint_pages, requests)
    }

    /// Generate `requests` records over a footprint of `footprint_pages`
    /// logical pages. Deterministic in the spec (including its seed).
    ///
    /// # Panics
    ///
    /// Panics if `footprint_pages == 0` or the spec's ratios are outside
    /// `[0, 1]`.
    pub fn generate(&self, footprint_pages: u64, requests: usize) -> Trace {
        assert!(footprint_pages > 0, "footprint must be non-empty");
        for (what, v) in [
            ("read_ratio", self.read_ratio),
            ("update_fraction", self.update_fraction),
            ("rw_correlation", self.rw_correlation),
            ("seq_read_prob", self.seq_read_prob),
        ] {
            assert!((0.0..=1.0).contains(&v), "{what} must be in [0,1], got {v}");
        }
        let mut rng = Rng64::seed_from_u64(self.seed);
        // A write-only trace (every aging pass) draws no read address, so
        // it skips the footprint-sized read CDF.
        let read_zipf = (self.read_ratio > 0.0)
            .then(|| Zipf::new(footprint_pages.min(1 << 22) as usize, self.read_theta));
        let update_domain = ((footprint_pages as f64 * self.update_fraction) as u64).max(1);
        let write_zipf = Zipf::new(update_domain.min(1 << 22) as usize, self.write_theta);
        let scatter = Scatter::new(footprint_pages);
        let write_scatter = Scatter::with_salt(footprint_pages, 1);
        let read_sizes = SizeMix::new(self.read_size_pages.max(1.0), 64);
        let write_sizes = SizeMix::new(self.write_size_pages.max(1.0), 64);

        let mut records = Vec::with_capacity(requests);
        let mut now = 0u64;
        let mut burst_remaining = 0u64;
        let mut last_read_end: Option<u64> = None;
        for _ in 0..requests {
            if burst_remaining == 0 {
                now += exponential_gap(&mut rng, self.burst_gap_ns);
                burst_remaining = 1 + exponential_gap(&mut rng, self.burst_len.max(1.0) - 1.0);
            } else {
                now += exponential_gap(&mut rng, self.intra_gap_ns);
            }
            burst_remaining -= 1;

            let is_read = rng.gen_bool(self.read_ratio);
            let (kind, pages, page) = if is_read {
                let pages = read_sizes.sample(&mut rng);
                let page = if last_read_end.is_some() && rng.gen_bool(self.seq_read_prob) {
                    last_read_end.take().expect("just checked")
                } else {
                    let zipf = read_zipf.as_ref().expect("a read implies read_ratio > 0");
                    scatter.apply(zipf.sample(&mut rng) as u64)
                };
                let page = page.min(footprint_pages.saturating_sub(pages as u64));
                last_read_end = Some((page + pages as u64) % footprint_pages);
                (HostOpKind::Read, pages, page)
            } else {
                let pages = write_sizes.sample(&mut rng);
                let rank = write_zipf.sample(&mut rng) as u64;
                let page = if rng.gen_bool(self.rw_correlation) {
                    scatter.apply(rank) // update the read-hot set
                } else {
                    write_scatter.apply(rank)
                };
                let page = page.min(footprint_pages.saturating_sub(pages as u64));
                (HostOpKind::Write, pages, page)
            };
            records.push(HostOp {
                at: now,
                kind,
                lpn: page,
                pages,
            });
        }
        Trace {
            page_size: self.page_size,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        let a = spec.generate(10_000, 500);
        let b = spec.generate(10_000, 500);
        assert_eq!(a, b);
    }

    #[test]
    fn records_are_time_sorted_and_in_bounds() {
        let spec = WorkloadSpec::default();
        let t = spec.generate(5_000, 2_000);
        assert!(t.records.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(t.records.iter().all(|r| r.lpn + r.pages as u64 <= 5_000));
        assert_eq!(t.records.len(), 2_000);
    }

    #[test]
    fn read_ratio_is_respected() {
        let spec = WorkloadSpec {
            read_ratio: 0.8,
            ..WorkloadSpec::default()
        };
        let t = spec.generate(10_000, 20_000);
        let reads = t
            .records
            .iter()
            .filter(|r| r.kind == HostOpKind::Read)
            .count() as f64;
        let ratio = reads / t.records.len() as f64;
        assert!((ratio - 0.8).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn mean_read_size_tracks_spec() {
        let spec = WorkloadSpec {
            read_size_pages: 5.0,
            ..WorkloadSpec::default()
        };
        let t = spec.generate(50_000, 20_000);
        let (sum, n) = t
            .records
            .iter()
            .filter(|r| r.kind == HostOpKind::Read)
            .fold((0u64, 0u64), |(s, n), r| (s + r.pages as u64, n + 1));
        let mean = sum as f64 / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean read pages {mean}");
    }

    #[test]
    fn writes_concentrate_on_the_update_set() {
        // With a very skewed write distribution, a small set of pages
        // receives most updates.
        let spec = WorkloadSpec {
            read_ratio: 0.0,
            write_theta: 1.2,
            write_size_pages: 1.0,
            ..WorkloadSpec::default()
        };
        let t = spec.generate(10_000, 20_000);
        let mut counts = std::collections::HashMap::new();
        for r in &t.records {
            *counts.entry(r.lpn).or_insert(0u32) += 1;
        }
        let mut by_count: Vec<u32> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u32 = by_count.iter().take(100).sum();
        assert!(
            top100 as f64 / 20_000.0 > 0.3,
            "hot pages should dominate updates"
        );
    }

    #[test]
    #[should_panic(expected = "footprint")]
    fn zero_footprint_rejected() {
        let _ = WorkloadSpec::default().generate(0, 10);
    }
}
