//! Run metrics: response-time statistics, the Figure 4 read breakdown,
//! throughput, and the JSON run report.

use ida_flash::timing::SimTime;
use ida_ftl::ReadScenario;
use ida_obs::gauge::GaugeSeries;
use ida_obs::hist::LogHistogram;
use ida_obs::json::{array, JsonObj};
use ida_obs::span::PhaseStats;

/// Response-time statistics for one operation class.
///
/// Backed by a fixed-memory log-bucketed histogram: memory stays constant
/// no matter how many requests a run completes, and percentile queries
/// walk the buckets (O(buckets)) instead of cloning and sorting a sample
/// vector. Count, sum, mean, min and max are exact; percentiles are
/// accurate to one bucket width (≈ 3 %).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    /// Number of completed requests.
    pub count: u64,
    /// Sum of response times (ns).
    pub total_ns: u128,
    hist: LogHistogram,
}

impl LatencyStats {
    /// Empty stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one response time.
    pub fn record(&mut self, ns: SimTime) {
        self.count += 1;
        self.total_ns += ns as u128;
        self.hist.record(ns);
    }

    /// Mean response time in ns (0 when empty). Exact.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Mean response time in µs. Exact.
    pub fn mean_us(&self) -> f64 {
        self.mean() / 1_000.0
    }

    /// Maximum recorded response time in ns (0 when empty). Exact.
    pub fn max(&self) -> u64 {
        self.hist.max()
    }

    /// The `p`-th percentile response time in ns (`0 <= p <= 100`).
    /// Accurate to one histogram bucket width (`p = 0` and `p = 100` are
    /// exact).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]` (including NaN).
    pub fn percentile(&self, p: f64) -> u64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        self.hist.percentile(p)
    }

    /// The underlying histogram (for serialization and merging).
    pub fn histogram(&self) -> &LogHistogram {
        &self.hist
    }

    /// Summary as a JSON object string (count, mean, percentiles, max).
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("count", self.count)
            .u128("total_ns", self.total_ns)
            .f64("mean_ns", self.mean())
            .u64(
                "p50_ns",
                if self.count == 0 {
                    0
                } else {
                    self.percentile(50.0)
                },
            )
            .u64(
                "p90_ns",
                if self.count == 0 {
                    0
                } else {
                    self.percentile(90.0)
                },
            )
            .u64(
                "p99_ns",
                if self.count == 0 {
                    0
                } else {
                    self.percentile(99.0)
                },
            )
            .u64(
                "p999_ns",
                if self.count == 0 {
                    0
                } else {
                    self.percentile(99.9)
                },
            )
            .u64("max_ns", self.max())
            .finish()
    }
}

/// Counts of host reads per validity scenario — the data behind Figure 4.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadBreakdown {
    /// LSB reads.
    pub lsb: u64,
    /// CSB reads with all lower pages valid.
    pub csb_lower_valid: u64,
    /// CSB reads with the LSB invalid.
    pub csb_lower_invalid: u64,
    /// MSB reads with all lower pages valid.
    pub msb_lower_valid: u64,
    /// MSB reads with some lower page invalid.
    pub msb_lower_invalid: u64,
    /// Reads served from IDA-coded wordlines.
    pub ida: u64,
}

impl ReadBreakdown {
    /// Record one classified read.
    pub fn record(&mut self, scenario: ReadScenario) {
        match scenario {
            ReadScenario::Lsb => self.lsb += 1,
            ReadScenario::CsbLowerValid => self.csb_lower_valid += 1,
            ReadScenario::CsbLowerInvalid => self.csb_lower_invalid += 1,
            ReadScenario::MsbLowerValid => self.msb_lower_valid += 1,
            ReadScenario::MsbLowerInvalid => self.msb_lower_invalid += 1,
            ReadScenario::IdaCoded => self.ida += 1,
        }
    }

    /// The count recorded for `scenario`.
    pub fn count_for(&self, scenario: ReadScenario) -> u64 {
        match scenario {
            ReadScenario::Lsb => self.lsb,
            ReadScenario::CsbLowerValid => self.csb_lower_valid,
            ReadScenario::CsbLowerInvalid => self.csb_lower_invalid,
            ReadScenario::MsbLowerValid => self.msb_lower_valid,
            ReadScenario::MsbLowerInvalid => self.msb_lower_invalid,
            ReadScenario::IdaCoded => self.ida,
        }
    }

    /// Total classified reads.
    pub fn total(&self) -> u64 {
        self.lsb
            + self.csb_lower_valid
            + self.csb_lower_invalid
            + self.msb_lower_valid
            + self.msb_lower_invalid
            + self.ida
    }

    /// Fraction of CSB reads whose LSB is invalid (the paper's 18 %
    /// average), ignoring IDA-coded reads.
    pub fn csb_invalid_fraction(&self) -> f64 {
        let csb = self.csb_lower_valid + self.csb_lower_invalid;
        if csb == 0 {
            0.0
        } else {
            self.csb_lower_invalid as f64 / csb as f64
        }
    }

    /// Fraction of MSB reads whose LSB and/or CSB is invalid (the paper's
    /// 30 % average), ignoring IDA-coded reads.
    pub fn msb_invalid_fraction(&self) -> f64 {
        let msb = self.msb_lower_valid + self.msb_lower_invalid;
        if msb == 0 {
            0.0
        } else {
            self.msb_lower_invalid as f64 / msb as f64
        }
    }

    /// Counts as a JSON object string.
    pub fn to_json(&self) -> String {
        JsonObj::new()
            .u64("lsb", self.lsb)
            .u64("csb_lower_valid", self.csb_lower_valid)
            .u64("csb_lower_invalid", self.csb_lower_invalid)
            .u64("msb_lower_valid", self.msb_lower_valid)
            .u64("msb_lower_invalid", self.msb_lower_invalid)
            .u64("ida", self.ida)
            .finish()
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Host read response times.
    pub reads: LatencyStats,
    /// Host write response times.
    pub writes: LatencyStats,
    /// Read classification (Figure 4).
    pub breakdown: ReadBreakdown,
    /// First host arrival (ns).
    pub first_arrival: SimTime,
    /// Last host completion (ns).
    pub last_completion: SimTime,
    /// Host bytes read.
    pub bytes_read: u64,
    /// Host bytes written.
    pub bytes_written: u64,
    /// FTL statistics snapshot at end of run.
    pub ftl: ida_ftl::FtlStats,
    /// Blocks not free at the end of the run (Section III-C tracks the
    /// in-use block increase caused by IDA coding).
    pub in_use_blocks: u32,
    /// Simulation events popped off the event queue during the run — the
    /// deterministic work count behind the benchmark suite's events/sec.
    pub events_processed: u64,
    /// Flash operations (reads, programs, erases, voltage adjustments)
    /// enqueued to dies during the run.
    pub flash_ops: u64,
    /// Time-series gauges sampled during the run (empty unless gauge
    /// sampling was enabled on the simulator).
    pub gauges: Vec<GaugeSeries>,
    /// Per-phase latency attribution for reads (empty unless spans were
    /// enabled; see `Simulator::set_spans`). Under the conservation
    /// invariant its grand total equals `reads.total_ns` exactly.
    pub read_attribution: PhaseStats,
    /// Per-phase latency attribution for writes.
    pub write_attribution: PhaseStats,
    /// Busy (held) nanoseconds per die over the run — the exact union of
    /// read/program/erase hold windows plus recovery stalls.
    pub die_busy_ns: Vec<u128>,
    /// Busy nanoseconds per channel over the run.
    pub channel_busy_ns: Vec<u128>,
}

impl Report {
    /// Device throughput over the run's makespan, in MB/s (decimal
    /// megabytes, 10^6 bytes — the storage-industry convention the paper
    /// uses). See [`Report::throughput_mibps`] for the binary unit.
    pub fn throughput_mbps(&self) -> f64 {
        let span = self.last_completion.saturating_sub(self.first_arrival);
        if span == 0 {
            return 0.0;
        }
        let bytes = (self.bytes_read + self.bytes_written) as f64;
        bytes / (span as f64 / 1e9) / 1e6
    }

    /// Device throughput over the run's makespan, in MiB/s (binary
    /// mebibytes, 2^20 bytes).
    pub fn throughput_mibps(&self) -> f64 {
        let span = self.last_completion.saturating_sub(self.first_arrival);
        if span == 0 {
            return 0.0;
        }
        let bytes = (self.bytes_read + self.bytes_written) as f64;
        bytes / (span as f64 / 1e9) / (1u64 << 20) as f64
    }

    /// The run's makespan in ns (last completion minus first arrival).
    pub fn duration_ns(&self) -> u64 {
        self.last_completion.saturating_sub(self.first_arrival)
    }

    /// The attribution waterfalls as one deterministic JSON object
    /// (`{"reads":…,"writes":…}`), byte-identical whether built in-sim or
    /// replayed from a trace by `idasim trace`.
    pub fn attribution_json(&self) -> String {
        JsonObj::new()
            .raw("reads", &self.read_attribution.to_json())
            .raw("writes", &self.write_attribution.to_json())
            .finish()
    }

    /// The full report as one deterministic JSON object string: latency
    /// histogram summaries, the Figure 4 breakdown, FTL counter
    /// snapshots, throughput, and any sampled gauge series.
    pub fn to_json(&self) -> String {
        let f = &self.ftl;
        let counters = JsonObj::new()
            .u64("host_writes", f.host_writes)
            .u64("host_reads", f.host_reads)
            .u64("gc_runs", f.gc_runs)
            .u64("gc_copies", f.gc_copies)
            .u64("erases", f.erases)
            .u64("refreshes", f.refreshes)
            .u64("refresh_moves", f.refresh_moves)
            .u64("voltage_adjusts", f.voltage_adjusts)
            .u64("ida_conversions", f.ida_conversions)
            .u64("ida_reads", f.ida_reads)
            .f64("write_amplification", f.write_amplification())
            .finish();
        let faults = JsonObj::new()
            .u64("injected_program_fails", f.injected_program_fails)
            .u64("injected_erase_fails", f.injected_erase_fails)
            .u64("transient_read_faults", f.transient_read_faults)
            .u64("write_redirects", f.write_redirects)
            .u64("retired_blocks", f.retired_blocks)
            .u64("power_losses", f.power_losses)
            .u64("recoveries", f.recoveries)
            .u64("rejected_writes", f.rejected_writes)
            .finish();
        let aging = JsonObj::new()
            .u64("scrub_passes", f.scrub_passes)
            .u64("scrub_relocations", f.scrub_relocations)
            .u64("wear_level_moves", f.wear_level_moves)
            .u64("ecc_uncorrectables", f.ecc_uncorrectables)
            .u64("ladder_retries", f.ladder_retries)
            .u64("rber_e9_sum", f.rber_e9_sum)
            .finish();
        JsonObj::new()
            .raw("reads", &self.reads.to_json())
            .raw("writes", &self.writes.to_json())
            .raw("breakdown", &self.breakdown.to_json())
            .u64("first_arrival_ns", self.first_arrival)
            .u64("last_completion_ns", self.last_completion)
            .u64("bytes_read", self.bytes_read)
            .u64("bytes_written", self.bytes_written)
            .f64("throughput_mbps", self.throughput_mbps())
            .f64("throughput_mibps", self.throughput_mibps())
            .raw("ftl", &counters)
            .raw("faults", &faults)
            .raw("aging", &aging)
            .u64("in_use_blocks", self.in_use_blocks as u64)
            .u64("events_processed", self.events_processed)
            .u64("flash_ops", self.flash_ops)
            .raw("attribution", &self.attribution_json())
            .raw(
                "die_busy_ns",
                &array(self.die_busy_ns.iter().map(|b| b.to_string())),
            )
            .raw(
                "channel_busy_ns",
                &array(self.channel_busy_ns.iter().map(|b| b.to_string())),
            )
            .raw("gauges", &array(self.gauges.iter().map(|g| g.to_json())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_mode_percentiles_are_bucket_accurate() {
        let mut s = LatencyStats::default();
        for v in [100u64, 200, 300, 400] {
            s.record(v);
        }
        assert_eq!(s.mean(), 250.0);
        assert_eq!(s.percentile(100.0), 400);
        let p50 = s.percentile(50.0);
        let width = LogHistogram::width_of(200);
        assert!(p50.abs_diff(200) <= width, "p50 {p50} vs 200 ± {width}");
    }

    #[test]
    fn empty_latency_stats_are_zero() {
        let s = LatencyStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(0.0), 0);
        assert_eq!(s.percentile(50.0), 0);
        assert_eq!(s.percentile(100.0), 0);
        assert_eq!(s.max(), 0);
    }

    #[test]
    fn single_sample_percentile_edges() {
        let mut s = LatencyStats::default();
        s.record(77_000);
        assert_eq!(s.percentile(0.0), 77_000);
        assert_eq!(s.percentile(50.0), 77_000);
        assert_eq!(s.percentile(100.0), 77_000);
    }

    #[test]
    fn histogram_memory_is_flat() {
        // The histogram path must not keep per-sample state: record a
        // large stream and check only the aggregate fields changed.
        let mut s = LatencyStats::default();
        for i in 0..1_000_000u64 {
            s.record(i % 1_000_000);
        }
        assert_eq!(s.count, 1_000_000);
        let p99 = s.percentile(99.0);
        assert!(p99.abs_diff(990_000) <= LogHistogram::width_of(990_000));
    }

    #[test]
    fn breakdown_fractions_match_counts() {
        let mut b = ReadBreakdown::default();
        for _ in 0..82 {
            b.record(ReadScenario::CsbLowerValid);
        }
        for _ in 0..18 {
            b.record(ReadScenario::CsbLowerInvalid);
        }
        for _ in 0..70 {
            b.record(ReadScenario::MsbLowerValid);
        }
        for _ in 0..30 {
            b.record(ReadScenario::MsbLowerInvalid);
        }
        assert!((b.csb_invalid_fraction() - 0.18).abs() < 1e-9);
        assert!((b.msb_invalid_fraction() - 0.30).abs() < 1e-9);
        assert_eq!(b.total(), 200);
        assert_eq!(b.count_for(ReadScenario::CsbLowerInvalid), 18);
    }

    #[test]
    fn throughput_uses_makespan() {
        let report = Report {
            bytes_read: 1_000_000,
            bytes_written: 0,
            first_arrival: 0,
            last_completion: 1_000_000_000, // 1 s
            ..Report::default()
        };
        assert!((report.throughput_mbps() - 1.0).abs() < 1e-9);
        // MiB/s is smaller by exactly 10^6 / 2^20.
        let ratio = report.throughput_mibps() / report.throughput_mbps();
        assert!((ratio - 1e6 / (1u64 << 20) as f64).abs() < 1e-12);
    }

    #[test]
    fn report_json_is_deterministic_and_complete() {
        let mut report = Report::default();
        report.reads.record(118_000);
        report.writes.record(2_348_000);
        report.breakdown.record(ReadScenario::Lsb);
        report.bytes_read = 4096;
        report.first_arrival = 0;
        report.last_completion = 118_000;
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b, "serialization must be deterministic");
        for key in [
            "\"reads\":",
            "\"writes\":",
            "\"breakdown\":",
            "\"p99_ns\":",
            "\"throughput_mbps\":",
            "\"throughput_mibps\":",
            "\"ftl\":",
            "\"gauges\":",
            "\"gc_runs\":",
        ] {
            assert!(a.contains(key), "missing {key} in {a}");
        }
    }
}
