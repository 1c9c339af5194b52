//! Flash operation timing.
//!
//! Simulation time is measured in nanoseconds ([`SimTime`]). The key
//! quantity the paper optimizes is the *memory-access* (sensing) latency of
//! a page read, which grows with the number of wordline sensing operations
//! the page's coding requires.
//!
//! The paper's Micron TLC part reads LSB/CSB/MSB (1/2/4 senses) in
//! 50/100/150 µs: latency is *not* linear in sense count — the device
//! overlaps part of the higher senses. We model it as the paper's Figure 9
//! sensitivity analysis does, through the per-step gap `ΔtR`:
//!
//! ```text
//! tR(n senses) = tR_base + round(ΔtR · log2 n)
//! ```
//!
//! which reproduces 50/100/150 µs for `tR_base = 50 µs, ΔtR = 50 µs` and the
//! MLC device's 65/115 µs for `tR_base = 65 µs, ΔtR = 50 µs`; a count
//! between two powers of two (the 3-sense CSB of the 2-3-2 TLC coding)
//! falls between their latencies on the same log2 curve.

/// Simulation time in nanoseconds.
pub type SimTime = u64;

/// Nanoseconds per microsecond, for readable timing constants.
pub const NS_PER_US: SimTime = 1_000;

/// Nanoseconds per millisecond.
pub const NS_PER_MS: SimTime = 1_000_000;

/// Per-operation flash timing parameters (paper Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashTiming {
    /// Sensing latency of a 1-sense page read (the LSB read), ns.
    pub read_base: SimTime,
    /// Additional latency per doubling of the sense count (`ΔtR`), ns. A
    /// read with `n` senses costs `read_base + round(delta_tr · log2 n)`
    /// ([`FlashTiming::read_latency`]).
    pub delta_tr: SimTime,
    /// Page program (ISPP) latency, ns.
    pub program: SimTime,
    /// Block erase latency, ns.
    pub erase: SimTime,
    /// Voltage-adjustment latency per wordline, ns. The paper argues it is
    /// about half an MSB program but conservatively charges a full program;
    /// we default to the conservative value.
    pub voltage_adjust: SimTime,
    /// Channel transfer time for one page, ns (333 MT/s ⇒ 48 µs / 8 KB).
    pub transfer: SimTime,
    /// ECC decode latency for one page, ns.
    pub ecc_decode: SimTime,
}

ida_snap::snap_struct!(FlashTiming {
    read_base,
    delta_tr,
    program,
    erase,
    voltage_adjust,
    transfer,
    ecc_decode,
});

impl FlashTiming {
    /// The paper's TLC timing (Table II): 50/100/150 µs reads, 2.3 ms
    /// program, 3 ms erase, 48 µs transfer, 20 µs ECC decode.
    pub fn paper_tlc() -> Self {
        FlashTiming {
            read_base: 50 * NS_PER_US,
            delta_tr: 50 * NS_PER_US,
            program: 2_300 * NS_PER_US,
            erase: 3 * NS_PER_MS,
            voltage_adjust: 2_300 * NS_PER_US,
            transfer: 48 * NS_PER_US,
            ecc_decode: 20 * NS_PER_US,
        }
    }

    /// The paper's MLC timing (Section V-G): 65 µs LSB, 115 µs MSB.
    pub fn paper_mlc() -> Self {
        FlashTiming {
            read_base: 65 * NS_PER_US,
            delta_tr: 50 * NS_PER_US,
            ..Self::paper_tlc()
        }
    }

    /// The paper timing with a different read-latency gap `ΔtR` (µs), for
    /// the Figure 9 sensitivity sweep.
    pub fn with_delta_tr_us(self, delta_us: u64) -> Self {
        FlashTiming {
            delta_tr: delta_us * NS_PER_US,
            ..self
        }
    }

    /// Memory-access (sensing) latency of a page read that performs
    /// `senses` wordline sensing operations: `read_base + ΔtR · log2
    /// senses`, rounded to the nearest nanosecond.
    ///
    /// At powers of two this is the device's step ladder: 1 sense → base,
    /// 2 → base+Δ, 4 → base+2Δ, 8 → base+3Δ. Other counts sit on the same
    /// log2 curve: 3 senses (the TLC 2-3-2 CSB) cost base+1.585Δ, which is
    /// 129,248 ns at the paper's TLC timing.
    ///
    /// # Panics
    ///
    /// Panics if `senses == 0`.
    pub fn read_latency(&self, senses: u32) -> SimTime {
        assert!(senses > 0, "a page read needs at least one sense");
        let log2 = (senses as f64).log2();
        self.read_base + (self.delta_tr as f64 * log2).round() as SimTime
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        Self::paper_tlc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `t.read_latency(n)` for n = 1..=8.
    fn ladder(t: FlashTiming) -> Vec<SimTime> {
        (1..=8).map(|n| t.read_latency(n)).collect()
    }

    #[test]
    fn tlc_read_latencies_match_table_ii() {
        // Table II's 50/100/150 µs at 1/2/4 senses; the other counts on
        // the same log2 curve.
        assert_eq!(
            ladder(FlashTiming::paper_tlc()),
            [50_000, 100_000, 129_248, 150_000, 166_096, 179_248, 190_368, 200_000]
        );
    }

    #[test]
    fn qlc_8_senses_extends_the_ladder() {
        let t = FlashTiming::paper_tlc();
        assert_eq!(t.read_latency(8), 200 * NS_PER_US);
    }

    #[test]
    fn mlc_read_latencies_match_section_v_g() {
        assert_eq!(
            ladder(FlashTiming::paper_mlc()),
            [65_000, 115_000, 144_248, 165_000, 181_096, 194_248, 205_368, 215_000]
        );
    }

    #[test]
    fn delta_tr_sweep_changes_gap_only() {
        assert_eq!(
            ladder(FlashTiming::paper_tlc().with_delta_tr_us(30)),
            [50_000, 80_000, 97_549, 110_000, 119_658, 127_549, 134_221, 140_000]
        );
    }

    #[test]
    fn three_senses_interpolates() {
        let t = FlashTiming::paper_tlc();
        let l3 = t.read_latency(3);
        assert!(l3 > t.read_latency(2) && l3 < t.read_latency(4));
    }

    #[test]
    #[should_panic(expected = "at least one sense")]
    fn zero_senses_rejected() {
        let _ = FlashTiming::paper_tlc().read_latency(0);
    }
}
