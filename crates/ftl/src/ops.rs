//! Flash operation descriptors exchanged between the FTL and the
//! event-driven simulator.
//!
//! The FTL updates logical state eagerly and emits [`FlashOp`]s describing
//! the physical work; the simulator serializes them on dies and channels
//! and charges latency. Sense counts are captured at emission time so a
//! later remapping cannot retroactively change an in-flight operation.

use ida_flash::addr::{BlockAddr, DieAddr, PageAddr, PageType};

/// Scheduling class of an operation ("read-first scheduling", Table II):
/// host reads go ahead of everything else queued on a die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Host read — always served first.
    HostRead,
    /// Host write.
    HostWrite,
    /// Background work: GC and refresh traffic.
    Background,
}

/// Who an operation was emitted on behalf of — the interference class
/// latency attribution charges to requests queued behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOrigin {
    /// Direct host traffic (reads, host-write programs).
    Host,
    /// Garbage-collection relocation traffic.
    Gc,
    /// Data-refresh traffic (including IDA conversions).
    Refresh,
}

impl OpOrigin {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            OpOrigin::Host => "host",
            OpOrigin::Gc => "gc",
            OpOrigin::Refresh => "refresh",
        }
    }
}

/// The physical kind of a flash operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOpKind {
    /// Page read: `senses` wordline sensing operations followed by a
    /// channel transfer and ECC decode.
    Read {
        /// Number of sensing operations (depends on the page's coding).
        senses: u32,
    },
    /// Page program: channel transfer followed by ISPP programming.
    Program,
    /// Block erase.
    Erase,
    /// IDA voltage adjustment of one wordline (ISPP pass, no transfer).
    VoltageAdjust,
}

ida_snap::snap_enum!(Priority {
    0 => Priority::HostRead,
    1 => Priority::HostWrite,
    2 => Priority::Background,
});

ida_snap::snap_enum!(OpOrigin {
    0 => OpOrigin::Host,
    1 => OpOrigin::Gc,
    2 => OpOrigin::Refresh,
});

impl ida_snap::Snap for FlashOpKind {
    fn encode(&self, w: &mut ida_snap::Writer) {
        match self {
            FlashOpKind::Read { senses } => {
                0u8.encode(w);
                senses.encode(w);
            }
            FlashOpKind::Program => 1u8.encode(w),
            FlashOpKind::Erase => 2u8.encode(w),
            FlashOpKind::VoltageAdjust => 3u8.encode(w),
        }
    }
    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        match u8::decode(r)? {
            0 => Ok(FlashOpKind::Read {
                senses: u32::decode(r)?,
            }),
            1 => Ok(FlashOpKind::Program),
            2 => Ok(FlashOpKind::Erase),
            3 => Ok(FlashOpKind::VoltageAdjust),
            tag => Err(ida_snap::SnapError::new(format!(
                "bad FlashOpKind tag {tag}"
            ))),
        }
    }
}

/// One unit of physical flash work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlashOp {
    /// What to do.
    pub kind: FlashOpKind,
    /// The die that executes the array operation.
    pub die: DieAddr,
    /// The channel used for data transfer (reads/programs).
    pub channel: u32,
    /// The target block.
    pub block: BlockAddr,
    /// The target page for reads/programs (`None` for erase/adjust).
    pub page: Option<PageAddr>,
    /// Scheduling class.
    pub priority: Priority,
    /// Who emitted the op (attribution class for queued requests behind it).
    pub origin: OpOrigin,
}

ida_snap::snap_struct!(FlashOp {
    kind,
    die,
    channel,
    block,
    page,
    priority,
    origin,
});

/// The validity scenario a host read falls into — the categories of the
/// paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReadScenario {
    /// Read of the fastest page type; no optimization headroom.
    Lsb,
    /// CSB read while every lower page (the LSB) is valid.
    CsbLowerValid,
    /// CSB read while the LSB is invalid — IDA-eligible.
    CsbLowerInvalid,
    /// MSB (or QLC top) read while all lower pages are valid.
    MsbLowerValid,
    /// MSB (or QLC top) read while at least one lower page is invalid —
    /// IDA-eligible.
    MsbLowerInvalid,
    /// Read served from an IDA-coded wordline (already merged).
    IdaCoded,
}

impl ReadScenario {
    /// Stable snake_case label, used by trace events and JSON reports.
    pub fn label(self) -> &'static str {
        match self {
            ReadScenario::Lsb => "lsb",
            ReadScenario::CsbLowerValid => "csb_lower_valid",
            ReadScenario::CsbLowerInvalid => "csb_lower_invalid",
            ReadScenario::MsbLowerValid => "msb_lower_valid",
            ReadScenario::MsbLowerInvalid => "msb_lower_invalid",
            ReadScenario::IdaCoded => "ida_coded",
        }
    }
}

/// A translated host read: the physical page plus everything the simulator
/// needs to time and classify it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOp {
    /// Physical page to sense.
    pub page: PageAddr,
    /// The page's type within its wordline.
    pub page_type: PageType,
    /// Sensing operations needed under the wordline's *current* coding.
    pub senses: u32,
    /// The Figure 4 scenario this read falls into.
    pub scenario: ReadScenario,
    /// The die executing the sense.
    pub die: DieAddr,
    /// The channel carrying the transfer.
    pub channel: u32,
    /// Injected transient-fault retries this read must absorb (0 on the
    /// happy path); the simulator charges extra sensing plus controller
    /// backoff per attempt.
    pub fault_attempts: u32,
    /// Modeled raw bit error rate of the wordline at translation time
    /// (0.0 when aging is disarmed); drives the read-retry ladder.
    pub rber: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_orders_reads_first() {
        assert!(Priority::HostRead < Priority::HostWrite);
        assert!(Priority::HostWrite < Priority::Background);
    }
}
