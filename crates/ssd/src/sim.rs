//! The event-driven simulation engine.

use crate::config::SsdConfig;
use crate::event::EventQueue;
use crate::metrics::Report;
use crate::request::{HostOp, HostOpKind, PendingRequest, SlotTable};
use crate::retry::{ReadLadder, RetryModel};
use crate::source::{ArrivalSource, Pull, SourcedOp};
use ida_faults::{AgingConfig, FaultConfig};
use ida_flash::addr::BlockAddr;
use ida_flash::timing::{FlashTiming, SimTime};
use ida_ftl::block::BlockState;
use ida_ftl::{FlashOp, FlashOpKind, Ftl, FtlError, Lpn, OpOrigin, Priority};
use ida_obs::gauge::GaugeSet;
use ida_obs::progress::Progress;
use ida_obs::span::{Phase, PhaseNs, ALL_PHASES, QUEUE_CLASSES};
use ida_obs::trace::{SinkHandle, TraceEvent};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Queue-interference class of an op's origin: the index into
/// [`SimOp::charges`] and the leading [`QUEUE_CLASSES`] phases
/// (positions pinned by `ida_obs::span` tests).
fn queue_class(origin: OpOrigin) -> u8 {
    match origin {
        OpOrigin::Host => 0,    // Phase::QueueHost
        OpOrigin::Gc => 1,      // Phase::QueueGc
        OpOrigin::Refresh => 2, // Phase::QueueRefresh
    }
}

/// Charge class for power-loss recovery stalls ([`Phase::Recovery`]).
const RECOVERY_CLASS: u8 = 3;

/// A run rejected before (or while) simulating — the typed alternative to
/// the panic in [`Simulator::run`], for user-supplied traces reaching the
/// simulator through the CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The trace is not sorted by arrival time: entry `index` arrives at
    /// `at`, earlier than its predecessor's `prev`.
    UnsortedTrace {
        /// Index of the offending trace entry.
        index: usize,
        /// Its arrival offset.
        at: SimTime,
        /// The (later) arrival offset of the entry before it.
        prev: SimTime,
    },
    /// An [`ArrivalSource`] reported [`Pull::Blocked`] with no request in
    /// flight: no completion can ever unblock it.
    StalledSource,
    /// A closed-loop run was requested with a zero queue depth: no
    /// request could ever be admitted.
    ZeroQueueDepth,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::UnsortedTrace { index, at, prev } => write!(
                f,
                "trace not sorted by arrival time: entry {index} arrives at \
                 {at} ns, before the previous entry's {prev} ns"
            ),
            SimError::StalledSource => write!(
                f,
                "arrival source blocked with no request in flight (deadlock)"
            ),
            SimError::ZeroQueueDepth => {
                write!(f, "closed-loop queue depth must be positive")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// An operation queued on a die, with its request linkage and sampled
/// retry count.
#[derive(Debug, Clone, Copy)]
struct SimOp {
    op: FlashOp,
    /// The slot of the host request the op serves, if any.
    req: Option<usize>,
    retries: u32,
    /// Injected transient-fault retries (reads only): each one re-senses
    /// the wordline on top of the `retries` charged by the retry model.
    fault_attempts: u32,
    /// Controller backoff between transient-fault retries, charged off the
    /// critical resource (like ECC decode).
    fault_backoff: SimTime,
    /// When the op entered its die queue (the request's arrival for host
    /// ops — spans partition `[enqueued_at, completion]`).
    enqueued_at: SimTime,
    /// Attribution watermark: queue wait is charged up to this instant,
    /// so overlapping holds never double-count.
    charged_until: SimTime,
    /// Queue wait charged per interference class (spans enabled only).
    charges: [u64; QUEUE_CLASSES],
}

impl SimOp {
    /// Charge the wait interval `[from, until]` to queue class `class`,
    /// clipped against the watermark of what was already charged.
    fn charge(&mut self, class: u8, from: SimTime, until: SimTime) {
        let from = from.max(self.charged_until);
        if until > from {
            self.charges[class as usize] += until - from;
            self.charged_until = until;
        }
    }
}

/// Per-die scheduler state: one queue per priority class.
///
/// Two occupancy tracks model program/erase *suspension* (read-first
/// scheduling): reads serialize on `read_free_at` only — an in-flight
/// program yields its array to an arriving read — while programs, erases
/// and voltage adjustments wait for both tracks.
#[derive(Debug, Clone, Default)]
struct DieState {
    /// When the sensing path is next free (reads gate on this alone).
    read_free_at: SimTime,
    /// When the program/erase path is next free.
    other_free_at: SimTime,
    /// Earliest already-scheduled wake-up, to avoid event storms.
    wake_at: Option<SimTime>,
    /// Whether this die is in [`Simulator::dirty_dies`] (work enqueued
    /// since the last scheduling pass).
    dirty: bool,
    /// Queue class of whoever last extended `read_free_at` (attribution).
    read_hold: u8,
    /// Queue class of whoever last extended `other_free_at` (attribution).
    other_hold: u8,
    /// Busy-time coverage mark: hold windows all open at the (monotone)
    /// current instant, so time past this mark is newly busy — giving the
    /// exact union of overlapping read/program holds for utilization.
    busy_until: SimTime,
    queues: [VecDeque<SimOp>; 3],
}

impl DieState {
    fn enqueue(&mut self, op: SimOp) {
        let q = match op.op.priority {
            Priority::HostRead => 0,
            Priority::HostWrite => 1,
            Priority::Background => 2,
        };
        self.queues[q].push_back(op);
    }

    /// Peek the next op in priority order.
    fn peek(&self) -> Option<&SimOp> {
        self.queues.iter().find_map(|q| q.front())
    }

    fn dequeue(&mut self) -> Option<SimOp> {
        self.queues.iter_mut().find_map(|q| q.pop_front())
    }

    fn pending(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }
}

ida_snap::snap_struct!(SimOp {
    op,
    req,
    retries,
    fault_attempts,
    fault_backoff,
    enqueued_at,
    charged_until,
    charges,
});

ida_snap::snap_struct!(DieState {
    read_free_at,
    other_free_at,
    wake_at,
    dirty,
    read_hold,
    other_hold,
    busy_until,
    queues,
});

/// Sense latency by sense count: [`FlashTiming::read_latency`] of every
/// count a page of up to four bits per cell can need (1..=15), computed
/// once per timing so a read start costs a table load, not an `f64`
/// log2. Derived from the timing in force, it stays out of the image and
/// is rebuilt wherever the timing is set.
#[derive(Debug, Clone, Copy)]
struct SenseTable([SimTime; 16]);

impl SenseTable {
    fn new(t: &FlashTiming) -> Self {
        SenseTable(std::array::from_fn(|n| match n {
            0 => 0,
            n => t.read_latency(n as u32),
        }))
    }

    /// `t.read_latency(senses)`, for the `t` the table was built from. A
    /// count outside the table, or 0, takes the computed path (and its
    /// panic).
    fn get(&self, t: &FlashTiming, senses: u32) -> SimTime {
        match self.0.get(senses as usize) {
            Some(&ns) if senses > 0 => ns,
            _ => t.read_latency(senses),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    /// The op in [`Arrivals::next`] arrives. At most one is pending, so
    /// it waits in the queue's slot ([`EventQueue::push_slot`]), not on
    /// the heap.
    Arrival,
    /// A die's array/register became free; try to start its next op.
    DieFree(u32),
    /// A host-linked flash op completed end-to-end: the slot of its
    /// request in the run's request table.
    OpDone(usize),
    /// Wake up to run due refreshes.
    RefreshWake,
}

/// The arrival side of one run: the op pulled one ahead, whose
/// [`Ev::Arrival`] is queued, and whether the source is drained. At most
/// one arrival is queued at a time, so the source sees every completion
/// before it is asked for the op after next.
struct Arrivals {
    /// The run's base clock: source times are offsets from it.
    base: SimTime,
    next: Option<SourcedOp>,
    done: bool,
}

impl Arrivals {
    /// Pull the source's next op and queue its arrival (a past one clamps
    /// to `now`), unless an op already waits or the source is done.
    /// `Blocked` is a stall unless a request in flight can unblock it.
    fn pull(
        &mut self,
        source: &mut dyn ArrivalSource,
        events: &mut EventQueue<Ev>,
        now: SimTime,
        in_flight: bool,
    ) -> Result<(), SimError> {
        if self.next.is_some() || self.done {
            return Ok(());
        }
        match source.next(now - self.base) {
            Pull::Op(sop) => {
                events.push_slot((self.base + sop.op.at).max(now), Ev::Arrival);
                self.next = Some(sop);
            }
            Pull::Blocked if !in_flight => return Err(SimError::StalledSource),
            Pull::Blocked => {}
            Pull::Done => self.done = true,
        }
        Ok(())
    }
}

/// The SSD simulator. Owns the FTL; state (mapping, wear, IDA blocks)
/// persists across [`Simulator::run`] calls so experiments can warm up
/// (prefill + age + steady-state refresh) and then measure.
#[derive(Debug)]
pub struct Simulator {
    cfg: SsdConfig,
    ftl: Ftl,
    retry: RetryModel,
    /// The RBER-driven read-retry ladder, armed with the aging model
    /// (`None` while aging is off — reads take the flat [`RetryModel`]
    /// draw only).
    ladder: Option<ReadLadder>,
    /// Sense latencies of `cfg.timing` (derived; not in the image).
    sense: SenseTable,
    dies: Vec<DieState>,
    channels: Vec<SimTime>,
    /// Base simulation time: measured runs start where warmup ended.
    clock: SimTime,
    /// Trace sink handle (shared with the FTL). Null by default.
    trace: SinkHandle,
    /// Time-series gauge sampler. Disabled by default.
    gauges: GaugeSet,
    /// Whether runs report progress on stderr.
    progress: bool,
    /// Cumulative flash ops enqueued to dies (runs report the delta).
    flash_ops: u64,
    /// Ops currently queued across all dies (enqueued, not yet started);
    /// lets gauge sampling skip the per-die queue walk.
    queued_ops: u64,
    /// Dies with work enqueued since the last scheduling pass
    /// (deduplicated through [`DieState::dirty`]).
    dirty_dies: Vec<u32>,
    /// Min-heap mirror of every scheduled die wake-up `(wake_at, die)`.
    /// Entries whose time no longer matches the die's `wake_at` are stale
    /// and dropped on pop. Persists across runs: a run's event queue dies
    /// with it, so leftover queued work re-enters scheduling through the
    /// heap in the next run.
    wake_heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    /// Whether per-request attribution spans are recorded. Off by default:
    /// the disabled path allocates nothing and skips all charging.
    spans: bool,
    /// Cumulative busy (held) nanoseconds per die; runs report the delta.
    die_busy: Vec<u128>,
    /// Cumulative busy nanoseconds per channel; runs report the delta.
    channel_busy: Vec<u128>,
    /// The read ops of the request being issued, reused across requests
    /// (always empty between requests; not in the image).
    read_ops: Vec<(FlashOp, u32, u32)>,
}

// Snapshot payload: every field that influences future simulation,
// verbatim — including live RNG streams, die/channel occupancy and
// leftover queued work. Excluded as process-local observers: the trace
// sink (restored null), the gauge sampler (restored disabled) and the
// stderr progress flag (restored off); callers re-attach observability
// after restore exactly as they would after `Simulator::new`. Excluded as
// process-local working state: the sense table (rebuilt from the timing) and
// the read-op buffer (empty between requests).
impl ida_snap::Snap for Simulator {
    fn encode(&self, w: &mut ida_snap::Writer) {
        self.cfg.encode(w);
        self.ftl.encode(w);
        self.retry.encode(w);
        self.ladder.encode(w);
        self.dies.encode(w);
        self.channels.encode(w);
        self.clock.encode(w);
        self.flash_ops.encode(w);
        self.queued_ops.encode(w);
        self.dirty_dies.encode(w);
        // The wake heap's internal layout depends on insertion history;
        // its *multiset* of (time, die) entries — a total order, so the
        // pop sequence is fully determined — travels as a sorted vec.
        let mut wakes: Vec<(SimTime, u32)> = self.wake_heap.iter().map(|Reverse(e)| *e).collect();
        wakes.sort_unstable();
        wakes.encode(w);
        self.spans.encode(w);
        self.die_busy.encode(w);
        self.channel_busy.encode(w);
    }

    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        let cfg = SsdConfig::decode(r)?;
        let ftl = Ftl::decode(r)?;
        let retry = RetryModel::decode(r)?;
        let ladder = Option::decode(r)?;
        let dies = Vec::decode(r)?;
        let channels = Vec::decode(r)?;
        let clock = SimTime::decode(r)?;
        let flash_ops = u64::decode(r)?;
        let queued_ops = u64::decode(r)?;
        let dirty_dies = Vec::decode(r)?;
        let wakes: Vec<(SimTime, u32)> = Vec::decode(r)?;
        let spans = bool::decode(r)?;
        let die_busy = Vec::decode(r)?;
        let channel_busy = Vec::decode(r)?;
        Ok(Simulator {
            sense: SenseTable::new(&cfg.timing),
            cfg,
            ftl,
            retry,
            ladder,
            dies,
            channels,
            clock,
            trace: SinkHandle::null(),
            gauges: GaugeSet::disabled(),
            progress: false,
            flash_ops,
            queued_ops,
            dirty_dies,
            wake_heap: wakes.into_iter().map(Reverse).collect(),
            spans,
            die_busy,
            channel_busy,
            read_ops: Vec::new(),
        })
    }
}

impl Simulator {
    /// Build a simulator over an empty SSD.
    pub fn new(cfg: SsdConfig) -> Self {
        let g = cfg.ftl.geometry;
        Simulator {
            ftl: Ftl::new(cfg.ftl.clone()),
            retry: RetryModel::new(cfg.retry),
            ladder: (cfg.ftl.aging.is_active() && cfg.ftl.aging.ladder_depth > 0).then(|| {
                ReadLadder::new(
                    cfg.ftl.aging.ladder_gain,
                    cfg.ftl.aging.ladder_depth,
                    cfg.ftl.aging.seed,
                )
            }),
            sense: SenseTable::new(&cfg.timing),
            dies: (0..g.total_dies()).map(|_| DieState::default()).collect(),
            channels: vec![0; g.channels as usize],
            cfg,
            clock: 0,
            trace: SinkHandle::null(),
            gauges: GaugeSet::disabled(),
            progress: false,
            flash_ops: 0,
            queued_ops: 0,
            dirty_dies: Vec::new(),
            wake_heap: BinaryHeap::new(),
            spans: false,
            die_busy: vec![0; g.total_dies() as usize],
            channel_busy: vec![0; g.channels as usize],
            read_ops: Vec::new(),
        }
    }

    /// Serialize the complete mutable simulation state into a framed,
    /// deterministic byte blob. A simulator restored from it with
    /// [`Simulator::from_snapshot`] continues bit-for-bit identically to
    /// this one (reports, traces and RNG draws included), which is what
    /// lets the sweep engine run one warm-up and fork every dependent
    /// cell from the cached bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        // Size the image up front so it is written once and sealed in
        // place: the dense per-page tables (map and OOB: 20 bytes a page)
        // and per-wordline tables (7 bytes) dominate it, and the per-block
        // records and queues fit in the rest.
        let g = self.cfg.ftl.geometry;
        let per_block = u64::from(g.wordlines_per_block) * 7 + 128;
        let capacity = g.total_pages() * 20 + u64::from(g.total_blocks()) * per_block + (1 << 20);
        let mut w = ida_snap::Writer::framed(capacity as usize);
        ida_snap::Snap::encode(self, &mut w);
        ida_snap::frame::seal_writer(w)
    }

    /// Rebuild a simulator from [`Simulator::snapshot`] bytes. The frame
    /// is verified (magic, version, length, content hash) before decode,
    /// so a corrupt or stale snapshot fails loudly instead of restoring
    /// silently wrong state. Observability (trace sink, gauges, progress)
    /// is reset to off — re-attach after restore as after `new`.
    pub fn from_snapshot(bytes: &[u8]) -> Result<Self, ida_snap::SnapError> {
        let (_, payload) = ida_snap::frame::open(bytes)?;
        ida_snap::Snap::from_snap_bytes(payload)
    }

    /// The in-memory twin of `Simulator::from_snapshot(&self.snapshot())`:
    /// a copy that continues bit-for-bit like this one, its observers reset
    /// as a restore resets them (null sink here and in the FTL, gauges and
    /// progress off).
    pub fn fork(&self) -> Self {
        let mut ftl = self.ftl.clone();
        ftl.set_trace(SinkHandle::null());
        Simulator {
            cfg: self.cfg.clone(),
            ftl,
            retry: self.retry.clone(),
            ladder: self.ladder.clone(),
            dies: self.dies.clone(),
            channels: self.channels.clone(),
            trace: SinkHandle::null(),
            gauges: GaugeSet::disabled(),
            progress: false,
            dirty_dies: self.dirty_dies.clone(),
            wake_heap: self.wake_heap.clone(),
            die_busy: self.die_busy.clone(),
            channel_busy: self.channel_busy.clone(),
            read_ops: Vec::new(),
            // The sense table, clock, op counters and span flag.
            ..*self
        }
    }

    /// Attach a trace sink. The handle is shared with the FTL, so FTL
    /// events (GC, refresh, IDA conversion) and simulator events (host
    /// traffic, flash ops) interleave into one stream. Attach before any
    /// warmup if trace counters must match end-of-run [`ida_ftl::FtlStats`].
    pub fn set_trace(&mut self, trace: SinkHandle) {
        self.ftl.set_trace(trace.clone());
        self.trace = trace;
    }

    /// A handle onto the attached trace sink (the null handle when no
    /// sink is attached), so host-side layers can interleave their own
    /// events — admission sheds, SLO verdicts — into the same stream.
    pub fn trace_handle(&self) -> SinkHandle {
        self.trace.clone()
    }

    /// Flush the attached trace sink (no-op for the null sink).
    pub fn flush_trace(&self) -> std::io::Result<()> {
        self.trace.flush()
    }

    /// Attach a gauge sampler; queue depth, in-use blocks and adjusted
    /// wordlines are sampled on its interval during timed runs, and the
    /// collected series are drained into each run's [`Report::gauges`].
    pub fn set_gauges(&mut self, gauges: GaugeSet) {
        self.gauges = gauges;
    }

    /// Enable or disable stderr progress reporting for timed runs.
    pub fn set_progress(&mut self, on: bool) {
        self.progress = on;
    }

    /// Enable per-request latency attribution spans: every completed host
    /// request gets a phase waterfall that partitions `[issue, complete]`
    /// exactly, aggregated into [`Report::read_attribution`] /
    /// [`Report::write_attribution`] (and emitted as `span` trace events
    /// when a sink is attached). Off by default — the disabled path does
    /// no charging and no allocation, so timed runs cost the same as
    /// before the feature existed.
    pub fn set_spans(&mut self, on: bool) {
        self.spans = on;
    }

    /// The configuration in force.
    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// The underlying FTL (for inspection in tests and experiments).
    pub fn ftl(&self) -> &Ftl {
        &self.ftl
    }

    /// The current simulation clock (advances across runs).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Warm-up: write `lpns` logically (no timing, no metrics), e.g. to
    /// pre-fill the workload's footprint.
    pub fn prefill(&mut self, lpns: impl IntoIterator<Item = u64>) {
        let now = self.clock;
        for lpn in lpns {
            self.warmup_write(Lpn(lpn), now);
        }
    }

    /// Warm-up: apply the write traffic of `trace` logically (reads are
    /// skipped, timestamps ignored). Establishes the invalidation pattern
    /// without charging time.
    pub fn age(&mut self, trace: &[HostOp]) {
        let now = self.clock;
        for op in trace {
            if op.kind == HostOpKind::Write {
                for lpn in op.lpns() {
                    self.warmup_write(Lpn(lpn), now);
                }
            }
        }
    }

    /// One untimed warm-up write. Experiments normally arm faults *after*
    /// warm-up, but if a power loss does strike here the device recovers
    /// (untimed) and the write is retried once; read-only rejections are
    /// dropped.
    fn warmup_write(&mut self, lpn: Lpn, now: SimTime) {
        if self.ftl.write_untimed(lpn, now) == Err(FtlError::PowerLoss) {
            // Untimed recovery: warm-up charges no latency anywhere.
            self.ftl.recover(now);
            let _ = self.ftl.write_untimed(lpn, now);
        }
    }

    /// Arm (or replace) the fault plan in force. Sweeps call this after
    /// warm-up so injected faults land only in the measured window.
    pub fn arm_faults(&mut self, faults: FaultConfig) {
        self.cfg.ftl.faults = faults.clone();
        self.ftl.arm_faults(faults);
    }

    /// Arm every field of `cfg` outside its warm view
    /// ([`SsdConfig::warm_view`]) on a simulator warmed under the same
    /// view: the timing, a freshly seeded retry model and, where it
    /// differs, the refresh policy ([`Ftl::arm_refresh`]). The warm-up
    /// reads none of them, so the result byte-equals a simulator built
    /// under `cfg` and driven the same way, and one warm image forks into
    /// every cell whose view it matches.
    ///
    /// # Panics
    ///
    /// After a timed run (its reads drew retries under the old model), or
    /// on another refresh policy once any block has been refreshed.
    pub fn arm(&mut self, cfg: &SsdConfig) {
        assert_eq!(
            self.flash_ops, 0,
            "arm after a timed run: the timing and retry model in force already shaped the device"
        );
        let f = &cfg.ftl;
        let policy = |c: &ida_ftl::FtlConfig| (c.refresh_mode, c.adjust_error_rate, c.seed);
        if policy(&self.cfg.ftl) != policy(f) {
            self.ftl
                .arm_refresh(f.refresh_mode, f.adjust_error_rate, f.seed);
            self.cfg.ftl.refresh_mode = f.refresh_mode;
            self.cfg.ftl.adjust_error_rate = f.adjust_error_rate;
            self.cfg.ftl.seed = f.seed;
        }
        self.cfg.timing = cfg.timing;
        self.sense = SenseTable::new(&cfg.timing);
        self.cfg.retry = cfg.retry;
        self.retry = RetryModel::new(cfg.retry);
    }

    /// Arm (or replace) the device-aging model: the FTL starts charging
    /// read-disturb counters and stamping RBER, the retry ladder replaces
    /// the flat draw, and the first patrol-scrub pass is scheduled one
    /// period from now. Soak runs arm aging *after* warm-up so the warmed
    /// population is byte-identical to an aging-free run.
    pub fn arm_aging(&mut self, aging: AgingConfig) {
        self.ladder = (aging.is_active() && aging.ladder_depth > 0)
            .then(|| ReadLadder::new(aging.ladder_gain, aging.ladder_depth, aging.seed));
        self.cfg.ftl.aging = aging.clone();
        self.ftl.arm_aging(aging, self.clock);
    }

    /// Apply `cycles` of uniform background P/E wear to every block (the
    /// accelerated-lifetime lever pulled between soak epochs).
    pub fn advance_wear(&mut self, cycles: u32) {
        self.ftl.advance_wear(cycles);
    }

    /// Jump the simulation clock forward by `ns` without serving any
    /// requests: models device idle time between soak epochs. Retention
    /// clocks age across the gap and any patrol scrub or refresh that
    /// falls due fires at the start of the next `run`.
    pub fn advance_time(&mut self, ns: u64) {
        self.clock = self.clock.saturating_add(ns);
    }

    /// The earliest pending background maintenance instant — data refresh
    /// or patrol scrub, whichever is due first.
    fn next_background_due(&self) -> Option<SimTime> {
        match (self.ftl.next_refresh_due(), self.ftl.next_scrub_due()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Run the power-loss recovery scan and charge its cost: every die and
    /// channel stalls while the controller rescans OOB metadata (an
    /// erase-scale window), rolls forward interrupted merges, and scrubs
    /// unverified pages.
    fn recover_now(&mut self, now: SimTime) {
        let report = self.ftl.recover(now);
        let t = self.cfg.timing;
        let scrub_cost = t.read_latency(1) + t.transfer + t.program;
        let stall = t.erase
            + t.voltage_adjust * report.rolled_forward as SimTime
            + scrub_cost * report.scrubbed as SimTime;
        let free_at = now + stall;
        let spans = self.spans;
        let Simulator {
            dies,
            channels,
            die_busy,
            channel_busy,
            ..
        } = self;
        for (i, d) in dies.iter_mut().enumerate() {
            die_busy[i] += free_at.saturating_sub(now.max(d.busy_until)) as u128;
            d.busy_until = d.busy_until.max(free_at);
            if free_at > d.read_free_at {
                d.read_free_at = free_at;
                d.read_hold = RECOVERY_CLASS;
            }
            if free_at > d.other_free_at {
                d.other_free_at = free_at;
                d.other_hold = RECOVERY_CLASS;
            }
            if spans {
                // Every queued host op on every die stalls behind the
                // recovery scan; charge the window to Phase::Recovery.
                for q in &mut d.queues[..2] {
                    for op in q.iter_mut() {
                        op.charge(RECOVERY_CLASS, now, free_at);
                    }
                }
            }
        }
        for (i, ch) in channels.iter_mut().enumerate() {
            // `*ch` is the end of the channel's last busy window, so it
            // doubles as the coverage mark for the exact busy union.
            channel_busy[i] += free_at.saturating_sub(now.max(*ch)) as u128;
            *ch = (*ch).max(free_at);
        }
    }

    /// Change the refresh period applied to blocks scheduled from now on.
    pub fn set_refresh_period(&mut self, period: SimTime) {
        self.cfg.ftl.refresh_period = period;
        self.ftl.set_refresh_period(period);
    }

    /// Warm-up: refresh every closed block that still holds valid pages,
    /// without charging time. Establishes the steady state in which
    /// long-lived blocks have been through at least one refresh cycle
    /// (IDA-converting them when the mode says so).
    ///
    /// Block refresh timestamps are staggered across `stagger_span` ns so
    /// that the *next* refresh cycle (IDA-block reclaims in particular)
    /// trickles through the measured run instead of arriving as one storm —
    /// mirroring the staggered block ages of a long-running device.
    pub fn force_refresh_all(&mut self, stagger_span: SimTime) {
        let base = self.clock;
        let candidates: Vec<BlockAddr> = self
            .ftl
            .blocks()
            .reclaimable_blocks()
            .filter(|&(b, valid, _)| valid > 0 && self.ftl.blocks().state(b) == BlockState::Closed)
            .map(|(b, _, _)| b)
            .collect();
        let n = candidates.len().max(1) as u64;
        for (i, b) in candidates.into_iter().enumerate() {
            let when = base + stagger_span * i as u64 / n;
            self.ftl.refresh_block_untimed(b, when);
            if self.ftl.power_lost() {
                // Untimed recovery during warm-up; remaining blocks still
                // get their staggered refresh.
                self.ftl.recover(when);
            }
        }
    }

    /// Run a timed simulation of `trace` (must be sorted by arrival time;
    /// arrival times are offsets added to the current clock). Returns the
    /// run's metrics; FTL state persists for subsequent runs.
    ///
    /// A thin wrapper over [`Self::run_source`] with a
    /// [`ListSource`](crate::ListSource): the pull-based driver is the
    /// single simulation engine.
    ///
    /// # Panics
    ///
    /// Panics if the trace is not sorted by arrival time (the documented
    /// precondition; [`ListSource::new`](crate::ListSource::new) reports it
    /// as a typed error instead).
    pub fn run(&mut self, trace: Vec<HostOp>) -> Report {
        let mut source = crate::source::ListSource::new(trace).unwrap_or_else(|e| panic!("{e}"));
        match self.run_source(&mut source) {
            Ok(report) => report,
            // A ListSource never reports Blocked, so the driver cannot
            // fail on it; keep the impossible branch loud rather than
            // silently fabricating a Report.
            Err(e) => unreachable!("list source cannot stall: {e}"),
        }
    }

    /// Run a timed simulation pulling arrivals from `source` until it
    /// reports [`Pull::Done`] and every in-flight request has completed.
    /// The source decides admission in simulation time: it is pulled for
    /// the next op while the current one is being served (open-loop
    /// lookahead) and re-pulled after each completion when it had reported
    /// [`Pull::Blocked`], so window-limited and rate-limited sources
    /// compose.
    ///
    /// This is the **single event-loop driver**: [`Self::run`] is a thin
    /// wrapper handing it a [`ListSource`](crate::ListSource); closed-loop
    /// replays hand it a
    /// [`ClosedLoopSource`](crate::source::ClosedLoopSource).
    ///
    /// # Errors
    ///
    /// [`SimError::StalledSource`] when the source blocks with nothing in
    /// flight (no completion can ever unblock it).
    pub fn run_source(&mut self, source: &mut dyn ArrivalSource) -> Result<Report, SimError> {
        let base = self.clock;
        let mut report = Report {
            first_arrival: base,
            last_completion: base,
            ..Report::default()
        };
        let mut events: EventQueue<Ev> = EventQueue::new();
        // Every table here follows the requests in flight, not the
        // requests run: one pulled op, and the requests from arrival to
        // completion by slot, a slot reused once its request completes.
        let mut arrivals = Arrivals {
            base,
            next: None,
            done: false,
        };
        let mut requests: SlotTable<PendingRequest> = SlotTable::new();
        // Requests issued so far: the next one's id.
        let mut issued = 0u64;
        let mut completed = 0usize;
        let mut events_processed = 0u64;
        let flash_ops_before = self.flash_ops;
        let die_busy_before = self.die_busy.clone();
        let channel_busy_before = self.channel_busy.clone();
        let mut wake_at: Option<SimTime> = None;
        let mut progress = if self.progress {
            Progress::new("sim", source.size_hint().unwrap_or(0))
        } else {
            Progress::disabled()
        };

        // Prime the queue with the first arrival.
        arrivals.pull(source, &mut events, base, false)?;
        if let Some(sop) = &arrivals.next {
            report.first_arrival = base + sop.op.at;
        }

        while let Some((now, ev)) = events.pop() {
            self.clock = now;
            events_processed += 1;
            if self.gauges.enabled() && self.gauges.due(now) {
                self.sample_gauges(now);
            }
            let done_before = completed;
            // Serve due refreshes before anything else at this instant.
            if self.ftl.next_refresh_due().is_some_and(|d| d <= now) {
                let ops = self.ftl.run_due_refreshes(now);
                self.enqueue_all(now, ops, None);
                if self.ftl.power_lost() {
                    self.recover_now(now);
                }
            }
            // ... then any due patrol-scrub pass (same dirty-die path, so
            // scrub traffic never preempts queued host reads).
            if self.ftl.next_scrub_due().is_some_and(|d| d <= now) {
                let ops = self.ftl.run_scrub_pass(now);
                self.enqueue_all(now, ops, None);
                if self.ftl.power_lost() {
                    self.recover_now(now);
                }
            }
            match ev {
                // An Arrival is queued only with its op in the slot.
                Ev::Arrival => {
                    if let Some(sop) = arrivals.next.take() {
                        // Pull the next op *before* serving this one; the
                        // request served below will complete and re-pull,
                        // so a block here is never a stall.
                        arrivals.pull(source, &mut events, now, true)?;
                        let id = issued;
                        issued += 1;
                        // Instant completion (nothing mapped): report it
                        // so a window-limited source frees the slot now.
                        if self.serve_host(now, sop, id, &mut requests, &mut report) {
                            completed += 1;
                            source.on_complete(now - base, sop.token, sop.op.kind, 0);
                            arrivals.pull(source, &mut events, now, !requests.is_empty())?;
                        }
                    }
                }
                Ev::DieFree(die) => self.try_start(die, now, &mut events, &mut requests),
                Ev::OpDone(slot) => {
                    requests[slot].outstanding -= 1;
                    if requests[slot].outstanding == 0 {
                        let r = requests.remove(slot);
                        let resp = now - r.arrival;
                        match r.kind {
                            HostOpKind::Read => report.reads.record(resp),
                            HostOpKind::Write => report.writes.record(resp),
                        }
                        self.trace.emit_with(|| TraceEvent::HostComplete {
                            t: now,
                            req: r.id,
                            class: r.kind,
                            latency_ns: resp,
                        });
                        if self.spans {
                            debug_assert_eq!(
                                r.span.total(),
                                resp,
                                "attribution must partition the response time"
                            );
                            match r.kind {
                                HostOpKind::Read => report.read_attribution.record(&r.span),
                                HostOpKind::Write => report.write_attribution.record(&r.span),
                            }
                            self.trace.emit_with(|| TraceEvent::Span {
                                t: now,
                                req: r.id,
                                class: r.kind,
                                total_ns: resp,
                                phases: r.span,
                            });
                        }
                        report.last_completion = report.last_completion.max(now);
                        completed += 1;
                        source.on_complete(now - base, r.token, r.kind, resp);
                        // A completion may unblock a window-limited
                        // source; re-pull if nothing is scheduled.
                        arrivals.pull(source, &mut events, now, !requests.is_empty())?;
                    }
                }
                Ev::RefreshWake => {
                    wake_at = None;
                }
            }
            if completed > done_before {
                progress.tick((completed - done_before) as u64);
            }
            // Start any dies made runnable by newly enqueued work or a
            // wake-up that came due at this instant.
            self.kick_dirty_dies(now, &mut events, &mut requests);
            // Stop once the source is drained and every request completed.
            if arrivals.done && arrivals.next.is_none() && requests.is_empty() {
                break;
            }
            // Keep a wake event pending for the next refresh/scrub so idle
            // gaps still run background maintenance at the right time.
            if let Some(due) = self.next_background_due() {
                let due = due.max(now);
                if wake_at.is_none_or(|w| due < w) {
                    events.push(due, Ev::RefreshWake);
                    wake_at = Some(due);
                }
            }
        }
        progress.finish();
        if self.gauges.enabled() {
            // One final sample so every run ends with a data point.
            self.sample_gauges(self.clock);
            report.gauges = self.gauges.take_series();
        }
        report.ftl = *self.ftl.stats();
        report.in_use_blocks = self.ftl.blocks().in_use_blocks();
        report.events_processed = events_processed;
        report.flash_ops = self.flash_ops - flash_ops_before;
        report.die_busy_ns = self
            .die_busy
            .iter()
            .zip(&die_busy_before)
            .map(|(a, b)| a - b)
            .collect();
        report.channel_busy_ns = self
            .channel_busy
            .iter()
            .zip(&channel_busy_before)
            .map(|(a, b)| a - b)
            .collect();
        Ok(report)
    }

    fn sample_gauges(&mut self, now: SimTime) {
        let queued = self.queued_ops;
        let in_use = self.ftl.blocks().in_use_blocks() as u64;
        let adjusted = self.ftl.blocks().adjusted_wordlines();
        self.gauges.sample(
            now,
            &[
                ("queue_depth", queued),
                ("in_use_blocks", in_use),
                ("adjusted_wordlines", adjusted),
            ],
        );
    }

    /// Issue the arriving request `id`: take a slot in `requests` and
    /// enqueue its flash ops, linked to the slot. Returns whether it
    /// completed at once (no linked op), in which case its slot is
    /// already free again.
    fn serve_host(
        &mut self,
        now: SimTime,
        sop: SourcedOp,
        id: u64,
        requests: &mut SlotTable<PendingRequest>,
        report: &mut Report,
    ) -> bool {
        let page_bytes = self.cfg.ftl.geometry.page_size_bytes as u64;
        let host = sop.op;
        let slot = requests.insert(PendingRequest {
            id,
            token: sop.token,
            arrival: now,
            kind: host.kind,
            outstanding: 0,
            span_end: 0,
            span: PhaseNs::zero(),
        });
        self.trace.emit_with(|| TraceEvent::HostArrival {
            t: now,
            req: id,
            class: host.kind,
            lpn: host.lpn,
            pages: host.pages,
        });
        match host.kind {
            HostOpKind::Read => {
                report.bytes_read += host.pages as u64 * page_bytes;
                let mut ops = std::mem::take(&mut self.read_ops);
                for lpn in host.lpns() {
                    if let Some(read) = self.ftl.read_at(Lpn(lpn), now) {
                        report.breakdown.record(read.scenario);
                        self.trace.emit_with(|| TraceEvent::ReadIssued {
                            t: now,
                            lpn,
                            page: read.page.0,
                            page_type: read.page_type.label(),
                            senses: read.senses,
                            scenario: read.scenario.label(),
                        });
                        if read.fault_attempts > 0 {
                            let attempts = read.fault_attempts;
                            let backoff_ns =
                                attempts as u64 * self.cfg.ftl.faults.transient_backoff_ns;
                            self.trace.emit_with(|| TraceEvent::FaultReadTransient {
                                t: now,
                                lpn,
                                attempts,
                            });
                            // Bounded retry always recovers the data; the
                            // pair of events keeps the inject/recover
                            // pairing invariant checkable from the trace.
                            self.trace.emit_with(|| TraceEvent::ReadRecovered {
                                t: now,
                                lpn,
                                attempts,
                                backoff_ns,
                            });
                        }
                        // The RBER-driven ladder: extra attempts scale
                        // with the wordline's modeled error rate *and* its
                        // sense count, so IDA-coded wordlines climb a
                        // shallower ladder.
                        let (ladder_extra, uncorrectable) = match self.ladder.as_mut() {
                            Some(l) if read.rber > 0.0 => l.sample(read.rber, read.senses),
                            _ => (0, false),
                        };
                        if ladder_extra > 0 {
                            self.ftl.note_ladder_retries(ladder_extra);
                        }
                        ops.push((
                            FlashOp {
                                kind: FlashOpKind::Read {
                                    senses: read.senses,
                                },
                                die: read.die,
                                channel: read.channel,
                                block: read.page.block(&self.cfg.ftl.geometry),
                                page: Some(read.page),
                                priority: Priority::HostRead,
                                origin: OpOrigin::Host,
                            },
                            read.fault_attempts,
                            ladder_extra,
                        ));
                        if uncorrectable {
                            // The full ladder was charged to the read
                            // above; the recovered data relocates to a
                            // fresh block in the background (remap —
                            // never silent corruption).
                            let bg = self.ftl.handle_uncorrectable(Lpn(lpn), read.page, now);
                            self.enqueue_all(now, bg, None);
                        }
                    }
                }
                requests[slot].outstanding = self.enqueue_faulted(now, ops.drain(..), Some(slot));
                self.read_ops = ops;
            }
            HostOpKind::Write => {
                report.bytes_written += host.pages as u64 * page_bytes;
                let mut all_ops = Vec::new();
                for lpn in host.lpns() {
                    match self.ftl.write(Lpn(lpn), now) {
                        Ok(ops) => all_ops.extend(ops),
                        Err(FtlError::PowerLoss) => {
                            // The in-flight page is lost; the device
                            // recovers (stalling all dies and channels)
                            // and the host retries the write once.
                            self.recover_now(now);
                            if let Ok(ops) = self.ftl.write(Lpn(lpn), now) {
                                all_ops.extend(ops);
                            }
                        }
                        // Read-only degradation / out of space: the FTL
                        // already counted and traced the rejection; the
                        // write completes with no flash work.
                        Err(FtlError::ReadOnly { .. } | FtlError::OutOfSpace) => {}
                    }
                }
                requests[slot].outstanding = self.enqueue_all(now, all_ops, Some(slot));
            }
        }
        // A write whose program ops were all background (cannot happen) or
        // a request with zero linked ops completes immediately.
        if requests[slot].outstanding > 0 {
            return false;
        }
        requests.remove(slot);
        match host.kind {
            HostOpKind::Read => report.reads.record(0),
            HostOpKind::Write => report.writes.record(0),
        }
        self.trace.emit_with(|| TraceEvent::HostComplete {
            t: now,
            req: id,
            class: host.kind,
            latency_ns: 0,
        });
        if self.spans {
            // Instant completions still record a (zero) waterfall so
            // attribution counts match the latency statistics.
            let phases = PhaseNs::zero();
            match host.kind {
                HostOpKind::Read => report.read_attribution.record(&phases),
                HostOpKind::Write => report.write_attribution.record(&phases),
            }
            self.trace.emit_with(|| TraceEvent::Span {
                t: now,
                req: id,
                class: host.kind,
                total_ns: 0,
                phases,
            });
        }
        report.last_completion = report.last_completion.max(now);
        true
    }

    /// Enqueue ops to their dies; host-priority ops link to the request
    /// slot `req`.
    /// Returns how many ops were linked to the request.
    fn enqueue_all(
        &mut self,
        now: SimTime,
        ops: impl IntoIterator<Item = FlashOp>,
        req: Option<usize>,
    ) -> u32 {
        self.enqueue_faulted(now, ops.into_iter().map(|op| (op, 0, 0)), req)
    }

    /// Like [`Self::enqueue_all`], but each op carries the transient-fault
    /// retry count and the ladder retry count its read must absorb.
    fn enqueue_faulted(
        &mut self,
        now: SimTime,
        ops: impl IntoIterator<Item = (FlashOp, u32, u32)>,
        req: Option<usize>,
    ) -> u32 {
        let backoff = self.cfg.ftl.faults.transient_backoff_ns;
        let spans = self.spans;
        let mut linked_count = 0;
        for (op, fault_attempts, ladder_retries) in ops {
            let linked = match op.priority {
                Priority::HostRead | Priority::HostWrite => req,
                Priority::Background => None,
            };
            if linked.is_some() {
                linked_count += 1;
            }
            let retries = if matches!(op.kind, FlashOpKind::Read { .. })
                && op.priority == Priority::HostRead
            {
                ladder_retries + self.retry.sample_retries()
            } else {
                0
            };
            self.flash_ops += 1;
            self.queued_ops += 1;
            let die = op.die.0;
            let d = &mut self.dies[die as usize];
            if !d.dirty {
                d.dirty = true;
                self.dirty_dies.push(die);
            }
            let mut sim_op = SimOp {
                op,
                req: linked,
                retries,
                fault_attempts,
                fault_backoff: fault_attempts as SimTime * backoff,
                enqueued_at: now,
                charged_until: now,
                charges: [0; QUEUE_CLASSES],
            };
            if spans && linked.is_some() {
                // Charge the holds already in force on the die, earlier-
                // ending first so an overlap goes to whichever class frees
                // the die first. Reads gate on the sensing track only;
                // everything else waits for both tracks.
                if matches!(op.kind, FlashOpKind::Read { .. }) {
                    if d.read_free_at > now {
                        sim_op.charge(d.read_hold, now, d.read_free_at);
                    }
                } else {
                    let mut holds = [
                        (d.read_free_at, d.read_hold),
                        (d.other_free_at, d.other_hold),
                    ];
                    holds.sort_unstable_by_key(|&(end, _)| end);
                    for (end, class) in holds {
                        if end > now {
                            sim_op.charge(class, now, end);
                        }
                    }
                }
            }
            d.enqueue(sim_op);
        }
        linked_count
    }

    /// Run a scheduling pass: offer [`Self::try_start`] exactly the dies
    /// that could have become runnable — those with freshly enqueued work
    /// (the dirty set) and those whose scheduled wake time has arrived
    /// (popped from the wake heap) — in ascending die order, reproducing
    /// the visit order (and hence event-sequence numbering) of a full
    /// scan over all dies. Dies outside this set either have an empty
    /// queue or an untouched queue behind a future wake, where a
    /// `try_start` call is a proven no-op.
    fn kick_dirty_dies(
        &mut self,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        requests: &mut SlotTable<PendingRequest>,
    ) {
        let mut due = std::mem::take(&mut self.dirty_dies);
        for &die in &due {
            self.dies[die as usize].dirty = false;
        }
        while let Some(&Reverse((t, die))) = self.wake_heap.peek() {
            if t > now {
                break;
            }
            self.wake_heap.pop();
            // Drop stale entries: the wake was superseded by an earlier
            // one, or already consumed by the die's own DieFree event.
            if self.dies[die as usize].wake_at == Some(t) {
                due.push(die);
            }
        }
        due.sort_unstable();
        due.dedup();
        for die in due.drain(..) {
            if self.dies[die as usize].pending() > 0 {
                self.try_start(die, now, events, requests);
            }
        }
        // Hand the (drained) buffer back to reuse its allocation.
        self.dirty_dies = due;
    }

    /// Start every queued op on `die` that can begin at `now`, scheduling
    /// a wake-up for the first one that cannot.
    fn try_start(
        &mut self,
        die: u32,
        now: SimTime,
        events: &mut EventQueue<Ev>,
        requests: &mut SlotTable<PendingRequest>,
    ) {
        let Simulator {
            cfg,
            sense,
            dies,
            channels,
            trace,
            wake_heap,
            queued_ops,
            spans,
            die_busy,
            channel_busy,
            ..
        } = self;
        let t = &cfg.timing;
        let d = &mut dies[die as usize];
        if d.wake_at.is_some_and(|w| w <= now) {
            d.wake_at = None;
        }
        loop {
            let Some(next) = d.peek() else {
                return;
            };
            let is_read = matches!(next.op.kind, FlashOpKind::Read { .. });
            // Reads gate on the sensing path only (program/erase
            // suspension under read-first scheduling); everything else
            // waits for both tracks.
            let ready_at = if is_read {
                d.read_free_at
            } else {
                d.read_free_at.max(d.other_free_at)
            };
            if ready_at > now {
                // Schedule a wake-up unless an earlier one is pending.
                if d.wake_at.is_none_or(|w| ready_at < w) {
                    events.push(ready_at, Ev::DieFree(die));
                    wake_heap.push(Reverse((ready_at, die)));
                    d.wake_at = Some(ready_at);
                }
                return;
            }
            // The peek above guarantees a queued op; bail out rather than
            // panic if that invariant is ever broken.
            let Some(sim_op) = d.dequeue() else {
                return;
            };
            *queued_ops -= 1;
            let want_span = *spans && sim_op.req.is_some();
            let mut ph = PhaseNs::zero();
            if want_span {
                let mut charged = 0u64;
                for (i, phase) in ALL_PHASES[..QUEUE_CLASSES].iter().enumerate() {
                    ph.set(*phase, sim_op.charges[i]);
                    charged += sim_op.charges[i];
                }
                // Queue wait not covered by an observed hold is
                // scheduling residual.
                ph.set(Phase::QueueOther, (now - sim_op.enqueued_at) - charged);
            }
            let hold_class = queue_class(sim_op.op.origin);
            let ch = sim_op.op.channel as usize;
            let op = sim_op.op;
            let background = op.priority == Priority::Background;
            let block = op.block.0 as u64;
            let page = op.page.map_or(0, |p| p.0);
            // Per-attempt array cost of a read, captured for the
            // `read_retry` event (validators cross-check it against the
            // span's retry phase).
            let mut read_attempt_ns: SimTime = 0;
            let (completion, die_held_until) = match op.kind {
                FlashOpKind::Read { senses } => {
                    // Sense (× retries, including injected transient-fault
                    // re-senses) then transfer, serialized on the channel
                    // as one window (DiskSim SSD-extension style: the chip
                    // holds the bus for the whole read), then ECC decode
                    // and any fault backoff off the critical resource.
                    let attempts = (1 + sim_op.retries + sim_op.fault_attempts) as SimTime;
                    read_attempt_ns = sense.get(t, senses);
                    let array = read_attempt_ns * attempts;
                    let start = now.max(channels[ch]);
                    let tx_end = start + array + t.transfer;
                    channel_busy[ch] += (tx_end - start) as u128;
                    channels[ch] = tx_end;
                    d.read_free_at = tx_end;
                    d.read_hold = hold_class;
                    if *spans {
                        // A read-track hold gates every queued host op
                        // (reads serialize on it; writes wait for both
                        // tracks). Background queue ops carry no spans.
                        for q in &mut d.queues[..2] {
                            for w in q.iter_mut() {
                                w.charge(hold_class, now, tx_end);
                            }
                        }
                    }
                    let end = tx_end + t.ecc_decode + sim_op.fault_backoff;
                    if want_span {
                        ph.set(Phase::Channel, start - now);
                        ph.set(Phase::Sense, read_attempt_ns);
                        ph.set(Phase::Retry, array - read_attempt_ns);
                        ph.set(Phase::Transfer, t.transfer);
                        ph.set(Phase::Ecc, t.ecc_decode);
                        ph.set(Phase::Backoff, sim_op.fault_backoff);
                    }
                    trace.emit_with(|| TraceEvent::FlashSense {
                        t: now,
                        die,
                        channel: op.channel,
                        block,
                        page,
                        senses,
                        retries: sim_op.retries,
                        background,
                        bus_start: start,
                        bus_end: tx_end,
                        end,
                    });
                    (end, tx_end)
                }
                FlashOpKind::Program => {
                    let tx_start = now.max(channels[ch]);
                    let tx_end = tx_start + t.transfer;
                    channel_busy[ch] += (tx_end - tx_start) as u128;
                    channels[ch] = tx_end;
                    let array_end = tx_end + t.program;
                    d.other_free_at = array_end;
                    d.other_hold = hold_class;
                    if *spans {
                        // Program/erase holds gate queued writes only
                        // (reads suspend them).
                        for w in d.queues[1].iter_mut() {
                            w.charge(hold_class, now, array_end);
                        }
                    }
                    if want_span {
                        ph.set(Phase::Channel, tx_start - now);
                        ph.set(Phase::Transfer, t.transfer);
                        ph.set(Phase::Program, t.program);
                    }
                    trace.emit_with(|| TraceEvent::FlashProgram {
                        t: now,
                        die,
                        channel: op.channel,
                        block,
                        page,
                        background,
                        bus_start: tx_start,
                        bus_end: tx_end,
                        end: array_end,
                    });
                    (array_end, array_end)
                }
                FlashOpKind::Erase => {
                    let end = now + t.erase;
                    d.other_free_at = end;
                    d.other_hold = hold_class;
                    if *spans {
                        for w in d.queues[1].iter_mut() {
                            w.charge(hold_class, now, end);
                        }
                    }
                    trace.emit_with(|| TraceEvent::FlashErase {
                        t: now,
                        die,
                        block,
                        end,
                    });
                    (end, end)
                }
                FlashOpKind::VoltageAdjust => {
                    let end = now + t.voltage_adjust;
                    d.other_free_at = end;
                    d.other_hold = hold_class;
                    if *spans {
                        for w in d.queues[1].iter_mut() {
                            w.charge(hold_class, now, end);
                        }
                    }
                    trace.emit_with(|| TraceEvent::VoltageAdjust {
                        t: now,
                        die,
                        block,
                        end,
                    });
                    (end, end)
                }
            };
            let extra = sim_op.retries + sim_op.fault_attempts;
            if extra > 0 {
                // Only host reads carry retries/fault attempts, so a
                // request linkage always exists here.
                debug_assert!(sim_op.req.is_some(), "retried read must be host-linked");
                trace.emit_with(|| TraceEvent::ReadRetry {
                    t: now,
                    die,
                    req: sim_op.req.map_or(0, |slot| requests[slot].id),
                    extra,
                    attempt_ns: read_attempt_ns,
                });
            }
            // Exact busy union: hold windows open at the (monotone)
            // current instant, so anything past the mark is newly busy.
            die_busy[die as usize] += die_held_until.saturating_sub(now.max(d.busy_until)) as u128;
            d.busy_until = d.busy_until.max(die_held_until);
            if let Some(slot) = sim_op.req {
                debug_assert!(
                    !want_span || ph.total() == completion - sim_op.enqueued_at,
                    "span must partition [enqueue, completion]"
                );
                // The request reports the waterfall of the op whose
                // OpDone pops last: the latest completion, a tie going to
                // the later push — this one, as pushes follow starts.
                let r = &mut requests[slot];
                if want_span && completion >= r.span_end {
                    r.span_end = completion;
                    r.span = ph;
                }
                events.push(completion, Ev::OpDone(slot));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SsdConfig;
    use crate::source::{ClosedLoopSource, ListSource};
    use ida_flash::timing::NS_PER_US;

    fn write_then_read_trace(n: u64, gap: SimTime) -> Vec<HostOp> {
        let mut t = Vec::new();
        for i in 0..n {
            t.push(HostOp {
                at: i * gap,
                kind: HostOpKind::Write,
                lpn: i,
                pages: 1,
            });
        }
        for i in 0..n {
            t.push(HostOp {
                at: (n + i) * gap,
                kind: HostOpKind::Read,
                lpn: i,
                pages: 1,
            });
        }
        t
    }

    #[test]
    fn a_hash_valid_image_with_an_out_of_range_page_is_rejected() {
        let cfg = SsdConfig::tiny_test();
        let exported = cfg.ftl.exported_pages();
        let pages = cfg.ftl.geometry.total_pages();
        let mut sim = Simulator::new(cfg);
        sim.prefill(0..exported / 2);
        let image = sim.snapshot();
        let (_, payload) = ida_snap::frame::open(&image).unwrap();
        // The l2p table: its length, `exported` u32 slots, then p2l's length.
        let slots = 4 * exported as usize;
        let at = (0..payload.len() - 16 - slots)
            .find(|&i| {
                payload[i..i + 8] == exported.to_le_bytes()
                    && payload[i + 8 + slots..i + 16 + slots] == pages.to_le_bytes()
            })
            .expect("the l2p table is in the payload");
        let mut bad = payload.to_vec();
        bad[at + 8..at + 12].copy_from_slice(&(pages as u32).to_le_bytes());
        // Re-sealed, so the frame hash passes and only the decoder can object.
        let err = Simulator::from_snapshot(&ida_snap::frame::seal(&bad)).unwrap_err();
        assert!(err.to_string().contains("l2p[0]"), "{err}");
    }

    #[test]
    fn single_uncontended_read_costs_the_three_stages() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..1);
        let report = sim.run(vec![HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        }]);
        // LSB read: 50 µs sense + 48 µs transfer + 20 µs ECC.
        assert_eq!(report.reads.count, 1);
        assert_eq!(report.reads.mean() as u64, 118 * NS_PER_US);
    }

    #[test]
    fn writes_and_reads_complete() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        let report = sim.run(write_then_read_trace(64, 100 * NS_PER_US));
        assert_eq!(report.reads.count, 64);
        assert_eq!(report.writes.count, 64);
        assert!(report.reads.mean() > 0.0);
        assert!(report.writes.mean() >= 2_300.0 * NS_PER_US as f64);
        assert!(report.last_completion > report.first_arrival);
    }

    #[test]
    fn unmapped_read_is_instant() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        let report = sim.run(vec![HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 5,
            pages: 1,
        }]);
        assert_eq!(report.reads.count, 1);
        assert_eq!(report.reads.mean(), 0.0);
    }

    #[test]
    fn queueing_inflates_response_times() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..8);
        // 8 simultaneous reads of pages that share dies.
        let trace: Vec<HostOp> = (0..8)
            .map(|i| HostOp {
                at: 0,
                kind: HostOpKind::Read,
                lpn: i,
                pages: 1,
            })
            .collect();
        let report = sim.run(trace);
        // With 2 dies, the last read waits behind three others.
        assert!(report.reads.percentile(100.0) > 2 * 118 * NS_PER_US);
    }

    #[test]
    fn multi_page_request_completes_once() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..16);
        let report = sim.run(vec![HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 16,
        }]);
        assert_eq!(report.reads.count, 1);
        assert_eq!(report.bytes_read, 16 * 4096);
    }

    #[test]
    fn clock_persists_across_runs() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..1);
        let r1 = sim.run(vec![HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        }]);
        let t1 = sim.now();
        assert!(t1 >= r1.last_completion);
        let r2 = sim.run(vec![HostOp {
            at: 10,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        }]);
        assert!(r2.first_arrival >= t1);
    }

    #[test]
    fn retry_model_inflates_read_latency() {
        let mut cfg = SsdConfig::tiny_test();
        cfg.retry = crate::retry::RetryConfig {
            failure_prob: 0.9999,
            max_retries: 2,
            seed: 7,
        };
        let mut slow = Simulator::new(cfg);
        slow.prefill(0..1);
        let r_slow = slow.run(vec![HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        }]);
        // 3 sensing attempts of 50 µs instead of 1.
        assert_eq!(r_slow.reads.mean() as u64, (150 + 48 + 20) * NS_PER_US);
    }

    #[test]
    fn closed_loop_completes_all_requests() {
        // Timestamps are ignored in closed loop. The unmapped tail reads
        // complete instantly, exercising the instant-completion slot-free
        // path, at depths from fully serialized to beyond the trace.
        let trace: Vec<HostOp> = (0..256)
            .chain(1_000..1_008)
            .map(|i| HostOp {
                at: 0,
                kind: HostOpKind::Read,
                lpn: i,
                pages: 1,
            })
            .collect();
        for depth in [1usize, 8, 300] {
            let mut sim = Simulator::new(SsdConfig::tiny_test());
            sim.prefill(0..256);
            let mut src = ClosedLoopSource::new(trace.clone(), depth).expect("positive depth");
            let report = sim.run_source(&mut src).expect("closed loop never stalls");
            assert_eq!(report.reads.count, 264, "depth {depth}");
            assert!(report.throughput_mbps() > 0.0);
        }
    }

    #[test]
    fn closed_loop_ids_follow_arrival_order_while_slots_recycle() {
        // Reads of one to three pages at depth 4 complete out of issue
        // order and re-sense half their attempts: every trace event must
        // still name its request by issue index.
        let mut cfg = SsdConfig::tiny_test();
        cfg.retry = crate::retry::RetryConfig {
            failure_prob: 0.5,
            max_retries: 3,
            seed: 11,
        };
        let mut sim = Simulator::new(cfg);
        sim.prefill(0..64);
        let sink = std::sync::Arc::new(std::sync::Mutex::new(ida_obs::trace::VecSink::new()));
        sim.set_trace(SinkHandle::from_shared(sink.clone()));
        sim.set_spans(true);
        let n = 200u64;
        let trace: Vec<HostOp> = (0..n)
            .map(|i| HostOp {
                at: 0,
                kind: HostOpKind::Read,
                lpn: i * 7 % 62,
                pages: 1 + (i % 3) as u32,
            })
            .collect();
        let mut src = ClosedLoopSource::new(trace, 4).expect("positive depth");
        let report = sim.run_source(&mut src).expect("closed loop never stalls");
        assert_eq!(report.reads.count, n);
        let (mut arrivals, mut completions, mut retries) = (Vec::new(), Vec::new(), 0);
        let mut live = std::collections::BTreeSet::new();
        for e in &sink.lock().unwrap().events {
            match *e {
                TraceEvent::HostArrival { req, .. } => {
                    assert!(live.insert(req), "req {req} issued twice");
                    assert!(live.len() <= 4, "more than the depth in flight");
                    arrivals.push(req);
                }
                TraceEvent::ReadRetry { req, .. } => {
                    assert!(live.contains(&req), "retry of req {req}, not in flight");
                    retries += 1;
                }
                TraceEvent::HostComplete { req, .. } => {
                    assert!(live.remove(&req), "req {req} completed, not in flight");
                    completions.push(req);
                }
                TraceEvent::Span { req, .. } => {
                    assert_eq!(Some(&req), completions.last(), "span of another req");
                }
                _ => {}
            }
        }
        assert_eq!(arrivals, (0..n).collect::<Vec<_>>());
        assert!(live.is_empty());
        assert_ne!(
            completions, arrivals,
            "every request completed in issue order"
        );
        assert!(retries > 0, "no read retried");
    }

    #[test]
    fn closed_loop_throughput_grows_with_queue_depth() {
        let trace: Vec<HostOp> = (0..512)
            .map(|i| HostOp {
                at: 0,
                kind: HostOpKind::Read,
                lpn: i % 256,
                pages: 1,
            })
            .collect();
        let mut tp = Vec::new();
        for depth in [1usize, 16] {
            let mut sim = Simulator::new(SsdConfig::tiny_test());
            sim.prefill(0..256);
            let mut src = ClosedLoopSource::new(trace.clone(), depth).expect("positive depth");
            let report = sim.run_source(&mut src).expect("closed loop never stalls");
            tp.push(report.throughput_mbps());
        }
        assert!(
            tp[1] > tp[0] * 1.5,
            "parallelism should raise throughput: qd1={} qd16={}",
            tp[0],
            tp[1]
        );
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        let _ = sim.run(vec![
            HostOp {
                at: 10,
                kind: HostOpKind::Read,
                lpn: 0,
                pages: 1,
            },
            HostOp {
                at: 5,
                kind: HostOpKind::Read,
                lpn: 1,
                pages: 1,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "arm_refresh after")]
    fn arm_refresh_after_a_refresh_panics() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        let g = sim.config().ftl.geometry;
        sim.prefill(0..g.pages_per_block() as u64 * g.total_planes() as u64);
        sim.force_refresh_all(0);
        assert!(sim.ftl().stats().refreshes > 0, "no block was refreshed");
        let mut ida = SsdConfig::tiny_test();
        ida.ftl.refresh_mode = ida_core::refresh::RefreshMode::Ida;
        // The refresh policy in force re-arms as a no-op; another panics.
        sim.arm(&SsdConfig::tiny_test());
        sim.arm(&ida);
    }

    #[test]
    fn refresh_fires_inside_the_measured_window() {
        let mut cfg = SsdConfig::tiny_test();
        cfg.ftl.refresh_mode = ida_core::refresh::RefreshMode::Ida;
        cfg.ftl.adjust_error_rate = 0.0;
        cfg.ftl.refresh_period = 1_000_000; // 1 ms, in force before prefill
        let mut sim = Simulator::new(cfg);
        // Close a block's worth of pages, then run a trace that spans past
        // the refresh due time.
        let g = sim.config().ftl.geometry;
        let to_write = g.pages_per_block() as u64 * g.total_planes() as u64;
        sim.prefill(0..to_write);
        let before = sim.ftl().stats().refreshes;
        let report = sim.run(vec![
            HostOp {
                at: 0,
                kind: HostOpKind::Read,
                lpn: 0,
                pages: 1,
            },
            HostOp {
                at: 50_000_000,
                kind: HostOpKind::Read,
                lpn: 1,
                pages: 1,
            },
        ]);
        // Prefilled blocks were due 1 ms after close; the 50 ms idle gap
        // must have run them via the refresh wake event.
        assert!(sim.ftl().stats().refreshes > before);
        assert!(sim.ftl().stats().ida_conversions > 0 || report.reads.count == 2);
    }

    #[test]
    fn faulty_run_completes_and_pairs_losses_with_recoveries() {
        let mut cfg = SsdConfig::tiny_test();
        cfg.ftl.spare_blocks_per_plane = 2;
        let mut sim = Simulator::new(cfg);
        sim.prefill(0..256);
        sim.arm_faults(FaultConfig::preset("high", 0x5EED).expect("known level"));
        let mut trace = Vec::new();
        for i in 0..600u64 {
            trace.push(HostOp {
                at: i * 10_000,
                kind: HostOpKind::Write,
                lpn: i % 256,
                pages: 1,
            });
        }
        for i in 0..400u64 {
            trace.push(HostOp {
                at: (600 + i) * 10_000,
                kind: HostOpKind::Read,
                lpn: i % 256,
                pages: 1,
            });
        }
        let report = sim.run(trace);
        assert_eq!(report.writes.count, 600);
        assert_eq!(report.reads.count, 400);
        let fs = sim.ftl().fault_stats();
        assert!(
            fs.program_fails > 0,
            "high preset must inject program fails"
        );
        assert!(fs.transient_reads > 0, "10% of reads should see transients");
        assert!(fs.power_losses >= 1, "op 500 crosses the first crash point");
        assert_eq!(sim.ftl().stats().recoveries, fs.power_losses);
        assert!(!sim.ftl().power_lost(), "every loss must be recovered");
        sim.ftl()
            .check_consistency()
            .expect("consistent after faults");
    }

    #[test]
    fn list_source_reports_the_offending_entry() {
        let err = ListSource::new(vec![
            HostOp {
                at: 10,
                kind: HostOpKind::Read,
                lpn: 0,
                pages: 1,
            },
            HostOp {
                at: 5,
                kind: HostOpKind::Read,
                lpn: 1,
                pages: 1,
            },
        ])
        .unwrap_err();
        assert_eq!(
            err,
            crate::sim::SimError::UnsortedTrace {
                index: 1,
                at: 5,
                prev: 10
            }
        );
        assert!(err.to_string().contains("not sorted"));
        // A sorted trace runs normally through the same constructor.
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..1);
        let mut src = ListSource::new(vec![HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 0,
            pages: 1,
        }])
        .expect("sorted");
        let report = sim.run_source(&mut src).unwrap();
        assert_eq!(report.reads.count, 1);
    }

    #[test]
    fn sourced_run_matches_the_trace_path() {
        // The same warmed device state, the same trace: the pull path and
        // the push path must agree on the full report.
        let trace = write_then_read_trace(48, 70 * NS_PER_US);
        let mut a = Simulator::new(SsdConfig::tiny_test());
        a.prefill(0..48);
        let ra = a.run(trace.clone());
        let mut b = Simulator::new(SsdConfig::tiny_test());
        b.prefill(0..48);
        let mut src = ListSource::new(trace).expect("sorted");
        let rb = b.run_source(&mut src).expect("list source never stalls");
        assert_eq!(ra, rb);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn sourced_run_with_empty_source_is_empty() {
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        let mut src = ListSource::new(Vec::new()).expect("sorted");
        let report = sim.run_source(&mut src).expect("empty source");
        assert_eq!(report.reads.count + report.writes.count, 0);
        assert_eq!(report.events_processed, 0);
    }

    #[test]
    fn blocked_source_with_nothing_in_flight_errors() {
        struct AlwaysBlocked;
        impl crate::source::ArrivalSource for AlwaysBlocked {
            fn next(&mut self, _now: SimTime) -> crate::source::Pull {
                crate::source::Pull::Blocked
            }
        }
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        let err = sim.run_source(&mut AlwaysBlocked).unwrap_err();
        assert_eq!(err, crate::sim::SimError::StalledSource);
    }

    #[test]
    fn window_limited_source_is_repulled_on_completion() {
        // A source holding a 1-deep window: returns Blocked while its one
        // request is in flight, relies on on_complete to free the slot.
        struct OneDeep {
            left: u64,
            in_flight: bool,
            completions: u64,
        }
        impl crate::source::ArrivalSource for OneDeep {
            fn next(&mut self, _now: SimTime) -> crate::source::Pull {
                if self.left == 0 {
                    return crate::source::Pull::Done;
                }
                if self.in_flight {
                    return crate::source::Pull::Blocked;
                }
                self.left -= 1;
                self.in_flight = true;
                crate::source::Pull::Op(crate::source::SourcedOp {
                    // Always lpn 0: an LSB page, so every read costs the
                    // same uncontended 118 µs.
                    op: HostOp {
                        at: 0,
                        kind: HostOpKind::Read,
                        lpn: 0,
                        pages: 1,
                    },
                    token: self.left,
                })
            }
            fn on_complete(
                &mut self,
                _now: SimTime,
                _token: u64,
                _kind: HostOpKind,
                _latency_ns: SimTime,
            ) {
                self.in_flight = false;
                self.completions += 1;
            }
        }
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..8);
        let mut src = OneDeep {
            left: 16,
            in_flight: false,
            completions: 0,
        };
        let report = sim.run_source(&mut src).expect("window source drains");
        assert_eq!(report.reads.count, 16);
        assert_eq!(src.completions, 16);
        // Serialized closed-loop at depth 1: every read pays the full
        // uncontended latency, none of them queue behind each other.
        assert_eq!(report.reads.mean() as u64, 118 * NS_PER_US);
    }

    #[test]
    fn closed_loop_source_matches_on_empty_trace() {
        // An empty closed-loop replay is the empty open-loop one.
        let mut a = Simulator::new(SsdConfig::tiny_test());
        let mut list = ListSource::new(Vec::new()).expect("sorted");
        let ra = a.run_source(&mut list).expect("empty source");
        let mut b = Simulator::new(SsdConfig::tiny_test());
        let mut src = ClosedLoopSource::new(Vec::new(), 8).expect("positive depth");
        let rb = b.run_source(&mut src).expect("empty source");
        assert_eq!(ra, rb);
        assert_eq!(ra.events_processed, 0);
    }

    #[test]
    fn zero_depth_closed_loop_source_is_a_typed_error() {
        let err = ClosedLoopSource::new(Vec::new(), 0).unwrap_err();
        assert_eq!(err, SimError::ZeroQueueDepth);
        assert!(err.to_string().contains("queue depth"));
    }

    #[test]
    fn open_loop_wrapper_matches_a_manual_list_source() {
        // The driver contract behind run: identical Reports to a
        // manually driven ListSource, including the persistent-clock
        // second run. (Also written against the pre-unification body.)
        let trace = write_then_read_trace(32, 70 * NS_PER_US);
        let mut a = Simulator::new(SsdConfig::tiny_test());
        a.prefill(0..32);
        let ra1 = a.run(trace.clone());
        let ra2 = a.run(trace.clone());
        let mut b = Simulator::new(SsdConfig::tiny_test());
        b.prefill(0..32);
        let rb1 = b
            .run_source(&mut ListSource::new(trace.clone()).expect("sorted"))
            .expect("list source never stalls");
        let rb2 = b
            .run_source(&mut ListSource::new(trace).expect("sorted"))
            .expect("list source never stalls");
        assert_eq!(ra1, rb1);
        assert_eq!(ra2, rb2);
        assert_eq!(a.now(), b.now());
    }

    #[test]
    fn background_ops_do_not_block_host_read_starts() {
        // A read arriving while a program is in flight on the same die
        // starts sensing immediately (suspension).
        let mut sim = Simulator::new(SsdConfig::tiny_test());
        sim.prefill(0..64);
        // One write then an immediate read of a page on the same die: the
        // read's response must not include the 2.3 ms program.
        let victim_page = 0u64;
        let report = sim.run(vec![
            HostOp {
                at: 0,
                kind: HostOpKind::Write,
                lpn: 62,
                pages: 2,
            },
            HostOp {
                at: 1_000,
                kind: HostOpKind::Read,
                lpn: victim_page,
                pages: 1,
            },
        ]);
        assert!(
            report.reads.mean() < 1_000_000.0,
            "read should bypass the in-flight program, got {} ns",
            report.reads.mean()
        );
    }

    #[test]
    fn sense_table_reproduces_read_latency() {
        // Inside the table (1..=15) and past it (the computed fallback).
        for t in [
            FlashTiming::paper_tlc(),
            FlashTiming::paper_mlc(),
            FlashTiming::paper_tlc().with_delta_tr_us(30),
            FlashTiming::paper_tlc().with_delta_tr_us(70),
        ] {
            let table = SenseTable::new(&t);
            for senses in 1..=20 {
                assert_eq!(table.get(&t, senses), t.read_latency(senses));
            }
        }
        let t = FlashTiming::paper_tlc();
        assert_eq!(SenseTable::new(&t).get(&t, 3), 129_248);
    }

    #[test]
    #[should_panic(expected = "at least one sense")]
    fn sense_table_keeps_the_zero_sense_panic() {
        let t = FlashTiming::paper_tlc();
        let _ = SenseTable::new(&t).get(&t, 0);
    }
}
