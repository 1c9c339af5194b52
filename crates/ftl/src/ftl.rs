//! The FTL facade: host I/O, garbage collection, data refresh, fault
//! recovery.
//!
//! Volatile structures (page map, block table, allocator, refresh queue)
//! are rebuilt after a power loss from the simulated OOB metadata in
//! [`OobStore`]; see [`Ftl::recover`] for the scan and
//! `DESIGN.md` section 10 for the invariants it restores.

use crate::alloc::{Allocator, RecoveredPool};
use crate::block::{BlockState, BlockTable};
use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::gc;
use crate::map::{Lpn, PageMap};
use crate::oob::{OobStore, PageRecord};
use crate::ops::{FlashOp, FlashOpKind, OpOrigin, Priority, ReadOp, ReadScenario};
use crate::refresh::RefreshQueue;
use crate::stats::FtlStats;
use ida_core::merge::MergePlan;
use ida_core::refresh::{RefreshMode, RefreshPlan, RefreshPlanner};
use ida_faults::{AgingConfig, FaultConfig, FaultInjector, FaultStats, PersistOutcome};
use ida_flash::addr::{BlockAddr, PageAddr, PageType, PlaneAddr};
use ida_flash::geometry::Geometry;
use ida_flash::interference::InterferenceModel;
use ida_flash::timing::SimTime;
use ida_obs::trace::{SinkHandle, TraceEvent};

/// Program-fail redirects attempted before the injector is overridden and
/// the write forced through (keeps fault storms from livelocking a write).
const MAX_REDIRECTS: u32 = 8;

/// Where a mutation's flash ops go: into the caller's list on the timed
/// paths, nowhere on the untimed warm-up path, which never builds them.
/// Building an op changes no state, so both paths run the same write, GC
/// and refresh code.
type OpSink<'a> = Option<&'a mut Vec<FlashOp>>;

/// Build `op` only if `ops` collects it.
fn emit(ops: &mut OpSink<'_>, op: impl FnOnce() -> FlashOp) {
    if let Some(ops) = ops {
        ops.push(op());
    }
}

/// Buffers a block refresh plans into, reused from one refresh to the
/// next. Scratch space, not device state: never encoded.
#[derive(Debug, Clone, Default)]
struct RefreshScratch {
    /// Per-wordline validity masks of the target block.
    valid_masks: Vec<u8>,
    plan: RefreshPlan,
}

/// Where a page program originates, which decides how allocation pressure
/// is relieved when the free pools run dry.
#[derive(Debug, Clone, Copy)]
enum AllocSource {
    /// Host write: watermark GC ran already; force-collect as a last resort.
    Host,
    /// GC/refresh relocation: reclaim the globally cheapest victim until
    /// an allocation succeeds, degrading to read-only if none helps.
    Reloc {
        /// Preferred destination page type (Section III-C LSB placement).
        prefer_bit: Option<u8>,
    },
    /// GC copy-out: may dig into the victim plane's GC reserve.
    Gc {
        /// The victim's plane.
        plane: PlaneAddr,
    },
}

/// A relocation with no preferred destination page type.
const RELOC: AllocSource = AllocSource::Reloc { prefer_bit: None };

/// Summary of one post-power-loss recovery scan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Logical mappings rebuilt from OOB program records.
    pub rebuilt_mappings: u64,
    /// Wordline merges rolled forward (pulse landed, commit mark lost).
    pub rolled_forward: u32,
    /// Kept pages of interrupted adjustments conservatively relocated.
    pub scrubbed: u32,
    /// Grown-bad blocks restored from OOB.
    pub bad_blocks: u32,
    /// Partially-programmed blocks resumed as their plane's active block.
    pub open_blocks: u32,
}

/// The flash translation layer.
///
/// Owns all logical SSD state and translates host operations into
/// [`FlashOp`] sequences for the simulator. See the crate docs for an
/// example. A clone shares the trace sink (`Simulator::fork` detaches it).
#[derive(Debug, Clone)]
pub struct Ftl {
    cfg: FtlConfig,
    geometry: Geometry,
    /// Sense count per bit under conventional coding.
    sense_conventional: Vec<u32>,
    /// `sense_merged[keep_mask][bit]` — sense count under the merged coding
    /// for `keep_mask`, `None` when the bit is unreadable.
    sense_merged: Vec<Vec<Option<u32>>>,
    map: PageMap,
    blocks: BlockTable,
    alloc: Allocator,
    refresh_q: RefreshQueue,
    planner: RefreshPlanner,
    stats: FtlStats,
    /// The block currently being refreshed, excluded from GC victim
    /// selection so its pages are not relocated out from under the plan.
    refresh_target: Option<BlockAddr>,
    /// Trace sink for GC/refresh/IDA/fault events (null — free — by
    /// default).
    trace: SinkHandle,
    /// Simulated persistent metadata; the source of truth for recovery.
    oob: OobStore,
    /// The armed fault plan's live injector.
    injector: FaultInjector,
    /// Power was lost; the device rejects work until [`Ftl::recover`] runs.
    power_lost: bool,
    /// A recovery scan is running: injector draws and persistent-operation
    /// counting are suppressed (the scan itself cannot crash or fault).
    in_recovery: bool,
    /// Set when the device degraded to read-only, with the reason.
    read_only: Option<&'static str>,
    /// Attribution class stamped on emitted ops; flipped to GC/refresh
    /// while those paths run so interference is charged to its true cause.
    op_origin: OpOrigin,
    /// Next block the patrol scrub examines (round-robin over the array).
    scrub_cursor: u32,
    /// When the next patrol-scrub pass is due (`None` until
    /// [`Ftl::arm_aging`] arms an active model with a scrub period).
    next_scrub_at: Option<SimTime>,
    refresh_scratch: RefreshScratch,
}

// Manual snapshot impl: every mutable field travels verbatim except the
// trace sink (process-local; restored to null — the embedding simulator
// re-attaches its own handle), the refresh scratch buffers, and
// `read_only`, whose `&'static str` reason round-trips through the closed
// set of literals used by `enter_read_only`.
impl ida_snap::Snap for Ftl {
    fn encode(&self, w: &mut ida_snap::Writer) {
        self.cfg.encode(w);
        self.geometry.encode(w);
        self.sense_conventional.encode(w);
        self.sense_merged.encode(w);
        self.map.encode(w);
        self.blocks.encode(w);
        self.alloc.encode(w);
        self.refresh_q.encode(w);
        self.planner.encode(w);
        self.stats.encode(w);
        self.refresh_target.encode(w);
        self.oob.encode(w);
        self.injector.encode(w);
        self.power_lost.encode(w);
        self.in_recovery.encode(w);
        self.read_only.map(str::to_owned).encode(w);
        self.op_origin.encode(w);
        self.scrub_cursor.encode(w);
        self.next_scrub_at.encode(w);
    }

    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        let cfg = FtlConfig::decode(r)?;
        let geometry = Geometry::decode(r)?;
        let sense_conventional = Vec::decode(r)?;
        let sense_merged = Vec::decode(r)?;
        let map = PageMap::decode(r)?;
        let blocks = BlockTable::decode(r)?;
        let alloc = Allocator::decode(r)?;
        let refresh_q = RefreshQueue::decode(r)?;
        let planner = RefreshPlanner::decode(r)?;
        let stats = FtlStats::decode(r)?;
        let refresh_target = Option::decode(r)?;
        let oob = OobStore::decode(r)?;
        let injector = FaultInjector::decode(r)?;
        let power_lost = bool::decode(r)?;
        let in_recovery = bool::decode(r)?;
        let read_only = match Option::<String>::decode(r)? {
            None => None,
            Some(s) => Some(match s.as_str() {
                "relocation space exhausted" => "relocation space exhausted",
                "GC reserve exhausted" => "GC reserve exhausted",
                "spare pool exhausted" => "spare pool exhausted",
                other => {
                    return Err(ida_snap::SnapError::new(format!(
                        "unknown read-only reason {other:?}"
                    )))
                }
            }),
        };
        let op_origin = OpOrigin::decode(r)?;
        let scrub_cursor = u32::decode(r)?;
        let next_scrub_at = Option::decode(r)?;
        // A hash-valid image still must not index out of bounds: every
        // table is checked against the FTL's geometry and exported range.
        if cfg.geometry != geometry {
            return Err(ida_snap::SnapError::new("FTL config geometry differs"));
        }
        map.check(cfg.exported_pages(), geometry.total_pages())?;
        blocks.check(&geometry)?;
        oob.check(&geometry, cfg.exported_pages())?;
        Ok(Ftl {
            cfg,
            geometry,
            sense_conventional,
            sense_merged,
            map,
            blocks,
            alloc,
            refresh_q,
            planner,
            stats,
            refresh_target,
            trace: SinkHandle::null(),
            oob,
            injector,
            power_lost,
            in_recovery,
            read_only,
            op_origin,
            scrub_cursor,
            next_scrub_at,
            refresh_scratch: RefreshScratch::default(),
        })
    }
}

/// The refresh planner `cfg` asks for, its interference RNG freshly seeded.
fn refresh_planner(cfg: &FtlConfig) -> RefreshPlanner {
    RefreshPlanner::new(
        cfg.geometry.bits_per_cell as u8,
        cfg.refresh_mode,
        InterferenceModel::with_seed(cfg.adjust_error_rate, cfg.seed),
    )
}

impl Ftl {
    /// Build an FTL over an empty (all-erased) flash array.
    pub fn new(cfg: FtlConfig) -> Self {
        cfg.geometry.validate();
        let bits = cfg.geometry.bits_per_cell as u8;
        let coding = cfg.coding.scheme(bits);
        let sense_conventional = (0..bits).map(|b| coding.sense_count(b)).collect();
        let sense_merged = (0..(1u16 << bits))
            .map(|mask| {
                let plan = MergePlan::compute(&coding, mask as u8);
                (0..bits)
                    .map(|b| {
                        plan.merged()
                            .is_readable(b)
                            .then(|| plan.merged().sense_count(b))
                    })
                    .collect()
            })
            .collect();
        let planner = refresh_planner(&cfg);
        let mut oob = OobStore::new(cfg.geometry);
        let alloc = if cfg.spare_blocks_per_plane > 0 {
            let (alloc, spares) = Allocator::with_spares(cfg.geometry, cfg.spare_blocks_per_plane);
            for b in spares {
                oob.set_spare(b, true);
            }
            alloc
        } else {
            Allocator::new(cfg.geometry)
        };
        let injector = FaultInjector::new(cfg.faults.clone());
        Ftl {
            map: PageMap::new(cfg.exported_pages(), cfg.geometry.total_pages()),
            blocks: BlockTable::new(cfg.geometry),
            alloc,
            refresh_q: RefreshQueue::new(),
            planner,
            geometry: cfg.geometry,
            sense_conventional,
            sense_merged,
            stats: FtlStats::default(),
            refresh_target: None,
            trace: SinkHandle::null(),
            oob,
            injector,
            power_lost: false,
            in_recovery: false,
            read_only: None,
            op_origin: OpOrigin::Host,
            scrub_cursor: 0,
            next_scrub_at: (cfg.aging.is_active() && cfg.aging.scrub_period > 0)
                .then_some(cfg.aging.scrub_period),
            refresh_scratch: RefreshScratch::default(),
            cfg,
        }
    }

    /// Attach a trace sink. The simulator shares its own handle so FTL
    /// events (GC, refresh, IDA conversion, faults) interleave with flash
    /// events in one stream.
    pub fn set_trace(&mut self, trace: SinkHandle) {
        self.trace = trace;
    }

    /// Heap bytes of the page map, block table and OOB store: nearly all
    /// a copy of the device allocates, within a few percent of its image.
    pub fn heap_bytes(&self) -> u64 {
        (self.map.heap_bytes() + self.blocks.heap_bytes() + self.oob.heap_bytes()) as u64
    }

    /// The configuration in force.
    pub fn config(&self) -> &FtlConfig {
        &self.cfg
    }

    /// Change the refresh period for blocks scheduled from now on
    /// (experiments size the period relative to the trace span).
    pub fn set_refresh_period(&mut self, period: SimTime) {
        self.cfg.refresh_period = period;
    }

    /// Replace the armed fault plan. Experiments arm faults *after*
    /// warm-up, so the steady-state population is built fault-free and the
    /// injector's operation counter (which drives the power-loss schedule)
    /// starts at the measurement boundary.
    pub fn arm_faults(&mut self, faults: FaultConfig) {
        self.injector = FaultInjector::new(faults.clone());
        self.cfg.faults = faults;
    }

    /// Replace the refresh policy — mode, voltage-adjustment error rate
    /// and interference seed — with a freshly seeded planner, as if the
    /// FTL had been built with them. Only refresh reads the planner, so a
    /// device that has never refreshed is indistinguishable from one
    /// built under the new policy; the warm cache relies on this to share
    /// one prefill + age across every system column.
    ///
    /// # Panics
    ///
    /// Once any block has been refreshed: the old policy already shaped
    /// the device, and re-arming would silently mix the two.
    pub fn arm_refresh(&mut self, mode: RefreshMode, adjust_error_rate: f64, seed: u64) {
        assert!(
            self.stats.refreshes == 0,
            "arm_refresh after {} block refreshes: the refresh policy is fixed once a block \
             has been refreshed",
            self.stats.refreshes
        );
        self.cfg.refresh_mode = mode;
        self.cfg.adjust_error_rate = adjust_error_rate;
        self.cfg.seed = seed;
        self.planner = refresh_planner(&self.cfg);
    }

    /// Replace the armed aging model. Like faults, aging is armed *after*
    /// warm-up so the steady-state population is built on a byte-identical
    /// fresh device; the first patrol-scrub pass is scheduled one period
    /// after `now`.
    pub fn arm_aging(&mut self, aging: AgingConfig, now: SimTime) {
        self.next_scrub_at = (aging.is_active() && aging.scrub_period > 0)
            .then(|| now.saturating_add(aging.scrub_period));
        self.cfg.aging = aging;
    }

    /// Apply `cycles` of uniform background P/E wear to every block — the
    /// accelerated-lifetime lever the soak harness pulls between epochs.
    /// Stored as an offset outside the per-block erase counts so the GC
    /// victim index never needs rebuilding.
    pub fn advance_wear(&mut self, cycles: u32) {
        self.blocks.add_wear_offset(cycles);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &FtlStats {
        &self.stats
    }

    /// Totals of the faults the injector actually fired.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// The block status table (read-only view for metrics/tests).
    pub fn blocks(&self) -> &BlockTable {
        &self.blocks
    }

    /// The simulated OOB metadata (read-only view for tests).
    pub fn oob(&self) -> &OobStore {
        &self.oob
    }

    /// Whether power was lost; [`Ftl::recover`] clears this.
    pub fn power_lost(&self) -> bool {
        self.power_lost
    }

    /// Why the device is read-only, if it degraded.
    pub fn read_only_reason(&self) -> Option<&'static str> {
        self.read_only
    }

    /// Bad-block spares remaining across all planes.
    pub fn total_spares(&self) -> u64 {
        self.alloc.total_spares()
    }

    /// Number of logical pages the host may address.
    pub fn exported_pages(&self) -> u64 {
        self.map.logical_pages()
    }

    /// Whether physical page `p` currently holds valid data.
    pub fn is_valid(&self, p: PageAddr) -> bool {
        self.map.is_valid(p)
    }

    /// Sensing operations a read of physical page `p` needs under the
    /// wordline's current coding.
    pub fn senses_for(&self, p: PageAddr) -> u32 {
        let bit = p.page_type(&self.geometry).bit_index();
        let block = p.block(&self.geometry);
        if self.blocks.state(block) == BlockState::Ida {
            let wl = p.wordline(&self.geometry).offset_in_block(&self.geometry);
            let mask = self.blocks.wl_keep_mask(block, wl);
            if mask != 0 {
                return self.sense_merged[mask as usize][bit as usize]
                    .expect("valid page of an adjusted wordline must be readable");
            }
        }
        self.sense_conventional[bit as usize]
    }

    /// Translate and classify a host read of `lpn`. Returns `None` if the
    /// LPN was never written (the host reads zeros; no flash work).
    ///
    /// Equivalent to [`Ftl::read_at`] at time zero — callers that do not
    /// track simulated time (tests, benches) see no aging contribution.
    pub fn read(&mut self, lpn: Lpn) -> Option<ReadOp> {
        self.read_at(lpn, 0)
    }

    /// Translate and classify a host read of `lpn` issued at `now`,
    /// charging the wordline's read-disturb counter and stamping the
    /// modeled RBER (0.0 while aging is disarmed) for the simulator's
    /// retry ladder.
    pub fn read_at(&mut self, lpn: Lpn, now: SimTime) -> Option<ReadOp> {
        let page = self.map.translate(lpn)?;
        self.stats.host_reads += 1;
        let fault_attempts = if self.in_recovery {
            0
        } else {
            self.injector.transient_read_attempts()
        };
        if fault_attempts > 0 {
            self.stats.transient_read_faults += 1;
        }
        let rber = if self.cfg.aging.is_active() && !self.in_recovery {
            let block = page.block(&self.geometry);
            let wl = page
                .wordline(&self.geometry)
                .offset_in_block(&self.geometry);
            let wl_reads = self.blocks.record_wl_read(block, wl);
            // Retention age runs from block close; an open block's data is
            // by definition freshly programmed.
            let age = match self.blocks.state(block) {
                BlockState::Closed | BlockState::Ida => {
                    now.saturating_sub(self.blocks.closed_at(block))
                }
                _ => 0,
            };
            let r = self
                .cfg
                .aging
                .rber(self.blocks.effective_wear(block), wl_reads, age);
            self.stats.rber_e9_sum += (r * 1e9) as u64;
            r
        } else {
            0.0
        };
        let ty = page.page_type(&self.geometry);
        let senses = self.senses_for(page);
        let scenario = self.classify_read(page, ty);
        if scenario == ReadScenario::IdaCoded {
            self.stats.ida_reads += 1;
        }
        Some(ReadOp {
            page,
            page_type: ty,
            senses,
            scenario,
            die: page.die(&self.geometry),
            channel: page.channel(&self.geometry),
            fault_attempts,
            rber,
        })
    }

    fn classify_read(&self, page: PageAddr, ty: PageType) -> ReadScenario {
        let block = page.block(&self.geometry);
        let wl = page.wordline(&self.geometry);
        if self.blocks.state(block) == BlockState::Ida
            && self
                .blocks
                .wl_keep_mask(block, wl.offset_in_block(&self.geometry))
                != 0
        {
            return ReadScenario::IdaCoded;
        }
        let bit = ty.bit_index();
        if bit == 0 {
            return ReadScenario::Lsb;
        }
        let lower_all_valid = (0..bit).all(|b| {
            self.map
                .is_valid(wl.page(&self.geometry, PageType::from_bit_index(b)))
        });
        match (bit, lower_all_valid) {
            (1, true) => ReadScenario::CsbLowerValid,
            (1, false) => ReadScenario::CsbLowerInvalid,
            (_, true) => ReadScenario::MsbLowerValid,
            (_, false) => ReadScenario::MsbLowerInvalid,
        }
    }

    /// Serve a host page write: allocates a physical page in CWDP order,
    /// supersedes any previous version, and returns the flash ops to
    /// execute (GC traffic first if the free pool ran low, then the
    /// program itself).
    ///
    /// # Errors
    ///
    /// [`FtlError::PowerLoss`] if an injected power loss fired before the
    /// write committed (run [`Ftl::recover`] before retrying),
    /// [`FtlError::ReadOnly`] if the device has degraded to read-only
    /// mode, and [`FtlError::OutOfSpace`] if the host exceeded the
    /// exported capacity.
    pub fn write(&mut self, lpn: Lpn, now: SimTime) -> Result<Vec<FlashOp>, FtlError> {
        let mut ops = Vec::new();
        self.write_to(lpn, now, &mut Some(&mut ops))?;
        Ok(ops)
    }

    /// [`Ftl::write`] on the untimed warm-up path: the same state changes,
    /// no flash ops built.
    ///
    /// # Errors
    ///
    /// As [`Ftl::write`].
    pub fn write_untimed(&mut self, lpn: Lpn, now: SimTime) -> Result<(), FtlError> {
        self.write_to(lpn, now, &mut None)
    }

    fn write_to(&mut self, lpn: Lpn, now: SimTime, ops: &mut OpSink<'_>) -> Result<(), FtlError> {
        if self.power_lost {
            return Err(FtlError::PowerLoss);
        }
        if let Some(reason) = self.read_only {
            return Err(self.reject_write(lpn, now, reason));
        }
        self.collect_if_needed(now, ops);
        if self.power_lost {
            return Err(FtlError::PowerLoss);
        }
        match self.program_data(lpn, AllocSource::Host, now, Priority::HostWrite, ops) {
            Some(page) => {
                if let Some(old) = self.map.map(lpn, page) {
                    self.blocks.invalidate_page(old.block(&self.geometry));
                }
                self.stats.host_writes += 1;
                Ok(())
            }
            None if self.power_lost => Err(FtlError::PowerLoss),
            None => match self.read_only {
                Some(reason) => Err(self.reject_write(lpn, now, reason)),
                None => Err(FtlError::OutOfSpace),
            },
        }
    }

    fn reject_write(&mut self, lpn: Lpn, now: SimTime, reason: &'static str) -> FtlError {
        self.stats.rejected_writes += 1;
        self.trace
            .emit_with(|| TraceEvent::WriteRejected { t: now, lpn: lpn.0 });
        FtlError::ReadOnly { reason }
    }

    /// Host trim/discard of `lpn`. Trim is volatile and advisory: it only
    /// updates the in-DRAM map, so trimmed data may resurrect after a
    /// power loss (the OOB record still names it newest — the behavior
    /// real SSDs exhibit with non-deterministic trim).
    pub fn trim(&mut self, lpn: Lpn) {
        if let Some(old) = self.map.unmap(lpn) {
            self.blocks.invalidate_page(old.block(&self.geometry));
        }
    }

    /// Account one persistent operation against the armed fault plan.
    /// Returns `true` when power was lost — the caller must abandon its
    /// in-flight mutation *before* touching persistent state.
    fn persist(&mut self, now: SimTime) -> bool {
        if self.in_recovery {
            return false;
        }
        match self.injector.persist() {
            PersistOutcome::Committed => false,
            PersistOutcome::PowerLost { op_index } => {
                self.power_lost = true;
                self.stats.power_losses += 1;
                self.trace
                    .emit_with(|| TraceEvent::FaultPowerLoss { t: now, op_index });
                true
            }
        }
    }

    fn enter_read_only(&mut self, now: SimTime, reason: &'static str) {
        if self.read_only.is_none() {
            self.read_only = Some(reason);
            self.trace
                .emit_with(|| TraceEvent::ReadOnlyMode { t: now, reason });
        }
    }

    /// Allocate a destination page for `src`, applying the source-specific
    /// pressure-relief strategy. `None` means power loss or degradation.
    fn try_alloc(
        &mut self,
        src: AllocSource,
        now: SimTime,
        ops: &mut OpSink<'_>,
    ) -> Option<PageAddr> {
        match src {
            AllocSource::Host => {
                if let Some(p) = self.alloc.allocate(&mut self.blocks, now) {
                    return Some(p);
                }
                self.force_collect(now, ops);
                if self.power_lost {
                    return None;
                }
                self.alloc.allocate(&mut self.blocks, now)
            }
            AllocSource::Reloc { prefer_bit } => {
                // Long refresh chains can outrun the watermark GC that the
                // host write path performs; reclaim the globally cheapest
                // victim (empty carcasses first) until an allocation
                // succeeds. Under fault injection reclaim can genuinely
                // stall (erases failing everywhere), so the bound degrades
                // to read-only instead of panicking.
                let mut attempts = 0u32;
                loop {
                    if let Some(p) = self.allocate_maybe_preferring(prefer_bit, now) {
                        return Some(p);
                    }
                    if self.power_lost {
                        return None;
                    }
                    attempts += 1;
                    if attempts > 64 || !self.reclaim_cheapest(now, ops) {
                        self.enter_read_only(now, "relocation space exhausted");
                        return None;
                    }
                    if self.power_lost {
                        return None;
                    }
                }
            }
            AllocSource::Gc { plane } => {
                // Prefer spreading relocated pages across the device
                // (otherwise a nearly-full victim would eat the very pool
                // its erase refills); the per-plane reserve is the
                // fallback of last resort. Fault injection can break the
                // reserve guarantee (failed pages burn allocations, failed
                // erases never repay), so exhaustion degrades gracefully.
                let dest = self
                    .alloc
                    .allocate(&mut self.blocks, now)
                    .or_else(|| self.alloc.allocate_gc(plane, &mut self.blocks, now));
                if dest.is_none() && !self.power_lost {
                    self.enter_read_only(now, "GC reserve exhausted");
                }
                dest
            }
        }
    }

    /// Program `lpn`'s data onto a freshly allocated page, absorbing
    /// injected program failures by redirecting to another fresh page
    /// (the victim page is marked failed and stays burned until its
    /// block's next erase). Returns the page that took the data, or
    /// `None` on power loss / degradation.
    fn program_data(
        &mut self,
        lpn: Lpn,
        src: AllocSource,
        now: SimTime,
        priority: Priority,
        ops: &mut OpSink<'_>,
    ) -> Option<PageAddr> {
        let mut attempts = 0u32;
        loop {
            if self.power_lost {
                return None;
            }
            let page = self.try_alloc(src, now, ops)?;
            emit(ops, || self.program_op(page, priority));
            if self.persist(now) {
                return None;
            }
            if attempts < MAX_REDIRECTS && !self.in_recovery && self.injector.program_fails() {
                attempts += 1;
                self.stats.injected_program_fails += 1;
                self.oob.record_failed(page);
                self.blocks.invalidate_page(page.block(&self.geometry));
                self.after_allocation(page, now);
                self.trace.emit_with(|| TraceEvent::FaultProgramFail {
                    t: now,
                    block: page.block(&self.geometry).0 as u64,
                    page: page.0,
                });
                continue;
            }
            self.oob.record_program(page, lpn.0);
            self.after_allocation(page, now);
            if attempts > 0 {
                self.stats.write_redirects += 1;
                self.trace.emit_with(|| TraceEvent::WriteRedirect {
                    t: now,
                    lpn: lpn.0,
                    page: page.0,
                    attempts,
                });
            }
            return Some(page);
        }
    }

    /// The earliest pending refresh due-time, if any (may be stale; calling
    /// [`Ftl::run_due_refreshes`] at that time resolves staleness).
    pub fn next_refresh_due(&self) -> Option<SimTime> {
        self.refresh_q.next_due()
    }

    /// Execute every refresh due at `now`, returning the flash ops.
    pub fn run_due_refreshes(&mut self, now: SimTime) -> Vec<FlashOp> {
        let mut ops = Vec::new();
        loop {
            if self.power_lost {
                break;
            }
            let blocks = &self.blocks;
            let due = self.refresh_q.pop_due(now, |b, snap| {
                matches!(blocks.state(b), BlockState::Closed | BlockState::Ida)
                    && blocks.closed_at(b) == snap
            });
            match due {
                Some(block) => self.refresh_block(block, now, &mut ops),
                None => break,
            }
        }
        ops
    }

    /// When the next patrol-scrub pass is due. `None` while aging is
    /// disarmed, scrub is disabled, or the device can no longer relocate
    /// (power lost / read-only).
    pub fn next_scrub_due(&self) -> Option<SimTime> {
        if self.power_lost || self.read_only.is_some() {
            return None;
        }
        self.next_scrub_at
    }

    /// Run one patrol-scrub pass: examine the next `scrub_chunk` blocks,
    /// relocate wordlines whose read-disturb count or retention age
    /// crossed the armed thresholds, then let the wear-leveler migrate
    /// cold data off the least-worn block if the wear spread exceeds its
    /// target. Returns the background flash ops; reschedules itself one
    /// scrub period out.
    pub fn run_scrub_pass(&mut self, now: SimTime) -> Vec<FlashOp> {
        let mut ops = Vec::new();
        let Some(due) = self.next_scrub_due() else {
            return ops;
        };
        if now < due {
            return ops;
        }
        let sink = &mut Some(&mut ops);
        let aging = self.cfg.aging.clone();
        let saved = self.op_origin;
        self.op_origin = OpOrigin::Refresh;
        let total = self.geometry.total_blocks();
        let mut scanned = 0u32;
        let mut relocated = 0u32;
        'scan: for _ in 0..aging.scrub_chunk.min(total) {
            if self.power_lost || self.read_only.is_some() {
                break;
            }
            let b = BlockAddr(self.scrub_cursor);
            self.scrub_cursor = (self.scrub_cursor + 1) % total;
            scanned += 1;
            if !matches!(self.blocks.state(b), BlockState::Closed | BlockState::Ida) {
                continue;
            }
            let age = now.saturating_sub(self.blocks.closed_at(b));
            let retention_risk = aging.retention_threshold > 0 && age >= aging.retention_threshold;
            for wl in 0..self.geometry.wordlines_per_block {
                let disturbed = aging.disturb_threshold > 0
                    && self.blocks.wl_reads(b, wl) >= aging.disturb_threshold;
                if !retention_risk && !disturbed {
                    continue;
                }
                for bit in 0..self.geometry.bits_per_cell as u8 {
                    let page = self.block_page(b, wl, bit);
                    if !self.map.is_valid(page) {
                        continue;
                    }
                    emit(sink, || self.read_op(page, Priority::Background));
                    if !self.relocate(page, RELOC, now, sink) {
                        break 'scan;
                    }
                    self.stats.scrub_relocations += 1;
                    relocated += 1;
                }
            }
        }
        let wear_moves = self.wear_level_pass(now, &aging, sink);
        self.stats.scrub_passes += 1;
        self.trace.emit_with(|| TraceEvent::ScrubPass {
            t: now,
            scanned,
            relocated,
            wear_moves,
        });
        self.next_scrub_at = Some(now.saturating_add(aging.scrub_period.max(1)));
        self.op_origin = saved;
        ops
    }

    /// Migrate valid data off the coldest (least-worn) block when the
    /// device's wear spread exceeds the armed target, then erase it so it
    /// rejoins the hot allocation rotation. Returns pages moved.
    fn wear_level_pass(&mut self, now: SimTime, aging: &AgingConfig, ops: &mut OpSink<'_>) -> u32 {
        if self.power_lost || self.read_only.is_some() || aging.wear_spread_target == 0 {
            return 0;
        }
        let summary = self.blocks.wear_summary();
        if summary.spread <= aging.wear_spread_target {
            return 0;
        }
        let Some(cold) = self.blocks.coldest_block(self.refresh_target) else {
            return 0;
        };
        let mut moves = 0u32;
        for off in 0..self.geometry.pages_per_block() {
            let page = cold.page(&self.geometry, off);
            if !self.map.is_valid(page) {
                continue;
            }
            emit(ops, || self.read_op(page, Priority::Background));
            if !self.relocate(page, RELOC, now, ops) {
                return moves;
            }
            self.stats.wear_level_moves += 1;
            moves += 1;
        }
        if !self.power_lost && self.read_only.is_none() && self.blocks.valid_pages(cold) == 0 {
            self.erase_block(cold, now, ops);
        }
        self.trace.emit_with(|| TraceEvent::WearLevel {
            t: now,
            block: cold.0 as u64,
            moves,
            spread: summary.spread,
        });
        moves
    }

    /// Handle a read whose retry ladder exhausted: the final heroic read
    /// recovered the data, so it is immediately relocated to a fresh block
    /// and remapped (never silent corruption — the at-risk physical page
    /// is retired from service until its block's next erase). Returns the
    /// background relocation ops.
    pub fn handle_uncorrectable(&mut self, lpn: Lpn, page: PageAddr, now: SimTime) -> Vec<FlashOp> {
        let mut ops = Vec::new();
        self.stats.ecc_uncorrectables += 1;
        let block = page.block(&self.geometry);
        self.trace.emit_with(|| TraceEvent::EccUncorrectable {
            t: now,
            lpn: lpn.0,
            page: page.0,
            block: block.0 as u64,
            attempts: self.cfg.aging.ladder_depth,
        });
        if self.power_lost || self.read_only.is_some() {
            return ops;
        }
        // The map may have moved the page since the read was issued
        // (refresh/GC raced it); the data is safe elsewhere — nothing to do.
        if self.map.owner(page) != Some(lpn) {
            return ops;
        }
        let saved = self.op_origin;
        self.op_origin = OpOrigin::Refresh;
        self.relocate(page, RELOC, now, &mut Some(&mut ops));
        self.op_origin = saved;
        ops
    }

    /// Account `extra` ladder retry attempts charged by the simulator.
    pub fn note_ladder_retries(&mut self, extra: u32) {
        self.stats.ladder_retries += u64::from(extra);
    }

    /// Whether `lpn` currently maps to a physical page (soak-harness
    /// invariant: every acked write stays mapped for the device lifetime).
    pub fn is_mapped(&self, lpn: Lpn) -> bool {
        self.map.translate(lpn).is_some()
    }

    /// Refresh one block immediately (also used by tests and experiments
    /// that drive refresh manually). No-op once power is lost or the
    /// device went read-only (a degraded device stops background work).
    pub fn refresh_block(&mut self, block: BlockAddr, now: SimTime, ops: &mut Vec<FlashOp>) {
        self.refresh(block, now, &mut Some(ops));
    }

    /// [`Ftl::refresh_block`] on the untimed warm-up path: the same state
    /// changes, no flash ops built.
    pub fn refresh_block_untimed(&mut self, block: BlockAddr, now: SimTime) {
        self.refresh(block, now, &mut None);
    }

    fn refresh(&mut self, block: BlockAddr, now: SimTime, ops: &mut OpSink<'_>) {
        if self.power_lost || self.read_only.is_some() {
            return;
        }
        self.refresh_target = Some(block);
        let saved = self.op_origin;
        self.op_origin = OpOrigin::Refresh;
        // The plan lives outside `self` while the FTL carries it out.
        let mut scratch = std::mem::take(&mut self.refresh_scratch);
        self.refresh_block_inner(block, now, &mut scratch, ops);
        self.refresh_scratch = scratch;
        self.op_origin = saved;
        self.refresh_target = None;
    }

    fn refresh_block_inner(
        &mut self,
        block: BlockAddr,
        now: SimTime,
        scratch: &mut RefreshScratch,
        ops: &mut OpSink<'_>,
    ) {
        self.stats.refreshes += 1;
        let moves_before = self.stats.refresh_moves;
        let state = self.blocks.state(block);
        let RefreshScratch { valid_masks, plan } = scratch;
        let first = block.first_page(&self.geometry).0 as usize;
        let pages = first..first + self.geometry.pages_per_block() as usize;
        self.map
            .wordline_masks(pages, self.geometry.bits_per_cell as usize, valid_masks);

        // IDA blocks are reclaimed on their next cycle: baseline move-all,
        // regardless of the configured mode (Section III-C).
        if state == BlockState::Ida || self.planner.mode() == RefreshMode::Baseline {
            let mut baseline = RefreshPlanner::new(
                self.geometry.bits_per_cell as u8,
                RefreshMode::Baseline,
                InterferenceModel::new(0.0),
            );
            baseline.plan_into(valid_masks, plan);
        } else {
            self.planner.plan_into(valid_masks, plan);
            self.stats.refresh_overhead.record(plan);
        }

        // Step 1: read every valid page (and charge its current coding).
        for &(wl, bit) in &plan.initial_reads {
            emit(ops, || {
                self.read_op(self.block_page(block, wl, bit), Priority::Background)
            });
        }
        // Step 3: migrate non-beneficial pages (plain CWDP placement) and
        // evicted pages (placed on same-type — typically fast LSB — slots
        // of new blocks, Section III-C).
        for &(wl, bit) in &plan.moves {
            let page = self.block_page(block, wl, bit);
            if !self.relocate(page, RELOC, now, ops) {
                return;
            }
            self.stats.refresh_moves += 1;
        }
        for &(wl, bit) in &plan.evictions {
            let page = self.block_page(block, wl, bit);
            let prefer_bit = self.cfg.lsb_placement.then_some(bit);
            if !self.relocate(page, AllocSource::Reloc { prefer_bit }, now, ops) {
                return;
            }
            self.stats.refresh_moves += 1;
        }
        // Step 4: voltage-adjust the selected wordlines under the intent
        // journal. Protocol: persist the intent, then per wordline persist
        // the pulse (merge record) and persist the commit mark; the intent
        // is cleared only after the verification reads and error writes.
        // A crash at any point leaves each wordline either fully merged
        // (rolled forward by recovery) or fully unmerged.
        if !plan.adjusted_wordlines.is_empty() {
            let masks: Vec<(u32, u8)> = plan
                .adjusted_wordlines
                .iter()
                .copied()
                .zip(plan.keep_masks.iter().copied())
                .collect();
            if self.persist(now) {
                return;
            }
            self.oob.set_intent(block, &masks);
            for &(wl, mask) in &masks {
                emit(ops, || FlashOp {
                    kind: FlashOpKind::VoltageAdjust,
                    die: block.die(&self.geometry),
                    channel: block.channel(&self.geometry),
                    block,
                    page: None,
                    priority: Priority::Background,
                    origin: self.op_origin,
                });
                if self.persist(now) {
                    return;
                }
                self.oob.record_merge(block, wl, mask);
                if self.persist(now) {
                    return;
                }
                self.oob.commit_merge(block, wl);
            }
            self.blocks.mark_ida(block, &masks, now);
            self.stats.ida_conversions += 1;
            self.stats.voltage_adjusts += plan.adjusted_wordlines.len() as u64;
            self.trace.emit_with(|| TraceEvent::IdaConversion {
                t: now,
                block: block.0 as u64,
                wordlines: plan.adjusted_wordlines.len() as u32,
            });
            // Step 5: verification reads under the merged coding.
            for &(wl, bit) in &plan.verify_reads {
                emit(ops, || {
                    self.read_op(self.block_page(block, wl, bit), Priority::Background)
                });
            }
            // Step 8: corrupted pages move to the new block after all.
            for &(wl, bit) in &plan.error_writes {
                let page = self.block_page(block, wl, bit);
                if !self.relocate(page, RELOC, now, ops) {
                    return;
                }
            }
            if self.persist(now) {
                return;
            }
            self.oob.clear_intent(block);
            // Schedule the forced reclaim of the new IDA block.
            self.refresh_q
                .schedule(block, now, now + self.cfg.refresh_period);
        }
        // A baseline-refreshed block is left fully invalid for GC to erase.
        self.trace.emit_with(|| TraceEvent::RefreshBlock {
            t: now,
            block: block.0 as u64,
            moves: (self.stats.refresh_moves - moves_before) as u32,
            adjusted_wordlines: plan.adjusted_wordlines.len() as u32,
            ida: !plan.adjusted_wordlines.is_empty(),
        });
    }

    /// Garbage-collect `plane`-local space until the high watermark is
    /// restored (or no victims remain). Returns whether anything happened.
    fn collect(&mut self, plane: PlaneAddr, now: SimTime, ops: &mut OpSink<'_>) -> bool {
        let mut progressed = false;
        // Power loss and read-only degradation both stop GC cold: a
        // degraded device can no longer relocate, so re-selecting the same
        // victim would spin forever.
        while !self.power_lost
            && self.read_only.is_none()
            && self.alloc.free_count(plane) < self.cfg.gc_high_watermark
        {
            let Some(victim) = gc::select_victim(&self.blocks, plane, self.refresh_target) else {
                break;
            };
            self.collect_victim(victim, now, ops);
            progressed = true;
        }
        progressed
    }

    /// Reclaim the globally cheapest victim (fewest valid pages; an empty
    /// carcass whenever one exists). Returns false when nothing is
    /// reclaimable.
    fn reclaim_cheapest(&mut self, now: SimTime, ops: &mut OpSink<'_>) -> bool {
        // O(planes) via the victim index — the global minimum under the
        // same (valid, erases, BlockAddr) ordering the old device-wide
        // scan produced (fully valid blocks yield no net space and are
        // skipped; see gc::select_victim).
        let victim = self.blocks.victim_global(self.refresh_target);
        match victim {
            Some(v) => {
                self.collect_victim(v, now, ops);
                true
            }
            None => false,
        }
    }

    /// Relocate a victim's valid pages within its plane and erase it.
    /// Bails (leaving the victim unerased, its remaining pages intact) on
    /// power loss or read-only degradation mid-copy.
    fn collect_victim(&mut self, victim: BlockAddr, now: SimTime, ops: &mut OpSink<'_>) {
        // GC can trigger inside a refresh (relocation pressure); its ops
        // are still GC interference, so the class wins over Refresh here.
        let saved = self.op_origin;
        self.op_origin = OpOrigin::Gc;
        self.collect_victim_inner(victim, now, ops);
        self.op_origin = saved;
    }

    fn collect_victim_inner(&mut self, victim: BlockAddr, now: SimTime, ops: &mut OpSink<'_>) {
        self.stats.gc_runs += 1;
        let plane = victim.plane(&self.geometry);
        let mut copies = 0u32;
        for off in 0..self.geometry.pages_per_block() {
            let page = victim.page(&self.geometry, off);
            if self.map.is_valid(page) {
                emit(ops, || self.read_op(page, Priority::Background));
                if !self.relocate(page, AllocSource::Gc { plane }, now, ops) {
                    return;
                }
                self.stats.gc_copies += 1;
                copies += 1;
            }
        }
        self.trace.emit_with(|| TraceEvent::GcRun {
            t: now,
            block: victim.0 as u64,
            copies,
        });
        self.erase_block(victim, now, ops);
    }

    /// Erase an emptied block, absorbing injected erase failures (the
    /// block retires) and retiring blocks whose failed-page count crossed
    /// the grown-bad threshold.
    fn erase_block(&mut self, victim: BlockAddr, now: SimTime, ops: &mut OpSink<'_>) {
        emit(ops, || FlashOp {
            kind: FlashOpKind::Erase,
            die: victim.die(&self.geometry),
            channel: victim.channel(&self.geometry),
            block: victim,
            page: None,
            priority: Priority::Background,
            origin: self.op_origin,
        });
        if self.persist(now) {
            return;
        }
        if !self.in_recovery && self.injector.erase_fails() {
            self.stats.injected_erase_fails += 1;
            self.trace.emit_with(|| TraceEvent::FaultEraseFail {
                t: now,
                block: victim.0 as u64,
            });
            self.retire_block(victim, now, "erase_failure");
            return;
        }
        let failed_pages = self.oob.failed_count(victim);
        self.oob.record_erase(victim);
        self.blocks.erase(victim);
        self.stats.erases += 1;
        let threshold = self.cfg.faults.bad_block_threshold;
        if threshold > 0 && failed_pages >= threshold {
            self.retire_block(victim, now, "program_failures");
        } else {
            self.alloc.push_free(victim);
        }
    }

    /// Retire `block` to the grown-bad list, promoting a spare from its
    /// plane's pool when one remains; otherwise the device degrades to
    /// read-only (the explicit-degradation path).
    fn retire_block(&mut self, block: BlockAddr, now: SimTime, reason: &'static str) {
        self.blocks.mark_bad(block);
        self.oob.mark_bad(block);
        self.stats.retired_blocks += 1;
        let spare = self.alloc.take_spare(block.plane(&self.geometry));
        if let Some(s) = spare {
            self.oob.set_spare(s, false);
            self.alloc.push_free(s);
        }
        self.trace.emit_with(|| TraceEvent::BlockRetired {
            t: now,
            block: block.0 as u64,
            reason,
            spare_used: spare.is_some(),
        });
        if spare.is_none() {
            self.enter_read_only(now, "spare pool exhausted");
        }
    }

    fn collect_if_needed(&mut self, now: SimTime, ops: &mut OpSink<'_>) {
        let (plane, free) = self.alloc.tightest_plane();
        if free < self.cfg.gc_low_watermark {
            self.collect(plane, now, ops);
        }
    }

    fn force_collect(&mut self, now: SimTime, ops: &mut OpSink<'_>) {
        let planes = self.geometry.total_planes();
        for p in 0..planes {
            if self.power_lost {
                return;
            }
            self.collect(PlaneAddr(p), now, ops);
        }
    }

    /// Move a valid page into a location allocated from `src`, emitting
    /// the program op (the read is charged by the caller where
    /// appropriate): a `Reloc` may prefer a destination page type, and a
    /// `Gc` copy-out stays inside the victim's plane, using the GC reserve
    /// (the erase about to happen repays it) when device-wide allocation
    /// fails. Returns false on power loss or read-only degradation (the
    /// source page keeps its data).
    fn relocate(
        &mut self,
        from: PageAddr,
        src: AllocSource,
        now: SimTime,
        ops: &mut OpSink<'_>,
    ) -> bool {
        let Some(lpn) = self.map.owner(from) else {
            return true; // Already superseded; nothing to move.
        };
        let Some(dest) = self.program_data(lpn, src, now, Priority::Background, ops) else {
            return false;
        };
        let moved = self.map.relocate(from, dest);
        debug_assert_eq!(moved, Some(lpn), "relocation source {from} was invalid");
        self.blocks.invalidate_page(from.block(&self.geometry));
        true
    }

    fn allocate_maybe_preferring(
        &mut self,
        prefer_bit: Option<u8>,
        now: SimTime,
    ) -> Option<PageAddr> {
        match prefer_bit {
            Some(bit) => self.alloc.allocate_preferring(bit, &mut self.blocks, now),
            None => self.alloc.allocate(&mut self.blocks, now),
        }
    }

    /// Post-allocation bookkeeping: schedule refresh when a block closes.
    fn after_allocation(&mut self, page: PageAddr, now: SimTime) {
        let block = page.block(&self.geometry);
        if self.blocks.state(block) == BlockState::Closed
            && page.offset_in_block(&self.geometry) == self.geometry.pages_per_block() - 1
        {
            self.refresh_q.schedule(
                block,
                self.blocks.closed_at(block),
                now + self.cfg.refresh_period,
            );
        }
    }

    /// Rebuild all volatile state from the simulated OOB metadata after a
    /// power loss (callable any time; the scan is idempotent).
    ///
    /// Phases: (1) resolve open refresh-adjustment intents per wordline —
    /// a recorded pulse is rolled forward to committed, an unrecorded one
    /// leaves the wordline conventionally coded, and kept pages of pulsed
    /// wordlines are queued for a conservative scrub (their verification
    /// may not have happened); (2) rebuild the L2P map from page records,
    /// newest sequence number winning; (3) reconstruct the block table
    /// from programmed/bad/committed-mask state; (4) re-pool the
    /// allocator; (5) reschedule refresh for every closed block; (6) run
    /// the scrub relocations. Power-lost status clears; read-only status
    /// is re-derived from the persistent bad/spare state.
    pub fn recover(&mut self, now: SimTime) -> RecoveryReport {
        self.in_recovery = true;
        let mut report = RecoveryReport::default();

        // Phase 1: wordline-atomicity resolution.
        let mut scrub_pages: Vec<PageAddr> = Vec::new();
        for block in self.oob.open_intents() {
            let intent = self
                .oob
                .intent(block)
                .expect("listed as an open intent")
                .to_vec();
            for (wl, mask) in intent {
                if self.oob.merged_mask(block, wl) == mask {
                    if !self.oob.is_committed(block, wl) {
                        self.oob.commit_merge(block, wl);
                        report.rolled_forward += 1;
                    }
                    for bit in 0..self.geometry.bits_per_cell as u8 {
                        if mask & (1 << bit) != 0 {
                            scrub_pages.push(self.block_page(block, wl, bit));
                        }
                    }
                }
                // No merge record: the pulse never landed; the wordline
                // keeps its conventional coding.
            }
            self.oob.clear_intent(block);
        }

        // Phase 2: L2P rebuild, newest sequence number wins. Records come
        // in page order and each replaces its LPN's mapping unless that
        // one is newer (a tie would go to the later page). The map is
        // rebuilt in place, so recovery holds no device-sized copy.
        self.map.clear();
        for (page, lpn, seq) in self.oob.data_records() {
            let newer = self.map.translate(Lpn(lpn)).is_some_and(
                |cur| matches!(self.oob.page(cur), PageRecord::Data { seq: s, .. } if s > seq),
            );
            if !newer {
                self.map.map(Lpn(lpn), page);
            }
        }
        report.rebuilt_mappings = self.map.mapped_count();

        // Phase 3: block table reconstruction.
        let full = self.geometry.pages_per_block();
        let zero_masks = vec![0u8; self.geometry.wordlines_per_block as usize];
        let mut blocks = BlockTable::new(self.geometry);
        for i in 0..self.geometry.total_blocks() {
            let b = BlockAddr(i);
            let erases = self.oob.erase_count(b);
            if self.oob.is_bad(b) {
                blocks.restore(b, BlockState::Bad, 0, 0, erases, 0, &zero_masks);
                continue;
            }
            let programmed = self.oob.programmed_count(b);
            let valid = (0..full)
                .filter(|&off| self.map.is_valid(b.page(&self.geometry, off)))
                .count() as u32;
            if programmed == 0 {
                blocks.restore(b, BlockState::Free, 0, 0, erases, 0, &zero_masks);
            } else if programmed < full {
                blocks.restore(
                    b,
                    BlockState::Open,
                    programmed,
                    valid,
                    erases,
                    0,
                    &zero_masks,
                );
                report.open_blocks += 1;
            } else {
                let masks = self.oob.committed_masks(b);
                let state = if masks.iter().any(|&m| m != 0) {
                    BlockState::Ida
                } else {
                    BlockState::Closed
                };
                blocks.restore(b, state, full, valid, erases, now, &masks);
            }
        }
        report.bad_blocks = blocks.bad_blocks();

        // Phase 4: allocator pools from the recovered states.
        let oob = &self.oob;
        let alloc = Allocator::rebuild(self.geometry, |b| match blocks.state(b) {
            BlockState::Free if oob.is_spare(b) => RecoveredPool::Spare,
            BlockState::Free => RecoveredPool::Free,
            BlockState::Open => RecoveredPool::Active,
            _ => RecoveredPool::None,
        });

        // Phase 5: every surviving closed block is rescheduled for refresh
        // one full period out (its retention clock restarts conservatively
        // from the recovery point).
        let mut refresh_q = RefreshQueue::new();
        for i in 0..self.geometry.total_blocks() {
            let b = BlockAddr(i);
            if matches!(blocks.state(b), BlockState::Closed | BlockState::Ida) {
                refresh_q.schedule(b, blocks.closed_at(b), now + self.cfg.refresh_period);
            }
        }

        self.blocks = blocks;
        self.alloc = alloc;
        self.refresh_q = refresh_q;
        self.refresh_target = None;
        self.power_lost = false;
        self.read_only = None;
        if self.blocks.bad_blocks() > 0 && self.alloc.total_spares() == 0 {
            // Re-derive degradation: retirements exist and no spare could
            // cover the next one.
            self.enter_read_only(now, "spare pool exhausted");
        }

        // Phase 6: conservative scrub of kept pages whose post-adjustment
        // verification was interrupted. No flash ops are built — the
        // simulator charges recovery as a single stall.
        for page in scrub_pages {
            if self.map.is_valid(page) && self.relocate(page, RELOC, now, &mut None) {
                report.scrubbed += 1;
            }
        }

        self.stats.recoveries += 1;
        self.trace.emit_with(|| TraceEvent::RecoveryScan {
            t: now,
            rebuilt_mappings: report.rebuilt_mappings,
            rolled_forward: report.rolled_forward,
            scrubbed: report.scrubbed,
            bad_blocks: report.bad_blocks,
        });
        self.in_recovery = false;
        report
    }

    /// Cross-check the volatile structures against each other and the OOB
    /// metadata. Used by recovery tests; `Err` carries the first violated
    /// invariant.
    pub fn check_consistency(&self) -> Result<(), String> {
        for l in 0..self.map.logical_pages() {
            if let Some(p) = self.map.translate(Lpn(l)) {
                if self.map.owner(p) != Some(Lpn(l)) {
                    return Err(format!("l2p/p2l mismatch at lpn {l}"));
                }
            }
        }
        let full = self.geometry.pages_per_block();
        for i in 0..self.geometry.total_blocks() {
            let b = BlockAddr(i);
            let valid = (0..full)
                .filter(|&off| self.map.is_valid(b.page(&self.geometry, off)))
                .count() as u32;
            if valid != self.blocks.valid_pages(b) {
                return Err(format!(
                    "block {b}: table counts {} valid pages, map counts {valid}",
                    self.blocks.valid_pages(b)
                ));
            }
            let state = self.blocks.state(b);
            for wl in 0..self.geometry.wordlines_per_block {
                let merged = self.oob.merged_mask(b, wl);
                let committed = self.oob.is_committed(b, wl);
                if committed && merged == 0 {
                    return Err(format!(
                        "block {b} wl {wl}: committed without a merge record"
                    ));
                }
                if merged != 0 && !committed && self.oob.intent(b).is_none() {
                    return Err(format!(
                        "block {b} wl {wl}: half-merged (pulse landed, never \
                         committed, no open intent)"
                    ));
                }
                let authoritative = if committed { merged } else { 0 };
                if authoritative != 0 && !matches!(state, BlockState::Ida | BlockState::Bad) {
                    return Err(format!(
                        "block {b} wl {wl}: committed merge on a {state:?} block"
                    ));
                }
                if state == BlockState::Ida && self.blocks.wl_keep_mask(b, wl) != authoritative {
                    return Err(format!(
                        "block {b} wl {wl}: volatile keep-mask {} != committed mask \
                         {authoritative}",
                        self.blocks.wl_keep_mask(b, wl)
                    ));
                }
            }
        }
        Ok(())
    }

    fn block_page(&self, block: BlockAddr, wl: u32, bit: u8) -> PageAddr {
        block.page(
            &self.geometry,
            wl * self.geometry.bits_per_cell + u32::from(bit),
        )
    }

    fn read_op(&self, page: PageAddr, priority: Priority) -> FlashOp {
        FlashOp {
            kind: FlashOpKind::Read {
                senses: self.senses_for(page),
            },
            die: page.die(&self.geometry),
            channel: page.channel(&self.geometry),
            block: page.block(&self.geometry),
            page: Some(page),
            priority,
            origin: self.op_origin,
        }
    }

    fn program_op(&self, page: PageAddr, priority: Priority) -> FlashOp {
        FlashOp {
            kind: FlashOpKind::Program,
            die: page.die(&self.geometry),
            channel: page.channel(&self.geometry),
            block: page.block(&self.geometry),
            page: Some(page),
            priority,
            origin: self.op_origin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ftl_with(mode: RefreshMode) -> Ftl {
        Ftl::new(FtlConfig {
            geometry: Geometry::tiny(),
            refresh_mode: mode,
            adjust_error_rate: 0.0,
            refresh_period: 1_000_000,
            ..FtlConfig::default()
        })
    }

    fn faulty_ftl(faults: FaultConfig, spares: u32) -> Ftl {
        Ftl::new(FtlConfig {
            geometry: Geometry::tiny(),
            adjust_error_rate: 0.0,
            refresh_period: 1_000_000,
            spare_blocks_per_plane: spares,
            faults,
            ..FtlConfig::default()
        })
    }

    #[test]
    fn write_then_read_translates() {
        let mut ftl = ftl_with(RefreshMode::Baseline);
        let ops = ftl.write(Lpn(7), 0).unwrap();
        assert!(matches!(ops.last().unwrap().kind, FlashOpKind::Program));
        let read = ftl.read(Lpn(7)).unwrap();
        assert_eq!(read.senses, 1); // first allocation lands on an LSB page
        assert_eq!(read.scenario, ReadScenario::Lsb);
    }

    #[test]
    fn unwritten_lpn_reads_none() {
        let mut ftl = ftl_with(RefreshMode::Baseline);
        assert!(ftl.read(Lpn(3)).is_none());
    }

    #[test]
    fn overwrite_invalidates_previous_page() {
        let mut ftl = ftl_with(RefreshMode::Baseline);
        ftl.write(Lpn(1), 0).unwrap();
        let first = ftl.read(Lpn(1)).unwrap().page;
        ftl.write(Lpn(1), 1).unwrap();
        let second = ftl.read(Lpn(1)).unwrap().page;
        assert_ne!(first, second);
        assert!(!ftl.is_valid(first));
    }

    #[test]
    fn csb_read_with_invalid_lsb_is_classified() {
        let g = Geometry::tiny();
        let mut ftl = ftl_with(RefreshMode::Baseline);
        // Fill one wordline per plane: lpns 0.. land striped; write enough
        // that WL0 of some block holds LSB/CSB/MSB = lpn (0,2,4) etc.
        // Simpler: write lpns until some lpn sits on a CSB page.
        let mut csb_lpn = None;
        for i in 0..32 {
            ftl.write(Lpn(i), 0).unwrap();
            if ftl.read(Lpn(i)).unwrap().page_type == PageType::Csb {
                csb_lpn = Some(Lpn(i));
                break;
            }
        }
        let csb_lpn = csb_lpn.expect("some write landed on a CSB page");
        let csb_page = ftl.read(csb_lpn).unwrap().page;
        assert_eq!(
            ftl.read(csb_lpn).unwrap().scenario,
            ReadScenario::CsbLowerValid
        );
        // Invalidate the LSB of the same wordline by overwriting its owner.
        let wl = csb_page.wordline(&g);
        let lsb_page = wl.page(&g, PageType::Lsb);
        let owner = (0..32)
            .map(Lpn)
            .find(|&l| ftl.read(l).map(|r| r.page) == Some(lsb_page))
            .expect("lsb owner");
        ftl.write(owner, 1).unwrap();
        assert_eq!(
            ftl.read(csb_lpn).unwrap().scenario,
            ReadScenario::CsbLowerInvalid
        );
    }

    #[test]
    fn ida_refresh_converts_block_and_speeds_reads() {
        let g = Geometry::tiny();
        let mut ftl = ftl_with(RefreshMode::Ida);
        let pages_per_block = g.pages_per_block() as u64;
        // Fill a whole stripe so at least one block closes.
        let to_write = pages_per_block * g.total_planes() as u64;
        for i in 0..to_write {
            ftl.write(Lpn(i), 0).unwrap();
        }
        // Find an MSB lpn and invalidate its wordline's LSB + CSB.
        let msb_lpn = (0..to_write)
            .map(Lpn)
            .find(|&l| ftl.read(l).map(|r| r.page_type) == Some(PageType::Msb))
            .unwrap();
        let before = ftl.read(msb_lpn).unwrap();
        assert_eq!(before.senses, 4);
        let wl = before.page.wordline(&g);
        for ty in [PageType::Lsb, PageType::Csb] {
            let p = wl.page(&g, ty);
            if let Some(owner) = (0..to_write)
                .map(Lpn)
                .find(|&l| ftl.read(l).map(|r| r.page) == Some(p))
            {
                ftl.write(owner, 1).unwrap();
            }
        }
        // Refresh the block directly.
        let block = before.page.block(&g);
        let mut ops = Vec::new();
        ftl.refresh_block(block, 10, &mut ops);
        assert_eq!(ftl.blocks().state(block), BlockState::Ida);
        let after = ftl.read(msb_lpn).unwrap();
        assert_eq!(after.scenario, ReadScenario::IdaCoded);
        assert_eq!(after.senses, 1, "case-4 wordline reads MSB in one sense");
        assert!(ops
            .iter()
            .any(|o| matches!(o.kind, FlashOpKind::VoltageAdjust)));
        // The intent journal was opened and closed around the adjustment.
        assert!(ftl.oob().open_intents().is_empty());
        ftl.check_consistency().expect("consistent after refresh");
    }

    #[test]
    fn baseline_refresh_empties_the_block() {
        let g = Geometry::tiny();
        let mut ftl = ftl_with(RefreshMode::Baseline);
        let to_write = g.pages_per_block() as u64 * g.total_planes() as u64;
        for i in 0..to_write {
            ftl.write(Lpn(i), 0).unwrap();
        }
        let block = ftl.read(Lpn(0)).unwrap().page.block(&g);
        let mut ops = Vec::new();
        ftl.refresh_block(block, 10, &mut ops);
        assert_eq!(ftl.blocks().valid_pages(block), 0);
        // Data still readable from its new location.
        assert!(ftl.read(Lpn(0)).is_some());
        assert_ne!(ftl.read(Lpn(0)).unwrap().page.block(&g), block);
    }

    #[test]
    fn gc_reclaims_space_under_pressure() {
        let mut ftl = ftl_with(RefreshMode::Baseline);
        let logical = ftl.exported_pages();
        // Write the full logical space twice; GC must kick in.
        for round in 0..2u64 {
            for i in 0..logical {
                ftl.write(Lpn(i), round).unwrap();
            }
        }
        assert!(ftl.stats().gc_runs > 0);
        assert!(ftl.stats().erases > 0);
        // All data still readable.
        assert!(ftl.read(Lpn(0)).is_some());
        assert!(ftl.read(Lpn(logical - 1)).is_some());
    }

    #[test]
    fn refresh_due_queue_fires_and_reschedules_ida_blocks() {
        let g = Geometry::tiny();
        let mut ftl = ftl_with(RefreshMode::Ida);
        let to_write = g.pages_per_block() as u64 * g.total_planes() as u64;
        for i in 0..to_write {
            ftl.write(Lpn(i), 0).unwrap();
        }
        // Invalidate some pages so IDA applies, then run due refreshes.
        for i in (0..to_write).step_by(3) {
            ftl.write(Lpn(i), 100).unwrap();
        }
        let due = ftl.next_refresh_due().expect("blocks closed");
        let ops = ftl.run_due_refreshes(due);
        assert!(!ops.is_empty());
        assert!(ftl.stats().ida_conversions > 0);
        // The IDA block was rescheduled for forced reclaim.
        assert!(ftl.next_refresh_due().is_some());
    }

    #[test]
    fn trim_invalidates_without_flash_ops() {
        let mut ftl = ftl_with(RefreshMode::Baseline);
        ftl.write(Lpn(5), 0).unwrap();
        let page = ftl.read(Lpn(5)).unwrap().page;
        ftl.trim(Lpn(5));
        assert!(ftl.read(Lpn(5)).is_none());
        assert!(!ftl.is_valid(page));
    }

    #[test]
    fn program_failures_redirect_until_the_cap_forces_success() {
        let mut ftl = faulty_ftl(
            FaultConfig {
                program_fail_prob: 1.0,
                seed: 3,
                ..FaultConfig::none()
            },
            0,
        );
        // With a certain-failure injector the write burns exactly
        // MAX_REDIRECTS pages before the cap forces it through.
        let ops = ftl.write(Lpn(0), 0).unwrap();
        assert_eq!(ftl.stats().injected_program_fails, u64::from(MAX_REDIRECTS));
        assert_eq!(ftl.stats().write_redirects, 1);
        let programs = ops
            .iter()
            .filter(|o| matches!(o.kind, FlashOpKind::Program))
            .count() as u32;
        assert_eq!(programs, MAX_REDIRECTS + 1);
        assert!(ftl.read(Lpn(0)).is_some());
        ftl.check_consistency().expect("consistent after redirects");
    }

    #[test]
    fn erase_failures_retire_blocks_and_drain_the_spares() {
        let mut ftl = faulty_ftl(
            FaultConfig {
                erase_fail_prob: 1.0,
                seed: 9,
                ..FaultConfig::none()
            },
            2,
        );
        // Every GC erase fails: blocks retire, spares promote, and once
        // the pools drain the device degrades to read-only.
        let logical = ftl.exported_pages();
        let mut failure = None;
        'outer: for round in 0..6u64 {
            for i in 0..logical {
                if let Err(e) = ftl.write(Lpn(i), round) {
                    failure = Some(e);
                    break 'outer;
                }
            }
        }
        assert!(
            matches!(failure, Some(FtlError::ReadOnly { .. })),
            "expected read-only degradation, got {failure:?}"
        );
        assert!(ftl.stats().retired_blocks > 0);
        assert_eq!(ftl.blocks().bad_blocks() as u64, ftl.stats().retired_blocks);
        // Degradation fires when the victim plane's pool drains; other
        // planes may still hold spares.
        assert!(
            ftl.total_spares() < 2 * ftl.config().geometry.total_planes() as u64,
            "some spares were promoted"
        );
        assert!(ftl.read_only_reason().is_some());
        // Reads still work on the degraded device.
        assert!(ftl.read(Lpn(0)).is_some());
        // Further writes are rejected and counted.
        assert!(ftl.write(Lpn(0), 99).is_err());
        assert!(ftl.stats().rejected_writes > 0);
    }

    #[test]
    fn power_loss_recovery_rebuilds_acked_state() {
        let mut ftl = faulty_ftl(
            FaultConfig {
                power_loss_ops: vec![40],
                seed: 1,
                ..FaultConfig::none()
            },
            0,
        );
        let mut acked = Vec::new();
        let mut crashed = false;
        for i in 0..200u64 {
            match ftl.write(Lpn(i), i) {
                Ok(_) => acked.push(Lpn(i)),
                Err(FtlError::PowerLoss) => {
                    crashed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(crashed);
        assert!(ftl.power_lost());
        assert_eq!(acked.len(), 40, "ops 0..39 committed; op 40 was lost");
        let report = ftl.recover(1_000);
        assert!(!ftl.power_lost());
        assert_eq!(report.rebuilt_mappings, acked.len() as u64);
        for lpn in &acked {
            assert!(ftl.read(*lpn).is_some(), "acked {lpn} must survive");
        }
        ftl.check_consistency().expect("consistent after recovery");
        assert_eq!(ftl.stats().recoveries, 1);
        // The device accepts writes again.
        assert!(ftl.write(Lpn(500), 2_000).is_ok());
    }
}
