//! Block status table.
//!
//! Tracks, per block: its lifecycle state, the write pointer while open,
//! the number of valid pages (for GC victim selection), the erase count
//! (wear), the time it was closed (for refresh scheduling) and — the one
//! addition the paper's scheme needs — whether the block is IDA-coded and
//! which merged coding each wordline carries (one small mask per WL,
//! matching the "additional bit per block / per WL" of Section III-C).

use crate::map::check_len;
use ida_flash::addr::{BlockAddr, PlaneAddr};
use ida_flash::geometry::Geometry;
use ida_flash::timing::SimTime;
use std::sync::OnceLock;

/// Lifecycle state of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// Erased and ready for allocation.
    Free,
    /// Currently receiving page programs.
    Open,
    /// Fully programmed, conventional coding.
    Closed,
    /// Re-programmed by IDA coding during a refresh.
    Ida,
    /// Grown bad (failed erase or repeated program failures); permanently
    /// out of circulation.
    Bad,
}

ida_snap::snap_enum!(BlockState {
    0 => BlockState::Free,
    1 => BlockState::Open,
    2 => BlockState::Closed,
    3 => BlockState::Ida,
    4 => BlockState::Bad,
});

#[derive(Debug, Clone)]
struct BlockInfo {
    state: BlockState,
    write_ptr: u32,
    valid_pages: u32,
    erase_count: u32,
    closed_at: SimTime,
}

/// Erase-count statistics across the device, as reported by
/// [`BlockTable::wear_summary`]. `spread` (max − min) is the imbalance the
/// wear-leveler acts on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearSummary {
    /// Lowest erase count of any block.
    pub min: u32,
    /// Highest erase count of any block.
    pub max: u32,
    /// Mean erase count across all blocks.
    pub mean: f64,
    /// `max − min`: the wear imbalance.
    pub spread: u32,
}

/// Per-plane greedy GC victim index: reclaimable (Closed/Ida) blocks
/// bucketed by valid-page count, each bucket ordered by the
/// `(erase_count, block)` tie-break — together the exact
/// `(valid, erases, BlockAddr)` ordering of a linear scan over
/// [`BlockTable::reclaimable_blocks`].
///
/// A bucket is a sorted `Vec`, not a `BTreeSet`: every page invalidation
/// moves one entry between neighbouring buckets, and a binary search plus
/// a short shift within one contiguous bucket beats two tree updates. Both
/// encode as a length followed by the elements in order, so the image
/// bytes do not depend on the choice.
#[derive(Debug, Clone)]
struct PlaneIndex {
    /// `buckets[valid]` holds the plane's reclaimable blocks with that
    /// many valid pages, as sorted `(erase_count, block index)` pairs.
    buckets: Vec<Vec<(u32, u32)>>,
    /// Index of the lowest non-empty bucket (== `buckets.len()` when the
    /// plane has no reclaimable blocks). Lowered directly on insert,
    /// advanced past drained buckets on remove — each advance is paid for
    /// by the insert that lowered it, so victim pops are O(1) amortized.
    min_valid: usize,
    /// Reclaimable blocks currently indexed in this plane.
    len: usize,
}

ida_snap::snap_struct!(BlockInfo {
    state,
    write_ptr,
    valid_pages,
    erase_count,
    closed_at,
});

ida_snap::snap_struct!(PlaneIndex {
    buckets,
    min_valid,
    len,
});

impl PlaneIndex {
    fn new(pages_per_block: u32) -> Self {
        let depth = pages_per_block as usize + 1;
        PlaneIndex {
            buckets: vec![Vec::new(); depth],
            min_valid: depth,
            len: 0,
        }
    }

    fn insert(&mut self, valid: u32, erases: u32, block: u32) {
        let v = valid as usize;
        let bucket = &mut self.buckets[v];
        match bucket.binary_search(&(erases, block)) {
            Ok(_) => panic!("duplicate index entry"),
            Err(at) => bucket.insert(at, (erases, block)),
        }
        self.len += 1;
        self.min_valid = self.min_valid.min(v);
    }

    fn remove(&mut self, valid: u32, erases: u32, block: u32) {
        let v = valid as usize;
        let bucket = &mut self.buckets[v];
        match bucket.binary_search(&(erases, block)) {
            Ok(at) => bucket.remove(at),
            Err(_) => panic!("missing index entry"),
        };
        self.len -= 1;
        if self.len == 0 {
            self.min_valid = self.buckets.len();
        } else if v == self.min_valid {
            while self.buckets[self.min_valid].is_empty() {
                self.min_valid += 1;
            }
        }
    }
}

/// The block status table for the whole SSD.
#[derive(Debug, Clone)]
pub struct BlockTable {
    geometry: Geometry,
    blocks: Vec<BlockInfo>,
    /// Per-wordline keep mask, `block × wordline`; 0 = conventional
    /// coding.
    wl_masks: Vec<u8>,
    /// Per-wordline host-read counts since the last erase (the
    /// read-disturb clock the aging model and the patrol scrub consume),
    /// `block × wordline`.
    wl_reads: Vec<u32>,
    /// Per-plane victim index: built from the block records by the first
    /// victim query, then maintained on every state/valid/wear transition
    /// below so GC never rescans the device. Until then nothing queries
    /// it, so nothing maintains it.
    index: OnceLock<Vec<PlaneIndex>>,
    /// Blocks currently in the `Ida` state (kept incrementally so gauges
    /// can sample it without an O(blocks) scan).
    ida_blocks: u32,
    /// Wordlines currently carrying a merged (non-zero keep mask) coding.
    adjusted_wordlines: u64,
    /// Blocks retired to the grown-bad list.
    bad_blocks: u32,
    /// Blocks in any non-`Free` state (O(1) mirror of the
    /// [`BlockTable::in_use_blocks`] definition).
    in_use: u32,
    /// Sum of erase counts across all blocks.
    total_erases: u64,
    /// Virtual P/E cycles added uniformly to every block's wear by the
    /// soak harness's accelerated-lifetime epochs. Kept outside
    /// `erase_count` so the GC victim index (ordered by per-block erase
    /// counts) never needs rebuilding: a uniform shift preserves order.
    wear_offset: u32,
}

// The victim index is derived state: an image carries the index the
// block records imply (built or not, the bytes are the same) and decodes
// it unbuilt.
impl ida_snap::Snap for BlockTable {
    fn encode(&self, w: &mut ida_snap::Writer) {
        self.geometry.encode(w);
        self.blocks.encode(w);
        self.wl_masks.encode(w);
        self.wl_reads.encode(w);
        match self.index.get() {
            Some(index) => index.encode(w),
            None => self.build_index().encode(w),
        }
        self.ida_blocks.encode(w);
        self.adjusted_wordlines.encode(w);
        self.bad_blocks.encode(w);
        self.in_use.encode(w);
        self.total_erases.encode(w);
        self.wear_offset.encode(w);
    }

    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        let geometry = Geometry::decode(r)?;
        let blocks = Vec::decode(r)?;
        let wl_masks = Vec::decode(r)?;
        let wl_reads = Vec::decode(r)?;
        let index = Vec::<PlaneIndex>::decode(r)?;
        check_len("victim index", index.len(), geometry.total_planes().into())?;
        Ok(BlockTable {
            geometry,
            blocks,
            wl_masks,
            wl_reads,
            index: OnceLock::new(),
            ida_blocks: u32::decode(r)?,
            adjusted_wordlines: u64::decode(r)?,
            bad_blocks: u32::decode(r)?,
            in_use: u32::decode(r)?,
            total_erases: u64::decode(r)?,
            wear_offset: u32::decode(r)?,
        })
    }
}

/// Wordlines in the whole array: the length of a `block × wordline` table.
pub(crate) fn wordline_count(g: &Geometry) -> u64 {
    u64::from(g.total_blocks()) * u64::from(g.wordlines_per_block)
}

/// The slots of `b`'s wordlines in a `block × wordline` table.
pub(crate) fn wordline_slots(g: &Geometry, b: BlockAddr) -> std::ops::Range<usize> {
    let wls = g.wordlines_per_block as usize;
    b.0 as usize * wls..(b.0 as usize + 1) * wls
}

/// The slot of wordline `wl` of `b` in a `block × wordline` table.
///
/// # Panics
///
/// Panics if `wl` is out of range (it would alias the next block's).
pub(crate) fn wordline_slot(g: &Geometry, b: BlockAddr, wl: u32) -> usize {
    assert!(wl < g.wordlines_per_block, "wordline {wl} out of range");
    b.0 as usize * g.wordlines_per_block as usize + wl as usize
}

impl BlockTable {
    /// A table with every block free.
    pub fn new(geometry: Geometry) -> Self {
        geometry.validate();
        let blocks = geometry.total_blocks() as usize;
        let wordlines = wordline_count(&geometry) as usize;
        BlockTable {
            blocks: vec![
                BlockInfo {
                    state: BlockState::Free,
                    write_ptr: 0,
                    valid_pages: 0,
                    erase_count: 0,
                    closed_at: 0,
                };
                blocks
            ],
            wl_masks: vec![0; wordlines],
            wl_reads: vec![0; wordlines],
            index: OnceLock::new(),
            geometry,
            ida_blocks: 0,
            adjusted_wordlines: 0,
            bad_blocks: 0,
            in_use: 0,
            total_erases: 0,
            wear_offset: 0,
        }
    }

    /// Heap bytes of the block records and wordline tables.
    pub(crate) fn heap_bytes(&self) -> usize {
        size_of_val(&*self.blocks) + size_of_val(&*self.wl_masks) + size_of_val(&*self.wl_reads)
    }

    fn plane_index(&self, b: BlockAddr) -> usize {
        (b.0 / self.geometry.blocks_per_plane) as usize
    }

    /// The victim index the block records imply: every reclaimable block
    /// under its plane, valid count and `(erase_count, block)` key.
    fn build_index(&self) -> Vec<PlaneIndex> {
        let mut index: Vec<PlaneIndex> = (0..self.geometry.total_planes())
            .map(|_| PlaneIndex::new(self.geometry.pages_per_block()))
            .collect();
        for (b, valid, erases) in self.reclaimable_blocks() {
            index[self.plane_index(b)].insert(valid, erases, b.0);
        }
        index
    }

    /// The victim index, built on first use.
    fn index(&self) -> &[PlaneIndex] {
        self.index.get_or_init(|| self.build_index())
    }

    /// `b`'s plane in the victim index, if the index has been built.
    fn index_of(&mut self, b: BlockAddr) -> Option<&mut PlaneIndex> {
        let plane = self.plane_index(b);
        self.index.get_mut().map(|index| &mut index[plane])
    }

    fn info(&self, b: BlockAddr) -> &BlockInfo {
        &self.blocks[b.0 as usize]
    }

    fn info_mut(&mut self, b: BlockAddr) -> &mut BlockInfo {
        &mut self.blocks[b.0 as usize]
    }

    /// The geometry this table was built for.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// An error unless this (decoded) table was built for `geometry` and
    /// its tables have the lengths that implies.
    pub(crate) fn check(&self, geometry: &Geometry) -> Result<(), ida_snap::SnapError> {
        if self.geometry != *geometry {
            return Err(ida_snap::SnapError::new(
                "block table geometry differs from the FTL's",
            ));
        }
        let wordlines = wordline_count(geometry);
        check_len("blocks", self.blocks.len(), geometry.total_blocks().into())?;
        check_len("wordline masks", self.wl_masks.len(), wordlines)?;
        check_len("wordline reads", self.wl_reads.len(), wordlines)
    }

    /// Current lifecycle state of `b`.
    pub fn state(&self, b: BlockAddr) -> BlockState {
        self.info(b).state
    }

    /// Number of valid pages in `b`.
    pub fn valid_pages(&self, b: BlockAddr) -> u32 {
        self.info(b).valid_pages
    }

    /// Erase count of `b`.
    pub fn erase_count(&self, b: BlockAddr) -> u32 {
        self.info(b).erase_count
    }

    /// The simulation time `b` was closed (meaningful for Closed/Ida).
    pub fn closed_at(&self, b: BlockAddr) -> SimTime {
        self.info(b).closed_at
    }

    /// Open a free block for programming.
    ///
    /// # Panics
    ///
    /// Panics if the block is not free.
    pub fn open(&mut self, b: BlockAddr) {
        let info = self.info_mut(b);
        assert_eq!(info.state, BlockState::Free, "open of non-free block {b}");
        info.state = BlockState::Open;
        info.write_ptr = 0;
        self.in_use += 1;
    }

    /// Allocate the next page of an open block; returns its in-block
    /// offset and closes the block (at `now`) when it fills.
    ///
    /// # Panics
    ///
    /// Panics if the block is not open.
    pub fn allocate_page(&mut self, b: BlockAddr, now: SimTime) -> u32 {
        let pages = self.geometry.pages_per_block();
        let info = self.info_mut(b);
        assert_eq!(
            info.state,
            BlockState::Open,
            "allocation in non-open block {b}"
        );
        let off = info.write_ptr;
        assert!(off < pages, "open block {b} overflowed");
        info.write_ptr += 1;
        info.valid_pages += 1;
        if info.write_ptr == pages {
            info.state = BlockState::Closed;
            info.closed_at = now;
            let (valid, erases) = (info.valid_pages, info.erase_count);
            if let Some(index) = self.index_of(b) {
                index.insert(valid, erases, b.0);
            }
        }
        off
    }

    /// Whether an open block still has room.
    pub fn has_room(&self, b: BlockAddr) -> bool {
        self.info(b).state == BlockState::Open
            && self.info(b).write_ptr < self.geometry.pages_per_block()
    }

    /// The in-block offset the next allocation in `b` would receive
    /// (meaningful for open blocks).
    pub fn next_offset(&self, b: BlockAddr) -> u32 {
        self.info(b).write_ptr
    }

    /// Record the invalidation of one previously-valid page of `b`.
    ///
    /// # Panics
    ///
    /// Panics if the valid count would underflow.
    pub fn invalidate_page(&mut self, b: BlockAddr) {
        let info = self.info_mut(b);
        assert!(info.valid_pages > 0, "valid-count underflow in block {b}");
        info.valid_pages -= 1;
        if matches!(info.state, BlockState::Closed | BlockState::Ida) {
            let (valid, erases) = (info.valid_pages, info.erase_count);
            if let Some(index) = self.index_of(b) {
                index.remove(valid + 1, erases, b.0);
                index.insert(valid, erases, b.0);
            }
        }
    }

    /// Take `b` out of circulation on its way to `Free` or `Bad`: check
    /// that it is not open and holds no valid data (`what` names the
    /// operation in the panic), undo its IDA and victim-index accounting,
    /// and reset its write pointer, close time and wordline state. Returns
    /// whether it was reclaimable (Closed/Ida).
    fn release(&mut self, b: BlockAddr, what: &str) -> bool {
        let info = self.info_mut(b);
        assert_ne!(info.state, BlockState::Open, "{what} of open block {b}");
        assert_eq!(
            info.valid_pages, 0,
            "{what} of block {b} with {} valid pages",
            info.valid_pages
        );
        let (state, erases) = (info.state, info.erase_count);
        info.write_ptr = 0;
        info.closed_at = 0;
        let wls = wordline_slots(&self.geometry, b);
        if state == BlockState::Ida {
            self.ida_blocks -= 1;
            self.adjusted_wordlines -= self.wl_masks[wls.clone()]
                .iter()
                .filter(|&&m| m != 0)
                .count() as u64;
        }
        self.wl_masks[wls.clone()].fill(0);
        self.wl_reads[wls].fill(0);
        let reclaimable = matches!(state, BlockState::Closed | BlockState::Ida);
        if reclaimable {
            if let Some(index) = self.index_of(b) {
                index.remove(0, erases, b.0);
            }
        }
        reclaimable
    }

    /// Erase `b`: wear increments, wordline codings reset, state Free.
    ///
    /// # Panics
    ///
    /// Panics if the block still holds valid pages or is open.
    pub fn erase(&mut self, b: BlockAddr) {
        if self.release(b, "erase") {
            self.in_use -= 1;
        }
        self.total_erases += 1;
        let info = self.info_mut(b);
        info.state = BlockState::Free;
        info.erase_count += 1;
    }

    /// Retire `b` to the grown-bad list. The block must hold no valid
    /// data (erase failures and program-fail retirements both happen only
    /// once the block has been emptied).
    ///
    /// # Panics
    ///
    /// Panics if the block is open or still holds valid pages.
    pub fn mark_bad(&mut self, b: BlockAddr) {
        if !self.release(b, "retire") {
            // A Free block retires straight into the in-use population.
            self.in_use += 1;
        }
        self.info_mut(b).state = BlockState::Bad;
        self.bad_blocks += 1;
    }

    /// Restore `b` to a known state during the post-crash recovery scan.
    /// Replaces the block's entire record and keeps the incremental
    /// counters consistent; only valid on a table whose block is currently
    /// `Free` (i.e. a freshly constructed recovery table).
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        &mut self,
        b: BlockAddr,
        state: BlockState,
        write_ptr: u32,
        valid_pages: u32,
        erase_count: u32,
        closed_at: SimTime,
        wl_masks: &[u8],
    ) {
        assert_eq!(
            self.info(b).state,
            BlockState::Free,
            "restore over non-fresh block {b}"
        );
        let wls = self.geometry.wordlines_per_block as usize;
        assert_eq!(wl_masks.len(), wls, "restore mask length mismatch");
        match state {
            BlockState::Ida => {
                self.ida_blocks += 1;
                self.adjusted_wordlines += wl_masks.iter().filter(|&&m| m != 0).count() as u64;
            }
            BlockState::Bad => self.bad_blocks += 1,
            _ => {}
        }
        if matches!(state, BlockState::Closed | BlockState::Ida) {
            if let Some(index) = self.index_of(b) {
                index.insert(valid_pages, erase_count, b.0);
            }
        }
        if state != BlockState::Free {
            self.in_use += 1;
        }
        self.total_erases += erase_count as u64;
        let info = self.info_mut(b);
        info.state = state;
        info.write_ptr = write_ptr;
        info.valid_pages = valid_pages;
        info.erase_count = erase_count;
        info.closed_at = closed_at;
        let wls = wordline_slots(&self.geometry, b);
        self.wl_masks[wls].copy_from_slice(wl_masks);
    }

    /// Blocks on the grown-bad list (O(1)).
    pub fn bad_blocks(&self) -> u32 {
        self.bad_blocks
    }

    /// Convert a closed block into an IDA block at `now`, recording the
    /// merged coding (keep mask) of each adjusted wordline.
    ///
    /// # Panics
    ///
    /// Panics if the block is not closed, or a mask refers to an
    /// out-of-range wordline.
    pub fn mark_ida(&mut self, b: BlockAddr, wl_masks: &[(u32, u8)], now: SimTime) {
        let info = self.info_mut(b);
        assert_eq!(
            info.state,
            BlockState::Closed,
            "IDA conversion of non-closed block {b}"
        );
        info.state = BlockState::Ida;
        info.closed_at = now;
        let mut adjusted = 0u64;
        for &(wl, mask) in wl_masks {
            // A closed block's masks are all zero, so every non-zero mask
            // written here is a newly adjusted wordline.
            if mask != 0 {
                adjusted += 1;
            }
            let i = wordline_slot(&self.geometry, b, wl);
            self.wl_masks[i] = mask;
        }
        self.ida_blocks += 1;
        self.adjusted_wordlines += adjusted;
    }

    /// The IDA keep mask of wordline `wl` in block `b`; 0 means the
    /// wordline still carries conventional coding.
    pub fn wl_keep_mask(&self, b: BlockAddr, wl: u32) -> u8 {
        self.wl_masks[wordline_slot(&self.geometry, b, wl)]
    }

    /// Iterate all blocks in `Closed` or `Ida` state with their valid
    /// counts (used by GC victim search).
    pub fn reclaimable_blocks(&self) -> impl Iterator<Item = (BlockAddr, u32, u32)> + '_ {
        self.blocks.iter().enumerate().filter_map(|(i, info)| {
            matches!(info.state, BlockState::Closed | BlockState::Ida).then_some((
                BlockAddr(i as u32),
                info.valid_pages,
                info.erase_count,
            ))
        })
    }

    /// Total blocks currently not free (the "in-use block count" the paper
    /// tracks in Section III-C). O(1); maintained incrementally.
    pub fn in_use_blocks(&self) -> u32 {
        self.in_use
    }

    /// Blocks currently in the `Ida` state (O(1); maintained incrementally
    /// for gauge sampling).
    pub fn ida_blocks(&self) -> u32 {
        self.ida_blocks
    }

    /// Wordlines currently carrying a merged coding — the device's
    /// "dirty wordline" population (O(1)).
    pub fn adjusted_wordlines(&self) -> u64 {
        self.adjusted_wordlines
    }

    /// Sum of erase counts across all blocks. O(1); maintained
    /// incrementally.
    pub fn total_erases(&self) -> u64 {
        self.total_erases
    }

    /// The cheapest GC victim in `plane` under the reference ordering —
    /// the reclaimable (Closed/Ida) block minimizing
    /// `(valid_pages, erase_count, BlockAddr)` — skipping fully-valid
    /// blocks (no net space) and `exclude`. O(1) amortized via the
    /// per-plane bucket index; the first query of any kind builds the
    /// index in O(blocks).
    pub fn victim_in_plane(
        &self,
        plane: PlaneAddr,
        exclude: Option<BlockAddr>,
    ) -> Option<BlockAddr> {
        let idx = &self.index()[plane.0 as usize];
        if idx.len == 0 {
            return None;
        }
        let full = self.geometry.pages_per_block() as usize;
        if idx.min_valid >= full {
            // Only fully-valid blocks remain; collecting one frees nothing.
            return None;
        }
        let ex = exclude.map(|b| b.0);
        for bucket in &idx.buckets[idx.min_valid..full] {
            // Two candidates suffice: at most one can be excluded.
            for &(_, block) in bucket.iter().take(2) {
                if Some(block) != ex {
                    return Some(BlockAddr(block));
                }
            }
        }
        None
    }

    /// The cheapest GC victim across the whole device: the global
    /// `(valid_pages, erase_count, BlockAddr)` minimum over every plane's
    /// best candidate. O(planes) rather than O(blocks).
    pub fn victim_global(&self, exclude: Option<BlockAddr>) -> Option<BlockAddr> {
        let mut best: Option<(u32, u32, u32)> = None;
        for p in 0..self.geometry.total_planes() {
            if let Some(b) = self.victim_in_plane(PlaneAddr(p), exclude) {
                let key = (self.valid_pages(b), self.erase_count(b), b.0);
                if best.is_none_or(|k| key < k) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, b)| BlockAddr(b))
    }

    /// Wear summary across all blocks: min/max/mean erase counts plus the
    /// spread (max − min) the wear-leveler balances against its target.
    /// The paper's endurance argument (Section III-B) is that IDA coding
    /// leaves these unchanged — it recharges cells within an erase cycle
    /// instead of adding cycles. An empty table (or one whose blocks were
    /// never erased) reports all-zero wear and zero spread.
    pub fn wear_summary(&self) -> WearSummary {
        let min = self.blocks.iter().map(|i| i.erase_count).min().unwrap_or(0);
        let max = self.blocks.iter().map(|i| i.erase_count).max().unwrap_or(0);
        let mean = self.total_erases() as f64 / self.blocks.len().max(1) as f64;
        WearSummary {
            min,
            max,
            mean,
            spread: max - min,
        }
    }

    /// Record one host read of wordline `wl` in block `b`, returning the
    /// accumulated read count since the block's last erase (the
    /// read-disturb clock).
    pub fn record_wl_read(&mut self, b: BlockAddr, wl: u32) -> u32 {
        let i = wordline_slot(&self.geometry, b, wl);
        let c = &mut self.wl_reads[i];
        *c = c.saturating_add(1);
        *c
    }

    /// Accumulated host reads of wordline `wl` in block `b` since its
    /// block's last erase.
    pub fn wl_reads(&self, b: BlockAddr, wl: u32) -> u32 {
        self.wl_reads[wordline_slot(&self.geometry, b, wl)]
    }

    /// Add `cycles` virtual P/E cycles uniformly to every block (the soak
    /// harness's accelerated-lifetime epochs). Physical erase counts — and
    /// hence the victim index's ordering — are untouched.
    pub fn add_wear_offset(&mut self, cycles: u32) {
        self.wear_offset = self.wear_offset.saturating_add(cycles);
    }

    /// Virtual P/E cycles applied by [`BlockTable::add_wear_offset`].
    pub fn wear_offset(&self) -> u32 {
        self.wear_offset
    }

    /// The wear the aging model sees for block `b`: its physical erase
    /// count plus the uniform virtual offset.
    pub fn effective_wear(&self, b: BlockAddr) -> u32 {
        self.info(b).erase_count.saturating_add(self.wear_offset)
    }

    /// The least-worn block holding cold data — a `Closed`/`Ida` block
    /// with at least one valid page, minimizing
    /// `(erase_count, BlockAddr)` — the wear-leveler's migration source.
    /// Skips `exclude` (the in-flight refresh target).
    pub fn coldest_block(&self, exclude: Option<BlockAddr>) -> Option<BlockAddr> {
        self.reclaimable_blocks()
            .filter(|&(b, valid, _)| valid > 0 && Some(b) != exclude)
            .min_by_key(|&(b, _, erases)| (erases, b.0))
            .map(|(b, _, _)| b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> BlockTable {
        BlockTable::new(Geometry::tiny())
    }

    #[test]
    fn lifecycle_free_open_closed_free() {
        let mut t = table();
        let b = BlockAddr(0);
        assert_eq!(t.state(b), BlockState::Free);
        t.open(b);
        assert_eq!(t.state(b), BlockState::Open);
        let pages = t.geometry().pages_per_block();
        for i in 0..pages {
            assert_eq!(t.allocate_page(b, 100), i);
        }
        assert_eq!(t.state(b), BlockState::Closed);
        assert_eq!(t.closed_at(b), 100);
        for _ in 0..pages {
            t.invalidate_page(b);
        }
        t.erase(b);
        assert_eq!(t.state(b), BlockState::Free);
        assert_eq!(t.erase_count(b), 1);
    }

    #[test]
    #[should_panic(expected = "non-free")]
    fn double_open_rejected() {
        let mut t = table();
        t.open(BlockAddr(1));
        t.open(BlockAddr(1));
    }

    #[test]
    #[should_panic(expected = "valid pages")]
    fn erase_with_valid_pages_rejected() {
        let mut t = table();
        let b = BlockAddr(2);
        t.open(b);
        for _ in 0..t.geometry().pages_per_block() {
            t.allocate_page(b, 0);
        }
        t.erase(b);
    }

    #[test]
    fn ida_marking_records_wordline_masks() {
        let mut t = table();
        let b = BlockAddr(3);
        t.open(b);
        for _ in 0..t.geometry().pages_per_block() {
            t.allocate_page(b, 0);
        }
        t.mark_ida(b, &[(0, 0b110), (5, 0b100)], 999);
        assert_eq!(t.state(b), BlockState::Ida);
        assert_eq!(t.wl_keep_mask(b, 0), 0b110);
        assert_eq!(t.wl_keep_mask(b, 5), 0b100);
        assert_eq!(t.wl_keep_mask(b, 1), 0);
        assert_eq!(t.closed_at(b), 999);
    }

    #[test]
    fn erase_clears_ida_masks() {
        let mut t = table();
        let b = BlockAddr(4);
        t.open(b);
        let pages = t.geometry().pages_per_block();
        for _ in 0..pages {
            t.allocate_page(b, 0);
        }
        t.mark_ida(b, &[(2, 0b110)], 1);
        for _ in 0..pages {
            t.invalidate_page(b);
        }
        t.erase(b);
        assert_eq!(t.wl_keep_mask(b, 2), 0);
        assert_eq!(t.state(b), BlockState::Free);
    }

    #[test]
    fn reclaimable_blocks_lists_closed_and_ida() {
        let mut t = table();
        for i in 0..3 {
            let b = BlockAddr(i);
            t.open(b);
            for _ in 0..t.geometry().pages_per_block() {
                t.allocate_page(b, 0);
            }
        }
        t.mark_ida(BlockAddr(1), &[(0, 0b100)], 0);
        let found: Vec<_> = t.reclaimable_blocks().map(|(b, _, _)| b.0).collect();
        assert_eq!(found, vec![0, 1, 2]);
        assert_eq!(t.in_use_blocks(), 3);
    }

    #[test]
    fn in_use_counts_open_blocks_too() {
        let mut t = table();
        t.open(BlockAddr(9));
        assert_eq!(t.in_use_blocks(), 1);
    }

    #[test]
    fn ida_counters_track_mark_and_erase() {
        let mut t = table();
        assert_eq!(t.ida_blocks(), 0);
        assert_eq!(t.adjusted_wordlines(), 0);
        let b = BlockAddr(0);
        t.open(b);
        let pages = t.geometry().pages_per_block();
        for _ in 0..pages {
            t.allocate_page(b, 0);
        }
        t.mark_ida(b, &[(0, 0b110), (3, 0b100), (4, 0)], 5);
        assert_eq!(t.ida_blocks(), 1);
        assert_eq!(t.adjusted_wordlines(), 2, "zero masks are not adjusted");
        for _ in 0..pages {
            t.invalidate_page(b);
        }
        t.erase(b);
        assert_eq!(t.ida_blocks(), 0);
        assert_eq!(t.adjusted_wordlines(), 0);
    }

    #[test]
    fn bad_blocks_leave_circulation() {
        let mut t = table();
        let b = BlockAddr(7);
        t.open(b);
        let pages = t.geometry().pages_per_block();
        for _ in 0..pages {
            t.allocate_page(b, 0);
        }
        for _ in 0..pages {
            t.invalidate_page(b);
        }
        t.mark_bad(b);
        assert_eq!(t.state(b), BlockState::Bad);
        assert_eq!(t.bad_blocks(), 1);
        assert!(
            t.reclaimable_blocks().all(|(blk, _, _)| blk != b),
            "bad blocks must not be GC victims"
        );
    }

    #[test]
    fn restore_rebuilds_states_and_counters() {
        let mut t = table();
        let wls = t.geometry().wordlines_per_block as usize;
        let mut masks = vec![0u8; wls];
        masks[2] = 0b110;
        t.restore(BlockAddr(0), BlockState::Ida, 48, 10, 3, 77, &masks);
        t.restore(BlockAddr(1), BlockState::Bad, 0, 0, 5, 0, &vec![0; wls]);
        t.restore(BlockAddr(2), BlockState::Open, 7, 7, 0, 0, &vec![0; wls]);
        assert_eq!(t.ida_blocks(), 1);
        assert_eq!(t.adjusted_wordlines(), 1);
        assert_eq!(t.bad_blocks(), 1);
        assert_eq!(t.wl_keep_mask(BlockAddr(0), 2), 0b110);
        assert_eq!(t.erase_count(BlockAddr(0)), 3);
        assert_eq!(t.next_offset(BlockAddr(2)), 7);
        assert_eq!(t.in_use_blocks(), 3);
    }

    #[test]
    fn wear_summary_tracks_erases_and_spread() {
        let mut t = table();
        assert_eq!(
            t.wear_summary(),
            WearSummary {
                min: 0,
                max: 0,
                mean: 0.0,
                spread: 0
            },
            "a never-erased table has zero wear and zero spread"
        );
        let b = BlockAddr(0);
        for _ in 0..3 {
            t.open(b);
            for _ in 0..t.geometry().pages_per_block() {
                t.allocate_page(b, 0);
            }
            for _ in 0..t.geometry().pages_per_block() {
                t.invalidate_page(b);
            }
            t.erase(b);
        }
        let w = t.wear_summary();
        assert_eq!((w.min, w.max, w.spread), (0, 3, 3));
        assert!(w.mean > 0.0 && w.mean < 1.0);
        assert_eq!(t.total_erases(), 3);
    }

    #[test]
    fn wear_summary_single_block_has_no_spread() {
        // A device whose blocks all carry identical wear — the
        // single-value edge case — must report spread 0 even at high wear.
        let mut t = table();
        let blocks = t.geometry().total_blocks();
        for cycle in 0..2 {
            for i in 0..blocks {
                let b = BlockAddr(i);
                t.open(b);
                for _ in 0..t.geometry().pages_per_block() {
                    t.allocate_page(b, 0);
                }
                for _ in 0..t.geometry().pages_per_block() {
                    t.invalidate_page(b);
                }
                t.erase(b);
            }
            let w = t.wear_summary();
            assert_eq!((w.min, w.max, w.spread), (cycle + 1, cycle + 1, 0));
            assert_eq!(w.mean, (cycle + 1) as f64);
        }
    }

    #[test]
    fn wl_read_counters_accumulate_and_reset_on_erase() {
        let mut t = table();
        let b = BlockAddr(0);
        t.open(b);
        for _ in 0..t.geometry().pages_per_block() {
            t.allocate_page(b, 0);
        }
        assert_eq!(t.wl_reads(b, 1), 0);
        assert_eq!(t.record_wl_read(b, 1), 1);
        assert_eq!(t.record_wl_read(b, 1), 2);
        assert_eq!(t.record_wl_read(b, 0), 1);
        assert_eq!(t.wl_reads(b, 1), 2);
        for _ in 0..t.geometry().pages_per_block() {
            t.invalidate_page(b);
        }
        t.erase(b);
        assert_eq!(t.wl_reads(b, 1), 0, "erase resets the disturb clock");
    }

    #[test]
    fn wear_offset_shifts_effective_wear_not_erase_counts() {
        let mut t = table();
        let b = BlockAddr(0);
        assert_eq!(t.effective_wear(b), 0);
        t.add_wear_offset(500);
        t.add_wear_offset(250);
        assert_eq!(t.wear_offset(), 750);
        assert_eq!(t.effective_wear(b), 750);
        assert_eq!(t.erase_count(b), 0, "physical wear is untouched");
        let w = t.wear_summary();
        assert_eq!(w.spread, 0, "a uniform offset adds no spread");
    }

    #[test]
    fn coldest_block_prefers_least_worn_valid_data() {
        let mut t = table();
        assert_eq!(t.coldest_block(None), None, "empty table has no cold data");
        // Block 1: one erase cycle, then refilled. Block 0: never erased.
        for b in [BlockAddr(1), BlockAddr(0)] {
            t.open(b);
            for _ in 0..t.geometry().pages_per_block() {
                t.allocate_page(b, 0);
            }
        }
        for _ in 0..t.geometry().pages_per_block() {
            t.invalidate_page(BlockAddr(1));
        }
        t.erase(BlockAddr(1));
        t.open(BlockAddr(1));
        for _ in 0..t.geometry().pages_per_block() {
            t.allocate_page(BlockAddr(1), 0);
        }
        assert_eq!(t.coldest_block(None), Some(BlockAddr(0)));
        assert_eq!(t.coldest_block(Some(BlockAddr(0))), Some(BlockAddr(1)));
    }
}
