//! CWDP static page allocation.
//!
//! The paper's FTL stripes consecutive page writes across the array in
//! **C**hannel-first, **W**(chip)-second, **D**ie-third, **P**lane-last
//! order \[26\], maximizing channel-level parallelism for sequential
//! traffic. Each plane keeps one active (open) block; pages within a block
//! fill sequentially, which interleaves LSB/CSB/MSB pages across each
//! wordline in program order.

use crate::block::BlockTable;
use ida_flash::addr::{BlockAddr, PageAddr, PlaneAddr};
use ida_flash::geometry::Geometry;
use ida_flash::timing::SimTime;
use std::collections::VecDeque;

/// Per-plane free-block pools plus the CWDP round-robin cursor.
#[derive(Debug, Clone)]
pub struct Allocator {
    geometry: Geometry,
    /// Planes in CWDP visiting order.
    plane_order: Vec<PlaneAddr>,
    cursor: usize,
    free: Vec<VecDeque<BlockAddr>>,
    active: Vec<Option<BlockAddr>>,
    /// Per-plane reserved spares: erased blocks held out of circulation
    /// until a grown-bad block needs replacing.
    spares: Vec<Vec<BlockAddr>>,
    /// The plane [`Allocator::tightest_plane`] reports, kept current
    /// wherever a pool's length changes.
    tightest: usize,
    /// Per plane, the page type (bit index) the active block allocates
    /// next; `None` until known (a rebuilt or decoded allocator learns it
    /// from the block table on the first preferring allocation).
    next_bit: Vec<Option<u8>>,
}

// Free-pool deque order is allocation-order-significant, so every pool
// field (including the derived CWDP plane order) is serialized verbatim.
// The tightest plane and next page types are derived, and re-derived on
// decode.
impl ida_snap::Snap for Allocator {
    fn encode(&self, w: &mut ida_snap::Writer) {
        self.geometry.encode(w);
        self.plane_order.encode(w);
        self.cursor.encode(w);
        self.free.encode(w);
        self.active.encode(w);
        self.spares.encode(w);
    }

    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        let mut alloc = Allocator {
            geometry: Geometry::decode(r)?,
            plane_order: Vec::decode(r)?,
            cursor: usize::decode(r)?,
            free: Vec::decode(r)?,
            active: Vec::decode(r)?,
            spares: Vec::decode(r)?,
            tightest: 0,
            next_bit: Vec::new(),
        };
        alloc.next_bit = vec![None; alloc.free.len()];
        alloc.rescan_tightest();
        Ok(alloc)
    }
}

impl Allocator {
    /// Recompute the tightest plane: the first plane with the fewest
    /// pooled free blocks.
    fn rescan_tightest(&mut self) {
        self.tightest = (0..self.free.len())
            .min_by_key(|&i| self.free[i].len())
            .unwrap_or(0);
    }

    /// `slot`'s pool just shrank: it is the tightest plane if it now has
    /// fewer free blocks, or as few and a lower index.
    fn pool_shrank(&mut self, slot: usize) {
        let t = self.tightest;
        if (self.free[slot].len(), slot) < (self.free[t].len(), t) {
            self.tightest = slot;
        }
    }

    /// An allocator with every block of every plane in its free pool.
    pub fn new(geometry: Geometry) -> Self {
        Self::rebuild(geometry, |_| RecoveredPool::Free)
    }

    /// An allocator that holds `per_plane` blocks out of each plane's free
    /// pool as bad-block spares. Returns the blocks moved to the spare
    /// pools so the caller can flag them in OOB metadata.
    ///
    /// # Panics
    ///
    /// Panics if a plane has fewer than `per_plane + GC_RESERVE + 1` free
    /// blocks — a spare pool that starves normal allocation is a
    /// configuration error.
    pub fn with_spares(geometry: Geometry, per_plane: u32) -> (Self, Vec<BlockAddr>) {
        let mut alloc = Self::new(geometry);
        let mut taken = Vec::new();
        for slot in 0..alloc.free.len() {
            assert!(
                alloc.free[slot].len() as u32 > per_plane + Self::GC_RESERVE,
                "spare pool of {per_plane} starves plane {slot}"
            );
            for _ in 0..per_plane {
                let b = alloc.free[slot].pop_back().expect("bound checked above");
                alloc.spares[slot].push(b);
                taken.push(b);
            }
        }
        alloc.rescan_tightest();
        (alloc, taken)
    }

    /// Take one spare from `plane`'s pool to replace a retired block.
    /// Returns `None` when the pool is exhausted (the degradation signal).
    pub fn take_spare(&mut self, plane: PlaneAddr) -> Option<BlockAddr> {
        self.spares[plane.0 as usize].pop()
    }

    /// Spares remaining in `plane`'s pool.
    pub fn spare_count(&self, plane: PlaneAddr) -> u32 {
        self.spares[plane.0 as usize].len() as u32
    }

    /// Spares remaining across all planes.
    pub fn total_spares(&self) -> u64 {
        self.spares.iter().map(|s| s.len() as u64).sum()
    }

    /// Rebuild an allocator from recovered block states: `free` blocks
    /// enter their plane's pool in address order, `spare` blocks re-enter
    /// the spare pools, and at most one `open` block per plane becomes the
    /// active block. Deterministic by construction — the pools depend only
    /// on the recovered states, not on pre-crash pool order.
    pub fn rebuild(geometry: Geometry, pool_of: impl Fn(BlockAddr) -> RecoveredPool) -> Self {
        geometry.validate();
        let planes = geometry.total_planes() as usize;
        let mut free: Vec<VecDeque<BlockAddr>> = vec![VecDeque::new(); planes];
        let mut spares: Vec<Vec<BlockAddr>> = vec![Vec::new(); planes];
        let mut active: Vec<Option<BlockAddr>> = vec![None; planes];
        for i in 0..geometry.total_blocks() {
            let b = BlockAddr(i);
            let slot = b.plane(&geometry).0 as usize;
            match pool_of(b) {
                RecoveredPool::Free => free[slot].push_back(b),
                RecoveredPool::Spare => spares[slot].push(b),
                RecoveredPool::Active => {
                    assert!(
                        active[slot].is_none(),
                        "two open blocks recovered in plane {slot}"
                    );
                    active[slot] = Some(b);
                }
                RecoveredPool::None => {}
            }
        }
        let mut alloc = Allocator {
            geometry,
            plane_order: cwdp_plane_order(&geometry),
            cursor: 0,
            free,
            active,
            spares,
            tightest: 0,
            next_bit: vec![None; planes],
        };
        alloc.rescan_tightest();
        alloc
    }

    /// Allocate the next physical page in CWDP order, opening fresh blocks
    /// as needed. Returns `None` when no plane has space left (the caller
    /// must garbage-collect).
    pub fn allocate(&mut self, blocks: &mut BlockTable, now: SimTime) -> Option<PageAddr> {
        let n = self.plane_order.len();
        for _ in 0..n {
            let plane = self.plane_order[self.cursor];
            self.cursor = wrapping_next(self.cursor, n);
            if let Some(page) = self.allocate_in_plane(plane, blocks, now) {
                return Some(page);
            }
        }
        None
    }

    /// Blocks per plane held back from host allocation so garbage
    /// collection always has somewhere to relocate a victim's valid pages
    /// (a victim holds at most one block's worth).
    pub const GC_RESERVE: u32 = 1;

    /// Allocate a page in a specific plane on behalf of the host: a new
    /// block is only opened if doing so leaves the GC reserve untouched.
    pub fn allocate_in_plane(
        &mut self,
        plane: PlaneAddr,
        blocks: &mut BlockTable,
        now: SimTime,
    ) -> Option<PageAddr> {
        self.allocate_in_plane_inner(plane, blocks, now, Self::GC_RESERVE)
    }

    /// Allocate a page in `plane` for garbage collection, which may dig
    /// into the reserve (the erase it is about to perform repays it).
    pub fn allocate_gc(
        &mut self,
        plane: PlaneAddr,
        blocks: &mut BlockTable,
        now: SimTime,
    ) -> Option<PageAddr> {
        self.allocate_in_plane_inner(plane, blocks, now, 0)
    }

    fn allocate_in_plane_inner(
        &mut self,
        plane: PlaneAddr,
        blocks: &mut BlockTable,
        now: SimTime,
        keep_back: u32,
    ) -> Option<PageAddr> {
        let slot = plane.0 as usize;
        if self.active[slot].is_none() {
            if (self.free[slot].len() as u32) <= keep_back {
                return None;
            }
            let block = self.free[slot].pop_front()?;
            self.pool_shrank(slot);
            blocks.open(block);
            self.active[slot] = Some(block);
            self.next_bit[slot] = Some(0);
        }
        let block = self.active[slot].expect("active block just ensured");
        let off = blocks.allocate_page(block, now);
        if !blocks.has_room(block) {
            self.active[slot] = None;
        }
        // Pages fill in order, so the page type cycles through the bits.
        let bits = self.geometry.bits_per_cell as u8;
        self.next_bit[slot] = self.next_bit[slot].map(|b| if b + 1 == bits { 0 } else { b + 1 });
        Some(block.page(&self.geometry, off))
    }

    /// Allocate a page whose *type* (bit index within its wordline) is
    /// `wanted_bit`, if some plane's write pointer currently sits on such a
    /// slot — the paper's placement of evicted LSB data into the fast LSB
    /// pages of new blocks (Section III-C). Falls back to plain CWDP
    /// allocation when no plane lines up.
    pub fn allocate_preferring(
        &mut self,
        wanted_bit: u8,
        blocks: &mut BlockTable,
        now: SimTime,
    ) -> Option<PageAddr> {
        let n = self.plane_order.len();
        let mut at = self.cursor;
        for _ in 0..n {
            let plane = self.plane_order[at];
            at = wrapping_next(at, n);
            let slot = plane.0 as usize;
            let next_bit = match self.active[slot] {
                Some(b) => *self.next_bit[slot].get_or_insert_with(|| {
                    (blocks.next_offset(b) % self.geometry.bits_per_cell) as u8
                }),
                None if !self.free[slot].is_empty() => 0,
                None => continue,
            };
            if next_bit == wanted_bit {
                // The matched plane may still refuse (GC reserve); keep
                // scanning rather than giving up.
                if let Some(page) = self.allocate_in_plane(plane, blocks, now) {
                    self.cursor = at;
                    return Some(page);
                }
            }
        }
        self.allocate(blocks, now)
    }

    /// Return an erased block to its plane's free pool.
    pub fn push_free(&mut self, block: BlockAddr) {
        let slot = block.plane(&self.geometry).0 as usize;
        self.free[slot].push_back(block);
        if slot == self.tightest {
            self.rescan_tightest();
        }
    }

    /// Free blocks currently pooled in `plane` (not counting the active
    /// block).
    pub fn free_count(&self, plane: PlaneAddr) -> u32 {
        self.free[plane.0 as usize].len() as u32
    }

    /// The plane with the fewest pooled free blocks (the lowest such
    /// plane on a tie), and that count. O(1).
    pub fn tightest_plane(&self) -> (PlaneAddr, u32) {
        let t = self.tightest;
        (PlaneAddr(t as u32), self.free[t].len() as u32)
    }

    /// The currently active (open) block of `plane`, if any.
    pub fn active_block(&self, plane: PlaneAddr) -> Option<BlockAddr> {
        self.active[plane.0 as usize]
    }

    /// Total free blocks across all planes.
    pub fn total_free(&self) -> u64 {
        self.free.iter().map(|q| q.len() as u64).sum()
    }
}

/// Which pool a block belongs to after the recovery scan classifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredPool {
    /// Erased and allocatable.
    Free,
    /// Erased but reserved as a bad-block spare.
    Spare,
    /// Open (partially programmed): the plane's active block.
    Active,
    /// Not allocatable (closed, IDA, or bad).
    None,
}

/// The position after `i` in a ring of `n`.
fn wrapping_next(i: usize, n: usize) -> usize {
    if i + 1 == n {
        0
    } else {
        i + 1
    }
}

/// The CWDP plane visiting order: channel varies fastest, then chip, then
/// die, then plane.
fn cwdp_plane_order(g: &Geometry) -> Vec<PlaneAddr> {
    let mut order = Vec::with_capacity(g.total_planes() as usize);
    for plane in 0..g.planes_per_die {
        for die in 0..g.dies_per_chip {
            for chip in 0..g.chips_per_channel {
                for ch in 0..g.channels {
                    let flat_die = (ch * g.chips_per_channel + chip) * g.dies_per_chip + die;
                    order.push(PlaneAddr(flat_die * g.planes_per_die + plane));
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockState;
    use ida_obs::rng::Rng64;

    #[test]
    fn cwdp_order_visits_channels_first() {
        let g = Geometry::paper_512gb(); // 4 ch, 4 chips, 2 dies, 2 planes
        let order = cwdp_plane_order(&g);
        assert_eq!(order.len(), 64);
        // First four entries must sit on channels 0..4.
        let channels: Vec<u32> = order[..4].iter().map(|p| p.die(&g).channel(&g)).collect();
        assert_eq!(channels, vec![0, 1, 2, 3]);
        // And all on plane 0 of die 0 of chip 0.
        assert!(order[..4].iter().all(|p| p.0 % g.planes_per_die == 0));
    }

    #[test]
    fn consecutive_allocations_stripe_across_channels() {
        let g = Geometry::tiny(); // 2 channels, 1 chip, 1 die, 1 plane
        let mut blocks = BlockTable::new(g);
        let mut alloc = Allocator::new(g);
        let p0 = alloc.allocate(&mut blocks, 0).unwrap();
        let p1 = alloc.allocate(&mut blocks, 0).unwrap();
        assert_ne!(p0.channel(&g), p1.channel(&g));
    }

    #[test]
    fn pages_fill_blocks_sequentially_within_a_plane() {
        let g = Geometry::tiny();
        let mut blocks = BlockTable::new(g);
        let mut alloc = Allocator::new(g);
        let mut offsets = Vec::new();
        // Two planes alternate; collect plane-0 offsets.
        for _ in 0..8 {
            let p = alloc.allocate(&mut blocks, 0).unwrap();
            if p.block(&g).plane(&g) == PlaneAddr(0) {
                offsets.push(p.offset_in_block(&g));
            }
        }
        assert_eq!(offsets, vec![0, 1, 2, 3]);
    }

    #[test]
    fn allocation_exhausts_then_returns_none() {
        let g = Geometry::tiny();
        let mut blocks = BlockTable::new(g);
        let mut alloc = Allocator::new(g);
        // The host path keeps GC_RESERVE blocks back in every plane.
        let reserved = (Allocator::GC_RESERVE * g.total_planes()) as u64;
        let host_visible = g.total_pages() - reserved * g.pages_per_block() as u64;
        for _ in 0..host_visible {
            assert!(alloc.allocate(&mut blocks, 0).is_some());
        }
        assert_eq!(alloc.allocate(&mut blocks, 0), None);
        assert_eq!(alloc.total_free(), reserved);
        // The reserve is still reachable for GC.
        assert!(alloc.allocate_gc(PlaneAddr(0), &mut blocks, 0).is_some());
    }

    #[test]
    fn push_free_recycles_blocks() {
        let g = Geometry::tiny();
        let mut blocks = BlockTable::new(g);
        let mut alloc = Allocator::new(g);
        let page = alloc.allocate(&mut blocks, 0).unwrap();
        let block = page.block(&g);
        // Exhaust, invalidate, erase, recycle.
        while blocks.has_room(block) {
            blocks.allocate_page(block, 0);
        }
        for _ in 0..g.pages_per_block() {
            blocks.invalidate_page(block);
        }
        blocks.erase(block);
        let before = alloc.free_count(block.plane(&g));
        alloc.push_free(block);
        assert_eq!(alloc.free_count(block.plane(&g)), before + 1);
    }

    #[test]
    fn spare_pool_is_held_back_and_drains() {
        let g = Geometry::tiny();
        let (mut alloc, taken) = Allocator::with_spares(g, 2);
        assert_eq!(taken.len(), 2 * g.total_planes() as usize);
        assert_eq!(alloc.spare_count(PlaneAddr(0)), 2);
        assert_eq!(
            alloc.free_count(PlaneAddr(0)),
            g.blocks_per_plane - 2,
            "spares leave the free pool"
        );
        assert!(alloc.take_spare(PlaneAddr(0)).is_some());
        assert!(alloc.take_spare(PlaneAddr(0)).is_some());
        assert_eq!(alloc.take_spare(PlaneAddr(0)), None, "pool exhausts");
        assert_eq!(alloc.total_spares(), 2);
    }

    #[test]
    fn rebuild_sorts_blocks_into_their_pools() {
        let g = Geometry::tiny(); // 2 planes x 64 blocks
        let alloc = Allocator::rebuild(g, |b| match b.0 {
            0 => RecoveredPool::Active,
            1 => RecoveredPool::Spare,
            2 | 3 => RecoveredPool::None,
            _ => RecoveredPool::Free,
        });
        assert_eq!(alloc.active_block(PlaneAddr(0)), Some(BlockAddr(0)));
        assert_eq!(alloc.spare_count(PlaneAddr(0)), 1);
        assert_eq!(alloc.free_count(PlaneAddr(0)), 60);
        assert_eq!(alloc.free_count(PlaneAddr(1)), 64);
    }

    /// The probe loop `allocate_preferring` ran before the allocator kept
    /// each plane's next page type: the reference its choices must match.
    fn allocate_preferring_reference(
        a: &mut Allocator,
        wanted_bit: u8,
        blocks: &mut BlockTable,
        now: SimTime,
    ) -> Option<PageAddr> {
        let n = a.plane_order.len();
        for i in 0..n {
            let plane = a.plane_order[(a.cursor + i) % n];
            let slot = plane.0 as usize;
            let next_bit = match a.active[slot] {
                Some(b) => (blocks.next_offset(b) % a.geometry.bits_per_cell) as u8,
                None if !a.free[slot].is_empty() => 0,
                None => continue,
            };
            if next_bit == wanted_bit {
                if let Some(page) = a.allocate_in_plane(plane, blocks, now) {
                    a.cursor = (a.cursor + i + 1) % n;
                    return Some(page);
                }
            }
        }
        a.allocate(blocks, now)
    }

    fn encode(v: &impl ida_snap::Snap) -> Vec<u8> {
        let mut w = ida_snap::Writer::new();
        v.encode(&mut w);
        w.into_bytes()
    }

    /// Drive `a` over `blocks` with random allocations, preferring
    /// allocations, GC allocations, reclaims and spare promotions,
    /// checking `tightest_plane` against a first-minimum scan before every
    /// step and each `allocate_preferring` against the reference.
    fn drive(mut a: Allocator, mut blocks: BlockTable, rng: &mut Rng64, steps: u64) {
        let g = a.geometry;
        for now in 0..steps {
            let scan = a
                .free
                .iter()
                .enumerate()
                .min_by_key(|(_, q)| q.len())
                .map(|(i, q)| (PlaneAddr(i as u32), q.len() as u32));
            assert_eq!(Some(a.tightest_plane()), scan, "step {now}");
            let plane = PlaneAddr(rng.gen_below(g.total_planes().into()) as u32);
            match rng.gen_below(10) {
                0..=2 => {
                    a.allocate(&mut blocks, now);
                }
                3..=6 => {
                    let bit = rng.gen_below(g.bits_per_cell.into()) as u8;
                    let (mut ref_a, mut ref_blocks) = (a.clone(), blocks.clone());
                    let want = allocate_preferring_reference(&mut ref_a, bit, &mut ref_blocks, now);
                    assert_eq!(a.allocate_preferring(bit, &mut blocks, now), want);
                    assert_eq!(encode(&a), encode(&ref_a), "pools diverged at step {now}");
                    assert_eq!(encode(&blocks), encode(&ref_blocks));
                }
                7 => {
                    a.allocate_gc(plane, &mut blocks, now);
                }
                8 => {
                    // A GC reclaim: drain a closed block, erase it, pool it.
                    let closed: Vec<BlockAddr> =
                        blocks.reclaimable_blocks().map(|(b, _, _)| b).collect();
                    if !closed.is_empty() {
                        let b = closed[rng.gen_below(closed.len() as u64) as usize];
                        for _ in 0..blocks.valid_pages(b) {
                            blocks.invalidate_page(b);
                        }
                        blocks.erase(b);
                        a.push_free(b);
                    }
                }
                _ => {
                    // A retirement promotes a spare into the free pool.
                    if let Some(s) = a.take_spare(plane) {
                        a.push_free(s);
                    }
                }
            }
        }
    }

    /// Few, small blocks, so pools drain, refill and tie constantly.
    fn micro(bits_per_cell: u32) -> Geometry {
        Geometry {
            channels: 2,
            chips_per_channel: 1,
            dies_per_chip: 1,
            planes_per_die: 2,
            blocks_per_plane: 6,
            wordlines_per_block: 3,
            bits_per_cell,
            page_size_bytes: 4 * 1024,
        }
    }

    #[test]
    fn allocator_choices_match_their_references() {
        let mut rng = Rng64::seed_from_u64(0x00A1_10C8);
        for g in [micro(2), micro(3), Geometry::tiny()] {
            for _ in 0..3 {
                drive(Allocator::new(g), BlockTable::new(g), &mut rng, 2_000);
                let (a, _) = Allocator::with_spares(g, 2);
                drive(a, BlockTable::new(g), &mut rng, 2_000);
                // A recovered allocator: open blocks resume mid-block, the
                // free pools re-sort, some free blocks become spares.
                let mut blocks = BlockTable::new(g);
                let mut before = Allocator::new(g);
                for now in 0..rng.gen_below(g.total_pages() / 2) {
                    before.allocate(&mut blocks, now);
                }
                let a = Allocator::rebuild(g, |b| match blocks.state(b) {
                    BlockState::Free if b.0 % 5 == 0 => RecoveredPool::Spare,
                    BlockState::Free => RecoveredPool::Free,
                    BlockState::Open => RecoveredPool::Active,
                    _ => RecoveredPool::None,
                });
                drive(a, blocks, &mut rng, 2_000);
            }
        }
    }

    #[test]
    fn allocate_in_plane_stays_in_plane() {
        let g = Geometry::tiny();
        let mut blocks = BlockTable::new(g);
        let mut alloc = Allocator::new(g);
        for _ in 0..10 {
            let p = alloc
                .allocate_in_plane(PlaneAddr(1), &mut blocks, 0)
                .unwrap();
            assert_eq!(p.block(&g).plane(&g), PlaneAddr(1));
        }
    }
}
