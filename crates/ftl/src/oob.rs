//! Simulated out-of-band (OOB) metadata — the persistent side of the FTL.
//!
//! Real flash pages carry a spare area the FTL uses to stamp each program
//! with its logical page number and a monotonically increasing sequence
//! number, and real controllers keep per-block markers (bad, erase count)
//! plus a small journal for multi-step operations. This module simulates
//! exactly that surface: everything in an [`OobStore`] survives a power
//! loss, while the FTL's in-DRAM structures (page map, block table,
//! allocator, refresh queue) do not and are rebuilt from here by the
//! recovery scan.
//!
//! The IDA-specific hazard lives here too: a voltage adjustment changes a
//! wordline's coding in place, so the adjustment is journaled as an
//! *intent* (the planned keep-masks), then each wordline records a
//! `merged` mask when its pulse lands and a `committed` flag when its new
//! coding becomes authoritative. A crash between the two is detected on
//! recovery and rolled forward, which is what makes the merge atomic per
//! wordline.

use crate::block::{wordline_count, wordline_slot, wordline_slots};
use crate::map::{check_len, first_bad};
use ida_flash::addr::{BlockAddr, PageAddr};
use ida_flash::geometry::Geometry;

/// What the spare area of one physical page records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRecord {
    /// Never programmed since the last erase.
    Erased,
    /// Programmed with host/relocated data.
    Data {
        /// Logical page stamped at program time.
        lpn: u64,
        /// Global program sequence number (higher wins at rebuild).
        seq: u64,
    },
    /// The program attempt failed; the page holds nothing usable.
    Failed,
}

/// `lpn` slot of a page never programmed since the last erase.
const ERASED: u32 = u32::MAX;
/// `lpn` slot of a page whose program attempt failed.
const FAILED: u32 = u32::MAX - 1;

/// Persistent per-block metadata.
#[derive(Debug, Clone, Default)]
struct BlockOob {
    bad: bool,
    spare: bool,
    erase_count: u32,
    /// Open refresh-adjustment intent: planned `(wordline, keep_mask)`
    /// pairs, journaled before the first pulse and cleared after verify.
    intent: Option<Vec<(u32, u8)>>,
}

/// The simulated OOB store for a whole device.
///
/// Page records and wordline merge state live in dense arrays (one slot
/// per page or per `block × wordline`), so a snapshot moves each as one
/// bulk copy. A page's record is its `lpn` slot (`ERASED`, `FAILED`
/// or the stamped LPN) plus its `seq` slot, which is 0 unless the page
/// holds data — one canonical form per record.
#[derive(Debug, Clone)]
pub struct OobStore {
    geometry: Geometry,
    lpn: Vec<u32>,
    seq: Vec<u64>,
    blocks: Vec<BlockOob>,
    /// Per-wordline merge-pulse record (the keep-mask the pulse applied).
    merged: Vec<u8>,
    /// Per-wordline commit flag: the merged coding is authoritative.
    committed: Vec<bool>,
    next_seq: u64,
}

ida_snap::snap_struct!(BlockOob {
    bad,
    spare,
    erase_count,
    intent,
});

ida_snap::snap_struct!(OobStore {
    geometry,
    lpn,
    seq,
    blocks,
    merged,
    committed,
    next_seq,
});

impl OobStore {
    /// A fresh store: every page erased, every block clean.
    pub fn new(geometry: Geometry) -> Self {
        let pages = geometry.total_pages() as usize;
        let wordlines = wordline_count(&geometry) as usize;
        OobStore {
            geometry,
            lpn: vec![ERASED; pages],
            seq: vec![0; pages],
            blocks: vec![BlockOob::default(); geometry.total_blocks() as usize],
            merged: vec![0; wordlines],
            committed: vec![false; wordlines],
            next_seq: 0,
        }
    }

    /// Heap bytes of the dense tables (an open intent's few pairs aside).
    pub(crate) fn heap_bytes(&self) -> usize {
        let wordlines = size_of_val(&*self.merged) + size_of_val(&*self.committed);
        size_of_val(&*self.lpn) + size_of_val(&*self.seq) + size_of_val(&*self.blocks) + wordlines
    }

    fn block(&self, b: BlockAddr) -> &BlockOob {
        &self.blocks[b.index() as usize]
    }

    fn block_mut(&mut self, b: BlockAddr) -> &mut BlockOob {
        &mut self.blocks[b.index() as usize]
    }

    /// The page-array range of `b`.
    fn pages_of(&self, b: BlockAddr) -> std::ops::Range<usize> {
        let first = b.first_page(&self.geometry).index() as usize;
        first..first + self.geometry.pages_per_block() as usize
    }

    /// The record in `page`'s spare area.
    pub fn page(&self, page: PageAddr) -> PageRecord {
        let i = page.index() as usize;
        match self.lpn[i] {
            ERASED => PageRecord::Erased,
            FAILED => PageRecord::Failed,
            lpn => PageRecord::Data {
                lpn: u64::from(lpn),
                seq: self.seq[i],
            },
        }
    }

    /// Stamp a successful program of `lpn` into `page`; returns the
    /// sequence number assigned.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` exceeds the page tables' range
    /// ([`crate::map::MAX_PAGES`]).
    pub fn record_program(&mut self, page: PageAddr, lpn: u64) -> u64 {
        assert!(lpn < u64::from(FAILED), "LPN {lpn} out of range");
        let seq = self.next_seq;
        self.next_seq += 1;
        let i = page.index() as usize;
        self.lpn[i] = lpn as u32;
        self.seq[i] = seq;
        seq
    }

    /// Mark `page` as a failed program attempt.
    pub fn record_failed(&mut self, page: PageAddr) {
        let i = page.index() as usize;
        self.lpn[i] = FAILED;
        self.seq[i] = 0;
    }

    /// Pages of `block` programmed (data or failed) since its last erase.
    /// Programs are sequential, so this equals the block's write pointer.
    pub fn programmed_count(&self, b: BlockAddr) -> u32 {
        self.lpn[self.pages_of(b)]
            .iter()
            .filter(|&&l| l != ERASED)
            .count() as u32
    }

    /// Failed-program marks in `block` since its last erase.
    pub fn failed_count(&self, b: BlockAddr) -> u32 {
        self.lpn[self.pages_of(b)]
            .iter()
            .filter(|&&l| l == FAILED)
            .count() as u32
    }

    /// A successful erase of `block`: clears every page record, the
    /// wordline merge state and any open intent, and bumps the persistent
    /// erase count.
    pub fn record_erase(&mut self, b: BlockAddr) {
        let pages = self.pages_of(b);
        self.lpn[pages.clone()].fill(ERASED);
        self.seq[pages].fill(0);
        let wls = wordline_slots(&self.geometry, b);
        self.merged[wls.clone()].fill(0);
        self.committed[wls].fill(false);
        let oob = self.block_mut(b);
        oob.erase_count += 1;
        oob.intent = None;
    }

    /// Persistent erase count of `block`.
    pub fn erase_count(&self, b: BlockAddr) -> u32 {
        self.block(b).erase_count
    }

    /// Retire `block` to the grown-bad list.
    pub fn mark_bad(&mut self, b: BlockAddr) {
        self.block_mut(b).bad = true;
    }

    /// Whether `block` is on the grown-bad list.
    pub fn is_bad(&self, b: BlockAddr) -> bool {
        self.block(b).bad
    }

    /// Number of grown-bad blocks.
    pub fn bad_count(&self) -> u32 {
        self.blocks.iter().filter(|o| o.bad).count() as u32
    }

    /// Flag `block` as belonging to the reserved spare pool.
    pub fn set_spare(&mut self, b: BlockAddr, spare: bool) {
        self.block_mut(b).spare = spare;
    }

    /// Whether `block` sits in the reserved spare pool.
    pub fn is_spare(&self, b: BlockAddr) -> bool {
        self.block(b).spare
    }

    /// Journal a refresh-adjustment intent for `block`: the planned
    /// `(wordline, keep_mask)` pairs.
    pub fn set_intent(&mut self, b: BlockAddr, masks: &[(u32, u8)]) {
        self.block_mut(b).intent = Some(masks.to_vec());
    }

    /// The open intent on `block`, if any.
    pub fn intent(&self, b: BlockAddr) -> Option<&[(u32, u8)]> {
        self.block(b).intent.as_deref()
    }

    /// Close the intent on `block` (adjustment fully verified).
    pub fn clear_intent(&mut self, b: BlockAddr) {
        self.block_mut(b).intent = None;
    }

    /// Record that wordline `wl` of `block` received its merge pulse with
    /// `mask` as the keep-mask.
    pub fn record_merge(&mut self, b: BlockAddr, wl: u32, mask: u8) {
        let i = wordline_slot(&self.geometry, b, wl);
        self.merged[i] = mask;
    }

    /// Commit wordline `wl` of `block`: its merged coding is now
    /// authoritative for reads.
    pub fn commit_merge(&mut self, b: BlockAddr, wl: u32) {
        let i = wordline_slot(&self.geometry, b, wl);
        self.committed[i] = true;
    }

    /// The merge-pulse mask recorded for wordline `wl` (0 = no pulse).
    pub fn merged_mask(&self, b: BlockAddr, wl: u32) -> u8 {
        self.merged[wordline_slot(&self.geometry, b, wl)]
    }

    /// Whether wordline `wl`'s merge is committed.
    pub fn is_committed(&self, b: BlockAddr, wl: u32) -> bool {
        self.committed[wordline_slot(&self.geometry, b, wl)]
    }

    /// Per-wordline keep-masks of `block` counting only *committed*
    /// merges — the authoritative coding state a recovery scan trusts.
    pub fn committed_masks(&self, b: BlockAddr) -> Vec<u8> {
        let wls = wordline_slots(&self.geometry, b);
        self.merged[wls.clone()]
            .iter()
            .zip(&self.committed[wls])
            .map(|(&m, &c)| if c { m } else { 0 })
            .collect()
    }

    /// Every data record in the store as `(page, lpn, seq)`, in physical
    /// page order. The recovery scan rebuilds the mapping table from
    /// them, the highest `seq` of each LPN winning.
    pub fn data_records(&self) -> impl Iterator<Item = (PageAddr, u64, u64)> + '_ {
        self.lpn
            .iter()
            .zip(&self.seq)
            .enumerate()
            .filter(|&(_, (&lpn, _))| lpn < FAILED)
            .map(|(i, (&lpn, &seq))| (PageAddr(i as u64), u64::from(lpn), seq))
    }

    /// An error unless this (decoded) store was built for `geometry`, its
    /// tables have the lengths that implies and every stamped LPN is below
    /// `logical_pages`, so a recovery scan over it cannot index out of
    /// bounds.
    pub(crate) fn check(
        &self,
        geometry: &Geometry,
        logical_pages: u64,
    ) -> Result<(), ida_snap::SnapError> {
        if self.geometry != *geometry {
            return Err(ida_snap::SnapError::new(
                "oob geometry differs from the FTL's",
            ));
        }
        let (pages, wordlines) = (geometry.total_pages(), wordline_count(geometry));
        check_len("oob lpn", self.lpn.len(), pages)?;
        check_len("oob seq", self.seq.len(), pages)?;
        check_len(
            "oob blocks",
            self.blocks.len(),
            geometry.total_blocks().into(),
        )?;
        check_len("oob merged", self.merged.len(), wordlines)?;
        check_len("oob committed", self.committed.len(), wordlines)?;
        match first_bad(&self.lpn, |l| l < FAILED && u64::from(l) >= logical_pages) {
            None => Ok(()),
            Some(i) => Err(ida_snap::SnapError::new(format!(
                "oob page {i} stamps LPN {} of {logical_pages}",
                self.lpn[i]
            ))),
        }
    }

    /// Blocks with an open refresh-adjustment intent.
    pub fn open_intents(&self) -> Vec<BlockAddr> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, o)| o.intent.is_some())
            .map(|(i, _)| BlockAddr(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> OobStore {
        OobStore::new(Geometry::tiny())
    }

    #[test]
    fn program_records_are_sequenced_and_erase_clears_them() {
        let mut o = store();
        let b = BlockAddr(3);
        let g = Geometry::tiny();
        let s0 = o.record_program(b.page(&g, 0), 40);
        let s1 = o.record_program(b.page(&g, 1), 41);
        assert!(s1 > s0);
        o.record_failed(b.page(&g, 2));
        assert_eq!(o.programmed_count(b), 3);
        assert_eq!(o.failed_count(b), 1);
        assert_eq!(o.page(b.page(&g, 0)), PageRecord::Data { lpn: 40, seq: s0 });
        o.record_erase(b);
        assert_eq!(o.programmed_count(b), 0);
        assert_eq!(o.erase_count(b), 1);
        assert_eq!(o.page(b.page(&g, 0)), PageRecord::Erased);
    }

    #[test]
    fn intent_and_merge_lifecycle() {
        let mut o = store();
        let b = BlockAddr(5);
        o.set_intent(b, &[(0, 0b011), (2, 0b101)]);
        assert_eq!(o.open_intents(), vec![b]);
        o.record_merge(b, 0, 0b011);
        assert_eq!(o.merged_mask(b, 0), 0b011);
        assert!(!o.is_committed(b, 0));
        assert_eq!(
            o.committed_masks(b)[0],
            0,
            "uncommitted merge is not authoritative"
        );
        o.commit_merge(b, 0);
        assert_eq!(o.committed_masks(b)[0], 0b011);
        o.clear_intent(b);
        assert!(o.open_intents().is_empty());
    }

    #[test]
    fn bad_and_spare_flags_persist_until_set_back() {
        let mut o = store();
        let b = BlockAddr(9);
        o.set_spare(b, true);
        assert!(o.is_spare(b));
        o.set_spare(b, false);
        o.mark_bad(b);
        assert!(o.is_bad(b));
        assert_eq!(o.bad_count(), 1);
    }

    #[test]
    fn data_records_enumerate_only_data() {
        let mut o = store();
        let g = Geometry::tiny();
        let b = BlockAddr(0);
        o.record_program(b.page(&g, 0), 7);
        o.record_failed(b.page(&g, 1));
        let recs: Vec<_> = o.data_records().collect();
        assert_eq!(recs, vec![(b.page(&g, 0), 7, 0)]);
    }
}
