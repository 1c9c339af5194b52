//! The modified data-refresh flow (paper Figure 7).
//!
//! A conventional (remapping-based) refresh reads every valid page of the
//! target block, ECC-corrects it, and writes it into a new block. The
//! IDA-modified refresh instead:
//!
//! 1. reads and corrects all valid pages (same as baseline);
//! 2. classifies each wordline (Table I) — pages that cannot benefit are
//!    written to the new block, pages selected for IDA stay behind;
//! 3. voltage-adjusts each selected wordline (one ISPP pass per WL);
//! 4. re-reads every kept page to detect adjustment-induced corruption;
//! 5. error-free kept pages stay in the (now IDA-coded) target block; the
//!    corrupted ones have their clean copies written to the new block.
//!
//! This module is a pure *planner*: it turns a block's validity map into
//! the exact sequence of page reads, page writes, and wordline adjustments,
//! with corruption sampled from an [`InterferenceModel`]. The FTL executes
//! the plan and the simulator charges its timing.

use crate::cases::WlCase;
use ida_flash::interference::InterferenceModel;

/// A page within the refresh target block: wordline index and bit (page
/// type) index.
pub type PageRef = (u32, u8);

/// Whether the refresh runs the baseline flow or the IDA-modified flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshMode {
    /// Original refresh: move every valid page to the new block.
    Baseline,
    /// IDA-modified refresh (Figure 7b).
    Ida,
}

ida_snap::snap_enum!(RefreshMode {
    0 => RefreshMode::Baseline,
    1 => RefreshMode::Ida,
});

/// The planned operations of one block refresh.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshPlan {
    /// Step 1: valid pages read out and ECC-corrected (`N_valid` of them).
    pub initial_reads: Vec<PageRef>,
    /// Step 3: pages written to the new block because they cannot benefit
    /// from IDA (cases 5–7). Baseline refresh puts *all* valid pages here.
    pub moves: Vec<PageRef>,
    /// Step 3: valid pages *evicted* from IDA-selected wordlines to enable
    /// a merge (the LSB moves of cases 1 and 3). The paper places these
    /// into the fast LSB pages of the new block, so they are kept separate
    /// from ordinary moves.
    pub evictions: Vec<PageRef>,
    /// Step 4: wordlines whose threshold voltages are adjusted.
    pub adjusted_wordlines: Vec<u32>,
    /// Per adjusted wordline, the bit mask of pages kept under IDA coding.
    /// Parallel to `adjusted_wordlines`.
    pub keep_masks: Vec<u8>,
    /// Step 5: verification reads of kept pages after the adjustment
    /// (`N_target` of them — the *additional reads* of Table IV).
    pub verify_reads: Vec<PageRef>,
    /// Step 7/8 outcome: kept pages found corrupted, whose clean copies are
    /// written to the new block (`N_error` — the *additional writes*).
    pub error_writes: Vec<PageRef>,
    /// Kept pages that survived intact and remain in the IDA block.
    pub survivors: Vec<PageRef>,
}

impl RefreshPlan {
    /// `N_valid`: valid pages in the target block.
    pub fn n_valid(&self) -> usize {
        self.initial_reads.len()
    }

    /// `N_target`: pages reprogrammed by IDA coding.
    pub fn n_target(&self) -> usize {
        self.verify_reads.len()
    }

    /// `N_error`: kept pages corrupted by the adjustment.
    pub fn n_error(&self) -> usize {
        self.error_writes.len()
    }

    /// Total page reads the refresh performs
    /// (`N_valid + N_target`, Section III-C).
    pub fn total_reads(&self) -> usize {
        self.initial_reads.len() + self.verify_reads.len()
    }

    /// Total page writes the refresh performs. For the baseline this is
    /// `N_valid`; for IDA it is `N_valid − N_target + N_error`.
    pub fn total_writes(&self) -> usize {
        self.moves.len() + self.evictions.len() + self.error_writes.len()
    }
}

/// Plans refresh operations for blocks of a given cell density.
#[derive(Debug, Clone)]
pub struct RefreshPlanner {
    bits_per_cell: u8,
    mode: RefreshMode,
    interference: InterferenceModel,
}

ida_snap::snap_struct!(RefreshPlanner {
    bits_per_cell,
    mode,
    interference,
});

impl RefreshPlanner {
    /// A planner for `bits_per_cell` flash in the given mode; `interference`
    /// supplies the per-page corruption draws of step 5 (ignored in
    /// baseline mode).
    pub fn new(bits_per_cell: u8, mode: RefreshMode, interference: InterferenceModel) -> Self {
        assert!(
            (1..=4).contains(&bits_per_cell),
            "bits per cell must be 1..=4"
        );
        RefreshPlanner {
            bits_per_cell,
            mode,
            interference,
        }
    }

    /// The planner's refresh mode.
    pub fn mode(&self) -> RefreshMode {
        self.mode
    }

    /// Plan the refresh of one block. `wl_valid_masks[w]` holds the
    /// validity bit mask of wordline `w` (bit `b` set ⇔ page `b` valid).
    ///
    /// Wordlines already carrying IDA coding can be passed too — their mask
    /// simply reflects the still-valid pages, and because the planner is
    /// driven by masks alone, they are re-planned like any other wordline
    /// (in the simulator, refresh of an IDA block moves its pages out, as
    /// the paper requires IDA blocks to be reclaimed on the next cycle).
    pub fn plan_block(&mut self, wl_valid_masks: &[u8]) -> RefreshPlan {
        let mut plan = RefreshPlan::default();
        self.plan_into(wl_valid_masks, &mut plan);
        plan
    }

    /// [`RefreshPlanner::plan_block`] into `plan`, whose lists are cleared
    /// first, so a caller refreshing block after block reuses their
    /// allocations.
    pub fn plan_into(&mut self, wl_valid_masks: &[u8], plan: &mut RefreshPlan) {
        let RefreshPlan {
            initial_reads,
            moves,
            evictions,
            adjusted_wordlines,
            keep_masks,
            verify_reads,
            error_writes,
            survivors,
        } = plan;
        for list in [
            &mut *initial_reads,
            moves,
            evictions,
            verify_reads,
            error_writes,
            survivors,
        ] {
            list.clear();
        }
        adjusted_wordlines.clear();
        keep_masks.clear();
        let full = ((1u16 << self.bits_per_cell) - 1) as u8;
        for (w, &mask) in wl_valid_masks.iter().enumerate() {
            let w = w as u32;
            let ida = match self.mode {
                RefreshMode::Baseline => None,
                RefreshMode::Ida => WlCase::classify(self.bits_per_cell, mask).ida_masks(),
            };
            initial_reads.extend(pages(w, mask & full));
            let Some((move_out, keep)) = ida else {
                moves.extend(pages(w, mask & full));
                continue;
            };
            evictions.extend(pages(w, move_out));
            // Only pages that were valid hold data to verify; kept-but-invalid
            // pages need no read.
            for page in pages(w, keep & mask) {
                verify_reads.push(page);
                if self.interference.page_corrupted() {
                    error_writes.push(page);
                } else {
                    survivors.push(page);
                }
            }
            adjusted_wordlines.push(w);
            keep_masks.push(keep);
        }
    }
}

/// The pages of wordline `w` whose bits are set in `mask`, in bit order.
fn pages(w: u32, mut mask: u8) -> impl Iterator<Item = PageRef> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let b = mask.trailing_zeros() as u8;
            mask &= mask - 1;
            (w, b)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn planner(mode: RefreshMode, rate: f64) -> RefreshPlanner {
        RefreshPlanner::new(3, mode, InterferenceModel::with_seed(rate, 42))
    }

    /// A block with the four IDA-eligible cases and the four others.
    fn mixed_block() -> Vec<u8> {
        vec![0b111, 0b110, 0b101, 0b100, 0b011, 0b010, 0b001, 0b000]
    }

    #[test]
    fn baseline_moves_every_valid_page() {
        let mut p = planner(RefreshMode::Baseline, 0.5);
        let plan = p.plan_block(&mixed_block());
        let n_valid: usize = mixed_block().iter().map(|m| m.count_ones() as usize).sum();
        assert_eq!(plan.n_valid(), n_valid);
        assert_eq!(plan.moves.len(), n_valid);
        assert_eq!(plan.n_target(), 0);
        assert_eq!(plan.n_error(), 0);
        assert!(plan.adjusted_wordlines.is_empty());
        assert_eq!(plan.total_reads(), n_valid);
        assert_eq!(plan.total_writes(), n_valid);
    }

    #[test]
    fn ida_plan_follows_table_i() {
        let mut p = planner(RefreshMode::Ida, 0.0);
        let plan = p.plan_block(&mixed_block());
        // Cases 1-4 adjust (wordlines 0..4).
        assert_eq!(plan.adjusted_wordlines, vec![0, 1, 2, 3]);
        assert_eq!(plan.keep_masks, vec![0b110, 0b110, 0b100, 0b100]);
        // Evictions: LSBs of cases 1,3. Moves: valid pages of cases 5-7.
        let mut evictions = plan.evictions.clone();
        evictions.sort_unstable();
        assert_eq!(evictions, vec![(0, 0), (2, 0)]);
        let mut moves = plan.moves.clone();
        moves.sort_unstable();
        assert_eq!(moves, vec![(4, 0), (4, 1), (5, 1), (6, 0)]);
        // Verify reads: kept valid pages of cases 1-4.
        assert_eq!(plan.n_target(), 2 + 2 + 1 + 1);
        // Error-free: everyone survives.
        assert_eq!(plan.n_error(), 0);
        assert_eq!(plan.survivors.len(), plan.n_target());
    }

    #[test]
    fn read_write_accounting_matches_section_iii_c() {
        // N_reads = N_valid + N_target; N_writes = N_valid - N_target + N_error.
        let mut p = planner(RefreshMode::Ida, 0.3);
        let plan = p.plan_block(&mixed_block());
        assert_eq!(plan.total_reads(), plan.n_valid() + plan.n_target());
        assert_eq!(
            plan.total_writes(),
            plan.n_valid() - plan.n_target() + plan.n_error()
        );
    }

    #[test]
    fn full_error_rate_writes_back_every_kept_page() {
        let mut p = planner(RefreshMode::Ida, 1.0);
        let plan = p.plan_block(&mixed_block());
        assert_eq!(plan.n_error(), plan.n_target());
        assert!(plan.survivors.is_empty());
        // Every valid page ends up written somewhere: total writes == N_valid.
        assert_eq!(plan.total_writes(), plan.n_valid());
    }

    #[test]
    fn empty_block_produces_empty_plan() {
        let mut p = planner(RefreshMode::Ida, 0.2);
        let plan = p.plan_block(&[0, 0, 0]);
        assert_eq!(plan, RefreshPlan::default());
    }

    #[test]
    fn every_valid_page_is_accounted_exactly_once() {
        let mut p = planner(RefreshMode::Ida, 0.5);
        let block = mixed_block();
        let plan = p.plan_block(&block);
        // moved + evicted + survivors + error_writes partitions the valid
        // pages.
        let mut all: Vec<PageRef> = plan
            .moves
            .iter()
            .chain(&plan.evictions)
            .chain(&plan.survivors)
            .chain(&plan.error_writes)
            .copied()
            .collect();
        all.sort_unstable();
        let mut valid: Vec<PageRef> = Vec::new();
        for (w, &mask) in block.iter().enumerate() {
            for b in 0..3 {
                if mask & (1 << b) != 0 {
                    valid.push((w as u32, b));
                }
            }
        }
        all.dedup();
        assert_eq!(all, valid);
    }

    #[test]
    fn mlc_planner_adjusts_lsb_invalid_wordlines() {
        let mut p = RefreshPlanner::new(2, RefreshMode::Ida, InterferenceModel::new(0.0));
        let plan = p.plan_block(&[0b10, 0b01, 0b11]);
        assert_eq!(plan.adjusted_wordlines, vec![0, 2]);
        assert_eq!(plan.keep_masks, vec![0b10, 0b10]);
        // WL 1 (MSB invalid) moves its LSB; WL 2 evicts its LSB.
        assert_eq!(plan.moves, vec![(1, 0)]);
        assert_eq!(plan.evictions, vec![(2, 0)]);
    }
}
