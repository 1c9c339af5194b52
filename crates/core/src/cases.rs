//! The wordline case table (paper Table I) and the refresh-time action
//! policy derived from it.
//!
//! During the modified data refresh, each wordline of the target block is
//! classified by which of its pages are still valid, and one of three
//! actions is chosen:
//!
//! - **Nothing** — no valid pages (case 8);
//! - **MoveAll** — the top page is invalid (cases 5–7): IDA brings no or
//!   little benefit, so the valid pages migrate to the new block exactly as
//!   the original refresh would do;
//! - **Ida** — the top page is valid (cases 1–4): the lowest valid pages
//!   that would block a profitable merge are *evicted* (moved to the new
//!   block, like the LSB moves of cases 1 and 3), and the remaining pages
//!   stay behind under IDA coding with reduced sense counts.
//!
//! The generalized rule (any bits-per-cell): keep the contiguous suffix of
//! bits from `max(1, highest_invalid + 1)` up to the top bit; evict valid
//! bits below it. For TLC this reproduces Table I exactly; for QLC it
//! reproduces Figure 6.

/// One of the paper's eight TLC wordline cases (Table I), generalized to a
/// validity bitmask. Constructed via [`WlCase::classify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WlCase {
    bits_per_cell: u8,
    valid_mask: u8,
}

/// The refresh-time action for one wordline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WlAction {
    /// No valid pages — nothing to do (Table I case 8).
    Nothing,
    /// Move all valid pages (bit indices, ascending) to the new block, as
    /// the original refresh does (Table I cases 5–7).
    MoveAll {
        /// Valid page bit indices to migrate.
        pages: Vec<u8>,
    },
    /// Apply IDA coding: evict `move_out` (valid pages relocated to the new
    /// block) and keep `keep` behind under the merged coding (Table I
    /// cases 1–4).
    Ida {
        /// Valid page bit indices evicted to the new block (e.g. the LSB
        /// moves of cases 1 and 3).
        move_out: Vec<u8>,
        /// Page bit indices remaining in the wordline under IDA coding.
        keep: Vec<u8>,
    },
}

impl WlAction {
    /// Bit mask of the pages kept under IDA coding (empty for non-IDA
    /// actions).
    pub fn keep_mask(&self) -> u8 {
        match self {
            WlAction::Ida { keep, .. } => keep.iter().fold(0, |m, b| m | (1 << b)),
            _ => 0,
        }
    }

    /// Whether this action applies IDA coding to the wordline.
    pub fn applies_ida(&self) -> bool {
        matches!(self, WlAction::Ida { .. })
    }

    /// All valid pages that will be written into the new block by this
    /// action.
    pub fn moved_pages(&self) -> &[u8] {
        match self {
            WlAction::Nothing => &[],
            WlAction::MoveAll { pages } => pages,
            WlAction::Ida { move_out, .. } => move_out,
        }
    }
}

impl WlCase {
    /// Classify a wordline by its per-page validity mask (bit `b` set ⇔
    /// page `b` valid).
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_cell` is outside `1..=4` or the mask has bits
    /// beyond `bits_per_cell`.
    pub fn classify(bits_per_cell: u8, valid_mask: u8) -> Self {
        assert!(
            (1..=4).contains(&bits_per_cell),
            "bits per cell must be 1..=4"
        );
        let full = ((1u16 << bits_per_cell) - 1) as u8;
        assert_eq!(
            valid_mask & !full,
            0,
            "validity mask {valid_mask:#b} exceeds {bits_per_cell} bits"
        );
        WlCase {
            bits_per_cell,
            valid_mask,
        }
    }

    /// The per-page validity mask.
    pub fn valid_mask(self) -> u8 {
        self.valid_mask
    }

    /// The paper's 1-based case number for TLC wordlines (Table I).
    ///
    /// # Panics
    ///
    /// Panics if this is not a TLC (3 bits/cell) case.
    pub fn paper_case_number(self) -> u8 {
        assert_eq!(self.bits_per_cell, 3, "Table I numbering is TLC-specific");
        // (LSB, CSB, MSB) validity → case number.
        match (
            self.valid_mask & 1 != 0,
            self.valid_mask & 2 != 0,
            self.valid_mask & 4 != 0,
        ) {
            (true, true, true) => 1,
            (false, true, true) => 2,
            (true, false, true) => 3,
            (false, false, true) => 4,
            (true, true, false) => 5,
            (false, true, false) => 6,
            (true, false, false) => 7,
            (false, false, false) => 8,
        }
    }

    /// Whether the top (slowest) page is valid — the precondition for IDA
    /// coding to pay off.
    pub fn top_valid(self) -> bool {
        self.valid_mask & (1 << (self.bits_per_cell - 1)) != 0
    }

    /// Decide the refresh-time action for this wordline (the policy of
    /// Section III-C, "Selecting Pages to Apply IDA Coding"), as lists.
    pub fn action(self) -> WlAction {
        let bits = |mask: u8| {
            (0..self.bits_per_cell)
                .filter(|b| mask & (1 << b) != 0)
                .collect()
        };
        match self.ida_masks() {
            Some((move_out, keep)) => WlAction::Ida {
                move_out: bits(move_out),
                keep: bits(keep),
            },
            None if self.valid_mask == 0 => WlAction::Nothing,
            None => WlAction::MoveAll {
                pages: bits(self.valid_mask),
            },
        }
    }

    /// The refresh-time decision as bit masks — the one statement of the
    /// policy, which [`WlCase::action`] and the refresh planner share.
    /// `Some((move_out, keep))` when the wordline takes IDA coding: the
    /// valid pages evicted to the new block, and the pages kept behind
    /// under the merged coding. `None` when its valid pages (if any) all
    /// move as the original refresh moves them.
    pub fn ida_masks(self) -> Option<(u8, u8)> {
        if self.valid_mask == 0 || !self.top_valid() || self.bits_per_cell == 1 {
            return None;
        }
        // Keep the contiguous valid suffix starting above the highest
        // invalid bit — but always release bit 0 so a merge exists.
        let full = ((1u16 << self.bits_per_cell) - 1) as u8;
        let invalid = full & !self.valid_mask;
        let keep_from = (u8::BITS - invalid.leading_zeros()).max(1);
        let keep = full & !((1u8 << keep_from) - 1);
        Some((self.valid_mask & !keep, keep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlc(valid: u8) -> WlAction {
        WlCase::classify(3, valid).action()
    }

    #[test]
    fn table_i_case_numbers() {
        assert_eq!(WlCase::classify(3, 0b111).paper_case_number(), 1);
        assert_eq!(WlCase::classify(3, 0b110).paper_case_number(), 2);
        assert_eq!(WlCase::classify(3, 0b101).paper_case_number(), 3);
        assert_eq!(WlCase::classify(3, 0b100).paper_case_number(), 4);
        assert_eq!(WlCase::classify(3, 0b011).paper_case_number(), 5);
        assert_eq!(WlCase::classify(3, 0b010).paper_case_number(), 6);
        assert_eq!(WlCase::classify(3, 0b001).paper_case_number(), 7);
        assert_eq!(WlCase::classify(3, 0b000).paper_case_number(), 8);
    }

    #[test]
    fn case_1_moves_lsb_adjusts_csb_msb() {
        assert_eq!(
            tlc(0b111),
            WlAction::Ida {
                move_out: vec![0],
                keep: vec![1, 2]
            }
        );
    }

    #[test]
    fn case_2_keeps_csb_msb_nothing_moves() {
        assert_eq!(
            tlc(0b110),
            WlAction::Ida {
                move_out: vec![],
                keep: vec![1, 2]
            }
        );
    }

    #[test]
    fn case_3_moves_lsb_adjusts_msb_only() {
        assert_eq!(
            tlc(0b101),
            WlAction::Ida {
                move_out: vec![0],
                keep: vec![2]
            }
        );
    }

    #[test]
    fn case_4_keeps_msb_only() {
        assert_eq!(
            tlc(0b100),
            WlAction::Ida {
                move_out: vec![],
                keep: vec![2]
            }
        );
    }

    #[test]
    fn cases_5_to_7_move_valid_pages() {
        assert_eq!(tlc(0b011), WlAction::MoveAll { pages: vec![0, 1] });
        assert_eq!(tlc(0b010), WlAction::MoveAll { pages: vec![1] });
        assert_eq!(tlc(0b001), WlAction::MoveAll { pages: vec![0] });
    }

    #[test]
    fn case_8_does_nothing() {
        assert_eq!(tlc(0b000), WlAction::Nothing);
    }

    #[test]
    fn qlc_figure_6_keeps_bits_3_and_4() {
        // Bits 1,2 invalid; bits 3,4 valid.
        let action = WlCase::classify(4, 0b1100).action();
        assert_eq!(
            action,
            WlAction::Ida {
                move_out: vec![],
                keep: vec![2, 3]
            }
        );
    }

    #[test]
    fn qlc_fully_valid_evicts_bit_1_only() {
        let action = WlCase::classify(4, 0b1111).action();
        assert_eq!(
            action,
            WlAction::Ida {
                move_out: vec![0],
                keep: vec![1, 2, 3]
            }
        );
    }

    #[test]
    fn mlc_lsb_invalid_keeps_msb() {
        let action = WlCase::classify(2, 0b10).action();
        assert_eq!(
            action,
            WlAction::Ida {
                move_out: vec![],
                keep: vec![1]
            }
        );
    }

    #[test]
    fn slc_never_applies_ida() {
        assert_eq!(
            WlCase::classify(1, 0b1).action(),
            WlAction::MoveAll { pages: vec![0] }
        );
        assert_eq!(WlCase::classify(1, 0).action(), WlAction::Nothing);
    }

    #[test]
    fn keep_mask_matches_keep_list() {
        let a = tlc(0b111);
        assert_eq!(a.keep_mask(), 0b110);
        assert!(a.applies_ida());
        assert_eq!(a.moved_pages(), &[0]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_mask_rejected() {
        let _ = WlCase::classify(2, 0b100);
    }
}
