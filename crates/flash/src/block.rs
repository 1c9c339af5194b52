//! A cell-accurate flash block: an erase unit of wordlines with the real
//! programming constraints.
//!
//! The SSD simulator tracks blocks at page granularity for speed; this
//! model is the bit-level ground truth it is validated against. It
//! enforces what hardware enforces:
//!
//! - pages program **in order** (page `p` belongs to wordline
//!   `p / bits_per_cell`, bit `p % bits_per_cell`), and a wordline's cells
//!   are committed once its last page arrives (one-shot programming);
//! - reading an unwritten page returns all-ones (erased state);
//! - a wordline can be **voltage-adjusted** in place (IDA coding), after
//!   which its remaining bits read with the merged coding's sense counts;
//! - erase wipes everything, restores the conventional coding, and
//!   increments the wear counter.

use crate::coding::{CodingScheme, VoltageState};
use crate::wordline::{Wordline, WordlineError};
use std::fmt;
use std::sync::Arc;

/// Errors returned by block operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// Pages must be programmed strictly in order.
    OutOfOrderProgram {
        /// The page offset that should have been written next.
        expected: u32,
        /// The offset actually supplied.
        got: u32,
    },
    /// The block is full.
    Full,
    /// A wordline-level failure (width mismatch, leftward move, …).
    Wordline(WordlineError),
    /// The requested page has not been programmed yet.
    NotProgrammed,
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::OutOfOrderProgram { expected, got } => {
                write!(
                    f,
                    "pages program in order: expected offset {expected}, got {got}"
                )
            }
            BlockError::Full => write!(f, "block is fully programmed"),
            BlockError::Wordline(e) => write!(f, "wordline error: {e}"),
            BlockError::NotProgrammed => write!(f, "page has not been programmed"),
        }
    }
}

impl std::error::Error for BlockError {}

impl From<WordlineError> for BlockError {
    fn from(e: WordlineError) -> Self {
        BlockError::Wordline(e)
    }
}

/// A cell-accurate erase unit.
#[derive(Debug, Clone)]
pub struct Block {
    wordlines: Vec<Wordline>,
    /// Staged page data awaiting one-shot wordline programming, keyed by
    /// bit index within the in-progress wordline.
    staged: Vec<Vec<u8>>,
    bits_per_cell: u8,
    width: usize,
    write_ptr: u32,
    erase_count: u32,
}

impl Block {
    /// An erased block of `wordlines` wordlines, `width` cells each, under
    /// the conventional coding for `bits_per_cell`.
    pub fn new(wordlines: u32, width: usize, bits_per_cell: u8) -> Self {
        let coding = Arc::new(CodingScheme::conventional(bits_per_cell));
        Block {
            wordlines: (0..wordlines)
                .map(|_| Wordline::new(width, coding.clone()))
                .collect(),
            staged: Vec::new(),
            bits_per_cell,
            width,
            write_ptr: 0,
            erase_count: 0,
        }
    }

    /// Pages this block can hold.
    pub fn pages(&self) -> u32 {
        self.wordlines.len() as u32 * self.bits_per_cell as u32
    }

    /// The next page offset to program.
    pub fn write_ptr(&self) -> u32 {
        self.write_ptr
    }

    /// Completed erase cycles.
    pub fn erase_count(&self) -> u32 {
        self.erase_count
    }

    /// Whether every page has been programmed.
    pub fn is_full(&self) -> bool {
        self.write_ptr == self.pages()
    }

    /// Program page `offset` with one bit per cell. Must be called in
    /// strictly increasing offset order; the wordline's cells are charged
    /// when its last page arrives.
    ///
    /// # Errors
    ///
    /// [`BlockError::Full`] when the block has no room,
    /// [`BlockError::OutOfOrderProgram`] on out-of-order writes, or a
    /// wordline error (e.g. wrong width).
    pub fn program(&mut self, offset: u32, bits: Vec<u8>) -> Result<(), BlockError> {
        if self.is_full() {
            return Err(BlockError::Full);
        }
        if offset != self.write_ptr {
            return Err(BlockError::OutOfOrderProgram {
                expected: self.write_ptr,
                got: offset,
            });
        }
        if bits.len() != self.width {
            return Err(BlockError::Wordline(WordlineError::WidthMismatch {
                expected: self.width,
                got: bits.len(),
            }));
        }
        self.staged.push(bits);
        self.write_ptr += 1;
        if self.staged.len() == self.bits_per_cell as usize {
            let wl = (self.write_ptr - 1) / self.bits_per_cell as u32;
            let pages = std::mem::take(&mut self.staged);
            self.wordlines[wl as usize].program(&pages)?;
        }
        Ok(())
    }

    /// Read page `offset` through the sensing procedure, returning its
    /// bits and the number of senses performed.
    ///
    /// # Errors
    ///
    /// [`BlockError::NotProgrammed`] for pages at or beyond the write
    /// pointer (or staged but uncommitted), or a wordline error when the
    /// page's bit was merged away by IDA coding.
    pub fn read(&mut self, offset: u32) -> Result<(Vec<u8>, u32), BlockError> {
        let wl = offset / self.bits_per_cell as u32;
        let bit = (offset % self.bits_per_cell as u32) as u8;
        let committed_wls = self.write_ptr / self.bits_per_cell as u32;
        if wl >= committed_wls {
            return Err(BlockError::NotProgrammed);
        }
        let wordline = &mut self.wordlines[wl as usize];
        let senses = wordline.coding().sense_count(bit);
        let bits = wordline.read(bit)?;
        Ok((bits, senses))
    }

    /// Apply an IDA voltage adjustment to wordline `wl`.
    ///
    /// # Errors
    ///
    /// Propagates wordline errors (leftward moves).
    ///
    /// # Panics
    ///
    /// Panics if `wl` is out of range.
    pub fn adjust_wordline(
        &mut self,
        wl: u32,
        state_map: &[VoltageState],
        merged: Arc<CodingScheme>,
    ) -> Result<usize, BlockError> {
        Ok(self.wordlines[wl as usize].adjust_voltage(state_map, merged)?)
    }

    /// Erase the block: all cells to the erased state, conventional coding
    /// restored, wear incremented.
    pub fn erase(&mut self) {
        for wl in &mut self.wordlines {
            wl.erase();
        }
        self.staged.clear();
        self.write_ptr = 0;
        self.erase_count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(width: usize, seed: u64) -> Vec<u8> {
        (0..width)
            .map(|i| {
                (((i as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(seed))
                    >> 17) as u8
                    & 1
            })
            .collect()
    }

    #[test]
    fn sequential_program_read_roundtrip() {
        let mut b = Block::new(4, 32, 3);
        let data: Vec<Vec<u8>> = (0..12).map(|i| bits(32, i)).collect();
        for (i, d) in data.iter().enumerate() {
            b.program(i as u32, d.clone()).unwrap();
        }
        assert!(b.is_full());
        for (i, d) in data.iter().enumerate() {
            let (got, senses) = b.read(i as u32).unwrap();
            assert_eq!(&got, d, "page {i}");
            assert_eq!(senses, [1, 2, 4][i % 3]);
        }
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut b = Block::new(2, 8, 3);
        b.program(0, bits(8, 0)).unwrap();
        assert_eq!(
            b.program(2, bits(8, 1)),
            Err(BlockError::OutOfOrderProgram {
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn full_block_rejects_programs() {
        let mut b = Block::new(1, 4, 2);
        b.program(0, bits(4, 0)).unwrap();
        b.program(1, bits(4, 1)).unwrap();
        assert_eq!(b.program(2, bits(4, 2)), Err(BlockError::Full));
    }

    #[test]
    fn uncommitted_wordline_not_readable() {
        let mut b = Block::new(2, 8, 3);
        b.program(0, bits(8, 0)).unwrap();
        // LSB staged, wordline not yet committed (one-shot programming).
        assert_eq!(b.read(0), Err(BlockError::NotProgrammed));
        b.program(1, bits(8, 1)).unwrap();
        b.program(2, bits(8, 2)).unwrap();
        assert!(b.read(0).is_ok());
    }

    #[test]
    fn erase_resets_and_counts_wear() {
        let mut b = Block::new(2, 8, 3);
        for i in 0..6 {
            b.program(i, bits(8, i as u64)).unwrap();
        }
        b.erase();
        assert_eq!(b.erase_count(), 1);
        assert_eq!(b.write_ptr(), 0);
        assert_eq!(b.read(0), Err(BlockError::NotProgrammed));
        // Re-programmable after erase.
        b.program(0, bits(8, 9)).unwrap();
    }

    #[test]
    fn width_mismatch_detected() {
        let mut b = Block::new(1, 8, 3);
        assert!(matches!(
            b.program(0, bits(4, 0)),
            Err(BlockError::Wordline(WordlineError::WidthMismatch { .. }))
        ));
    }
}
