//! Host request model, and the slot table that holds requests in flight.
//!
//! [`HostOp`] and [`HostOpKind`] are `ida-obs`'s, re-exported: the traces
//! `ida-workloads` generates or imports are already the simulator's input.

use ida_flash::timing::SimTime;
use ida_obs::span::PhaseNs;

pub use ida_obs::trace::{HostOp, HostOpKind};

/// In-flight bookkeeping for one host request: its entry in the
/// simulator's [`SlotTable`] from arrival to completion.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRequest {
    /// Issue index within the run: the `req` of the request's trace
    /// events.
    pub id: u64,
    /// The source's token, handed back on completion.
    pub token: u64,
    pub arrival: SimTime,
    pub kind: HostOpKind,
    /// Linked flash ops not yet completed.
    pub outstanding: u32,
    /// When the op that owns `span` completes.
    pub span_end: SimTime,
    /// The waterfall of the linked op that completes last (latest
    /// completion, then latest start), the one the request reports.
    /// Spans on only.
    pub span: PhaseNs,
}

/// A table of in-flight entries whose slots are recycled: removing an
/// entry puts its slot on a free list, and the next insert reuses the
/// slot freed last. The table therefore never holds more entries than
/// were live at once, however many pass through it. Slot numbers are
/// handles, not identities: an entry that must be named in an output
/// carries its own id.
#[derive(Debug, Clone)]
pub struct SlotTable<T> {
    entries: Vec<T>,
    free: Vec<usize>,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        SlotTable {
            entries: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T: Copy> SlotTable<T> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value`, returning its slot.
    pub fn insert(&mut self, value: T) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = value;
                slot
            }
            None => {
                self.entries.push(value);
                self.entries.len() - 1
            }
        }
    }

    /// Take the entry out of `slot` and free the slot for reuse.
    pub fn remove(&mut self, slot: usize) -> T {
        self.free.push(slot);
        self.entries[slot]
    }

    /// Entries live now.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slots ever allocated: the peak number of live entries.
    pub fn slots(&self) -> usize {
        self.entries.len()
    }
}

impl<T> std::ops::Index<usize> for SlotTable<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.entries[slot]
    }
}

impl<T> std::ops::IndexMut<usize> for SlotTable<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.entries[slot]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpns_iterates_the_extent() {
        let op = HostOp {
            at: 0,
            kind: HostOpKind::Read,
            lpn: 10,
            pages: 3,
        };
        assert_eq!(op.lpns().collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    #[test]
    fn freed_slots_are_reused_and_the_table_stays_at_its_peak() {
        let mut t = SlotTable::new();
        let (a, b, c) = (t.insert(10u64), t.insert(11), t.insert(12));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(t.remove(b), 11);
        assert_eq!((t.len(), t.slots()), (2, 3));
        // The slot freed last is the next one filled.
        assert_eq!(t.insert(13), b);
        assert_eq!((t[a], t[b], t[c]), (10, 13, 12));
        t[c] += 100;
        assert_eq!(t.remove(c), 112);
        assert_eq!(t.remove(a), 10);
        assert_eq!(t.insert(14), a);
        assert_eq!(t.insert(15), c);
        assert_eq!(t.insert(16), 3, "a full table grows by one slot");

        // A long run through a table that never holds more than `peak`
        // entries at once allocates exactly `peak` slots.
        let mut t = SlotTable::new();
        let mut live = std::collections::VecDeque::new();
        let mut rng = ida_obs::rng::Rng64::seed_from_u64(7);
        let mut peak = 0;
        for i in 0..10_000u64 {
            if live.is_empty() || (live.len() < 32 && rng.next_u64().is_multiple_of(2)) {
                live.push_back((t.insert(i), i));
            } else {
                // Free from either end, so completions come out of order.
                let (slot, value) = if rng.next_u64().is_multiple_of(2) {
                    live.pop_front()
                } else {
                    live.pop_back()
                }
                .expect("non-empty");
                assert_eq!(t.remove(slot), value);
            }
            assert_eq!(t.len(), live.len());
            peak = peak.max(live.len());
            assert_eq!(t.slots(), peak, "the table grew past its live peak");
        }
        assert!(peak > 16, "the run never filled the table: peak {peak}");
    }
}
