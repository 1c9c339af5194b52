//! Page-level logical-to-physical mapping.

use ida_flash::addr::PageAddr;
use std::fmt;
use std::ops::Range;

/// A logical page number — the host-visible page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpn(pub u64);

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lpn({})", self.0)
    }
}

/// Most pages (physical, and therefore logical) the FTL's `u32` page
/// tables can address: the two highest `u32` values are reserved as
/// empty-slot sentinels.
pub const MAX_PAGES: u64 = u32::MAX as u64 - 1;

/// The empty slot of both map directions.
const UNMAPPED: u32 = u32::MAX;

/// Bidirectional page map: L2P for host reads, P2L for GC/refresh
/// relocation and validity queries. Both directions are dense `u32`
/// arrays with `u32::MAX` as the empty slot, so a snapshot moves each as
/// one bulk copy.
///
/// Invariant: `l2p[l] == p` ⇔ `p2l[p] == l`.
#[derive(Debug, Clone)]
pub struct PageMap {
    l2p: Vec<u32>,
    p2l: Vec<u32>,
}

impl ida_snap::Snap for Lpn {
    fn encode(&self, w: &mut ida_snap::Writer) {
        ida_snap::Snap::encode(&self.0, w);
    }
    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        Ok(Lpn(ida_snap::Snap::decode(r)?))
    }
}

ida_snap::snap_struct!(PageMap { l2p, p2l });

/// The first slot of `table` that is `bad`, if any. A branch-free pass
/// (it vectorizes) runs first, so a clean table — what every decode of a
/// valid image sees — costs one streaming read.
pub(crate) fn first_bad(table: &[u32], bad: impl Fn(u32) -> bool) -> Option<usize> {
    if table.iter().fold(false, |any, &v| any | bad(v)) {
        table.iter().position(|&v| bad(v))
    } else {
        None
    }
}

/// An error unless a decoded table has the `want` entries its geometry
/// implies.
pub(crate) fn check_len(what: &str, len: usize, want: u64) -> Result<(), ida_snap::SnapError> {
    if len as u64 == want {
        Ok(())
    } else {
        Err(ida_snap::SnapError::new(format!(
            "{what}: {len} entries, geometry implies {want}"
        )))
    }
}

fn slot(v: u32) -> Option<u64> {
    (v != UNMAPPED).then_some(u64::from(v))
}

impl PageMap {
    /// A map for `logical_pages` LPNs over `physical_pages` flash pages,
    /// initially fully unmapped.
    ///
    /// # Panics
    ///
    /// Panics if either count exceeds [`MAX_PAGES`].
    pub fn new(logical_pages: u64, physical_pages: u64) -> Self {
        assert!(
            logical_pages.max(physical_pages) <= MAX_PAGES,
            "page map of {physical_pages} pages exceeds {MAX_PAGES}"
        );
        PageMap {
            l2p: vec![UNMAPPED; logical_pages as usize],
            p2l: vec![UNMAPPED; physical_pages as usize],
        }
    }

    /// Unmap every LPN, leaving the map as [`PageMap::new`] made it.
    pub(crate) fn clear(&mut self) {
        self.l2p.fill(UNMAPPED);
        self.p2l.fill(UNMAPPED);
    }

    /// Number of logical pages exposed.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// The physical location of `lpn`, if mapped.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the exported range.
    pub fn translate(&self, lpn: Lpn) -> Option<PageAddr> {
        slot(self.l2p[lpn.0 as usize]).map(PageAddr)
    }

    /// The logical owner of physical page `page`, if any. `None` means the
    /// page is invalid (superseded or never written).
    pub fn owner(&self, page: PageAddr) -> Option<Lpn> {
        slot(self.p2l[page.0 as usize]).map(Lpn)
    }

    /// Whether physical page `page` holds current data.
    pub fn is_valid(&self, page: PageAddr) -> bool {
        self.p2l[page.0 as usize] != UNMAPPED
    }

    /// Map `lpn` to `page`, returning the previous physical location (now
    /// invalid) if there was one.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already owned by a different LPN — the FTL must
    /// never double-book a physical page.
    pub fn map(&mut self, lpn: Lpn, page: PageAddr) -> Option<PageAddr> {
        assert!(
            !self.is_valid(page),
            "physical page {page} already owned by {:?}",
            self.owner(page)
        );
        let old = self.unmap(lpn);
        // Both fit a slot: the lookups above bounded them by the table
        // lengths, which `new` bounded by `MAX_PAGES`.
        self.l2p[lpn.0 as usize] = page.0 as u32;
        self.p2l[page.0 as usize] = lpn.0 as u32;
        old
    }

    /// Remove the mapping of `lpn` (host trim / discard), returning the
    /// freed physical page if there was one.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<PageAddr> {
        let old = slot(std::mem::replace(&mut self.l2p[lpn.0 as usize], UNMAPPED))?;
        self.p2l[old as usize] = UNMAPPED;
        Some(PageAddr(old))
    }

    /// Relocate the data of physical page `from` to `to` (GC / refresh
    /// copy), preserving the logical mapping.
    ///
    /// Returns the LPN that moved, or `None` if `from` was invalid (the
    /// copy was wasted — callers avoid this by checking validity first).
    ///
    /// # Panics
    ///
    /// Panics if `to` is already owned.
    pub fn relocate(&mut self, from: PageAddr, to: PageAddr) -> Option<Lpn> {
        let lpn = slot(std::mem::replace(&mut self.p2l[from.0 as usize], UNMAPPED))?;
        assert!(!self.is_valid(to), "relocation target {to} already owned");
        self.l2p[lpn as usize] = to.0 as u32;
        self.p2l[to.0 as usize] = lpn as u32;
        Some(Lpn(lpn))
    }

    /// Overwrite `masks` with the validity mask of each wordline of the
    /// block whose pages are `pages`, `bits` pages to a wordline: bit `b`
    /// of entry `w` is set ⇔ page `w · bits + b` is valid.
    pub(crate) fn wordline_masks(&self, pages: Range<usize>, bits: usize, masks: &mut Vec<u8>) {
        masks.clear();
        masks.extend(self.p2l[pages].chunks_exact(bits).map(|wl| {
            wl.iter()
                .enumerate()
                .fold(0, |m, (b, &v)| m | u8::from(v != UNMAPPED) << b)
        }));
    }

    /// An error unless this (decoded) map spans `logical_pages` LPNs over
    /// `physical_pages` pages and every entry is empty or in range, so a
    /// hash-valid image can never make it index out of bounds.
    pub(crate) fn check(
        &self,
        logical_pages: u64,
        physical_pages: u64,
    ) -> Result<(), ida_snap::SnapError> {
        check_len("l2p", self.l2p.len(), logical_pages)?;
        check_len("p2l", self.p2l.len(), physical_pages)?;
        for (what, table, bound) in [
            ("l2p", &self.l2p, physical_pages),
            ("p2l", &self.p2l, logical_pages),
        ] {
            if let Some(i) = first_bad(table, |v| v != UNMAPPED && u64::from(v) >= bound) {
                return Err(ida_snap::SnapError::new(format!(
                    "{what}[{i}] = {} is out of range (< {bound})",
                    table[i]
                )));
            }
        }
        Ok(())
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_count(&self) -> u64 {
        self.l2p.iter().filter(|&&p| p != UNMAPPED).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_translate_roundtrip() {
        let mut m = PageMap::new(10, 100);
        assert_eq!(m.translate(Lpn(3)), None);
        m.map(Lpn(3), PageAddr(42));
        assert_eq!(m.translate(Lpn(3)), Some(PageAddr(42)));
        assert_eq!(m.owner(PageAddr(42)), Some(Lpn(3)));
        assert!(m.is_valid(PageAddr(42)));
    }

    #[test]
    fn remap_invalidates_old_location() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(1), PageAddr(5));
        let old = m.map(Lpn(1), PageAddr(6));
        assert_eq!(old, Some(PageAddr(5)));
        assert!(!m.is_valid(PageAddr(5)));
        assert_eq!(m.translate(Lpn(1)), Some(PageAddr(6)));
    }

    #[test]
    fn unmap_frees_physical_page() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(2), PageAddr(7));
        assert_eq!(m.unmap(Lpn(2)), Some(PageAddr(7)));
        assert!(!m.is_valid(PageAddr(7)));
        assert_eq!(m.unmap(Lpn(2)), None);
    }

    #[test]
    fn relocate_moves_ownership() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(9), PageAddr(11));
        assert_eq!(m.relocate(PageAddr(11), PageAddr(12)), Some(Lpn(9)));
        assert_eq!(m.translate(Lpn(9)), Some(PageAddr(12)));
        assert!(!m.is_valid(PageAddr(11)));
    }

    #[test]
    fn relocate_of_invalid_page_is_none() {
        let mut m = PageMap::new(10, 100);
        assert_eq!(m.relocate(PageAddr(1), PageAddr(2)), None);
        assert!(!m.is_valid(PageAddr(2)));
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_booking_detected() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(1), PageAddr(5));
        m.map(Lpn(2), PageAddr(5));
    }

    #[test]
    fn mapped_count_tracks_mutations() {
        let mut m = PageMap::new(10, 100);
        assert_eq!(m.mapped_count(), 0);
        m.map(Lpn(1), PageAddr(0));
        m.map(Lpn(2), PageAddr(1));
        assert_eq!(m.mapped_count(), 2);
        m.unmap(Lpn(1));
        assert_eq!(m.mapped_count(), 1);
    }
}
