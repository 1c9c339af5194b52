//! Importer for MSR Cambridge block traces (SNIA IOTTA format \[25\]).
//!
//! The paper's 11 workloads are volumes from this suite. The raw traces
//! are not redistributable with this repository, but anyone who obtains
//! them (`http://iotta.snia.org/traces/388`) can replay them directly:
//!
//! ```text
//! Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//! 128166372003061419,hm,1,Read,2216306688,4096,3440
//! ```
//!
//! - `Timestamp` is a Windows filetime (100 ns ticks since 1601);
//! - `Offset`/`Size` are bytes;
//! - `Type` is `Read` or `Write` (case-insensitive).
//!
//! Records are rebased to nanoseconds from the first arrival, byte extents
//! are aligned to pages, and offsets are compacted modulo the device's
//! exported space by the caller if needed.

use crate::trace::{HostOp, HostOpKind, Trace};
use std::io::{self, BufRead};

/// Windows-filetime ticks per nanosecond step (1 tick = 100 ns).
const NS_PER_TICK: u64 = 100;

/// Parse an MSR Cambridge CSV into a page-aligned [`Trace`].
///
/// Lines that are empty or start with `#` are skipped. Records are sorted
/// by timestamp (the raw traces are almost, but not exactly, ordered).
///
/// # Errors
///
/// Returns `InvalidData` on malformed rows.
pub fn parse_msr<R: BufRead>(r: R, page_size: u32) -> io::Result<Trace> {
    assert!(page_size > 0, "page size must be positive");
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut records = Vec::new();
    let mut first_ts: Option<u64> = None;
    for line in r.lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = |what: &str| {
            fields
                .next()
                .ok_or_else(|| bad(format!("missing {what} in: {line}")))
        };
        let ts: u64 = next("timestamp")?
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad timestamp: {e}")))?;
        let _hostname = next("hostname")?;
        let _disk = next("disk number")?;
        let kind = match next("type")?.trim().to_ascii_lowercase().as_str() {
            "read" => HostOpKind::Read,
            "write" => HostOpKind::Write,
            other => return Err(bad(format!("bad op type: {other}"))),
        };
        let offset: u64 = next("offset")?
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad offset: {e}")))?;
        let size: u64 = next("size")?
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad size: {e}")))?;
        // ResponseTime (and any trailing fields) are ignored.

        let first = *first_ts.get_or_insert(ts);
        let at = ts.saturating_sub(first) * NS_PER_TICK;
        let lpn = offset / page_size as u64;
        let end = offset + size.max(1);
        let last_page = (end - 1) / page_size as u64;
        let pages = (last_page - lpn + 1) as u32;
        records.push(HostOp {
            at,
            kind,
            lpn,
            pages,
        });
    }
    records.sort_by_key(|r| r.at);
    Ok(Trace { page_size, records })
}

/// Remap a parsed trace onto a smaller device, in place: every page is
/// taken modulo `footprint_pages` (a common technique for replaying
/// volume traces on scaled-down simulated devices).
pub fn fold_to_footprint(trace: &mut Trace, footprint_pages: u64) {
    assert!(footprint_pages > 0, "footprint must be non-empty");
    for r in &mut trace.records {
        r.lpn %= footprint_pages;
        r.pages = ((r.pages as u64).min(footprint_pages - r.lpn) as u32).max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
128166372003061419,hm,1,Read,2216306688,4096,3440
128166372003062000,hm,1,Write,2216306688,16384,2010
128166372003061500,hm,1,Read,0,512,100
";

    #[test]
    fn parses_and_rebases_timestamps() {
        let t = parse_msr(SAMPLE.as_bytes(), 8192).unwrap();
        assert_eq!(t.records.len(), 3);
        // Sorted by time; first record at 0 ns.
        assert_eq!(t.records[0].at, 0);
        assert_eq!(t.records[1].at, (1500 - 1419) * 100);
        assert_eq!(t.records[2].at, (2000 - 1419) * 100);
    }

    #[test]
    fn byte_extents_align_to_pages() {
        let t = parse_msr(SAMPLE.as_bytes(), 8192).unwrap();
        // 4096 bytes at a 2 KiB-misaligned offset still fit one 8K page.
        assert_eq!(t.records[0].pages, 1);
        assert_eq!(t.records[0].lpn, 2216306688 / 8192);
        // The misaligned 16K write straddles three pages.
        let w = t
            .records
            .iter()
            .find(|r| r.kind == HostOpKind::Write)
            .unwrap();
        assert_eq!(w.pages, 3);
        // A 512-byte read still costs one page.
        assert_eq!(t.records[1].pages, 1);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let src = format!("# header\n\n{SAMPLE}");
        let t = parse_msr(src.as_bytes(), 4096).unwrap();
        assert_eq!(t.records.len(), 3);
    }

    #[test]
    fn malformed_rows_rejected() {
        assert!(parse_msr(&b"1,hm,1,Erase,0,512,9"[..], 4096).is_err());
        assert!(parse_msr(&b"nonsense"[..], 4096).is_err());
        assert!(parse_msr(&b"1,hm,1,Read,xyz,512,9"[..], 4096).is_err());
    }

    #[test]
    fn zero_size_records_still_cost_one_page() {
        // Some raw volumes carry 0-byte records; they must round up to a
        // one-page touch, never a zero-page op the simulator would choke on.
        let t = parse_msr(&b"100,hm,1,Read,8192,0,5"[..], 4096).unwrap();
        assert_eq!(t.records[0].pages, 1);
        assert_eq!(t.records[0].lpn, 2);
    }

    #[test]
    fn out_of_order_rows_are_sorted_not_rejected() {
        // Raw MSR volumes are almost-but-not-exactly time ordered; the
        // importer sorts so the open-loop replay path never hits the
        // simulator's unsorted-trace error.
        let src = "\
300,hm,1,Read,0,512,1
100,hm,1,Read,4096,512,1
200,hm,1,Write,8192,512,1
";
        let t = parse_msr(src.as_bytes(), 4096).unwrap();
        let ats: Vec<u64> = t.records.iter().map(|r| r.at).collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]), "unsorted: {ats:?}");
        // Rebase anchors on the *first row read* (ts 300), so earlier
        // rows saturate to 0 instead of underflowing.
        assert_eq!(ats, vec![0, 0, 0]);
    }

    #[test]
    fn rebase_anchors_on_the_first_row() {
        let src = "\
128166372003061419,hm,1,Read,0,512,1
128166372003061519,hm,1,Read,0,512,1
";
        let t = parse_msr(src.as_bytes(), 4096).unwrap();
        // 100 filetime ticks = 10 µs.
        assert_eq!(t.records[0].at, 0);
        assert_eq!(t.records[1].at, 100 * NS_PER_TICK);
    }

    #[test]
    fn malformed_op_types_and_short_rows_rejected() {
        for bad in [
            &b"1,hm,1,Trim,0,512,9"[..],                   // unknown op type
            &b"1,hm,1,Read,0"[..],                         // missing size column
            &b"1,hm,1"[..],                                // missing type column
            &b"1,hm,1,Read,0,abc,9"[..],                   // non-numeric size
            &b"9999999999999999999999,h,1,Read,0,1,1"[..], // ts overflow
        ] {
            assert!(parse_msr(bad, 4096).is_err(), "accepted: {bad:?}");
        }
        // Case-insensitive op types are fine.
        let t = parse_msr(&b"1,hm,1,WRITE,0,512,9"[..], 4096).unwrap();
        assert_eq!(t.records[0].kind, HostOpKind::Write);
    }

    #[test]
    fn folding_keeps_pages_in_bounds() {
        let t = parse_msr(SAMPLE.as_bytes(), 8192).unwrap();
        let mut folded = t.clone();
        fold_to_footprint(&mut folded, 1000);
        assert!(folded
            .records
            .iter()
            .all(|r| r.lpn + r.pages as u64 <= 1000));
        assert_eq!(folded.records.len(), t.records.len());
    }
}
