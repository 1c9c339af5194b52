//! Page-aligned block traces.
//!
//! A trace is a sorted list of [`HostOp`]s, the simulator's own request
//! type (defined in `ida-obs`, which `ida-ssd` and this crate share), so
//! the generator's or importer's records are what a run replays, with no
//! conversion or copy in between. A small CSV codec allows traces to be
//! saved and replayed.

use std::io::{self, BufRead, Write};

pub use ida_obs::trace::{HostOp, HostOpKind};

/// A complete trace plus the page size its records assume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Logical page size in bytes.
    pub page_size: u32,
    /// Records sorted by arrival time.
    pub records: Vec<HostOp>,
}

impl Trace {
    /// Total duration from first to last arrival (ns).
    pub fn span(&self) -> u64 {
        match (self.records.first(), self.records.last()) {
            (Some(f), Some(l)) => l.at - f.at,
            _ => 0,
        }
    }

    /// The highest page touched plus one (the footprint bound).
    pub fn footprint_pages(&self) -> u64 {
        self.records
            .iter()
            .map(|r| r.lpn + r.pages as u64)
            .max()
            .unwrap_or(0)
    }

    /// Write as CSV (`at_ns,R|W,page,pages` after a `# page_size=` header).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_csv<W: Write>(&self, mut w: W) -> io::Result<()> {
        writeln!(w, "# page_size={}", self.page_size)?;
        for r in &self.records {
            let kind = match r.kind {
                HostOpKind::Read => "R",
                HostOpKind::Write => "W",
            };
            writeln!(w, "{},{kind},{},{}", r.at, r.lpn, r.pages)?;
        }
        Ok(())
    }

    /// Parse the CSV form produced by [`Trace::write_csv`].
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on malformed lines or a missing header.
    pub fn read_csv<R: BufRead>(r: R) -> io::Result<Self> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut lines = r.lines();
        let header = lines.next().ok_or_else(|| bad("empty trace".into()))??;
        let page_size: u32 = header
            .strip_prefix("# page_size=")
            .ok_or_else(|| bad(format!("bad header: {header}")))?
            .trim()
            .parse()
            .map_err(|e| bad(format!("bad page size: {e}")))?;
        let mut records = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let mut next = || {
                parts
                    .next()
                    .ok_or_else(|| bad(format!("short line: {line}")))
            };
            let at = next()?.parse().map_err(|e| bad(format!("bad time: {e}")))?;
            let kind = match next()? {
                "R" => HostOpKind::Read,
                "W" => HostOpKind::Write,
                other => return Err(bad(format!("bad op kind: {other}"))),
            };
            let lpn = next()?.parse().map_err(|e| bad(format!("bad page: {e}")))?;
            let pages = next()?
                .parse()
                .map_err(|e| bad(format!("bad count: {e}")))?;
            records.push(HostOp {
                at,
                kind,
                lpn,
                pages,
            });
        }
        Ok(Trace { page_size, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            page_size: 8192,
            records: vec![
                HostOp {
                    at: 0,
                    kind: HostOpKind::Write,
                    lpn: 0,
                    pages: 4,
                },
                HostOp {
                    at: 100,
                    kind: HostOpKind::Read,
                    lpn: 2,
                    pages: 1,
                },
                HostOp {
                    at: 250,
                    kind: HostOpKind::Read,
                    lpn: 10,
                    pages: 8,
                },
            ],
        }
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        t.write_csv(&mut buf).unwrap();
        let parsed = Trace::read_csv(&buf[..]).unwrap();
        assert_eq!(parsed, t);
    }

    #[test]
    fn span_and_footprint() {
        let t = sample();
        assert_eq!(t.span(), 250);
        assert_eq!(t.footprint_pages(), 18);
    }

    #[test]
    fn empty_trace_metrics_are_zero() {
        let t = Trace {
            page_size: 4096,
            records: vec![],
        };
        assert_eq!(t.span(), 0);
        assert_eq!(t.footprint_pages(), 0);
    }

    #[test]
    fn malformed_csv_rejected() {
        assert!(Trace::read_csv(&b"nonsense"[..]).is_err());
        assert!(Trace::read_csv(&b"# page_size=8192\n1,X,0,1"[..]).is_err());
        assert!(Trace::read_csv(&b"# page_size=8192\n1,R,0"[..]).is_err());
    }
}
