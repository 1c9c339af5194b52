//! Trace characterization — regenerates the Table III columns from a
//! trace (except the MSB-invalid fraction, which is a *device-side*
//! property measured by the simulator's read breakdown).

use crate::trace::{HostOpKind, Trace};

/// Aggregate characteristics of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WorkloadStats {
    /// Total requests.
    pub requests: u64,
    /// Fraction of requests that are reads.
    pub read_ratio: f64,
    /// Mean read request size, KB.
    pub mean_read_kb: f64,
    /// Mean write request size, KB.
    pub mean_write_kb: f64,
    /// Read share of transferred bytes.
    pub read_data_ratio: f64,
    /// Trace duration, seconds.
    pub span_s: f64,
    /// Footprint, MB.
    pub footprint_mb: f64,
}

/// Compute [`WorkloadStats`] for `trace`.
pub fn characterize(trace: &Trace) -> WorkloadStats {
    let page_kb = trace.page_size as f64 / 1024.0;
    let mut reads = 0u64;
    let mut writes = 0u64;
    let mut read_pages = 0u64;
    let mut write_pages = 0u64;
    for r in &trace.records {
        match r.kind {
            HostOpKind::Read => {
                reads += 1;
                read_pages += r.pages as u64;
            }
            HostOpKind::Write => {
                writes += 1;
                write_pages += r.pages as u64;
            }
        }
    }
    let total = reads + writes;
    let total_pages = read_pages + write_pages;
    WorkloadStats {
        requests: total,
        read_ratio: if total == 0 {
            0.0
        } else {
            reads as f64 / total as f64
        },
        mean_read_kb: if reads == 0 {
            0.0
        } else {
            read_pages as f64 * page_kb / reads as f64
        },
        mean_write_kb: if writes == 0 {
            0.0
        } else {
            write_pages as f64 * page_kb / writes as f64
        },
        read_data_ratio: if total_pages == 0 {
            0.0
        } else {
            read_pages as f64 / total_pages as f64
        },
        span_s: trace.span() as f64 / 1e9,
        footprint_mb: trace.footprint_pages() as f64 * page_kb / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::HostOp;

    #[test]
    fn characterize_counts_mix_and_sizes() {
        let t = Trace {
            page_size: 8192,
            records: vec![
                HostOp {
                    at: 0,
                    kind: HostOpKind::Read,
                    lpn: 0,
                    pages: 4,
                },
                HostOp {
                    at: 10,
                    kind: HostOpKind::Read,
                    lpn: 8,
                    pages: 2,
                },
                HostOp {
                    at: 20,
                    kind: HostOpKind::Write,
                    lpn: 0,
                    pages: 3,
                },
                HostOp {
                    at: 1_000_000_000,
                    kind: HostOpKind::Read,
                    lpn: 16,
                    pages: 6,
                },
            ],
        };
        let s = characterize(&t);
        assert_eq!(s.requests, 4);
        assert!((s.read_ratio - 0.75).abs() < 1e-9);
        assert!((s.mean_read_kb - 32.0).abs() < 1e-9); // (4+2+6)/3 pages * 8KB
        assert!((s.mean_write_kb - 24.0).abs() < 1e-9);
        assert!((s.read_data_ratio - 12.0 / 15.0).abs() < 1e-9);
        assert!((s.span_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let t = Trace {
            page_size: 4096,
            records: vec![],
        };
        assert_eq!(characterize(&t), WorkloadStats::default());
    }
}
