//! Order statistics for repeated measurements.
//!
//! Quartiles follow Python's `statistics.quantiles(xs, n=4)` (the default
//! "exclusive" method), so the spreads this benchmark reports are the
//! same numbers a reader gets by feeding the raw JSON to Python.

/// The first quartile, median and third quartile of `xs`, as
/// `statistics.quantiles(xs, n=4)` computes them. A single sample is its
/// own quartiles; an empty slice gives NaNs.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    match data.len() {
        0 => [f64::NAN; 3],
        1 => [data[0]; 3],
        len => {
            let m = len + 1;
            let mut out = [0.0; 3];
            for (slot, i) in out.iter_mut().zip(1..4usize) {
                let j = (i * m / 4).clamp(1, len - 1);
                // Negative or above 4 when the clamp moved j: Python then
                // extrapolates past the extreme samples, and so do we.
                let delta = (i * m) as f64 - (j * 4) as f64;
                *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
            }
            out
        }
    }
}

/// The median of `xs` (NaN for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs)[1]
}

/// The 1-based rank of the `p`-th percentile among `n` sorted samples
/// (nearest-rank method, `p` in whole percent).
fn nearest_rank(p: u32, n: usize) -> usize {
    ((p as usize * n).div_ceil(100)).clamp(1, n.max(1))
}

/// The `p`-th percentile of `xs` by the nearest-rank method.
pub fn percentile(xs: &[f64], p: u32) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut data = xs.to_vec();
    data.sort_by(f64::total_cmp);
    data[nearest_rank(p, data.len()) - 1]
}

/// The highest whole percentile of `n` samples that still has at least
/// ten samples beyond it — the highest tail percentile worth reporting.
/// `None` when fewer than eleven samples exist.
pub fn highest_tail_percentile(n: usize) -> Option<u32> {
    (0..100).rev().find(|&p| n >= 10 + nearest_rank(p, n))
}
