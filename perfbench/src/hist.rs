//! Fixed-memory histogram of unit times.
//!
//! Keeping every unit's time would grow the benchmark's own memory with
//! the run's length and swamp `peak_rss_mb`. Buckets are exact below
//! 1024 ns and 1/512 of an octave wide above, so a quantile is within
//! 0.2% of the exact one.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 9;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this get one bucket each.
const EXACT: u64 = 2 * SUB;

#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index of a value.
fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    let top = v >> shift; // in [SUB, 2 * SUB)
    (EXACT + u64::from(shift - 1) * SUB + (top - SUB)) as usize
}

/// Lower bound and width of a bucket.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < EXACT {
        return (i as f64, 1.0);
    }
    let shift = (i - EXACT) / SUB + 1;
    let top = (i - EXACT) % SUB + SUB;
    ((top << shift) as f64, (1u64 << shift) as f64)
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; index(u64::MAX) + 1],
            n: 0,
            sum: 0,
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
        self.sum += u128::from(v);
    }

    /// Values recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// The `q`-quantile, interpolating by rank inside the bucket that
    /// holds it.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.n - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && rank < (below + c) as f64 {
                let (lower, width) = bounds(i);
                return lower + width * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank {rank} lies below the total count {}", self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut last = 0;
        for v in (0..5000).chain([1 << 20, (1 << 20) + 4095, (1 << 52) + 12_345]) {
            let i = index(v);
            let (lower, width) = bounds(i);
            assert!(lower <= v as f64 && (v as f64) < lower + width, "{v}");
            assert!(i >= last);
            last = i;
        }
        assert!(index(u64::MAX) < Histogram::new().counts.len());
    }

    #[test]
    fn quantiles_are_close_to_exact() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 37);
        }
        for q in [0.1, 0.5, 0.9] {
            let exact = q * 99_999.0 * 37.0 + 37.0;
            assert!((h.quantile(q) / exact - 1.0).abs() < 0.002, "q={q}");
        }
        assert_eq!(h.count(), 100_000);
        assert!((h.mean() / (50_000.5 * 37.0) - 1.0).abs() < 1e-12);
    }
}
