//! Small statistics helpers: order statistics, round sizing, process
//! memory, and a bitwise digest of simulated statistics.

use std::time::Instant;

/// Interpolated percentile of an ascending-sorted sample (`p` in
/// `[0, 1]`); `NaN` for an empty sample so a missing measurement can
/// never pass as a number.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Interpolated percentile of an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Smallest value of a sample; `NaN` when empty.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// The typical latency of a fixed list of operations repeated over
/// rounds: each operation's median over the rounds, then the median of
/// those. One slow round moves no operation's figure, where pooling
/// every sample would let it reorder the operations around the median.
pub fn median_of_medians(per_op: &[Vec<f64>]) -> f64 {
    let medians: Vec<f64> = per_op.iter().map(|v| median(v)).collect();
    median(&medians)
}

/// Whether a run that has done `rounds` whole rounds since `started`,
/// taking `walls` host seconds each, starts another: always while below
/// `min_rounds`, then while the next round, at the median round time so
/// far, ends within `budget_s`. The work stays whole rounds of a fixed
/// list; only their number follows the host's speed.
pub fn another_round(
    rounds: usize,
    started: Instant,
    walls: &[f64],
    min_rounds: usize,
    budget_s: f64,
) -> bool {
    rounds < min_rounds
        || (!walls.is_empty() && started.elapsed().as_secs_f64() + median(walls) <= budget_s)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: a stable digest for "every simulated
/// statistic is bitwise unchanged" checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the exact bit pattern of `v`.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!(percentile(&[], 0.5).is_nan());
        let per_op = vec![
            vec![1.0, 9.0, 2.0],
            vec![5.0, 5.0, 50.0],
            vec![3.0, 4.0, 3.0],
        ];
        assert_eq!(median_of_medians(&per_op), 3.0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.f64(1.0);
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a.hex(), b.hex());
    }
}
