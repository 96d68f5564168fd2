//! Order statistics and the FNV-1a fingerprint used by the output checks.

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples;
/// 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest of the candidate percentiles that has at least ten
/// samples beyond it, or the median when none does.
pub fn tail_percentile(n: usize) -> f64 {
    [0.99, 0.95, 0.9]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
        .unwrap_or(0.5)
}

/// Windows of [`windowed_tail`] used by the latency workloads.
pub const TAIL_WINDOWS: usize = 8;

/// Tail latency robust to one stall: splits time-ordered samples into
/// `windows` consecutive windows and returns the percentile that keeps
/// ten independent samples beyond it within a window, with the median
/// over the windows of that percentile. Samples come in groups of
/// `group` that share one latency (a burst decided by one call), so a
/// window of `n` samples holds `n / group` independent ones.
pub fn windowed_tail(samples: &[f64], windows: usize, group: usize) -> (f64, f64) {
    let size = (samples.len() / windows.max(1)).max(1);
    let p = tail_percentile(size / group.max(1));
    let tails: Vec<f64> = samples
        .chunks(size)
        .filter(|c| c.len() == size)
        .map(|c| percentile(c, p))
        .collect();
    (p, median(&tails))
}

/// 64-bit FNV-1a over a stream of words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_tail_ignores_one_bad_window() {
        let mut v: Vec<f64> = (0..4000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[..1000] {
            *x += 1000.0;
        }
        let (p, t) = windowed_tail(&v, 4, 1);
        assert_eq!(p, 0.99);
        assert!(t < 100.0, "{t}");
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(1000), 0.99);
        assert_eq!(tail_percentile(200), 0.95);
        assert_eq!(tail_percentile(100), 0.9);
        assert_eq!(tail_percentile(50), 0.5);
    }
}
