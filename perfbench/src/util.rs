//! Small deterministic helpers: the input RNG, the result digest, order
//! statistics and the process's peak resident memory.

/// SplitMix64: the benchmark's own input generator, so workload inputs
/// depend only on `--seed` and on nothing inside the library.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over 64-bit words: a stable fingerprint of simulated results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Hashes the exact bits, so any change in a simulated float shows.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Calls that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;
/// Consecutive slices a long run's tail is estimated over.
const TAIL_SLICES: usize = TAIL_BEYOND;

/// The tail of `values`, given in call order: the highest percentile
/// that still has at least [`TAIL_BEYOND`] samples above it. Returns
/// `(value, percentile)`, or `None` when there are too few samples.
///
/// Below `TAIL_SLICES²` samples this is the `TAIL_BEYOND + 1`-th largest
/// value. Above, the calls are cut into `TAIL_SLICES` consecutive equal
/// slices, each slice's second-largest value (one sample beyond it, so
/// `TAIL_BEYOND` beyond in all) is taken, and their median reported: the
/// same percentile, but a burst of host noise in a few slices of the run
/// does not set it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let percentile = 100.0 * (n - TAIL_BEYOND) as f64 / n as f64;
    let nth_largest = |v: &[f64], k: usize| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        v[v.len() - k]
    };
    if n < TAIL_SLICES * TAIL_SLICES {
        return Some((nth_largest(values, TAIL_BEYOND + 1), percentile));
    }
    let per_slice: Vec<f64> = (0..TAIL_SLICES)
        .map(|k| nth_largest(&values[k * n / TAIL_SLICES..(k + 1) * n / TAIL_SLICES], 2))
        .collect();
    Some((median(&per_slice), percentile))
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_runs_keep_exactly_ten_samples_beyond() {
        let values: Vec<f64> = (1..=99).map(f64::from).collect();
        let (v, p) = tail(&values).expect("enough samples");
        assert_eq!(v, 89.0);
        assert_eq!(values.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
        assert!((p - 100.0 * 89.0 / 99.0).abs() < 1e-12);

        // Eleven samples: the tail is the smallest; ten have no tail.
        let eleven: Vec<f64> = (0..11).rev().map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((0.0, 100.0 / 11.0)));
        assert_eq!(tail(&eleven[..10]), None);
    }

    #[test]
    fn long_runs_take_the_median_slice_tail() {
        // Every slice of 100 holds 0..100 once: each slice's tail, like
        // the whole run's 11th-largest value, is 98, at p99.
        let steady: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(tail(&steady), Some((98.0, 99.0)));
        // A burst that slows one slice tenfold moves the plain
        // 11th-largest value but not the estimate.
        let mut burst = steady.clone();
        burst[300..400].iter_mut().for_each(|x| *x *= 10.0);
        assert_eq!(tail(&burst), Some((98.0, 99.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a, b);
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }
}
