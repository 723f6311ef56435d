//! Medians, the driver's quartile spread and the simulation fingerprint
//! hash.

/// Sorts `values` ascending.
fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The median of `values` (0 when empty), by the library's own percentile
/// rule (`servo::metrics::percentile`, linear interpolation).
pub fn median(values: &[f64]) -> f64 {
    servo::metrics::percentile(values, 0.5)
}

/// The quartile spread `(q3 - q1) / median` of `values`, with the quartiles
/// of Python's `statistics.quantiles(values, n=4)` (exclusive method) —
/// the rule the acceptance driver applies. `None` below two samples or
/// when the median is zero.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let v = sorted(values.to_vec());
    let n = v.len();
    let quantile = |k: usize| {
        // statistics.quantiles, method="exclusive": position k*(n+1)/4.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let mid = quantile(2);
    (mid != 0.0).then(|| (quantile(3) - quantile(1)) / mid.abs())
}

/// 64-bit FNV-1a over everything a run's modelled outcome consists of.
/// Two runs with equal fingerprints produced the same modelled tick
/// durations, the same statistics rows and the same world bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Folds raw bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one integer into the hash.
    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// Folds a string (length-prefixed, so adjacent strings cannot alias).
    pub fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }

    /// The hash as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_sorts_and_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(sorted(vec![2.0, -1.0, 0.5]), [-1.0, 0.5, 2.0]);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).unwrap();
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let mut a = Fingerprint::default();
        a.str("ab");
        a.str("c");
        let mut b = Fingerprint::default();
        b.str("a");
        b.str("bc");
        assert_ne!(a, b);
        assert_eq!(a.hex().len(), 16);
        let mut c = Fingerprint::default();
        c.str("ab");
        c.str("c");
        assert_eq!(a, c);
    }
}
