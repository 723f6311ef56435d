//! Two-dimensional Perlin gradient noise.

/// A seeded two-dimensional Perlin noise field.
///
/// The implementation is the classic permutation-table construction; the
/// table is derived from the seed with a small deterministic shuffle so the
/// same seed always produces the same field.
///
/// # Example
///
/// ```
/// use servo_pcg::Perlin;
/// let noise = Perlin::new(7);
/// let v = noise.sample(1.5, -2.25);
/// assert!((-1.0..=1.0).contains(&v));
/// assert_eq!(v, Perlin::new(7).sample(1.5, -2.25));
/// ```
#[derive(Debug, Clone)]
pub struct Perlin {
    permutation: [u8; 512],
    seed: u64,
}

impl Perlin {
    /// Creates a noise field from a seed.
    pub fn new(seed: u64) -> Self {
        let mut table: [u8; 256] = [0; 256];
        for (i, v) in table.iter_mut().enumerate() {
            *v = i as u8;
        }
        // Fisher–Yates shuffle driven by a splitmix64 stream.
        let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = state;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        for i in (1..256usize).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            table.swap(i, j);
        }
        let mut permutation = [0u8; 512];
        for i in 0..512 {
            permutation[i] = table[i % 256];
        }
        Perlin { permutation, seed }
    }

    /// The seed this field was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn gradient(hash: u8, x: f64, y: f64) -> f64 {
        // Eight gradient directions.
        match hash & 7 {
            0 => x + y,
            1 => x - y,
            2 => -x + y,
            3 => -x - y,
            4 => x,
            5 => -x,
            6 => y,
            _ => -y,
        }
    }

    fn fade(t: f64) -> f64 {
        t * t * t * (t * (t * 6.0 - 15.0) + 10.0)
    }

    fn lerp(a: f64, b: f64, t: f64) -> f64 {
        a + t * (b - a)
    }

    /// Samples the noise field at `(x, y)`. The result is in `[-1, 1]`.
    pub fn sample(&self, x: f64, y: f64) -> f64 {
        let (x, y) = (Lattice::new(x), Lattice::new(y));
        let p = &self.permutation;
        self.blend(p[x.cell()], p[x.cell() + 1], &x, &y)
    }

    /// The noise at the point `(x, y)` whose `x` cell has the permutation
    /// entries `left` and `right` (`p[x.cell]` and `p[x.cell + 1]`): the
    /// part of [`Perlin::sample`] that depends on both coordinates.
    #[inline]
    fn blend(&self, left: u8, right: u8, x: &Lattice, y: &Lattice) -> f64 {
        let p = &self.permutation;
        let (left, right) = (usize::from(left), usize::from(right));
        let aa = p[left + y.cell()];
        let ab = p[left + y.cell() + 1];
        let ba = p[right + y.cell()];
        let bb = p[right + y.cell() + 1];

        let x1 = Self::lerp(
            Self::gradient(aa, x.frac, y.frac),
            Self::gradient(ba, x.frac - 1.0, y.frac),
            x.fade,
        );
        let x2 = Self::lerp(
            Self::gradient(ab, x.frac, y.frac - 1.0),
            Self::gradient(bb, x.frac - 1.0, y.frac - 1.0),
            x.fade,
        );
        // The raw range of this gradient set is within [-2, 2]; normalise.
        (Self::lerp(x1, x2, y.fade) / 2.0).clamp(-1.0, 1.0)
    }

    /// Fractal Brownian motion: `octaves` layers of noise, each at double the
    /// frequency and half the amplitude of the previous. The result is in
    /// `[-1, 1]`.
    ///
    /// This is the per-point reference of [`Perlin::fbm_grid`].
    pub fn fbm(&self, x: f64, y: f64, octaves: u32, base_frequency: f64) -> f64 {
        let mut total = 0.0;
        let mut amplitude = 1.0;
        let mut frequency = base_frequency;
        let mut max_amplitude = 0.0;
        for _ in 0..octaves.max(1) {
            total += self.sample(x * frequency, y * frequency) * amplitude;
            max_amplitude += amplitude;
            amplitude *= 0.5;
            frequency *= 2.0;
        }
        (total / max_amplitude).clamp(-1.0, 1.0)
    }

    /// [`Perlin::fbm`] at every point of the grid `xs` x `ys`:
    /// `grid[i][j]` is `fbm(xs[i], ys[j], octaves, base_frequency)`, bit for
    /// bit.
    ///
    /// Per octave, the lattice cell, fractional part and fade of each `x`
    /// and `y`, and the permutation entries of each `x` cell, are worked out
    /// once per row and column instead of once per point. What is left per
    /// point is the arithmetic of [`Perlin::sample`], and the octaves are
    /// added to each point's total in the same order as `fbm` adds them.
    ///
    /// # Example
    ///
    /// ```
    /// use servo_pcg::Perlin;
    /// let noise = Perlin::new(7);
    /// let (xs, ys) = ([-3.0, 0.5, 40.0], [1.0, -2.25, 7.5]);
    /// let grid = noise.fbm_grid(&xs, &ys, 4, 0.05);
    /// assert_eq!(grid[2][1], noise.fbm(40.0, -2.25, 4, 0.05));
    /// ```
    pub fn fbm_grid<const N: usize>(
        &self,
        xs: &[f64; N],
        ys: &[f64; N],
        octaves: u32,
        base_frequency: f64,
    ) -> [[f64; N]; N] {
        let p = &self.permutation;
        let mut total = [[0.0; N]; N];
        let mut amplitude = 1.0;
        let mut frequency = base_frequency;
        let mut max_amplitude = 0.0;
        for _ in 0..octaves.max(1) {
            let rows: [Lattice; N] = std::array::from_fn(|i| Lattice::new(xs[i] * frequency));
            let columns: [Lattice; N] = std::array::from_fn(|j| Lattice::new(ys[j] * frequency));
            for (x, totals) in rows.iter().zip(&mut total) {
                let (left, right) = (p[x.cell()], p[x.cell() + 1]);
                for (y, point) in columns.iter().zip(totals.iter_mut()) {
                    *point += self.blend(left, right, x, y) * amplitude;
                }
            }
            max_amplitude += amplitude;
            amplitude *= 0.5;
            frequency *= 2.0;
        }
        total.map(|totals| totals.map(|t| (t / max_amplitude).clamp(-1.0, 1.0)))
    }
}

/// One coordinate of a sample point, placed on the integer lattice: the
/// cell it falls in (modulo the 256 entries of the permutation table), its
/// offset inside the cell and the faded offset that weights the cell's two
/// corners.
#[derive(Debug, Clone, Copy)]
struct Lattice {
    cell: u8,
    frac: f64,
    fade: f64,
}

impl Lattice {
    #[inline]
    fn new(t: f64) -> Self {
        let cell = t.floor() as i64;
        let frac = t - cell as f64;
        Lattice {
            cell: cell as u8,
            frac,
            fade: Perlin::fade(frac),
        }
    }

    /// The cell as a table index. Kept as a `u8`, so the compiler can see
    /// that `cell + 1`, and an entry plus `cell + 1`, are inside the
    /// 512-entry table, and drops the bounds checks.
    #[inline]
    fn cell(&self) -> usize {
        usize::from(self.cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn samples_are_bounded() {
        let n = Perlin::new(1);
        for i in -50..50 {
            for j in -50..50 {
                let v = n.sample(i as f64 * 0.37, j as f64 * 0.51);
                assert!((-1.0..=1.0).contains(&v), "value {v}");
            }
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let a = Perlin::new(99);
        let b = Perlin::new(99);
        for i in 0..100 {
            let x = i as f64 * 0.173;
            assert_eq!(a.sample(x, -x), b.sample(x, -x));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Perlin::new(1);
        let b = Perlin::new(2);
        let differs = (0..100).any(|i| {
            let x = i as f64 * 0.31 + 0.11;
            (a.sample(x, x * 0.7) - b.sample(x, x * 0.7)).abs() > 1e-12
        });
        assert!(differs);
    }

    #[test]
    fn noise_is_continuous() {
        // Adjacent samples should not jump wildly.
        let n = Perlin::new(5);
        let step = 0.01;
        for i in 0..1000 {
            let x = i as f64 * step;
            let a = n.sample(x, 0.5);
            let b = n.sample(x + step, 0.5);
            assert!((a - b).abs() < 0.1, "jump at {x}: {a} -> {b}");
        }
    }

    #[test]
    fn noise_has_variation() {
        let n = Perlin::new(5);
        let values: Vec<f64> = (0..200)
            .map(|i| n.sample(i as f64 * 0.37 + 0.19, i as f64 * 0.23))
            .collect();
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.3, "range too small: {min}..{max}");
    }

    #[test]
    fn fbm_is_bounded_and_deterministic() {
        let n = Perlin::new(11);
        for i in 0..100 {
            let x = i as f64 * 0.7;
            let v = n.fbm(x, -x * 0.3, 4, 0.05);
            assert!((-1.0..=1.0).contains(&v));
            assert_eq!(v, n.fbm(x, -x * 0.3, 4, 0.05));
        }
    }

    /// A grid coordinate's origin: near zero on either side, or more than a
    /// million out either way, where every frequency drawn below has
    /// wrapped the 256-cell permutation table many times.
    fn arb_origin() -> impl Strategy<Value = f64> {
        prop_oneof![
            2 => -300.0..300.0f64,
            1 => (-1_100_000i64..-1_000_000).prop_map(|v| v as f64),
            1 => (1_000_000i64..1_100_000).prop_map(|v| v as f64),
            1 => Just(-1_048_576.0),
            1 => Just(1_048_576.0),
        ]
    }

    proptest! {
        /// Whole-block steps, as a chunk's columns are, and fractional ones;
        /// base frequencies from 0.001 to 0.5 (log-uniform), so that the
        /// grid spans anything from part of one lattice cell to eight of
        /// them in the first octave, and octave 6 runs at 32 times that.
        #[test]
        fn fbm_grid_equals_fbm_bit_for_bit(
            seed in any::<u64>(),
            (x0, y0) in (arb_origin(), arb_origin()),
            step in prop_oneof![3 => Just(1.0), 1 => 0.01..3.0f64],
            octaves in 1u32..7,
            log_frequency in -3.0..-std::f64::consts::LOG10_2,
        ) {
            let noise = Perlin::new(seed);
            let base_frequency = 10f64.powf(log_frequency);
            let xs: [f64; 16] = std::array::from_fn(|i| x0 + i as f64 * step);
            let ys: [f64; 16] = std::array::from_fn(|j| y0 - j as f64 * step);
            let grid = noise.fbm_grid(&xs, &ys, octaves, base_frequency);
            for (i, &x) in xs.iter().enumerate() {
                for (j, &y) in ys.iter().enumerate() {
                    prop_assert_eq!(
                        grid[i][j].to_bits(),
                        noise.fbm(x, y, octaves, base_frequency).to_bits(),
                        "seed {} at ({}, {}), {} octaves from {}",
                        seed, x, y, octaves, base_frequency
                    );
                }
            }
        }
    }
}
