//! A small seeded generator (SplitMix64) for the request streams. The
//! benchmark owns it so a seed names the same inputs on every build,
//! whatever the vendored `rand` stub does.

pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (set-up corpus, epochs, …),
    /// so adding draws to one stream never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose ^ 0x6A09_E667_F3BC_C908);
        r.next_u64();
        r
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

    /// Uniform in `[lo, hi)`, rounded to `decimals` places so request
    /// parameters read cleanly in logs and keys.
    pub fn range(&mut self, lo: f64, hi: f64, decimals: i32) -> f64 {
        let scale = 10f64.powi(decimals);
        ((lo + (hi - lo) * self.unit()) * scale).round() / scale
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf weights `1 / (rank + 1)` for ranks `0..n`.
pub fn zipf(n: usize) -> Vec<f64> {
    (0..n).map(|r| 1.0 / (r as f64 + 1.0)).collect()
}
