//! Seeded input generation. The seed decides the *order* of a fixed
//! multiset (which syscall comes next, how dense the next page is, what
//! the generated files are called), never how much work a run does —
//! so runs with different seeds are comparable.

/// xorshift64* seeded through splitmix64 (any seed, including 0, gives
/// a full-period non-zero state).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below
    /// anything a shuffle of a few thousand items can show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// `counts[k]` copies of each `k`, in seeded order.
pub fn shuffled_multiset(seed: u64, counts: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(counts.iter().sum());
    for (k, &n) in counts.iter().enumerate() {
        out.extend(std::iter::repeat_n(k as u8, n));
    }
    Rng::new(seed).shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let a = shuffled_multiset(7, &[100, 50, 25]);
        let b = shuffled_multiset(7, &[100, 50, 25]);
        let c = shuffled_multiset(8, &[100, 50, 25]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn shuffle_keeps_the_multiset() {
        let counts = [598, 598, 597, 597, 597, 597, 512];
        for seed in [0, 1, u64::MAX] {
            let s = shuffled_multiset(seed, &counts);
            assert_eq!(s.len(), 4096);
            for (k, &n) in counts.iter().enumerate() {
                assert_eq!(s.iter().filter(|&&x| x as usize == k).count(), n);
            }
        }
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(0);
        assert!((0..1000).all(|_| r.below(5) < 5));
    }
}
