//! Seeded, deterministic randomness for simulations.
//!
//! Wraps a small-state xoshiro-style generator seeded explicitly; the
//! same seed always yields the same stream. Helpers cover the
//! distributions the models need: uniform ranges, exponential
//! interarrivals, log-normal service jitter, and Zipf content
//! popularity (for buffer-cache hit-ratio experiments).

/// Positional pseudo-random bytes: fills `out` with the bytes of the
/// infinite deterministic stream `PRF(seed)` starting at `offset`.
/// Any byte of any stream can be generated (and therefore verified)
/// independently — this is how the reproduction serves a synthetic
/// multi-terabyte video catalog without storing it: the byte at
/// (file, offset) is `prf_bytes(file_seed, offset, ..)`.
pub fn prf_bytes(seed: u64, offset: u64, out: &mut [u8]) {
    // An unaligned head takes the tail of its block; then whole
    // 8-byte blocks; then the head of one more block.
    let in_block = (offset % 8) as usize;
    let head = if in_block == 0 {
        0
    } else {
        (8 - in_block).min(out.len())
    };
    let (head_out, body) = out.split_at_mut(head);
    let mut block = offset / 8;
    if head > 0 {
        head_out.copy_from_slice(&prf_block(seed, block)[in_block..in_block + head]);
        block += 1;
    }
    let mut blocks = body.chunks_exact_mut(8);
    for chunk in &mut blocks {
        chunk.copy_from_slice(&prf_block(seed, block));
        block += 1;
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&prf_block(seed, block)[..tail.len()]);
    }
}

/// Block `block` of the stream `PRF(seed)`: SplitMix64 of
/// (seed, block) — cheap and high quality.
#[inline]
fn prf_block(seed: u64, block: u64) -> [u8; 8] {
    let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.to_le_bytes()
}

/// Deterministic PRNG (xoshiro256** core).
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Seed via SplitMix64 expansion so that nearby seeds give
    /// unrelated streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Derive an independent child stream (e.g. one per flow) without
    /// correlating with the parent.
    #[must_use]
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn gen_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.next_u64() % (hi - lo)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Log-normal with the given median and sigma (of the underlying
    /// normal). Used for NVMe firmware service-time jitter.
    pub fn log_normal(&mut self, median: f64, sigma: f64) -> f64 {
        median * (sigma * self.std_normal()).exp()
    }

    /// Standard normal via Box–Muller (one value per call; the twin is
    /// discarded to keep the stream position deterministic and simple).
    pub fn std_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(0, i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// Zipf(α) sampler over `{0, .., n-1}` using the rejection-inversion
/// method — O(1) per sample, suitable for large catalogs.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// `alpha` must be positive and not exactly 1 (use 1.0001 for the
    /// classic web value).
    #[must_use]
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1 && alpha > 0.0 && (alpha - 1.0).abs() > 1e-9);
        // H(x) = x^(1-alpha)/(1-alpha).
        let hf = |x: f64| x.powf(1.0 - alpha) / (1.0 - alpha);
        let h_x1 = hf(1.5) - 1.0f64.powf(-alpha);
        Zipf {
            n,
            alpha,
            h_x1,
            h_n: hf(n as f64 + 0.5),
            s: 2.0 - Self::h_inv_inner(h_x1, alpha),
        }
    }

    fn h_inv_inner(x: f64, alpha: f64) -> f64 {
        ((1.0 - alpha) * x).powf(1.0 / (1.0 - alpha))
    }

    fn h(&self, x: f64) -> f64 {
        x.powf(1.0 - self.alpha) / (1.0 - self.alpha)
    }

    fn h_inv(&self, x: f64) -> f64 {
        Self::h_inv_inner(x, self.alpha)
    }

    /// Draw a rank in `[0, n)`; rank 0 is the most popular item.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            let u = self.h_x1 + rng.next_f64() * (self.h_n - self.h_x1);
            let x = self.h_inv(u);
            let k = (x + 0.5).floor().max(1.0).min(self.n as f64);
            if k - x <= self.s || u >= self.h(k + 0.5) - (-self.alpha * k.ln()).exp() {
                return k as u64 - 1;
            }
        }
    }
}

/// Seed of the popularity-rank → object-id permutation. The Zipf
/// workload's sampler and the tier's seeded hot set both draw from
/// it, so "popular" means the same objects on both sides.
pub const RANK_PERM_SEED: u64 = 0x007E_1A11;

/// Seeded pseudo-random permutation of `{0, .., n-1}` — a 4-round
/// Feistel network over the smallest even-width bit domain covering
/// `n`, with cycle-walking to stay inside the range. O(1) per lookup
/// and O(1) state, so a million-object catalog can map popularity
/// *rank* to object *id* (and scatter the hot set across the id
/// space) without materializing a shuffle table. [`RankPerm::rank_of`]
/// runs the network backwards, so "what rank is object `id`?" costs
/// the same as the forward lookup.
#[derive(Clone, Copy, Debug)]
pub struct RankPerm {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

impl RankPerm {
    #[must_use]
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n >= 1);
        // Domain 2^(2*half_bits) >= n, smallest such (min 2 bits so
        // the Feistel halves are non-degenerate).
        let bits = (64 - (n - 1).leading_zeros()).max(2);
        let half_bits = bits.div_ceil(2);
        let mut ks = SimRng::new(seed ^ 0x5EED_FE15_7E11_0000);
        RankPerm {
            n,
            half_bits,
            keys: [ks.next_u64(), ks.next_u64(), ks.next_u64(), ks.next_u64()],
        }
    }

    #[must_use]
    pub fn len(&self) -> u64 {
        self.n
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    fn mask(&self) -> u64 {
        (1u64 << self.half_bits) - 1
    }

    /// Round function `i` of the network on the right half `right`.
    fn round(&self, i: usize, right: u64) -> u64 {
        let mut z = right ^ self.keys[i];
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) & self.mask()
    }

    fn encrypt_once(&self, x: u64) -> u64 {
        let (mut l, mut r) = (x >> self.half_bits, x & self.mask());
        for i in 0..self.keys.len() {
            (l, r) = (r, l ^ self.round(i, r));
        }
        (l << self.half_bits) | r
    }

    fn decrypt_once(&self, y: u64) -> u64 {
        let (mut l, mut r) = (y >> self.half_bits, y & self.mask());
        for i in (0..self.keys.len()).rev() {
            (l, r) = (r ^ self.round(i, l), l);
        }
        (l << self.half_bits) | r
    }

    /// Cycle-walk: step until the value lands in range. The domain is
    /// < 4n so this terminates quickly in expectation.
    #[inline]
    fn walk(&self, x: u64, step: impl Fn(u64) -> u64) -> u64 {
        assert!(x < self.n);
        let mut y = step(x);
        while y >= self.n {
            y = step(y);
        }
        y
    }

    /// Map rank `x` (0 = most popular) to its permuted object id in
    /// `[0, n)`; bijective over the range.
    #[must_use]
    pub fn apply(&self, x: u64) -> u64 {
        self.walk(x, |v| self.encrypt_once(v))
    }

    /// The exact inverse of [`Self::apply`]: the popularity rank of
    /// object `id`. Decrypting retraces the forward cycle walk step by
    /// step, and the first in-range value it meets is the rank the
    /// walk started from.
    #[must_use]
    pub fn rank_of(&self, id: u64) -> u64 {
        self.walk(id, |v| self.decrypt_once(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn gen_range_bounds() {
        let mut r = SimRng::new(9);
        for _ in 0..10_000 {
            let x = r.gen_range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn exp_mean_approx() {
        let mut r = SimRng::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exp(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.9);
        let mut r = SimRng::new(5);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let k = z.sample(&mut r);
            assert!(k < 1000);
            counts[k as usize] += 1;
        }
        // Rank 0 must dominate rank 100 heavily under Zipf(0.9).
        assert!(
            counts[0] > counts[100] * 5,
            "{} vs {}",
            counts[0],
            counts[100]
        );
    }

    #[test]
    fn rank_perm_is_bijective() {
        for n in [1u64, 2, 7, 64, 1000, 4097, 1_000_000] {
            let p = RankPerm::new(n, 99);
            let mut seen = vec![false; n as usize];
            for x in 0..n {
                let y = p.apply(x);
                assert!(y < n);
                assert!(!seen[y as usize], "collision at {x} -> {y} (n={n})");
                seen[y as usize] = true;
            }
        }
    }

    #[test]
    fn rank_perm_rank_of_inverts_apply() {
        for n in [1u64, 2, 3, 7, 64, 1000, 4097, 1_000_000] {
            let p = RankPerm::new(n, 99);
            for x in 0..n {
                assert_eq!(p.rank_of(p.apply(x)), x, "n={n}");
            }
        }
    }

    /// Pins the permutation itself: the tier's hot set and the Zipf
    /// workload's popular objects both come from it, so a change to
    /// the network would move them silently.
    #[test]
    fn rank_perm_known_answers() {
        let cases = [
            (
                1_000_000,
                RANK_PERM_SEED,
                [363_205, 181_599, 525_792, 796_878],
                40_006_946_816_443_448,
            ),
            (
                2_000_000,
                1,
                [1_083_203, 1_107_336, 184_739, 1_325_402],
                79_957_196_129_009_663,
            ),
        ];
        for (n, seed, ids, fingerprint) in cases {
            let p = RankPerm::new(n, seed);
            let ranks = [0, 1, 399_999, 999_999];
            assert_eq!(ranks.map(|x| p.apply(x)), ids, "n={n}");
            assert_eq!(ids.map(|id| p.rank_of(id)), ranks, "n={n}");
            // Σ (rank + 1) · id over the 400k-object head.
            let sum = (0..400_000).map(|x| (x + 1) * p.apply(x)).sum::<u64>();
            assert_eq!(sum, fingerprint, "n={n}");
        }
    }

    #[test]
    fn rank_perm_seed_changes_mapping() {
        let a = RankPerm::new(100_000, 1);
        let b = RankPerm::new(100_000, 2);
        let same = (0..1000).filter(|&x| a.apply(x) == b.apply(x)).count();
        assert!(same < 10, "{same} fixed points across seeds");
        // Same seed is stable.
        let c = RankPerm::new(100_000, 1);
        assert!((0..1000).all(|x| a.apply(x) == c.apply(x)));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(3);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn std_normal_moments() {
        let mut r = SimRng::new(13);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.std_normal()).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean={mean}");
        assert!((var - 1.0).abs() < 0.05, "var={var}");
    }
}

#[cfg(test)]
mod prf_tests {
    use super::*;

    #[test]
    fn prf_positional_consistency() {
        // Reading [0,100) in one shot equals reading it in shards at
        // arbitrary offsets.
        let mut whole = vec![0u8; 100];
        prf_bytes(99, 0, &mut whole);
        for start in [0u64, 1, 7, 8, 13, 63, 64, 99] {
            let mut part = vec![0u8; 100 - start as usize];
            prf_bytes(99, start, &mut part);
            assert_eq!(&whole[start as usize..], &part[..], "offset {start}");
        }
    }

    /// The original byte-wise generator: one SplitMix block per
    /// step, copied through a slice of the block.
    fn prf_bytes_reference(seed: u64, offset: u64, out: &mut [u8]) {
        let mut pos = offset;
        let mut written = 0usize;
        while written < out.len() {
            let block = pos / 8;
            let in_block = (pos % 8) as usize;
            let mut z = seed ^ block.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            let n = (8 - in_block).min(out.len() - written);
            out[written..written + n].copy_from_slice(&bytes[in_block..in_block + n]);
            written += n;
            pos += n as u64;
        }
    }

    #[test]
    fn prf_matches_bytewise_reference() {
        let seed = 0xDEAD_BEEF_1234_5678;
        for base in [0u64, 8 * 1_000_003] {
            for misalign in 0..8 {
                let offset = base + misalign;
                for len in 0..=64 {
                    let mut got = vec![0xAAu8; len];
                    let mut want = vec![0x55u8; len];
                    prf_bytes(seed, offset, &mut got);
                    prf_bytes_reference(seed, offset, &mut want);
                    assert_eq!(got, want, "offset {offset} len {len}");
                }
            }
        }
        let mut got = vec![0u8; 16 * 1024];
        let mut want = vec![0u8; 16 * 1024];
        prf_bytes(seed, 3, &mut got);
        prf_bytes_reference(seed, 3, &mut want);
        assert_eq!(got, want, "16 KiB buffer");
    }

    #[test]
    fn prf_streams_differ_by_seed() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        prf_bytes(1, 0, &mut a);
        prf_bytes(2, 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn prf_bytes_look_random() {
        let mut buf = vec![0u8; 65536];
        prf_bytes(7, 0, &mut buf);
        let ones: u32 = buf.iter().map(|b| b.count_ones()).sum();
        let total = 65536 * 8;
        let frac = ones as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.01, "bit balance {frac}");
    }
}
