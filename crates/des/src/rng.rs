//! Deterministic in-tree pseudo-random number generation.
//!
//! The engine used to route all stochastic decisions through the `rand`
//! crate. That pulled a registry dependency into the innermost hot path
//! (adaptive routing, arbiters, traffic patterns draw per-flit) and kept
//! the workspace from building offline. This module replaces it with a
//! self-contained **xoshiro256\*\*** generator seeded via **splitmix64**
//! — the exact construction recommended by Blackman & Vigna — exposing
//! only the narrow API the simulator's models actually use.
//!
//! Determinism contract: for a fixed seed, the sequence of values returned
//! by every method of [`Rng`] is fixed forever. Simulation reproducibility
//! (`(configuration, seed)` → bit-identical results) depends on it, and
//! the golden-value tests at the bottom of this file pin the stream.

/// The splitmix64 step: used to expand a 64-bit seed into generator state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256\*\* pseudo-random number generator.
///
/// All stochastic model decisions must draw from an `Rng` reachable from
/// the simulator seed so that a `(configuration, seed)` pair reproduces
/// bit-identical simulations.
///
/// # Example
///
/// ```
/// use supersim_des::Rng;
///
/// let mut rng = Rng::new(42);
/// let a = rng.gen_range(0..10usize);
/// assert!(a < 10);
/// let mut again = Rng::new(42);
/// assert_eq!(again.gen_range(0..10usize), a); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator whose state is derived from `seed` by four
    /// splitmix64 steps (so nearby seeds yield unrelated streams).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// The next raw 64-bit value of the stream.
    #[inline]
    pub fn gen_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.gen_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform value from `range`, which may be a half-open (`a..b`) or
    /// inclusive (`a..=b`) integer range or a half-open `f64` range.
    ///
    /// Integer sampling is unbiased (Lemire's multiply-shift rejection).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }

    /// A uniform value in `[0, n)` — the integer workhorse behind
    /// [`Rng::gen_range`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample from an empty range");
        // Lemire's nearly-divisionless unbiased bounded sampling.
        let mut x = self.gen_u64();
        let mut m = (x as u128) * (n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.gen_u64();
                m = (x as u128) * (n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Shuffles `slice` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Derives an independent child generator from this one's stream.
    ///
    /// Used to give sub-models (e.g. per-router drain arbiters) their own
    /// deterministic streams without sharing a borrow of the simulator's.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.gen_u64())
    }

    /// An independent stream for substream `index` of `seed`.
    ///
    /// The engine derives one generator per component from the simulation
    /// seed, so a component's draws are a pure function of `(seed, index)`
    /// — independent of the order components execute in. This is what
    /// makes the sequential and sharded engines bit-identical: neither the
    /// interleaving of components within a tick nor the thread a component
    /// runs on can perturb anyone's random stream.
    pub fn stream(seed: u64, index: u64) -> Rng {
        // Mix the index through one splitmix64 step (keyed by the seed)
        // so adjacent component indices yield unrelated generator states.
        let mut sm = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(splitmix64(&mut sm))
    }

    /// The raw xoshiro256** state words, for snapshotting. Restoring
    /// them with [`Rng::from_state`] resumes the stream at exactly the
    /// next draw.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from state words captured by [`Rng::state`].
    pub fn from_state(s: [u64; 4]) -> Self {
        Rng { s }
    }
}

crate::wire_struct!(Rng { s });

/// A range type [`Rng::gen_range`] can sample from.
pub trait SampleRange {
    /// The element type produced by sampling.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut Rng) -> Self::Output;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                assert!(self.start < self.end, "cannot sample from an empty range");
                let width = (self.end - self.start) as u64;
                self.start + rng.gen_below(width) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut Rng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample from an empty range");
                let width = (end - start) as u64;
                if width == u64::MAX {
                    return rng.gen_u64() as $t;
                }
                start + rng.gen_below(width + 1) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize);

impl SampleRange for core::ops::Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut Rng) -> f64 {
        assert!(self.start < self.end, "cannot sample from an empty range");
        self.start + rng.gen_f64() * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden values: the xoshiro256** stream for seed 0 must never change,
    /// or every recorded simulation result silently shifts.
    #[test]
    fn golden_stream_is_stable() {
        let mut rng = Rng::new(0);
        let first: Vec<u64> = (0..4).map(|_| rng.gen_u64()).collect();
        assert_eq!(
            first,
            vec![
                11091344671253066420,
                13793997310169335082,
                1900383378846508768,
                7684712102626143532,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(0xDEAD_BEEF);
        let mut b = Rng::new(0xDEAD_BEEF);
        for _ in 0..100 {
            assert_eq!(a.gen_u64(), b.gen_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..16).filter(|_| a.gen_u64() == b.gen_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn gen_range_stays_in_bounds() {
        let mut rng = Rng::new(7);
        for _ in 0..1000 {
            let x = rng.gen_range(10..20u64);
            assert!((10..20).contains(&x));
            let y = rng.gen_range(3..=5u32);
            assert!((3..=5).contains(&y));
            let z = rng.gen_range(0..1usize);
            assert_eq!(z, 0);
            let f = rng.gen_range(0.25..0.75f64);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn gen_range_covers_all_values() {
        let mut rng = Rng::new(3);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.gen_range(0..8usize)] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "8-value range missed a value in 1000 draws"
        );
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        Rng::new(0).gen_range(5..5u64);
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = Rng::new(11);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_bool_roughly_fair() {
        let mut rng = Rng::new(17);
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.5)).count();
        assert!(
            (4_500..5_500).contains(&heads),
            "biased coin: {heads}/10000"
        );
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = Rng::new(23);
        for _ in 0..1000 {
            let f = rng.gen_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(29);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..50).collect();
        assert_eq!(sorted, expect);
        assert_ne!(v, expect, "50-element shuffle left input unchanged");
    }

    #[test]
    fn shuffle_handles_degenerate_sizes() {
        let mut rng = Rng::new(31);
        let mut empty: [u32; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [9u32];
        rng.shuffle(&mut one);
        assert_eq!(one, [9]);
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = Rng::new(37);
        let mut child = parent.fork();
        // The child diverges from the parent's continued stream.
        let same = (0..16)
            .filter(|_| parent.gen_u64() == child.gen_u64())
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn full_width_inclusive_range() {
        let mut rng = Rng::new(41);
        // Must not overflow the width computation.
        let _ = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    fn streams_are_deterministic_and_unrelated() {
        let mut a = Rng::new(0);
        let mut s0 = Rng::stream(0, 0);
        let mut s0b = Rng::stream(0, 0);
        let mut s1 = Rng::stream(0, 1);
        for _ in 0..32 {
            assert_eq!(s0.gen_u64(), s0b.gen_u64());
        }
        let mut s0c = Rng::stream(0, 0);
        let same_base = (0..16).filter(|_| a.gen_u64() == s0c.gen_u64()).count();
        assert_eq!(same_base, 0, "stream 0 must differ from the base stream");
        let mut s0d = Rng::stream(0, 0);
        let same_adj = (0..16).filter(|_| s1.gen_u64() == s0d.gen_u64()).count();
        assert_eq!(same_adj, 0, "adjacent streams must be unrelated");
    }
}
