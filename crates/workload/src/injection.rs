//! The injection process and message size distributions: when traffic
//! is created and how big it is.

use supersim_des::{Rng, Tick};

/// Memoryless injection: every tick creates a message with probability
/// `p`; gaps are geometric. With message size `S` flits and a target load
/// of `r` flits per tick, use `p = r / S`.
#[derive(Debug, Clone)]
pub struct BernoulliProcess {
    p: f64,
}

impl BernoulliProcess {
    /// Creates a process with per-tick message probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1` — a rate above one message per tick
    /// cannot be offered by one terminal.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "probability must be in (0, 1]");
        BernoulliProcess { p }
    }

    /// Ticks until the next message (at least 1).
    pub fn next_gap(&mut self, rng: &mut Rng) -> Tick {
        if self.p >= 1.0 {
            return 1;
        }
        // Geometric via inversion: gap >= 1.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        (u.ln() / (1.0 - self.p).ln()).floor() as Tick + 1
    }
}

/// Message sizes in flits.
#[derive(Debug, Clone)]
pub enum SizeDistribution {
    /// All messages have the same size.
    Fixed(u32),
    /// Uniform over `[min, max]` inclusive.
    Uniform {
        /// Smallest size.
        min: u32,
        /// Largest size.
        max: u32,
    },
    /// Weighted choice of sizes.
    Weighted(Vec<(u32, f64)>),
}

impl SizeDistribution {
    /// Samples one message size.
    ///
    /// # Panics
    ///
    /// Panics on malformed distributions (zero sizes, empty weights,
    /// inverted ranges).
    pub fn sample(&self, rng: &mut Rng) -> u32 {
        match self {
            SizeDistribution::Fixed(s) => {
                assert!(*s > 0, "message size must be non-zero");
                *s
            }
            SizeDistribution::Uniform { min, max } => {
                assert!(*min > 0 && min <= max, "invalid size range");
                rng.gen_range(*min..=*max)
            }
            SizeDistribution::Weighted(choices) => {
                assert!(!choices.is_empty(), "empty weighted size distribution");
                let total: f64 = choices.iter().map(|&(_, w)| w).sum();
                let mut x = rng.gen_range(0.0..total);
                for &(size, w) in choices {
                    if x < w {
                        assert!(size > 0, "message size must be non-zero");
                        return size;
                    }
                    x -= w;
                }
                choices.last().expect("non-empty").0
            }
        }
    }

    /// The mean size in flits.
    pub fn mean(&self) -> f64 {
        match self {
            SizeDistribution::Fixed(s) => *s as f64,
            SizeDistribution::Uniform { min, max } => (*min + *max) as f64 / 2.0,
            SizeDistribution::Weighted(choices) => {
                let total: f64 = choices.iter().map(|&(_, w)| w).sum();
                choices.iter().map(|&(s, w)| s as f64 * w).sum::<f64>() / total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::new(33)
    }

    #[test]
    fn bernoulli_mean_gap_matches_rate() {
        let mut p = BernoulliProcess::new(0.25);
        let mut rng = rng();
        let n = 20_000;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean gap {mean}");
    }

    #[test]
    fn bernoulli_full_rate_is_every_tick() {
        let mut p = BernoulliProcess::new(1.0);
        let mut rng = rng();
        for _ in 0..10 {
            assert_eq!(p.next_gap(&mut rng), 1);
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn bernoulli_rejects_overload() {
        let _ = BernoulliProcess::new(2.0);
    }

    #[test]
    fn size_distributions() {
        let mut rng = rng();
        assert_eq!(SizeDistribution::Fixed(4).sample(&mut rng), 4);
        assert_eq!(SizeDistribution::Fixed(4).mean(), 4.0);
        let u = SizeDistribution::Uniform { min: 2, max: 6 };
        for _ in 0..100 {
            let s = u.sample(&mut rng);
            assert!((2..=6).contains(&s));
        }
        assert_eq!(u.mean(), 4.0);
        let w = SizeDistribution::Weighted(vec![(1, 3.0), (10, 1.0)]);
        let mut counts = [0u32; 2];
        for _ in 0..4000 {
            match w.sample(&mut rng) {
                1 => counts[0] += 1,
                10 => counts[1] += 1,
                other => panic!("unexpected size {other}"),
            }
        }
        assert!(counts[0] > 2 * counts[1]);
        assert!((w.mean() - 3.25).abs() < 1e-12);
    }
}
