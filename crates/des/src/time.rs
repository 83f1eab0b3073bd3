//! Hierarchical simulation time: ticks and epsilons (paper §III-B).
//!
//! *Ticks* represent real time; the user decides what one tick means (e.g.
//! 1 ns, 457 ps, or one clock cycle). *Epsilons* order operations performed
//! within a single tick and do **not** represent real time. Ordering compares
//! the tick first; epsilons only break ties between events at the same tick.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Absolute simulation time in ticks.
pub type Tick = u64;

/// Intra-tick ordering value.
pub type Epsilon = u8;

/// A point in simulation time: a `(tick, epsilon)` pair.
///
/// `Time` is totally ordered: lower ticks always come first regardless of
/// epsilon; equal ticks are ordered by epsilon.
///
/// # Example
///
/// ```
/// use supersim_des::Time;
///
/// let a = Time::new(10, 2);
/// let b = Time::new(11, 0);
/// assert!(a < b); // tick dominates epsilon
/// assert!(Time::new(10, 0) < a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time {
    tick: Tick,
    epsilon: Epsilon,
}

crate::wire_struct!(Time { tick, epsilon });

impl Time {
    /// The zero of time: tick 0, epsilon 0.
    pub const ZERO: Time = Time {
        tick: 0,
        epsilon: 0,
    };

    /// Creates a time at the given tick and epsilon.
    #[inline]
    pub const fn new(tick: Tick, epsilon: Epsilon) -> Self {
        Time { tick, epsilon }
    }

    /// Creates a time at the given tick with epsilon 0.
    #[inline]
    pub const fn at(tick: Tick) -> Self {
        Time { tick, epsilon: 0 }
    }

    /// The tick component of this time.
    #[inline]
    pub const fn tick(self) -> Tick {
        self.tick
    }

    /// The epsilon component of this time.
    #[inline]
    pub const fn epsilon(self) -> Epsilon {
        self.epsilon
    }

    /// Returns this time advanced by `ticks` ticks, with epsilon reset to 0.
    ///
    /// Epsilons are meaningful only within one tick, so moving to a new tick
    /// restarts intra-tick ordering.
    ///
    /// # Panics
    ///
    /// Panics in debug builds on tick overflow.
    #[inline]
    pub fn plus_ticks(self, ticks: Tick) -> Self {
        Time {
            tick: self.tick + ticks,
            epsilon: 0,
        }
    }

    /// Returns this time with the epsilon advanced by one.
    ///
    /// # Panics
    ///
    /// Panics if the epsilon would exceed [`Epsilon::MAX`]; an epsilon chain
    /// that long indicates a runaway intra-tick loop in a component model.
    #[inline]
    pub fn next_epsilon(self) -> Self {
        Time {
            tick: self.tick,
            epsilon: self
                .epsilon
                .checked_add(1)
                .expect("epsilon overflow: runaway intra-tick event chain"),
        }
    }

    /// Returns this time with the given epsilon.
    #[inline]
    pub fn with_epsilon(self, epsilon: Epsilon) -> Self {
        Time {
            tick: self.tick,
            epsilon,
        }
    }
}

impl From<Tick> for Time {
    fn from(tick: Tick) -> Self {
        Time::at(tick)
    }
}

impl Add<Tick> for Time {
    type Output = Time;

    fn add(self, rhs: Tick) -> Time {
        self.plus_ticks(rhs)
    }
}

impl AddAssign<Tick> for Time {
    fn add_assign(&mut self, rhs: Tick) {
        *self = self.plus_ticks(rhs);
    }
}

impl Sub<Time> for Time {
    type Output = Tick;

    /// Whole-tick distance between two times. Epsilons are ignored because
    /// they do not represent real time.
    fn sub(self, rhs: Time) -> Tick {
        self.tick - rhs.tick
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.tick, self.epsilon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_tick_dominates() {
        assert!(Time::new(1, 200) < Time::new(2, 0));
        assert!(Time::new(2, 0) < Time::new(2, 1));
        assert_eq!(Time::new(3, 3), Time::new(3, 3));
    }

    #[test]
    fn plus_ticks_resets_epsilon() {
        let t = Time::new(5, 7).plus_ticks(3);
        assert_eq!(t.tick(), 8);
        assert_eq!(t.epsilon(), 0);
    }

    #[test]
    fn next_epsilon_keeps_tick() {
        let t = Time::new(5, 7).next_epsilon();
        assert_eq!(t, Time::new(5, 8));
    }

    #[test]
    #[should_panic(expected = "epsilon overflow")]
    fn epsilon_overflow_panics() {
        let _ = Time::new(0, Epsilon::MAX).next_epsilon();
    }

    #[test]
    fn display_format() {
        assert_eq!(Time::new(42, 3).to_string(), "42.3");
    }

    #[test]
    fn arithmetic_ops() {
        let mut t = Time::at(10);
        t += 5;
        assert_eq!(t.tick(), 15);
        assert_eq!(t - Time::at(4), 11);
        assert_eq!(Time::at(7) + 3, Time::at(10));
    }

    #[test]
    fn from_tick() {
        let t: Time = 9u64.into();
        assert_eq!(t, Time::new(9, 0));
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Time::default(), Time::ZERO);
    }
}
