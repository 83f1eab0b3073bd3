//! Credit-based flow control bookkeeping.
//!
//! An upstream port holds one [`CreditCounter`] per downstream (port, VC)
//! buffer. Sending a flit consumes a credit; the downstream device returns
//! the credit when the flit leaves its buffer. Per paper §IV-D, credits
//! never go negative and never exceed the buffer size — both conditions are
//! surfaced as errors instead of silently corrupting the simulation.

use std::fmt;

use supersim_des::wire_overlay;

/// Errors raised by credit accounting (paper §IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditError {
    /// A flit send was attempted with zero credits available.
    Underflow,
    /// A credit return exceeded the downstream buffer capacity.
    Overflow,
}

impl fmt::Display for CreditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CreditError::Underflow => write!(f, "credit counter went negative"),
            CreditError::Overflow => {
                write!(f, "credit return exceeded downstream buffer capacity")
            }
        }
    }
}

impl std::error::Error for CreditError {}

/// Tracks available credits for one downstream buffer.
///
/// # Example
///
/// ```
/// use supersim_netbase::CreditCounter;
///
/// let mut c = CreditCounter::new(2);
/// assert!(c.try_consume());
/// assert!(c.try_consume());
/// assert!(!c.try_consume()); // exhausted
/// c.release().unwrap();
/// assert_eq!(c.available(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditCounter {
    capacity: u32,
    available: u32,
}

impl CreditCounter {
    /// Creates a counter for a downstream buffer of `capacity` flits,
    /// initially full.
    pub fn new(capacity: u32) -> Self {
        CreditCounter {
            capacity,
            available: capacity,
        }
    }

    /// Credits currently available.
    #[inline]
    pub fn available(&self) -> u32 {
        self.available
    }

    /// Total capacity of the downstream buffer.
    #[inline]
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Credits currently in use (flits resident downstream or in flight).
    #[inline]
    pub fn occupancy(&self) -> u32 {
        self.capacity - self.available
    }

    /// Whether at least one credit is available.
    #[inline]
    pub fn has_credit(&self) -> bool {
        self.available > 0
    }

    /// Whether at least `n` credits are available (packet-buffer flow
    /// control asks this for whole packets).
    #[inline]
    pub fn has_credits(&self, n: u32) -> bool {
        self.available >= n
    }

    /// Consumes one credit if available; returns whether it did.
    #[inline]
    pub fn try_consume(&mut self) -> bool {
        if self.available > 0 {
            self.available -= 1;
            true
        } else {
            false
        }
    }

    /// Consumes one credit.
    ///
    /// # Errors
    ///
    /// Returns [`CreditError::Underflow`] when no credit is available —
    /// a flow-control protocol violation by the caller.
    #[inline]
    pub fn consume(&mut self) -> Result<(), CreditError> {
        if self.try_consume() {
            Ok(())
        } else {
            Err(CreditError::Underflow)
        }
    }

    /// Returns one credit.
    ///
    /// # Errors
    ///
    /// Returns [`CreditError::Overflow`] when the counter is already full —
    /// a duplicated or misrouted credit.
    #[inline]
    pub fn release(&mut self) -> Result<(), CreditError> {
        if self.available < self.capacity {
            self.available += 1;
            Ok(())
        } else {
            Err(CreditError::Overflow)
        }
    }
}

// The capacity is structural; a saved count above it is malformed.
wire_overlay!(CreditCounter { available } if |c| c.available <= c.capacity);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_and_release_cycle() {
        let mut c = CreditCounter::new(3);
        assert_eq!(c.available(), 3);
        assert_eq!(c.occupancy(), 0);
        c.consume().unwrap();
        c.consume().unwrap();
        assert_eq!(c.available(), 1);
        assert_eq!(c.occupancy(), 2);
        c.release().unwrap();
        assert_eq!(c.available(), 2);
    }

    #[test]
    fn underflow_detected() {
        let mut c = CreditCounter::new(1);
        c.consume().unwrap();
        assert_eq!(c.consume(), Err(CreditError::Underflow));
    }

    #[test]
    fn overflow_detected() {
        let mut c = CreditCounter::new(1);
        assert_eq!(c.release(), Err(CreditError::Overflow));
    }

    #[test]
    fn has_credits_for_packet_sized_checks() {
        let mut c = CreditCounter::new(8);
        assert!(c.has_credits(8));
        c.consume().unwrap();
        assert!(c.has_credits(7));
        assert!(!c.has_credits(8));
    }

    #[test]
    fn zero_capacity_counter_never_grants() {
        let mut c = CreditCounter::new(0);
        assert!(!c.has_credit());
        assert!(!c.try_consume());
    }

    #[test]
    fn error_messages() {
        assert_eq!(
            CreditError::Underflow.to_string(),
            "credit counter went negative"
        );
        assert!(CreditError::Overflow.to_string().contains("capacity"));
    }
}
