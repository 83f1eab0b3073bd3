//! Wiring and configuration shared by all router microarchitectures.

use std::fmt;
use std::sync::Arc;

use supersim_netbase::{FaultPlane, LinkFaults, LinkId, LinkTarget, Port, RouterId};
use supersim_topology::RoutingAlgorithm;

/// Constructor for per-input-port routing engines: given the router and the
/// input port, builds a fresh [`RoutingAlgorithm`] instance. Supplied by
/// the network when it instantiates routers, keeping the microarchitecture
/// and the topology/routing models independent (paper §IV-B).
pub type RoutingFactory = Arc<dyn Fn(RouterId, Port) -> Box<dyn RoutingAlgorithm> + Send + Sync>;

/// Physical wiring of one router.
#[derive(Debug)]
pub struct RouterPorts {
    /// Total ports (terminal + network).
    pub radix: u32,
    /// Virtual channels per port.
    pub vcs: u32,
    /// Per output port: where sent flits arrive (`None` = unwired; routing
    /// toward an unwired port is a detected error, paper §IV-D).
    pub flit_links: Vec<Option<LinkTarget>>,
    /// Per input port: where freed-buffer credits are returned (`None` =
    /// unwired).
    pub credit_links: Vec<Option<LinkTarget>>,
    /// Per output port: downstream buffer capacity in flits per VC
    /// (initial credit count).
    pub downstream_capacity: Vec<u32>,
}

impl RouterPorts {
    /// Flattened index of `(port, vc)`.
    #[inline]
    pub fn key(&self, port: Port, vc: u32) -> usize {
        (port * self.vcs + vc) as usize
    }

    /// Inverse of [`RouterPorts::key`].
    #[inline]
    pub fn unkey(&self, key: usize) -> (Port, u32) {
        ((key as u32) / self.vcs, (key as u32) % self.vcs)
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`RouterError`] when vector lengths disagree with the
    /// radix or `vcs` is zero.
    pub fn validate(&self) -> Result<(), RouterError> {
        if self.vcs == 0 {
            return Err(RouterError::new("router needs at least one VC"));
        }
        if self.flit_links.len() != self.radix as usize
            || self.credit_links.len() != self.radix as usize
            || self.downstream_capacity.len() != self.radix as usize
        {
            return Err(RouterError::new("port table lengths must equal the radix"));
        }
        Ok(())
    }
}

/// Builds the per-output-port fault state of router `id` from the shared
/// fault plane, when one is configured.
pub(crate) fn router_faults(
    plane: Option<Arc<FaultPlane>>,
    id: RouterId,
    radix: u32,
) -> Option<LinkFaults> {
    plane.map(|plane| {
        let links = (0..radix)
            .map(|port| LinkId::Router { router: id.0, port })
            .collect();
        LinkFaults::new(plane, links)
    })
}

/// A sender-side fault protocol event: the three kinds share one dispatch
/// path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultProtocolEvent {
    /// Receiver confirmed clean redelivery.
    Ack,
    /// Receiver discarded a corrupt copy.
    Nack,
    /// The sender's own retransmission timer fired.
    Retry,
}

/// An invalid router configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterError {
    message: String,
}

impl RouterError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        RouterError {
            message: message.into(),
        }
    }
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid router configuration: {}", self.message)
    }
}

impl std::error::Error for RouterError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ports(radix: u32, vcs: u32) -> RouterPorts {
        RouterPorts {
            radix,
            vcs,
            flit_links: vec![None; radix as usize],
            credit_links: vec![None; radix as usize],
            downstream_capacity: vec![4; radix as usize],
        }
    }

    #[test]
    fn key_round_trip() {
        let p = ports(4, 3);
        for port in 0..4 {
            for vc in 0..3 {
                assert_eq!(p.unkey(p.key(port, vc)), (port, vc));
            }
        }
    }

    #[test]
    fn validation() {
        assert!(ports(4, 2).validate().is_ok());
        assert!(ports(4, 0).validate().is_err());
        let mut bad = ports(4, 2);
        bad.flit_links.pop();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn error_display() {
        let e = RouterError::new("radix mismatch");
        assert!(e.to_string().contains("radix mismatch"));
    }
}
