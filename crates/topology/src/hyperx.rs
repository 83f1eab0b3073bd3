//! HyperX topology: fully-connected dimensions.
//!
//! A HyperX has `n` dimensions of widths `S[0..n]`; routers at coordinates
//! differing in exactly one dimension are directly connected. With all
//! widths 2 this is the hypercube; with one dimension it is the 1-D
//! flattened butterfly used in paper case study B.
//!
//! Port layout per router: ports `0..concentration` attach terminals; then
//! dimension `d` contributes `S[d] - 1` ports, one per other coordinate in
//! that dimension, ordered by coordinate with the router's own coordinate
//! skipped.

use supersim_netbase::{Port, RouterId, TerminalId};

use crate::types::{coords, from_coords, Topology, TopologyError};

/// A HyperX network.
///
/// # Example
///
/// ```
/// use supersim_topology::{HyperX, Topology};
/// use supersim_netbase::RouterId;
///
/// // Paper §VI-B: 1-D flattened butterfly, 32 routers, concentration 32:
/// // 1024 terminals, radix 63 routers.
/// let h = HyperX::new(vec![32], 32).unwrap();
/// assert_eq!(h.num_terminals(), 1024);
/// assert_eq!(h.radix(RouterId(0)), 63);
/// ```
#[derive(Debug, Clone)]
pub struct HyperX {
    widths: Vec<u32>,
    concentration: u32,
    num_routers: u32,
    /// First port of each dimension's port block (after terminal ports).
    dim_port_base: Vec<u32>,
}

impl HyperX {
    /// Creates a HyperX.
    ///
    /// # Errors
    ///
    /// Returns an error if `widths` is empty, any width is less than 2, or
    /// `concentration` is zero.
    pub fn new(widths: Vec<u32>, concentration: u32) -> Result<Self, TopologyError> {
        if widths.is_empty() {
            return Err(TopologyError::new("hyperx needs at least one dimension"));
        }
        if widths.iter().any(|&w| w < 2) {
            return Err(TopologyError::new("hyperx widths must be at least 2"));
        }
        if concentration == 0 {
            return Err(TopologyError::new(
                "hyperx concentration must be at least 1",
            ));
        }
        let num_routers = widths
            .iter()
            .try_fold(1u32, |acc, &w| acc.checked_mul(w))
            .ok_or_else(|| TopologyError::new("hyperx size overflows u32"))?;
        let mut dim_port_base = Vec::with_capacity(widths.len());
        let mut base = concentration;
        for &w in &widths {
            dim_port_base.push(base);
            base += w - 1;
        }
        Ok(HyperX {
            widths,
            concentration,
            num_routers,
            dim_port_base,
        })
    }

    /// Per-dimension widths.
    pub fn widths(&self) -> &[u32] {
        &self.widths
    }

    /// Terminals per router.
    pub fn concentration(&self) -> u32 {
        self.concentration
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.widths.len()
    }

    /// Coordinates of a router, least significant dimension first.
    pub fn router_coords(&self, router: RouterId) -> impl Iterator<Item = u32> + '_ {
        coords(router.0, &self.widths)
    }

    /// The coordinate of `router` in dimension `dim`.
    fn coord(&self, router: RouterId, dim: usize) -> u32 {
        self.router_coords(router)
            .nth(dim)
            .expect("dimension in range")
    }

    /// Router at the given coordinates.
    pub fn router_at(&self, coords: &[u32]) -> RouterId {
        RouterId(from_coords(coords, &self.widths))
    }

    /// The output port on `router` that reaches coordinate `to` in
    /// dimension `dim` directly.
    ///
    /// # Panics
    ///
    /// Panics if `to` equals the router's own coordinate in `dim` (no
    /// self-link exists) or is out of range.
    pub fn port_toward(&self, router: RouterId, dim: usize, to: u32) -> Port {
        let own = self.coord(router, dim);
        assert!(to < self.widths[dim], "coordinate out of range");
        assert_ne!(to, own, "no self-link in a fully connected dimension");
        // Ports are ordered by target coordinate with `own` skipped.
        self.dim_port_base[dim] + if to < own { to } else { to - 1 }
    }

    /// Decodes a network port into `(dim, target coordinate)`.
    ///
    /// Returns `None` for terminal or out-of-range ports.
    pub fn port_target(&self, router: RouterId, port: Port) -> Option<(usize, u32)> {
        if port < self.concentration {
            return None;
        }
        let dim = self.dim_port_base.iter().rposition(|&b| b <= port)?;
        let rel = port - self.dim_port_base[dim];
        if rel >= self.widths[dim] - 1 {
            return None;
        }
        let own = self.coord(router, dim);
        Some((dim, if rel < own { rel } else { rel + 1 }))
    }
}

impl Topology for HyperX {
    fn name(&self) -> &str {
        "hyperx"
    }

    fn num_routers(&self) -> u32 {
        self.num_routers
    }

    fn num_terminals(&self) -> u32 {
        self.num_routers * self.concentration
    }

    fn radix(&self, _router: RouterId) -> u32 {
        self.concentration + self.widths.iter().map(|&w| w - 1).sum::<u32>()
    }

    fn terminal_attachment(&self, terminal: TerminalId) -> (RouterId, Port) {
        (
            RouterId(terminal.0 / self.concentration),
            terminal.0 % self.concentration,
        )
    }

    fn terminal_at(&self, router: RouterId, port: Port) -> Option<TerminalId> {
        (port < self.concentration).then(|| TerminalId(router.0 * self.concentration + port))
    }

    fn neighbor(&self, router: RouterId, port: Port) -> Option<(RouterId, Port)> {
        let (dim, to) = self.port_target(router, port)?;
        let mut coords: Vec<u32> = self.router_coords(router).collect();
        let own = coords[dim];
        coords[dim] = to;
        let other = self.router_at(&coords);
        Some((other, self.port_toward(other, dim, own)))
    }

    fn min_hops(&self, src: TerminalId, dst: TerminalId) -> u32 {
        let (sr, _) = self.terminal_attachment(src);
        let (dr, _) = self.terminal_attachment(dst);
        self.router_coords(sr)
            .zip(self.router_coords(dr))
            .filter(|(a, b)| a != b)
            .count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(HyperX::new(vec![], 1).is_err());
        assert!(HyperX::new(vec![1], 1).is_err());
        assert!(HyperX::new(vec![4], 0).is_err());
    }

    #[test]
    fn flattened_butterfly_1d() {
        let h = HyperX::new(vec![32], 32).unwrap();
        assert_eq!(h.num_routers(), 32);
        assert_eq!(h.num_terminals(), 1024);
        assert_eq!(h.radix(RouterId(0)), 63);
    }

    #[test]
    fn hypercube() {
        let h = HyperX::new(vec![2, 2, 2], 1).unwrap();
        assert_eq!(h.num_routers(), 8);
        assert_eq!(h.radix(RouterId(0)), 1 + 3);
        // Hamming distance as hop count.
        assert_eq!(h.min_hops(TerminalId(0), TerminalId(7)), 3);
        assert_eq!(h.min_hops(TerminalId(0), TerminalId(4)), 1);
    }

    #[test]
    fn port_toward_and_back() {
        let h = HyperX::new(vec![4, 3], 2).unwrap();
        for r in 0..h.num_routers() {
            let router = RouterId(r);
            for (dim, here) in h.router_coords(router).enumerate() {
                for to in 0..h.widths()[dim] {
                    if to == here {
                        continue;
                    }
                    let port = h.port_toward(router, dim, to);
                    assert_eq!(h.port_target(router, port), Some((dim, to)));
                }
            }
        }
    }

    #[test]
    fn neighbor_is_involution() {
        let h = HyperX::new(vec![4, 3], 2).unwrap();
        for r in 0..h.num_routers() {
            for p in 0..h.radix(RouterId(r)) {
                if let Some((nr, np)) = h.neighbor(RouterId(r), p) {
                    assert_eq!(
                        h.neighbor(nr, np),
                        Some((RouterId(r), p)),
                        "r{r} p{p} not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn direct_links_in_each_dimension() {
        let h = HyperX::new(vec![4], 1).unwrap();
        // Router 1 reaches routers 0, 2, 3 directly.
        let targets: Vec<_> = (1..4)
            .map(|p| h.neighbor(RouterId(1), p).unwrap().0 .0)
            .collect();
        assert_eq!(targets, vec![0, 2, 3]);
    }

    #[test]
    fn terminal_ports_have_no_neighbor() {
        let h = HyperX::new(vec![4], 2).unwrap();
        assert_eq!(h.neighbor(RouterId(0), 0), None);
        assert_eq!(h.neighbor(RouterId(0), 1), None);
        assert!(h.neighbor(RouterId(0), 2).is_some());
        assert_eq!(h.neighbor(RouterId(0), 99), None);
    }
}
