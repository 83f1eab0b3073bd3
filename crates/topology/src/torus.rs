//! k-ary n-cube (torus) topology with per-dimension widths.
//!
//! Port layout per router: ports `0..concentration` attach terminals; then
//! each dimension `d` contributes a plus-direction port
//! (`concentration + 2d`) and a minus-direction port
//! (`concentration + 2d + 1`).

use supersim_netbase::{Port, RouterId, TerminalId};

use crate::types::{coords, from_coords, Topology, TopologyError};

/// A torus with arbitrary per-dimension widths.
///
/// # Example
///
/// ```
/// use supersim_topology::{Topology, Torus};
///
/// // The paper's case study C: 4-D torus 8x8x8x8, concentration 1.
/// let t = Torus::new(vec![8, 8, 8, 8], 1).unwrap();
/// assert_eq!(t.num_routers(), 4096);
/// assert_eq!(t.num_terminals(), 4096);
/// assert_eq!(t.radix(supersim_netbase::RouterId(0)), 1 + 8);
/// ```
#[derive(Debug, Clone)]
pub struct Torus {
    widths: Vec<u32>,
    concentration: u32,
    num_routers: u32,
}

impl Torus {
    /// Creates a torus.
    ///
    /// # Errors
    ///
    /// Returns an error if `widths` is empty, any width is less than 2, or
    /// `concentration` is zero.
    pub fn new(widths: Vec<u32>, concentration: u32) -> Result<Self, TopologyError> {
        if widths.is_empty() {
            return Err(TopologyError::new("torus needs at least one dimension"));
        }
        if widths.iter().any(|&w| w < 2) {
            return Err(TopologyError::new("torus widths must be at least 2"));
        }
        if concentration == 0 {
            return Err(TopologyError::new("torus concentration must be at least 1"));
        }
        let num_routers = widths
            .iter()
            .try_fold(1u32, |acc, &w| acc.checked_mul(w))
            .ok_or_else(|| TopologyError::new("torus size overflows u32"))?;
        Ok(Torus {
            widths,
            concentration,
            num_routers,
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

    /// Router at the given coordinates.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when a coordinate is out of range.
    pub fn router_at(&self, coords: &[u32]) -> RouterId {
        RouterId(from_coords(coords, &self.widths))
    }

    /// The network port moving in `dim`, `+1` direction when `plus` is
    /// true, `-1` otherwise.
    pub fn port_toward(&self, dim: usize, plus: bool) -> Port {
        self.concentration + 2 * dim as u32 + u32::from(!plus)
    }

    /// Decodes a network port into `(dim, plus)`.
    ///
    /// Returns `None` for terminal ports or out-of-range ports.
    pub fn port_direction(&self, port: Port) -> Option<(usize, bool)> {
        if port < self.concentration {
            return None;
        }
        let rel = port - self.concentration;
        let dim = (rel / 2) as usize;
        if dim >= self.widths.len() {
            return None;
        }
        Some((dim, rel.is_multiple_of(2)))
    }

    /// Signed minimal offset from `from` to `to` along a ring of width `w`:
    /// the distance and the direction (`true` = plus) of the shorter way
    /// around. Ties choose plus.
    pub fn ring_step(from: u32, to: u32, w: u32) -> Option<(u32, bool)> {
        if from == to {
            return None;
        }
        let fwd = (to + w - from) % w;
        let bwd = w - fwd;
        if fwd <= bwd {
            Some((fwd, true))
        } else {
            Some((bwd, false))
        }
    }
}

impl Topology for Torus {
    fn name(&self) -> &str {
        "torus"
    }

    fn num_routers(&self) -> u32 {
        self.num_routers
    }

    fn num_terminals(&self) -> u32 {
        self.num_routers * self.concentration
    }

    fn radix(&self, _router: RouterId) -> u32 {
        self.concentration + 2 * self.widths.len() as u32
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
        let (dim, plus) = self.port_direction(port)?;
        let mut coords: Vec<u32> = self.router_coords(router).collect();
        let w = self.widths[dim];
        coords[dim] = if plus {
            (coords[dim] + 1) % w
        } else {
            (coords[dim] + w - 1) % w
        };
        let other = self.router_at(&coords);
        // Arriving on the opposite-direction port of the neighbor.
        Some((other, self.port_toward(dim, !plus)))
    }

    fn min_hops(&self, src: TerminalId, dst: TerminalId) -> u32 {
        let (sr, _) = self.terminal_attachment(src);
        let (dr, _) = self.terminal_attachment(dst);
        self.router_coords(sr)
            .zip(self.router_coords(dr))
            .zip(&self.widths)
            .map(|((a, b), &w)| Torus::ring_step(a, b, w).map_or(0, |(d, _)| d))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Torus::new(vec![], 1).is_err());
        assert!(Torus::new(vec![1], 1).is_err());
        assert!(Torus::new(vec![4], 0).is_err());
    }

    #[test]
    fn sizes() {
        let t = Torus::new(vec![4, 4], 2).unwrap();
        assert_eq!(t.num_routers(), 16);
        assert_eq!(t.num_terminals(), 32);
        assert_eq!(t.radix(RouterId(3)), 2 + 4);
        assert_eq!(t.dims(), 2);
    }

    #[test]
    fn terminal_attachment_round_trip() {
        let t = Torus::new(vec![3, 3], 4).unwrap();
        for i in 0..t.num_terminals() {
            let (r, p) = t.terminal_attachment(TerminalId(i));
            assert_eq!(t.terminal_at(r, p), Some(TerminalId(i)));
        }
        assert_eq!(t.terminal_at(RouterId(0), 4), None); // network port
    }

    #[test]
    fn neighbor_is_involution() {
        let t = Torus::new(vec![4, 3, 2], 1).unwrap();
        for r in 0..t.num_routers() {
            for p in 0..t.radix(RouterId(r)) {
                if let Some((nr, np)) = t.neighbor(RouterId(r), p) {
                    assert_eq!(
                        t.neighbor(nr, np),
                        Some((RouterId(r), p)),
                        "r{r} p{p} not symmetric"
                    );
                }
            }
        }
    }

    #[test]
    fn wrap_around_links() {
        let t = Torus::new(vec![4], 1).unwrap();
        // Router 3 plus-direction wraps to router 0.
        let plus = t.port_toward(0, true);
        assert_eq!(
            t.neighbor(RouterId(3), plus),
            Some((RouterId(0), t.port_toward(0, false)))
        );
    }

    #[test]
    fn ring_step_prefers_short_way() {
        assert_eq!(Torus::ring_step(0, 1, 8), Some((1, true)));
        assert_eq!(Torus::ring_step(0, 7, 8), Some((1, false)));
        assert_eq!(Torus::ring_step(0, 4, 8), Some((4, true))); // tie → plus
        assert_eq!(Torus::ring_step(2, 2, 8), None);
    }

    #[test]
    fn min_hops_sums_dimensions() {
        let t = Torus::new(vec![8, 8], 1).unwrap();
        let src = TerminalId(0); // router (0,0)
        let dst = TerminalId(from_coords(&[3, 7], &[8, 8]));
        // dim0: 3 hops; dim1: 1 hop the short way.
        assert_eq!(t.min_hops(src, dst), 4);
        assert_eq!(t.min_hops(src, src), 0);
    }

    #[test]
    fn width_two_ring_has_distinct_ports() {
        let t = Torus::new(vec![2], 1).unwrap();
        let plus = t.port_toward(0, true);
        let minus = t.port_toward(0, false);
        // Both ports reach the same router but on opposite ports.
        assert_eq!(t.neighbor(RouterId(0), plus), Some((RouterId(1), minus)));
        assert_eq!(t.neighbor(RouterId(0), minus), Some((RouterId(1), plus)));
    }

    use crate::types::from_coords;
}
