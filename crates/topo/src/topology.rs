//! Worker-to-socket maps for topology-aware scheduling.
//!
//! A [`TopologyMap`] tells a scheduler which socket each *worker* lives on
//! — the bridge between worker ids and the machine model of
//! [`MachineSpec`]. The simulator derives the map from its pinned virtual
//! cores and uses it to steal socket-first (localized work stealing in the
//! sense of Suksompong–Leiserson–Schardl) and to earmark hybrid-loop
//! partitions near their data. The threaded runtime has no map: its
//! workers sweep every victim uniformly, as under the flat map.

use crate::machine::MachineSpec;
use crate::pinning::{pin_order, PinningPolicy};

/// An immutable worker → socket map.
///
/// The default ([`flat`](Self::flat)) places every worker on socket 0 —
/// the correct description of a machine the process knows nothing about,
/// and the map under which socket-first scheduling degenerates to the
/// uniform baseline (every victim is local).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyMap {
    socket_of: Vec<usize>,
    sockets: usize,
}

impl TopologyMap {
    /// A single-socket map: all `workers` on socket 0.
    pub fn flat(workers: usize) -> Self {
        TopologyMap { socket_of: vec![0; workers], sockets: 1 }
    }

    /// The map induced by pinning `workers` threads to `machine` under
    /// `policy`: worker `w` lives on the socket of core
    /// `pin_order(machine, policy, w)`.
    pub fn from_machine(machine: &MachineSpec, policy: PinningPolicy, workers: usize) -> Self {
        let socket_of =
            (0..workers).map(|w| machine.socket_of(pin_order(machine, policy, w))).collect();
        TopologyMap { socket_of, sockets: machine.sockets }
    }

    /// A map from an explicit per-worker socket table. The socket count is
    /// `max(table) + 1` (sockets with no workers at the top are dropped;
    /// an empty table means one socket).
    pub fn from_sockets(socket_of: Vec<usize>) -> Self {
        let sockets = socket_of.iter().copied().max().map_or(1, |m| m + 1);
        TopologyMap { socket_of, sockets }
    }

    /// Number of workers in the map.
    #[inline]
    pub fn workers(&self) -> usize {
        self.socket_of.len()
    }

    /// Number of sockets the map spans.
    #[inline]
    pub fn sockets(&self) -> usize {
        self.sockets
    }

    /// Whether the map is effectively socket-free (zero or one socket):
    /// under a flat map every victim is local and socket-first scheduling
    /// must coincide with the uniform baseline.
    #[inline]
    pub fn is_flat(&self) -> bool {
        self.sockets <= 1
    }

    /// The socket worker `w` lives on. Workers beyond the table (possible
    /// when a map built for a smaller pool outlives a rebuild) fold back
    /// into it modulo the table length rather than panicking.
    #[inline]
    pub fn socket_of(&self, w: usize) -> usize {
        if self.socket_of.is_empty() {
            return 0;
        }
        self.socket_of[w % self.socket_of.len()]
    }

    /// Whether two workers share a socket.
    #[inline]
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }

    /// The raw worker → socket table.
    #[inline]
    pub fn socket_table(&self) -> &[usize] {
        &self.socket_of
    }

    /// Rank of worker `w` among the workers of its own socket (0-based,
    /// in worker-id order). Drives the XOR fallback when several workers
    /// share a partition's home socket.
    pub fn local_rank(&self, w: usize) -> usize {
        let s = self.socket_of(w);
        let w = if self.socket_of.is_empty() { 0 } else { w % self.socket_of.len() };
        self.socket_of[..w].iter().filter(|&&x| x == s).count()
    }

    /// How many workers live on `socket`.
    pub fn workers_on(&self, socket: usize) -> usize {
        self.socket_of.iter().filter(|&&x| x == socket).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_map_is_single_socket() {
        let t = TopologyMap::flat(4);
        assert_eq!(t.workers(), 4);
        assert_eq!(t.sockets(), 1);
        assert!(t.is_flat());
        assert!(t.same_socket(0, 3));
        assert_eq!(t.local_rank(3), 3);
        assert_eq!(t.workers_on(0), 4);
    }

    #[test]
    fn from_machine_compact_fills_sockets_in_order() {
        let m = MachineSpec::xeon_e5_4620();
        let t = TopologyMap::from_machine(&m, PinningPolicy::Compact, 32);
        assert_eq!(t.sockets(), 4);
        assert!(!t.is_flat());
        assert_eq!(t.socket_of(0), 0);
        assert_eq!(t.socket_of(7), 0);
        assert_eq!(t.socket_of(8), 1);
        assert_eq!(t.socket_of(31), 3);
        assert_eq!(t.local_rank(9), 1);
        assert_eq!(t.workers_on(2), 8);
    }

    #[test]
    fn from_machine_scatter_round_robins() {
        let m = MachineSpec::xeon_e5_4620();
        let t = TopologyMap::from_machine(&m, PinningPolicy::Scatter, 8);
        assert_eq!(t.socket_table(), &[0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(t.local_rank(5), 1);
    }

    #[test]
    fn from_sockets_infers_socket_count() {
        let t = TopologyMap::from_sockets(vec![0, 0, 1, 1]);
        assert_eq!(t.sockets(), 2);
        assert!(t.same_socket(0, 1));
        assert!(!t.same_socket(1, 2));
        assert_eq!(TopologyMap::from_sockets(vec![]).sockets(), 1);
    }

    #[test]
    fn out_of_table_workers_fold_back() {
        let t = TopologyMap::from_sockets(vec![0, 1]);
        assert_eq!(t.socket_of(2), 0);
        assert_eq!(t.socket_of(3), 1);
        assert_eq!(t.local_rank(2), 0);
        let empty = TopologyMap::from_sockets(vec![]);
        assert_eq!(empty.socket_of(7), 0);
        assert_eq!(empty.local_rank(7), 0);
    }
}
