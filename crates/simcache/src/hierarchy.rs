//! The full modeled memory hierarchy of a multi-socket machine.
//!
//! Per core: private L1d and L2. Per socket: a shared L3. Below that, DRAM
//! with a NUMA home node per address (from the machine's
//! [`NumaPolicy`](parloop_topo::NumaPolicy)). A *directory* mirrors which
//! cores/sockets currently hold each line so that:
//!
//! * an L3 miss that another socket's cache can service counts as
//!   **remote L3** (the paper's "L3 misses serviced by remote L3");
//! * a **write** invalidates every other core's private copies and every
//!   other socket's L3 copy (MESI-style), which is exactly the mechanism
//!   that makes iteration migration expensive in iterative applications.
//!
//! All accesses are counted at the level that serviced them, aggregated
//! per requesting core — the software analogue of Figure 4's counters.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use parloop_topo::{AccessLevel, LatencyTable, MachineSpec};

use crate::counters::AccessCounts;
use crate::lru::{Fill, SetAssocCache};

/// Identifies the allocation an address belongs to, for NUMA homing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocInfo {
    /// First byte of the allocation.
    pub base: u64,
    /// Allocation length in bytes.
    pub len: usize,
}

impl AllocInfo {
    pub fn new(base: u64, len: usize) -> Self {
        AllocInfo { base, len }
    }
}

/// A fast identity-ish hasher for line addresses (Fibonacci multiply).
#[derive(Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Widest machine the directory can represent: one `u64` of core bits
/// and one `u32` of socket bits per line. The paper's machine has 32 cores
/// on 4 sockets.
pub const MAX_CORES: usize = 64;
/// See [`MAX_CORES`].
pub const MAX_SOCKETS: usize = 32;

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    /// Cores whose L1 or L2 holds the line, one bit per core.
    cores: u64,
    /// Sockets whose L3 holds the line.
    sockets: u32,
}

impl DirEntry {
    fn is_empty(&self) -> bool {
        self.cores == 0 && self.sockets == 0
    }
}

type Directory = HashMap<u64, DirEntry, BuildHasherDefault<LineHasher>>;

/// The modeled hierarchy (see module docs).
pub struct MemoryHierarchy {
    machine: MachineSpec,
    lat: LatencyTable,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    l3: Vec<SetAssocCache>,
    counts: Vec<AccessCounts>,
    dir: Directory,
}

impl MemoryHierarchy {
    pub fn new(machine: MachineSpec, lat: LatencyTable) -> Self {
        let cores = machine.cores();
        assert!(
            cores <= MAX_CORES && machine.sockets <= MAX_SOCKETS,
            "machine ({cores} cores, {} sockets) exceeds the directory's \
             {MAX_CORES}-core / {MAX_SOCKETS}-socket limit",
            machine.sockets
        );
        MemoryHierarchy {
            machine,
            lat,
            l1: (0..cores).map(|_| SetAssocCache::new(machine.l1d)).collect(),
            l2: (0..cores).map(|_| SetAssocCache::new(machine.l2)).collect(),
            l3: (0..machine.sockets).map(|_| SetAssocCache::new(machine.l3)).collect(),
            counts: vec![AccessCounts::new(); cores],
            dir: Directory::default(),
        }
    }

    /// The paper's machine with its measured latencies.
    pub fn xeon() -> Self {
        Self::new(MachineSpec::xeon_e5_4620(), LatencyTable::xeon_e5_4620())
    }

    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    pub fn latency_table(&self) -> &LatencyTable {
        &self.lat
    }

    /// Latency in cycles of an access serviced at `level`.
    #[inline]
    pub fn latency_of(&self, level: AccessLevel) -> f64 {
        self.lat.cycles(level)
    }

    /// Simulate one access by `core` to byte `addr` of allocation `alloc`.
    /// Returns the level that serviced it and charges the core's counters.
    pub fn access(&mut self, core: usize, addr: u64, write: bool, alloc: AllocInfo) -> AccessLevel {
        let line = addr / self.machine.l1d.line as u64;
        let socket = self.machine.socket_of(core);

        let level = if self.l1[core].probe(line) {
            AccessLevel::L1
        } else if self.l2[core].probe(line) {
            self.fill_l1(core, line);
            AccessLevel::L2
        } else if self.l3[socket].probe(line) {
            self.fill_l2(core, line);
            self.fill_l1(core, line);
            AccessLevel::LocalL3
        } else {
            let level = self.miss_level(core, socket, addr, line, alloc);
            self.fill_l3(socket, line);
            self.fill_l2(core, line);
            self.fill_l1(core, line);
            level
        };

        self.counts[core].add(level);

        if write {
            self.invalidate_others(core, socket, line);
        }
        level
    }

    /// Classify an access that missed the whole local hierarchy.
    fn miss_level(
        &self,
        core: usize,
        socket: usize,
        addr: u64,
        line: u64,
        alloc: AllocInfo,
    ) -> AccessLevel {
        if let Some(e) = self.dir.get(&line) {
            let local = self.socket_core_mask(socket);
            // Another core on this socket holds it privately: serviced by
            // an on-socket cache-to-cache transfer, ≈ local L3 latency.
            if e.cores & local & !(1u64 << core) != 0 {
                return AccessLevel::LocalL3;
            }
            // A remote socket holds it (L3 or a private cache there).
            if e.sockets & !(1u32 << socket) != 0 || e.cores & !local != 0 {
                return AccessLevel::RemoteL3;
            }
        }
        let home = self.machine.home_socket(addr, alloc.base, alloc.len);
        if home == socket {
            AccessLevel::LocalDram
        } else {
            AccessLevel::RemoteDram
        }
    }

    /// The core bits of `socket`.
    fn socket_core_mask(&self, socket: usize) -> u64 {
        let per = self.machine.cores_per_socket;
        let bits = if per == 64 { u64::MAX } else { (1u64 << per) - 1 };
        bits << (socket * per)
    }

    fn fill_l1(&mut self, core: usize, line: u64) {
        if let Fill::Evicted(e) = self.l1[core].fill(line) {
            if !self.l2[core].contains(e) {
                self.clear_core_bit(e, core);
            }
        }
        self.dir.entry(line).or_default().cores |= 1u64 << core;
    }

    fn fill_l2(&mut self, core: usize, line: u64) {
        if let Fill::Evicted(e) = self.l2[core].fill(line) {
            if !self.l1[core].contains(e) {
                self.clear_core_bit(e, core);
            }
        }
        self.dir.entry(line).or_default().cores |= 1u64 << core;
    }

    fn fill_l3(&mut self, socket: usize, line: u64) {
        if let Fill::Evicted(e) = self.l3[socket].fill(line) {
            self.clear_socket_bit(e, socket);
        }
        self.dir.entry(line).or_default().sockets |= 1u32 << socket;
    }

    fn clear_core_bit(&mut self, line: u64, core: usize) {
        if let Some(e) = self.dir.get_mut(&line) {
            e.cores &= !(1u64 << core);
            if e.is_empty() {
                self.dir.remove(&line);
            }
        }
    }

    fn clear_socket_bit(&mut self, line: u64, socket: usize) {
        if let Some(e) = self.dir.get_mut(&line) {
            e.sockets &= !(1u32 << socket);
            if e.is_empty() {
                self.dir.remove(&line);
            }
        }
    }

    /// MESI-style write: invalidate every other holder of `line`.
    fn invalidate_others(&mut self, core: usize, socket: usize, line: u64) {
        let Some(&e) = self.dir.get(&line) else { return };
        let mut cores = e.cores & !(1u64 << core);
        while cores != 0 {
            let c = cores.trailing_zeros() as usize;
            cores &= cores - 1;
            self.l1[c].invalidate(line);
            self.l2[c].invalidate(line);
            self.clear_core_bit(line, c);
        }
        let mut sockets = e.sockets & !(1u32 << socket);
        while sockets != 0 {
            let s = sockets.trailing_zeros() as usize;
            sockets &= sockets - 1;
            self.l3[s].invalidate(line);
            self.clear_socket_bit(line, s);
        }
    }

    /// Per-core counters.
    pub fn counts(&self, core: usize) -> &AccessCounts {
        &self.counts[core]
    }

    /// Aggregate counters over all cores.
    pub fn total_counts(&self) -> AccessCounts {
        let mut total = AccessCounts::new();
        for c in &self.counts {
            total.merge(c);
        }
        total
    }

    /// Zero the counters (keep cache contents — used between warmup and
    /// measured phases, like the paper starting collection at the first
    /// top-level parallel region).
    pub fn reset_counts(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = AccessCounts::new());
    }

    /// Drop all cached lines and counters.
    pub fn flush(&mut self) {
        for c in &mut self.l1 {
            c.flush();
        }
        for c in &mut self.l2 {
            c.flush();
        }
        for c in &mut self.l3 {
            c.flush();
        }
        self.dir.clear();
        self.reset_counts();
    }

    /// Directory consistency check (test support): every directory bit must
    /// match actual cache contents for `line`.
    #[doc(hidden)]
    pub fn debug_check_line(&self, line: u64) -> bool {
        let e = self.dir.get(&line).copied().unwrap_or_default();
        for core in 0..self.machine.cores() {
            let cached = self.l1[core].contains(line) || self.l2[core].contains(line);
            if cached != (e.cores >> core & 1 == 1) {
                return false;
            }
        }
        for s in 0..self.machine.sockets {
            if self.l3[s].contains(line) != (e.sockets >> s & 1 == 1) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parloop_topo::CacheGeometry;

    fn small_machine() -> MachineSpec {
        MachineSpec {
            sockets: 2,
            cores_per_socket: 2,
            l1d: CacheGeometry { capacity: 1 << 10, line: 64, ways: 2 },
            l2: CacheGeometry { capacity: 4 << 10, line: 64, ways: 4 },
            l3: CacheGeometry { capacity: 16 << 10, line: 64, ways: 4 },
            freq_ghz: 1.0,
            numa: parloop_topo::NumaPolicy::BlockedByRange,
        }
    }

    fn hier() -> MemoryHierarchy {
        MemoryHierarchy::new(small_machine(), LatencyTable::xeon_e5_4620())
    }

    const ALLOC: AllocInfo = AllocInfo { base: 0, len: 1 << 20 };

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut h = hier();
        // addr 0 homes on socket 0 (blocked policy); core 0 is on socket 0.
        assert_eq!(h.access(0, 0, false, ALLOC), AccessLevel::LocalDram);
        assert_eq!(h.access(0, 0, false, ALLOC), AccessLevel::L1);
        assert_eq!(h.counts(0).get(AccessLevel::LocalDram), 1);
        assert_eq!(h.counts(0).get(AccessLevel::L1), 1);
    }

    #[test]
    fn remote_home_counts_remote_dram() {
        let mut h = hier();
        // Last quarter of the allocation homes on socket 1.
        let addr = (ALLOC.len - 64) as u64;
        assert_eq!(h.access(0, addr, false, ALLOC), AccessLevel::RemoteDram);
        // From a socket-1 core it is local.
        assert_eq!(h.access(2, addr + 64, false, ALLOC), AccessLevel::LocalDram);
    }

    #[test]
    fn cross_socket_reuse_is_remote_l3() {
        let mut h = hier();
        h.access(0, 0, false, ALLOC); // socket 0 now caches line 0
        assert_eq!(h.access(2, 0, false, ALLOC), AccessLevel::RemoteL3);
    }

    #[test]
    fn same_socket_sibling_hits_local_l3() {
        let mut h = hier();
        h.access(0, 0, false, ALLOC); // core 0 fills L1/L2/L3 of socket 0
        assert_eq!(h.access(1, 0, false, ALLOC), AccessLevel::LocalL3);
    }

    #[test]
    fn write_invalidates_other_cores() {
        let mut h = hier();
        h.access(0, 0, false, ALLOC);
        h.access(2, 0, false, ALLOC); // socket 1 core now shares the line
        assert_eq!(h.access(2, 0, false, ALLOC), AccessLevel::L1);
        // Core 0 writes: core 2's copies (and socket 1's L3) die.
        h.access(0, 0, true, ALLOC);
        let lvl = h.access(2, 0, false, ALLOC);
        assert_eq!(lvl, AccessLevel::RemoteL3, "must re-fetch from socket 0");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hier();
        // Fill L1 (16 lines in tiny config) with conflicting lines so the
        // first line falls to L2 but stays there.
        h.access(0, 0, false, ALLOC);
        let sets = small_machine().l1d.sets() as u64; // 8 sets, 2 ways
        for k in 1..=2u64 {
            h.access(0, k * sets * 64, false, ALLOC); // same L1 set as line 0
        }
        let lvl = h.access(0, 0, false, ALLOC);
        assert_eq!(lvl, AccessLevel::L2);
    }

    #[test]
    fn directory_stays_consistent() {
        let mut h = hier();
        let mut rng: u64 = 12345;
        for i in 0..5000u64 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let core = (rng >> 33) as usize % 4;
            let addr = (rng >> 17) % (1 << 16);
            let write = rng & 1 == 1;
            h.access(core, addr, write, ALLOC);
            if i % 100 == 0 {
                for probe_line in [0u64, 1, 17, 100, (addr / 64)] {
                    assert!(h.debug_check_line(probe_line), "directory drift at line {probe_line}");
                }
            }
        }
    }

    #[test]
    fn counts_total_equals_accesses() {
        let mut h = hier();
        for i in 0..1000u64 {
            h.access((i % 4) as usize, i * 64 % 8192, i % 3 == 0, ALLOC);
        }
        assert_eq!(h.total_counts().total(), 1000);
    }

    #[test]
    fn flush_resets_everything() {
        let mut h = hier();
        h.access(0, 0, false, ALLOC);
        h.flush();
        assert_eq!(h.total_counts().total(), 0);
        assert_eq!(h.access(0, 0, false, ALLOC), AccessLevel::LocalDram);
    }

    /// The directory handles the top bit of its core mask: cores 62 and
    /// 63 on the last socket of a full 64-core machine.
    #[test]
    fn wide_machine_classifies_high_cores() {
        let machine = MachineSpec {
            sockets: 4,
            cores_per_socket: 16,
            ..small_machine() // keep the tiny caches; only the mask width matters
        };
        let mut h = MemoryHierarchy::new(machine, LatencyTable::xeon_e5_4620());
        // Core 63 lives on socket 3; the last block of the allocation
        // homes there under BlockedByRange.
        let addr = (ALLOC.len - 64) as u64;
        assert_eq!(h.access(63, addr, false, ALLOC), AccessLevel::LocalDram);
        assert_eq!(h.access(63, addr, false, ALLOC), AccessLevel::L1);
        // A sibling on socket 3 gets an on-socket transfer...
        assert_eq!(h.access(62, addr, false, ALLOC), AccessLevel::LocalL3);
        // ...while socket 0 sees a remote-L3 service.
        assert_eq!(h.access(0, addr, false, ALLOC), AccessLevel::RemoteL3);
        // A write from core 0 invalidates the high cores' copies.
        h.access(0, addr, true, ALLOC);
        assert!(h.debug_check_line(addr / 64), "directory drift after wide invalidate");
        assert_ne!(h.access(63, addr, false, ALLOC), AccessLevel::L1);
    }

    #[test]
    #[should_panic(expected = "exceeds the directory")]
    fn oversized_machine_is_rejected() {
        let machine = MachineSpec { sockets: 5, cores_per_socket: 13, ..small_machine() };
        let _ = MemoryHierarchy::new(machine, LatencyTable::xeon_e5_4620());
    }
}
