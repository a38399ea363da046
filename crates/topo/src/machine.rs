//! Description of a shared-memory multicore machine.

/// Geometry of one cache level.
///
/// # Invariant
///
/// A geometry must describe at least one set: `line > 0`, `ways > 0` and
/// `capacity >= line * ways` (equivalently `lines() >= ways`). A geometry
/// violating this is *degenerate* — [`sets`](Self::sets) would be zero and
/// [`set_of`](Self::set_of) would divide by it. The struct fields stay
/// public for literal construction of known-good machines; anything built
/// from computed sizes (e.g. programmatically scaled sim machines) should
/// go through [`checked`](Self::checked), and the accessors `debug_assert`
/// the invariant so a degenerate geometry fails loudly near its origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Cache-line size in bytes.
    pub line: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheGeometry {
    /// Validating constructor: `None` when the geometry is degenerate
    /// (zero line or ways, or fewer lines than ways — i.e. zero sets).
    pub fn checked(capacity: usize, line: usize, ways: usize) -> Option<Self> {
        let g = CacheGeometry { capacity, line, ways };
        g.is_valid().then_some(g)
    }

    /// Whether the struct invariant holds (at least one set).
    #[inline]
    pub fn is_valid(&self) -> bool {
        self.line > 0 && self.ways > 0 && self.capacity / self.line >= self.ways
    }

    /// Number of cache lines this cache can hold.
    #[inline]
    pub fn lines(&self) -> usize {
        debug_assert!(self.line > 0, "degenerate CacheGeometry: line size 0");
        self.capacity / self.line
    }

    /// Number of sets (`lines / ways`).
    #[inline]
    pub fn sets(&self) -> usize {
        debug_assert!(
            self.is_valid(),
            "degenerate CacheGeometry ({self:?}): capacity < line * ways yields 0 sets"
        );
        self.lines() / self.ways
    }

    /// The set index a byte address maps to.
    #[inline]
    pub fn set_of(&self, addr: u64) -> usize {
        debug_assert!(
            self.is_valid(),
            "degenerate CacheGeometry ({self:?}): set_of would divide by 0 sets"
        );
        ((addr / self.line as u64) % self.sets() as u64) as usize
    }

    /// The line-aligned tag of a byte address.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.line as u64
    }
}

/// How pages are assigned a home NUMA node by the memory allocator.
///
/// The paper states: "we have used NUMA-aware memory allocation to distribute
/// the data across sockets to allow the static partitioning to exploit the
/// locality benefit". [`NumaPolicy::BlockedByRange`] models exactly that: the
/// address space of an array is divided into `sockets` equal blocks, block
/// `s` homed on socket `s` — the same blocks static partitioning hands to the
/// cores of socket `s` under compact pinning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumaPolicy {
    /// Every page lives on socket 0 (no NUMA awareness).
    AllOnNode0,
    /// Pages are interleaved round-robin across sockets at page granularity.
    Interleaved { page: usize },
    /// An allocation is split into `sockets` contiguous blocks, block `s`
    /// homed on socket `s` (the paper's NUMA-aware allocation).
    BlockedByRange,
}

/// A complete machine description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSpec {
    /// Number of sockets (NUMA nodes).
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Per-core private L1 data cache.
    pub l1d: CacheGeometry,
    /// Per-core private L2 cache.
    pub l2: CacheGeometry,
    /// Per-socket shared L3 cache.
    pub l3: CacheGeometry,
    /// Core clock frequency in GHz (used to convert cycles to seconds).
    pub freq_ghz: f64,
    /// NUMA page-placement policy.
    pub numa: NumaPolicy,
}

impl MachineSpec {
    /// The paper's evaluation machine: a four-socket, 32-core
    /// Intel Xeon E5-4620 at 2.2 GHz.
    ///
    /// 32 KB 8-way L1d and 256 KB 8-way L2 per core, 16 MB 16-way shared L3
    /// per socket, 64-byte lines throughout, NUMA-aware blocked allocation.
    pub fn xeon_e5_4620() -> Self {
        MachineSpec {
            sockets: 4,
            cores_per_socket: 8,
            l1d: CacheGeometry { capacity: 32 << 10, line: 64, ways: 8 },
            l2: CacheGeometry { capacity: 256 << 10, line: 64, ways: 8 },
            l3: CacheGeometry { capacity: 16 << 20, line: 64, ways: 16 },
            freq_ghz: 2.2,
            numa: NumaPolicy::BlockedByRange,
        }
    }

    /// A small machine useful in tests: 2 sockets x 2 cores, tiny caches.
    pub fn tiny_for_tests() -> Self {
        MachineSpec {
            sockets: 2,
            cores_per_socket: 2,
            l1d: CacheGeometry { capacity: 1 << 10, line: 64, ways: 2 },
            l2: CacheGeometry { capacity: 4 << 10, line: 64, ways: 4 },
            l3: CacheGeometry { capacity: 16 << 10, line: 64, ways: 4 },
            freq_ghz: 1.0,
            numa: NumaPolicy::BlockedByRange,
        }
    }

    /// Total number of cores.
    #[inline]
    pub fn cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// The socket a core belongs to (cores are numbered socket-major).
    #[inline]
    pub fn socket_of(&self, core: usize) -> usize {
        debug_assert!(core < self.cores());
        core / self.cores_per_socket
    }

    /// Whether two cores share a socket (and hence an L3).
    #[inline]
    pub fn same_socket(&self, a: usize, b: usize) -> bool {
        self.socket_of(a) == self.socket_of(b)
    }

    /// Home socket of a byte `addr` within an allocation of `len` bytes,
    /// according to the machine's NUMA policy.
    pub fn home_socket(&self, addr: u64, alloc_base: u64, alloc_len: usize) -> usize {
        match self.numa {
            NumaPolicy::AllOnNode0 => 0,
            NumaPolicy::Interleaved { page } => {
                ((addr / page as u64) % self.sockets as u64) as usize
            }
            NumaPolicy::BlockedByRange => {
                if alloc_len == 0 {
                    return 0;
                }
                let off = addr.saturating_sub(alloc_base);
                let block = alloc_len.div_ceil(self.sockets);
                ((off as usize) / block).min(self.sockets - 1)
            }
        }
    }

    /// Convert a cycle count to seconds using the modeled clock.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: f64) -> f64 {
        cycles / (self.freq_ghz * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xeon_geometry() {
        let m = MachineSpec::xeon_e5_4620();
        assert_eq!(m.cores(), 32);
        assert_eq!(m.l1d.lines(), 512);
        assert_eq!(m.l1d.sets(), 64);
        assert_eq!(m.l2.lines(), 4096);
        assert_eq!(m.l3.lines(), 262144);
        assert_eq!(m.socket_of(0), 0);
        assert_eq!(m.socket_of(7), 0);
        assert_eq!(m.socket_of(8), 1);
        assert_eq!(m.socket_of(31), 3);
        assert!(m.same_socket(0, 7));
        assert!(!m.same_socket(7, 8));
    }

    #[test]
    fn set_mapping_wraps() {
        let g = CacheGeometry { capacity: 1 << 10, line: 64, ways: 2 };
        assert_eq!(g.lines(), 16);
        assert_eq!(g.sets(), 8);
        assert_eq!(g.set_of(0), 0);
        assert_eq!(g.set_of(64), 1);
        assert_eq!(g.set_of(64 * 8), 0);
        assert_eq!(g.line_of(63), 0);
        assert_eq!(g.line_of(64), 1);
    }

    #[test]
    fn numa_blocked_homes_match_static_partitions() {
        let m = MachineSpec::xeon_e5_4620();
        let len = 4096usize;
        // First quarter of the allocation homed on socket 0, last on socket 3.
        assert_eq!(m.home_socket(0, 0, len), 0);
        assert_eq!(m.home_socket(1023, 0, len), 0);
        assert_eq!(m.home_socket(1024, 0, len), 1);
        assert_eq!(m.home_socket(4095, 0, len), 3);
    }

    #[test]
    fn numa_interleaved() {
        let m = MachineSpec {
            numa: NumaPolicy::Interleaved { page: 4096 },
            ..MachineSpec::xeon_e5_4620()
        };
        assert_eq!(m.home_socket(0, 0, 1 << 20), 0);
        assert_eq!(m.home_socket(4096, 0, 1 << 20), 1);
        assert_eq!(m.home_socket(4096 * 4, 0, 1 << 20), 0);
    }

    #[test]
    fn numa_zero_len_alloc_is_node0() {
        let m = MachineSpec::xeon_e5_4620();
        assert_eq!(m.home_socket(123, 0, 0), 0);
    }

    #[test]
    fn checked_geometry_accepts_valid_shapes() {
        let g = CacheGeometry::checked(1 << 10, 64, 2).unwrap();
        assert_eq!(g.sets(), 8);
        // Exactly one set (lines == ways) is the smallest valid geometry.
        let one = CacheGeometry::checked(128, 64, 2).unwrap();
        assert_eq!(one.sets(), 1);
        assert_eq!(one.set_of(0), 0);
        assert_eq!(one.set_of(1 << 30), 0);
    }

    #[test]
    fn checked_geometry_rejects_degenerate_shapes() {
        // capacity < line * ways: lines() < ways, so sets() would be 0.
        assert_eq!(CacheGeometry::checked(64, 64, 2), None);
        // capacity < line: zero lines.
        assert_eq!(CacheGeometry::checked(32, 64, 1), None);
        // Zero line / zero ways.
        assert_eq!(CacheGeometry::checked(1 << 10, 0, 2), None);
        assert_eq!(CacheGeometry::checked(1 << 10, 64, 0), None);
        assert!(!CacheGeometry { capacity: 64, line: 64, ways: 2 }.is_valid());
    }

    #[test]
    #[should_panic(expected = "degenerate CacheGeometry")]
    #[cfg(debug_assertions)]
    fn degenerate_sets_fails_loudly_in_debug() {
        let g = CacheGeometry { capacity: 64, line: 64, ways: 2 };
        let _ = g.sets();
    }
}
