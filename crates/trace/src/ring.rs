//! Per-worker bounded event rings with seqlock slots.
//!
//! Write path (the worker that owns the ring, and nobody else):
//! timestamp, pack the event into two words, publish into slot
//! `head % capacity` under a per-slot sequence number, bump `head`. No
//! locks, no CAS, no allocation — a handful of stores on a cache line no
//! other worker writes.
//!
//! Read path (any thread, concurrently with writers): walk the window of
//! the most recent `capacity` sequence numbers and accept a slot only if
//! its sequence reads as "event `k`, complete" both before and after the
//! payload loads — the C11 seqlock pattern (Boehm, *Can seqlocks get along
//! with programming language memory models?*): the writer interposes a
//! release fence between the odd ("writing") sequence store and the
//! payload stores, the reader an acquire fence between the payload loads
//! and the validating re-read. A slot overwritten mid-read fails
//! validation and is skipped (counted as dropped), never misread.
//!
//! Overflow semantics: the ring keeps the **newest** `capacity` events;
//! older events are overwritten and reported via the per-worker dropped
//! count.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::{now_nanos, TraceEvent, TraceSink};

/// Default events retained per worker (~128 KiB per ring).
pub const DEFAULT_RING_CAPACITY: usize = 4096;

struct Slot {
    /// `2k + 1` while event `k` is being written, `2k + 2` once complete,
    /// `0` for never-written.
    seq: AtomicU64,
    ts: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// One worker's ring. Padded so that neighbouring workers' write cursors
/// never share a cache line.
#[repr(align(128))]
struct WorkerRing {
    /// Events ever recorded by the owner (monotonic; only the owner
    /// stores it).
    head: AtomicU64,
    /// Events already consumed by [`RingTraceSink::drain`] (only readers
    /// store it).
    read_cursor: AtomicU64,
    slots: Box<[Slot]>,
}

impl WorkerRing {
    fn new(capacity: usize) -> Self {
        WorkerRing {
            head: AtomicU64::new(0),
            read_cursor: AtomicU64::new(0),
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    ts: AtomicU64::new(0),
                    a: AtomicU64::new(0),
                    b: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Owner-only write of event number `head`.
    fn push(&self, event: TraceEvent) {
        let k = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(k % self.slots.len() as u64) as usize];
        let (a, b) = event.pack();
        slot.seq.store(2 * k + 1, Ordering::Relaxed);
        // Order the "writing" mark before the payload stores.
        fence(Ordering::Release);
        slot.ts.store(now_nanos(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(2 * k + 2, Ordering::Release);
        self.head.store(k + 1, Ordering::Release);
    }

    /// Read events `lo..hi` (event numbers) that are still intact.
    fn read_window(&self, lo: u64, hi: u64, worker: u32, out: &mut Vec<TaggedEvent>) {
        let cap = self.slots.len() as u64;
        for k in lo..hi {
            let slot = &self.slots[(k % cap) as usize];
            let want = 2 * k + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue; // overwritten by a newer event, or mid-write
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            // Order the payload loads before the validating re-read.
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                continue; // torn: a writer moved through while we read
            }
            if let Some(event) = TraceEvent::unpack(a, b) {
                out.push(TaggedEvent { ts_nanos: ts, worker, event });
            }
        }
    }
}

/// One recorded event, tagged with its worker and timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedEvent {
    /// Nanoseconds since the trace epoch ([`crate::now_nanos`]).
    pub ts_nanos: u64,
    /// The worker that recorded the event.
    pub worker: u32,
    /// The event itself.
    pub event: TraceEvent,
}

/// A merged, time-ordered view of every worker's ring.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Events sorted by timestamp; ties keep each worker's ring order.
    pub events: Vec<TaggedEvent>,
    /// Per worker: events ever recorded (including overwritten ones).
    pub recorded: Vec<u64>,
    /// Per worker: events lost to capacity overwrites (or torn during
    /// this snapshot) and therefore absent from `events`.
    pub dropped: Vec<u64>,
}

impl TraceSnapshot {
    /// Total events across all workers present in this snapshot.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the snapshot holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of worker rings the snapshot covers.
    pub fn num_workers(&self) -> usize {
        self.recorded.len()
    }
}

/// The recording [`TraceSink`]: one bounded ring per worker.
///
/// Workers write only their own ring (enforced by the runtime's
/// single-thread-per-worker-id discipline); any thread may
/// [`snapshot`](RingTraceSink::snapshot) or [`drain`](RingTraceSink::drain)
/// concurrently. Events recorded for worker ids beyond `num_workers` are
/// silently discarded (e.g. a sink sized for a smaller pool).
///
/// Events recorded through [`TraceSink::record_external`] (watchdog
/// reporters, supervision paths — any thread, any time) land in one extra
/// shared ring whose writers serialize on a mutex; snapshots tag them
/// with the pseudo worker id `num_workers`.
pub struct RingTraceSink {
    rings: Box<[WorkerRing]>,
    external: WorkerRing,
    /// Serializes `record_external` callers so the external ring keeps
    /// the owner-only write discipline `WorkerRing::push` assumes (the
    /// unlock/lock pair is the happens-before edge between writers).
    external_writer: Mutex<()>,
}

impl RingTraceSink {
    /// A sink with [`DEFAULT_RING_CAPACITY`] events per worker.
    pub fn new(num_workers: usize) -> Self {
        Self::with_capacity(num_workers, DEFAULT_RING_CAPACITY)
    }

    /// A sink retaining the newest `capacity` events per worker
    /// (`capacity` is rounded up to a power of two, minimum 2).
    pub fn with_capacity(num_workers: usize, capacity: usize) -> Self {
        crate::init_clock();
        let capacity = capacity.max(2).next_power_of_two();
        RingTraceSink {
            rings: (0..num_workers).map(|_| WorkerRing::new(capacity)).collect(),
            external: WorkerRing::new(capacity),
            external_writer: Mutex::new(()),
        }
    }

    /// Number of per-worker rings.
    pub fn num_workers(&self) -> usize {
        self.rings.len()
    }

    /// Events retained per worker.
    pub fn capacity(&self) -> usize {
        self.rings.first().map_or(0, |r| r.slots.len())
    }

    /// Merge every ring's still-available events into one time-ordered
    /// snapshot. Non-destructive; safe to call while workers record.
    pub fn snapshot(&self) -> TraceSnapshot {
        self.collect(false)
    }

    /// Like [`snapshot`](Self::snapshot), but only events recorded since
    /// the previous `drain`, and advances the per-ring read cursor.
    /// Intended for a single coordinating reader (e.g. between loops of a
    /// benchmark run); concurrent drains may split events between them.
    pub fn drain(&self) -> TraceSnapshot {
        self.collect(true)
    }

    fn collect(&self, consume: bool) -> TraceSnapshot {
        let mut events = Vec::new();
        let mut recorded = Vec::with_capacity(self.rings.len());
        let mut dropped = Vec::with_capacity(self.rings.len());
        for (w, ring) in self.rings.iter().enumerate() {
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            let floor = if consume { ring.read_cursor.load(Ordering::Acquire) } else { 0 };
            let lo = head.saturating_sub(cap).max(floor);
            let before = events.len() as u64;
            ring.read_window(lo, head, w as u32, &mut events);
            if consume {
                ring.read_cursor.store(head, Ordering::Release);
            }
            recorded.push(head - floor);
            dropped.push((head - floor) - (events.len() as u64 - before));
        }
        // The shared external ring rides along tagged with the pseudo
        // worker id `num_workers`; its counts stay out of the per-worker
        // `recorded`/`dropped` vectors (those are per *worker*).
        {
            let ring = &self.external;
            let head = ring.head.load(Ordering::Acquire);
            let cap = ring.slots.len() as u64;
            let floor = if consume { ring.read_cursor.load(Ordering::Acquire) } else { 0 };
            let lo = head.saturating_sub(cap).max(floor);
            ring.read_window(lo, head, self.rings.len() as u32, &mut events);
            if consume {
                ring.read_cursor.store(head, Ordering::Release);
            }
        }
        // Stable by timestamp: per-worker ring order survives ties because
        // each ring's events were appended in order.
        events.sort_by_key(|e| e.ts_nanos);
        TraceSnapshot { events, recorded, dropped }
    }
}

impl TraceSink for RingTraceSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, worker: usize, event: TraceEvent) {
        if let Some(ring) = self.rings.get(worker) {
            ring.push(event);
        }
    }

    fn record_external(&self, event: TraceEvent) {
        let guard = self.external_writer.lock().unwrap_or_else(|e| e.into_inner());
        self.external.push(event);
        drop(guard);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_with_timestamps() {
        let sink = RingTraceSink::with_capacity(2, 16);
        sink.record(0, TraceEvent::JobPushed);
        sink.record(1, TraceEvent::Stolen { victim: 0 });
        sink.record(0, TraceEvent::JobPopped);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.recorded, vec![2, 1]);
        assert_eq!(snap.dropped, vec![0, 0]);
        let w0: Vec<_> = snap.events.iter().filter(|e| e.worker == 0).collect();
        assert_eq!(w0[0].event, TraceEvent::JobPushed);
        assert_eq!(w0[1].event, TraceEvent::JobPopped);
        assert!(w0[0].ts_nanos <= w0[1].ts_nanos);
    }

    #[test]
    fn wraparound_keeps_newest_and_counts_dropped() {
        let sink = RingTraceSink::with_capacity(1, 8);
        for v in 0..100u32 {
            sink.record(0, TraceEvent::Stolen { victim: v });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.recorded, vec![100]);
        assert_eq!(snap.dropped, vec![92]);
        let victims: Vec<u32> = snap
            .events
            .iter()
            .map(|e| match e.event {
                TraceEvent::Stolen { victim } => victim,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(victims, (92..100).collect::<Vec<_>>());
    }

    #[test]
    fn drain_consumes_and_resumes() {
        let sink = RingTraceSink::with_capacity(1, 64);
        sink.record(0, TraceEvent::Parked);
        sink.record(0, TraceEvent::Unparked);
        let first = sink.drain();
        assert_eq!(first.len(), 2);
        assert!(sink.drain().is_empty());
        sink.record(0, TraceEvent::StealFailed);
        let second = sink.drain();
        assert_eq!(second.len(), 1);
        assert_eq!(second.events[0].event, TraceEvent::StealFailed);
        // A full snapshot still sees everything the ring retains.
        assert_eq!(sink.snapshot().len(), 3);
    }

    #[test]
    fn out_of_range_worker_ids_are_discarded() {
        let sink = RingTraceSink::with_capacity(2, 8);
        sink.record(5, TraceEvent::JobPushed);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn external_events_ride_along_with_pseudo_worker_id() {
        let sink = RingTraceSink::with_capacity(2, 8);
        sink.record(0, TraceEvent::JobPushed);
        sink.record_external(TraceEvent::WorkerQuarantined { worker: 1 });
        sink.record_external(TraceEvent::OrphanRescued { from: 1 });
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        // Per-worker accounting is untouched by external events.
        assert_eq!(snap.recorded, vec![1, 0]);
        assert_eq!(snap.dropped, vec![0, 0]);
        let ext: Vec<_> = snap.events.iter().filter(|e| e.worker == 2).collect();
        assert_eq!(ext.len(), 2);
        assert_eq!(ext[0].event, TraceEvent::WorkerQuarantined { worker: 1 });
        assert_eq!(ext[1].event, TraceEvent::OrphanRescued { from: 1 });
        // Drain consumes the external ring alongside the worker rings.
        assert_eq!(sink.drain().len(), 3);
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn external_writers_may_race() {
        let sink = RingTraceSink::with_capacity(1, 256);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..32 {
                        sink.record_external(TraceEvent::GrainAdjusted { site: 0, grain: 64 });
                    }
                });
            }
        });
        assert_eq!(sink.snapshot().len(), 128);
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(RingTraceSink::with_capacity(1, 0).capacity(), 2);
        assert_eq!(RingTraceSink::with_capacity(1, 5).capacity(), 8);
        assert_eq!(RingTraceSink::with_capacity(1, 8).capacity(), 8);
    }
}
