//! Serialization of trace snapshots: Chrome `chrome://tracing` JSON (also
//! loadable in Perfetto) and flat CSV. Hand-rolled writers — the workspace
//! is dependency-free.

use std::fmt::Write as _;

use crate::{TraceEvent, TraceSnapshot};

/// Duration-event kinds that come as start/end pairs in the taxonomy.
/// Matched pairs become Chrome "X" (complete) events; halves orphaned by
/// ring overwrites are dropped so the JSON always loads cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanKind {
    Chunk,
    Park,
}

enum Record {
    Open(SpanKind, String),
    Close(SpanKind),
    Instant(&'static str, String),
}

fn classify(event: &TraceEvent) -> Option<Record> {
    Some(match *event {
        TraceEvent::ChunkStart { start, len } => {
            Record::Open(SpanKind::Chunk, format!(r#"{{"start":{start},"len":{len}}}"#))
        }
        TraceEvent::ChunkEnd { .. } => Record::Close(SpanKind::Chunk),
        TraceEvent::Parked => Record::Open(SpanKind::Park, "{}".into()),
        TraceEvent::Unparked => Record::Close(SpanKind::Park),
        TraceEvent::Stolen { victim } => {
            Record::Instant("steal", format!(r#"{{"victim":{victim}}}"#))
        }
        TraceEvent::StealFailed => Record::Instant("steal_failed", "{}".into()),
        TraceEvent::ClaimAttempt { success, index, partition } => Record::Instant(
            "claim",
            format!(r#"{{"success":{success},"index":{index},"partition":{partition}}}"#),
        ),
        TraceEvent::HybridFrameStolen => Record::Instant("frame_stolen", "{}".into()),
        TraceEvent::FrameReinstantiated => Record::Instant("frame_republished", "{}".into()),
        TraceEvent::FaultInjected { site, action } => {
            Record::Instant("fault_injected", format!(r#"{{"site":{site},"action":{action}}}"#))
        }
        TraceEvent::WorkerDegraded => Record::Instant("worker_degraded", "{}".into()),
        TraceEvent::WatchdogStall => Record::Instant("watchdog_stall", "{}".into()),
        TraceEvent::InjectLane { lane } => {
            Record::Instant("inject_lane", format!(r#"{{"lane":{lane}}}"#))
        }
        TraceEvent::WakeTargeted => Record::Instant("wake_targeted", "{}".into()),
        TraceEvent::BackstopWake => Record::Instant("backstop_wake", "{}".into()),
        TraceEvent::AssistJoin => Record::Instant("assist_join", "{}".into()),
        TraceEvent::AssistChunk { start, len } => {
            Record::Instant("assist_chunk", format!(r#"{{"start":{start},"len":{len}}}"#))
        }
        TraceEvent::GrainAdjusted { site, grain } => {
            Record::Instant("grain_adjusted", format!(r#"{{"site":{site},"grain":{grain}}}"#))
        }
        // Push/pop are too fine for a timeline view; CSV keeps them.
        TraceEvent::JobPushed | TraceEvent::JobPopped => return None,
    })
}

fn span_name(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Chunk => "chunk",
        SpanKind::Park => "parked",
    }
}

/// Microseconds (Chrome's `ts` unit) with nanosecond precision.
fn micros(ts_nanos: u64) -> String {
    format!("{:.3}", ts_nanos as f64 / 1000.0)
}

/// Render a snapshot as Chrome trace-event JSON (object format). Open it
/// via `chrome://tracing` or <https://ui.perfetto.dev>: one row per
/// worker, chunk-execution and park spans as complete events, steals and
/// claims as instants.
pub fn chrome_trace_json(snap: &TraceSnapshot) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut emit = |s: String, out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str(&s);
    };

    for w in 0..snap.num_workers() {
        emit(
            format!(
                r#"{{"ph":"M","name":"thread_name","pid":0,"tid":{w},"args":{{"name":"worker {w}"}}}}"#
            ),
            &mut out,
        );
    }

    // Per-worker span stacks; spans nest (a chunk body may run a nested
    // parallel loop whose leaf chunks execute on the same worker).
    let mut stacks: Vec<Vec<(SpanKind, u64, String)>> = vec![Vec::new(); snap.num_workers() + 1];
    for e in &snap.events {
        let tid = e.worker;
        let stack = &mut stacks[(tid as usize).min(snap.num_workers())];
        match classify(&e.event) {
            Some(Record::Open(kind, args)) => stack.push((kind, e.ts_nanos, args)),
            Some(Record::Close(kind)) => {
                // Pop the innermost matching open; unmatched closes (their
                // start was overwritten in the ring) are dropped.
                if let Some(pos) = stack.iter().rposition(|(k, _, _)| *k == kind) {
                    let (_, t0, args) = stack.remove(pos);
                    let dur = e.ts_nanos.saturating_sub(t0);
                    emit(
                        format!(
                            r#"{{"ph":"X","name":"{}","pid":0,"tid":{tid},"ts":{},"dur":{},"args":{args}}}"#,
                            span_name(kind),
                            micros(t0),
                            micros(dur),
                        ),
                        &mut out,
                    );
                }
            }
            Some(Record::Instant(name, args)) => emit(
                format!(
                    r#"{{"ph":"i","name":"{name}","pid":0,"tid":{tid},"ts":{},"s":"t","args":{args}}}"#,
                    micros(e.ts_nanos),
                ),
                &mut out,
            ),
            None => {}
        }
    }

    out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{\"producer\":\"parloop-trace\"}}");
    out
}

/// Render a snapshot as CSV: one row per event, sparse columns for the
/// per-kind payload fields.
pub fn csv(snap: &TraceSnapshot) -> String {
    let mut out = String::from(
        "ts_nanos,worker,event,success,index,partition,victim,start,len,site,action,lane\n",
    );
    for e in &snap.events {
        let (mut success, mut index, mut partition, mut victim, mut start, mut len) = (
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        );
        let (mut site, mut action, mut lane) = (String::new(), String::new(), String::new());
        match e.event {
            TraceEvent::Stolen { victim: v } => victim = v.to_string(),
            TraceEvent::InjectLane { lane: l } => lane = l.to_string(),
            TraceEvent::ClaimAttempt { success: s, index: i, partition: p } => {
                success = (s as u8).to_string();
                index = i.to_string();
                partition = p.to_string();
            }
            TraceEvent::ChunkStart { start: s, len: l }
            | TraceEvent::ChunkEnd { start: s, len: l }
            | TraceEvent::AssistChunk { start: s, len: l } => {
                start = s.to_string();
                len = l.to_string();
            }
            TraceEvent::FaultInjected { site: s, action: a } => {
                site = s.to_string();
                action = a.to_string();
            }
            // Sparse-column reuse (like `victim` doubling as a worker id):
            // `index` carries the new grain.
            TraceEvent::GrainAdjusted { site: s, grain: g } => {
                site = s.to_string();
                index = g.to_string();
            }
            _ => {}
        }
        let _ = writeln!(
            out,
            "{},{},{},{success},{index},{partition},{victim},{start},{len},{site},{action},{lane}",
            e.ts_nanos,
            e.worker,
            e.event.name(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaggedEvent;

    fn snap(events: Vec<(u64, u32, TraceEvent)>) -> TraceSnapshot {
        TraceSnapshot {
            recorded: vec![0; 2],
            dropped: vec![0; 2],
            events: events
                .into_iter()
                .map(|(ts_nanos, worker, event)| TaggedEvent { ts_nanos, worker, event })
                .collect(),
        }
    }

    #[test]
    fn chrome_pairs_spans_and_drops_orphans() {
        let s = snap(vec![
            (1_000, 0, TraceEvent::ChunkStart { start: 0, len: 8 }),
            (2_000, 1, TraceEvent::ChunkEnd { start: 64, len: 8 }), // orphan close
            (3_000, 0, TraceEvent::ChunkEnd { start: 0, len: 8 }),
            (4_000, 1, TraceEvent::Stolen { victim: 2 }),
        ]);
        let json = chrome_trace_json(&s);
        assert_eq!(json.matches(r#""ph":"X""#).count(), 1, "{json}");
        assert!(json.contains(r#""dur":2.000"#), "{json}");
        assert!(json.contains(r#""name":"steal""#));
        assert!(json.contains(r#""victim":2"#), "{json}");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn chrome_handles_nested_spans() {
        let s = snap(vec![
            (1, 0, TraceEvent::ChunkStart { start: 0, len: 64 }),
            (2, 0, TraceEvent::ChunkStart { start: 0, len: 8 }),
            (3, 0, TraceEvent::ChunkEnd { start: 0, len: 8 }),
            (4, 0, TraceEvent::ChunkEnd { start: 0, len: 64 }),
        ]);
        let json = chrome_trace_json(&s);
        assert_eq!(json.matches(r#""ph":"X""#).count(), 2, "{json}");
    }

    #[test]
    fn csv_has_header_and_fields() {
        let s = snap(vec![
            (5, 0, TraceEvent::ClaimAttempt { success: true, index: 2, partition: 6 }),
            (6, 1, TraceEvent::ChunkEnd { start: 10, len: 4 }),
            (7, 0, TraceEvent::FaultInjected { site: 4, action: 1 }),
            (8, 1, TraceEvent::InjectLane { lane: 3 }),
            (16, 3, TraceEvent::Stolen { victim: 7 }),
        ]);
        let text = csv(&s);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].starts_with("ts_nanos,worker,event"));
        assert_eq!(lines[1], "5,0,claim_attempt,1,2,6,,,,,,");
        assert_eq!(lines[2], "6,1,chunk_end,,,,,10,4,,,");
        assert_eq!(lines[3], "7,0,fault_injected,,,,,,,4,1,");
        assert_eq!(lines[4], "8,1,inject_lane,,,,,,,,,3");
        assert_eq!(lines[5], "16,3,stolen,,,,7,,,,,");
    }

    #[test]
    fn chaos_events_render_as_instants() {
        let s = snap(vec![
            (1, 0, TraceEvent::FaultInjected { site: 2, action: 1 }),
            (2, 1, TraceEvent::WorkerDegraded),
            (3, 0, TraceEvent::WatchdogStall),
        ]);
        let json = chrome_trace_json(&s);
        assert!(json.contains(r#""name":"fault_injected""#), "{json}");
        assert!(json.contains(r#""site":2,"action":1"#), "{json}");
        assert!(json.contains(r#""name":"worker_degraded""#));
        assert!(json.contains(r#""name":"watchdog_stall""#));
    }

    #[test]
    fn injection_and_wake_events_render_as_instants() {
        let s = snap(vec![
            (1, 0, TraceEvent::InjectLane { lane: 2 }),
            (2, 1, TraceEvent::WakeTargeted),
            (3, 1, TraceEvent::BackstopWake),
        ]);
        let json = chrome_trace_json(&s);
        assert!(json.contains(r#""name":"inject_lane""#), "{json}");
        assert!(json.contains(r#""lane":2"#), "{json}");
        assert!(json.contains(r#""name":"wake_targeted""#));
        assert!(json.contains(r#""name":"backstop_wake""#));
    }
}
