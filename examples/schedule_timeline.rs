//! Visualize how each scheme distributes one loop's chunks over workers —
//! an ASCII utilization profile from the simulator's chunk trace — and
//! capture a *real* threaded hybrid loop as a Chrome trace
//! (`results/schedule_timeline.trace.json`, open in `chrome://tracing` or
//! <https://ui.perfetto.dev>).
//!
//! ```text
//! cargo run --release --example schedule_timeline [balanced|unbalanced]
//! ```

use std::sync::Arc;

use parloop::sim::{micro_app, simulate_traced, MicroParams, PolicyKind, SimConfig};
use parloop::trace::{export, metrics, RingTraceSink};
use parloop::{par_for, Schedule, ThreadPoolBuilder};

fn bar(frac: f64, width: usize) -> String {
    let filled = (frac * width as f64).round() as usize;
    let mut s = String::new();
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

fn main() {
    let balanced = std::env::args().nth(1).as_deref() != Some("unbalanced");
    let p = 8;
    let mut params = MicroParams::new(4 << 20, balanced);
    params.iterations = 128;
    params.outer = 2;
    let app = micro_app(params);
    let cfg = SimConfig::xeon();

    println!(
        "Per-worker utilization of ONE {} micro loop (P = {p}, warm phase):\n",
        if balanced { "balanced" } else { "unbalanced" }
    );

    for kind in [PolicyKind::Hybrid, PolicyKind::Static, PolicyKind::Stealing, PolicyKind::Guided] {
        let (result, traces) = simulate_traced(&app, kind, p, &cfg);
        // Use the last (warm) loop instance.
        let t = traces.last().expect("at least one traced loop");
        let busy = t.busy_per_worker(p);
        let chunks = t.chunks_per_worker(p);
        let max_busy = busy.iter().cloned().fold(0.0, f64::max).max(1.0);

        println!("== {} (loop '{}', phase {}) ==", kind.name(), t.name, t.phase);
        for w in 0..p {
            println!(
                "  w{w}: [{}] {:>10.0} cycles, {:>3} chunks",
                bar(busy[w] / max_busy, 32),
                busy[w],
                chunks[w]
            );
        }
        let total_busy: f64 = busy.iter().sum();
        let span = max_busy;
        println!(
            "  balance = {:.2} (mean busy / max busy; 1.0 is perfect), total {:.2e} cycles\n",
            (total_busy / p as f64) / span,
            result.total_cycles
        );
    }
    println!("Static shows the raw imbalance; hybrid's stealing evens it out");
    println!("while keeping most chunks on their earmarked workers.");

    emit_real_trace();
}

/// Run one real threaded hybrid loop with the tracing layer attached and
/// export the event timeline as Chrome trace JSON.
fn emit_real_trace() {
    let p = 4;
    let n = 1usize << 14;
    parloop::trace::init_clock();
    let sink = Arc::new(RingTraceSink::new(p));
    let pool = ThreadPoolBuilder::new()
        .num_workers(p)
        .trace_sink(Arc::<RingTraceSink>::clone(&sink))
        .build();

    par_for(&pool, 0..n, Schedule::hybrid().with_grain(64), |i| {
        std::hint::black_box(i.wrapping_mul(0x9e37_79b9));
    });

    let snap = sink.drain();
    let counts = metrics::event_counts(&snap);
    std::fs::create_dir_all("results").expect("create results/");
    let json = export::chrome_trace_json(&snap);
    std::fs::write("results/schedule_timeline.trace.json", &json).expect("write trace JSON");
    println!(
        "\nCaptured a real threaded hybrid loop (P = {p}, n = {n}): {} events, \
         {} chunks, {} steals.",
        snap.len(),
        counts.chunks,
        counts.steals
    );
    println!("Wrote results/schedule_timeline.trace.json — open it in chrome://tracing.");
}
