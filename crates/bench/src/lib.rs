//! Shared support for the figure harness binaries: aligned-table printing
//! and the standard scheme/worker sweeps.
//!
//! Each binary under `src/bin/` regenerates one of the paper's figures —
//! see DESIGN.md's per-experiment index and EXPERIMENTS.md for the
//! recorded outputs:
//!
//! | binary          | regenerates |
//! |-----------------|-------------|
//! | `fig1_micro`    | Figure 1 — work efficiency + scalability, both microbenchmarks × 3 working sets |
//! | `fig2_affinity` | Figure 2 — % iterations on the same core in consecutive loops |
//! | `fig3_nas`      | Figure 3 — NAS kernel scalability |
//! | `fig4_counters` | Figure 4 — memory-hierarchy access counts + inferred latency |
//! | `fig5_latency`  | Figure 5 — per-level access latency of the modeled machine |
//!
//! The acceptance bins that track series across commits (`split_bench`,
//! `locality_bench`, `adapt_bench`) report them through
//! [`merge_bench_json`].

use parloop_sim::PolicyKind;

pub mod irregular;

/// A simple left-aligned text table.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for c in 0..cols {
                if c > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[c], width = widths[c]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// The worker counts the paper sweeps (compact pinning on 4 sockets).
pub const WORKER_SWEEP: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// A reduced sweep for `--quick` runs.
pub const WORKER_SWEEP_QUICK: [usize; 4] = [1, 4, 16, 32];

/// The schemes in the order the paper's legends list them.
pub fn scheme_roster() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Hybrid,
        PolicyKind::Static,
        PolicyKind::WorkSharing,
        PolicyKind::Guided,
        PolicyKind::Stealing,
        PolicyKind::StaticSharing,
    ]
}

/// `true` if `--quick` was passed on the command line.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Format a ratio like `3.94`.
pub fn r2(v: f64) -> String {
    format!("{v:.2}")
}

/// Best-of-`reps` wall-clock time of `f`, in nanoseconds (plain
/// `Instant`, no external benchmarking deps). Runs one untimed warmup
/// first. The minimum is the conventional low-noise estimator for
/// overhead-dominated microbenchmarks.
pub fn time_best_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = std::time::Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos() as f64);
    }
    best
}

/// The `--bench-json PATH` argument of the bins that report into the flat
/// cross-commit file (`BENCH_parloop.json`), if one was given.
pub fn bench_json_arg() -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--bench-json" {
            return Some(args.next().expect("--bench-json requires a path"));
        }
    }
    None
}

/// Merge `(name, value, unit)` series into the flat cross-commit file at
/// `path`: `{"benchmark": "parloop", "results": [{name, value, unit}, ...]}`
/// with one entry per line. `value` is a JSON number already rendered at
/// the precision its bin chose.
///
/// A name already in the file is replaced in place (and any later copy of
/// it dropped), a new name is appended, and every other entry is kept in
/// its order — so one bin can re-run alone, and series whose engines are
/// gone stay on record. A missing file is created.
pub fn merge_bench_json(path: &str, entries: &[(String, String, &str)]) {
    let existing = match std::fs::read_to_string(path) {
        Ok(doc) => doc,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
        Err(e) => panic!("read {path}: {e}"),
    };
    let mut lines: Vec<(String, String)> = existing
        .lines()
        .filter(|l| l.contains("\"name\":"))
        .map(|l| {
            let l = l.trim().trim_end_matches(',');
            let name = l
                .strip_prefix("{\"name\": \"")
                .and_then(|rest| rest.split('"').next())
                .unwrap_or_else(|| panic!("{path}: unexpected entry layout: {l}"));
            (name.to_string(), l.to_string())
        })
        .collect();
    for (name, value, unit) in entries {
        let entry = format!("{{\"name\": \"{name}\", \"value\": {value}, \"unit\": \"{unit}\"}}");
        let mut kept = false;
        lines.retain_mut(|(n, l)| {
            if n != name {
                return true;
            }
            if kept {
                return false;
            }
            *l = entry.clone();
            kept = true;
            true
        });
        if !kept {
            lines.push((name.clone(), entry));
        }
    }
    let body: Vec<String> = lines.iter().map(|(_, l)| format!("    {l}")).collect();
    let doc = format!(
        "{{\n  \"benchmark\": \"parloop\",\n  \"results\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(path, doc).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Format a count in scientific notation like the paper's Figure 4.
pub fn sci(v: u64) -> String {
    if v == 0 {
        return "0".into();
    }
    let f = v as f64;
    let exp = f.log10().floor() as i32;
    format!("{:.2}e{}", f / 10f64.powi(exp), exp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn sci_formats_like_the_paper() {
        assert_eq!(sci(118_000_000_000), "1.18e11");
        assert_eq!(sci(0), "0");
        assert_eq!(sci(5), "5.00e0");
    }

    #[test]
    fn roster_has_six_schemes() {
        assert_eq!(scheme_roster().len(), 6);
    }

    fn entry(name: &str, value: &str, unit: &'static str) -> (String, String, &'static str) {
        (name.to_string(), value.to_string(), unit)
    }

    fn names(doc: &str) -> Vec<String> {
        doc.lines()
            .filter_map(|l| l.split("\"name\": \"").nth(1))
            .map(|rest| rest.split('"').next().unwrap().to_string())
            .collect()
    }

    #[test]
    fn bench_json_merge_replaces_by_name_and_keeps_foreign_entries() {
        let path =
            std::env::temp_dir().join(format!("parloop-bench-merge-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap();
        let _ = std::fs::remove_file(&path);

        // A missing file becomes a fresh, valid document.
        merge_bench_json(path_str, &[entry("a/x", "1.5", "ms"), entry("b/y", "7", "steals")]);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"benchmark\": \"parloop\",\n  \"results\": [\n    \
             {\"name\": \"a/x\", \"value\": 1.5, \"unit\": \"ms\"},\n    \
             {\"name\": \"b/y\", \"value\": 7, \"unit\": \"steals\"}\n  ]\n}\n"
        );

        // Another bin's series land after the foreign ones.
        merge_bench_json(path_str, &[entry("c/z", "0.25", "ratio")]);
        // Re-running the first bin twice replaces its values in place.
        for value in ["2.5", "3.5"] {
            merge_bench_json(path_str, &[entry("a/x", value, "ms"), entry("d/new", "9", "jobs")]);
        }
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(names(&doc), ["a/x", "b/y", "c/z", "d/new"]);
        assert!(doc.contains("{\"name\": \"a/x\", \"value\": 3.5, \"unit\": \"ms\"},"));
        assert!(doc.contains("{\"name\": \"c/z\", \"value\": 0.25, \"unit\": \"ratio\"},"));
        assert!(doc.ends_with("{\"name\": \"d/new\", \"value\": 9, \"unit\": \"jobs\"}\n  ]\n}\n"));

        // A file that already holds duplicates comes out unique.
        let dup = doc.replace(
            "    {\"name\": \"c/z\"",
            "    {\"name\": \"a/x\", \"value\": 0, \"unit\": \"ms\"},\n    {\"name\": \"c/z\"",
        );
        std::fs::write(&path, dup).unwrap();
        merge_bench_json(path_str, &[entry("a/x", "4.5", "ms")]);
        let doc = std::fs::read_to_string(&path).unwrap();
        assert_eq!(names(&doc), ["a/x", "b/y", "c/z", "d/new"]);
        assert!(doc.contains("\"value\": 4.5"));
        std::fs::remove_file(&path).unwrap();
    }
}
