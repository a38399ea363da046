//! Short runs of the benchmark binary: every workload prints every metric
//! `BENCHMARK.json` declares, with its unit, and a perturbed reference
//! makes every op count as failed.

use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["nas", "micro_unbalanced", "tiny_loops", "nested"];

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_loopbench"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn short_run(workload: &str, trace: &str, extra: &[&str]) -> String {
    let mut args =
        vec!["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", trace];
    args.extend_from_slice(extra);
    let out = run(&args);
    assert!(out.status.success(), "{workload} trace={trace}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn last_line(stdout: &str) -> &str {
    stdout.trim_end().lines().last().expect("a result line")
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = text.find(&format!("\"{section}\": [")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let tail =
            &entry[entry.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5..];
        tail[..tail.find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|entry| (field(entry, "name"), field(entry, "unit"))).collect()
}

fn counts(line: &str) -> (u64, u64) {
    let num = |key: &str| -> u64 {
        let tail =
            &line[line.find(&format!("\"{key}\": ")).expect("count present") + key.len() + 4..];
        tail[..tail.find(',').expect("count ends")].parse().expect("a whole number")
    };
    (num("attempted"), num("failed"))
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty());
        for workload in WORKLOADS {
            let stdout = short_run(workload, trace, &[]);
            let line = last_line(&stdout);
            assert!(line.starts_with("{\"correct\": true,"), "{workload}: {line}");
            let (attempted, failed) = counts(line);
            assert!(attempted >= 1 && failed == 0, "{workload}: {line}");
            for (name, unit) in &metrics {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = line.find(&key).unwrap_or_else(|| panic!("{workload}: no {name}"));
                let tail = &line[at + key.len()..];
                let (value, rest) = tail.split_once(',').expect("value ends");
                value.parse::<f64>().unwrap_or_else(|_| panic!("{workload}: {name}={value}"));
                assert!(
                    rest.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                    "{workload}: {name}"
                );
            }
            assert_eq!(
                line.matches("\"value\"").count(),
                metrics.len(),
                "{workload}: extra metrics"
            );
            let mode = if trace == "1" { "mode=traced" } else { "mode=untraced" };
            assert!(stdout.contains(mode) && stdout.contains("nproc="), "{workload}: metadata");
        }
    }
}

#[test]
fn perturbed_reference_counts_every_op_as_failed() {
    for workload in WORKLOADS {
        let stdout = short_run(workload, "0", &["--perturb-reference"]);
        let line = last_line(&stdout);
        assert!(line.starts_with("{\"correct\": false,"), "{workload}: {line}");
        let (attempted, failed) = counts(line);
        assert!(attempted >= 1 && failed == attempted, "{workload}: {line}");
        assert!(stdout.contains("# failed_frac=1 "), "{workload}: {stdout}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"][..],
        &["--workload", "nas", "--seed", "x", "--seconds", "1", "--trace", "0"],
        &["--workload", "nas", "--seed", "1", "--seconds", "1", "--trace", "2"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
