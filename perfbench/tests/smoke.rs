//! Smoke test of the benchmark: every workload at the tiny grid prints
//! exactly the metric names and units `BENCHMARK.json` declares, and a
//! corrupted reference makes the run fail.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["tables", "faults", "scaling_cold", "fleet"];

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let mut metrics: Vec<(String, String)> = spec
        .get(section)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect();
    metrics.sort();
    metrics
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ring-perfbench"))
        .args(["--grid", "tiny", "--seed", "3"])
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs")
}

/// The result line: the last line of standard output.
fn result(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the result line is JSON")
}

fn printed(result: &Value) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Value::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} has no finite value"
            );
            let unit = m.get("unit").and_then(Value::as_str).expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect();
    metrics.sort();
    metrics
}

#[test]
fn every_workload_prints_the_declared_end_to_end_metrics() {
    let expected = declared("end_to_end");
    for workload in WORKLOADS {
        let output = bench(&["--workload", workload, "--seconds", "0.2", "--trace", "0"]);
        assert!(
            output.status.success(),
            "{workload}: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let result = result(&output);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
        assert_eq!(printed(&result), expected, "{workload}");
    }
}

#[test]
fn the_traced_run_prints_the_declared_per_layer_metrics() {
    let output = bench(&["--workload", "tables", "--seconds", "0.5", "--trace", "1"]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = result(&output);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(printed(&result), declared("per_layer"));
}

#[test]
fn a_corrupted_reference_fails_the_run() {
    // `fleet` checks the daemon's bytes against the in-process reference,
    // so this covers the check across the process boundary too.
    for workload in ["tables", "fleet"] {
        let output = bench(&[
            "--workload",
            workload,
            "--seconds",
            "0.2",
            "--trace",
            "0",
            "--corrupt-reference",
        ]);
        assert_eq!(output.status.code(), Some(1), "{workload}");
        let result = result(&output);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(false));
        assert!(result.get("failed").and_then(Value::as_u64) >= Some(1));
    }
}
