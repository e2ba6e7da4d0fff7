//! Runs the command on a scaled-down grid, end to end and traced, for
//! every workload in `BENCHMARK.json`, and checks that the result line
//! names exactly the metrics `BENCHMARK.json` declares, with their
//! units, and that the output gate passed.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    serde_json::parse_value(&text).expect("BENCHMARK.json parses")
}

fn array<'a>(value: &'a Value, key: &str) -> &'a [Value] {
    match value.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn string<'a>(value: &'a Value, key: &str) -> &'a str {
    match value.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key} is not a string: {other:?}"),
    }
}

/// (name, unit) pairs of one metric section.
fn declared(json: &Value, section: &str) -> Vec<(String, String)> {
    array(json, section)
        .iter()
        .map(|m| (string(m, "name").to_owned(), string(m, "unit").to_owned()))
        .collect()
}

fn run(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_campaignbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "11",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::parse_value(last).expect("the result line is JSON")
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let json = benchmark_json();
    for workload in array(&json, "workloads") {
        let name = string(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace);
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{name}");
            assert_eq!(result.get("failed"), Some(&Value::Int(0)), "{name}");
            let Some(Value::Object(metrics)) = result.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let reported: Vec<(String, String)> = metrics
                .iter()
                .map(|(metric, body)| (metric.clone(), string(body, "unit").to_owned()))
                .collect();
            assert_eq!(reported, declared(&json, section), "{name} --trace {trace}");
            for (metric, body) in metrics {
                assert!(
                    matches!(body.get("value"), Some(Value::Float(_) | Value::Int(_))),
                    "{name}: {metric} has no numeric value"
                );
            }
        }
    }
}
