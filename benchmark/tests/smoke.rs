//! `--quick` smoke: every workload, untraced and traced, with millisecond
//! windows — and a check that each run emits exactly the metrics that
//! `BENCHMARK.json` names, with its units, in the contract's result shape.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use std::collections::BTreeMap;
use std::process::Command;

use json::Value;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of the spec.
fn named(spec: &Value, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("spec has no {list}"))
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn run_quick(workload: &str, trace: &str) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_ano-benchmark"))
        .args([
            "run",
            "--quick",
            "--workload",
            workload,
            "--seed",
            "7",
            "--trace",
            trace,
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn spec_lists_the_five_workloads_and_a_setup_metric() {
    let spec = spec();
    let workloads = named_workloads(&spec);
    assert_eq!(
        workloads,
        [
            "stream_1flow",
            "fleet_rss_64flow",
            "lossy_resync_8flow",
            "rr_nvme_tls_c1",
            "stream_real_4flow"
        ]
    );
    let e2e = named(&spec, "end_to_end");
    assert_eq!(e2e.get("setup_s").map(String::as_str), Some("s"));
    assert_eq!(
        spec.get("paths").and_then(Value::as_arr).map(|p| p.len()),
        Some(1),
        "the benchmark lives in one directory"
    );
}

fn named_workloads(spec: &Value) -> Vec<String> {
    spec.get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_emits_every_named_metric() {
    let spec = spec();
    for workload in named_workloads(&spec) {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let expected = named(&spec, list);
            let result = run_quick(&workload, trace);
            let keys: Vec<&str> = result
                .as_obj()
                .expect("result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(
                result.get("correct"),
                Some(&Value::Bool(true)),
                "{workload} --trace {trace}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{workload}"
            );
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
            let got: BTreeMap<String, String> = result
                .get("metrics")
                .and_then(Value::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(name, m)| {
                    let entry: Vec<&str> = m
                        .as_obj()
                        .expect("metric object")
                        .iter()
                        .map(|(k, _)| k.as_str())
                        .collect();
                    assert_eq!(entry, ["value", "unit"], "{name}");
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(got, expected, "{workload} --trace {trace}: names and units");
            if trace == "0" {
                for (name, m) in result.get("metrics").and_then(Value::as_obj).unwrap() {
                    assert!(
                        m.get("value").and_then(Value::as_f64).unwrap() > 0.0,
                        "{workload}: end-to-end metric {name} is never 0"
                    );
                }
            }
        }
    }
}
