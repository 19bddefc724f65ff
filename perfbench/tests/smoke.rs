//! Runs every workload at the tiny size and checks the result line
//! against `BENCHMARK.json`: every metric it names is printed with its
//! unit, every check passes, and every count repeats exactly across two
//! runs of one seed.

use std::path::PathBuf;
use std::process::Command;

use sat_obs::json::Json;

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the benchmark binary and returns its parsed result line.
fn run(workload: &str, trace: bool) -> Json {
    let trace_out =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("trace-{workload}.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }, "--size", "tiny"])
        .arg("--trace-out")
        .arg(&trace_out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let last = stdout.lines().last().expect("a result line");
    let v = Json::parse(last).expect("the result line is JSON");
    assert_eq!(
        v.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(v.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(v.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    if trace {
        let text = std::fs::read_to_string(&trace_out).expect("the trace was written");
        let trace = Json::parse(&text).expect("the trace is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents");
        assert!(events.len() > 2, "{workload}: the trace holds no spans");
    }
    v
}

/// Checks that every metric of `section` is printed with its unit and
/// returns the printed values.
fn metrics(result: &Json, spec: &Json, section: &str) -> Vec<(String, f64, String)> {
    let printed = result.get("metrics").expect("metrics");
    let mut out = Vec::new();
    for m in spec.get(section).and_then(Json::as_array).expect(section) {
        let name = m.get("name").and_then(Json::as_str).expect("name");
        let unit = m.get("unit").and_then(Json::as_str).expect("unit");
        let got = printed
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} is not printed"));
        assert_eq!(got.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        let value = got.get("value").and_then(Json::as_f64).expect("a number");
        assert!(value.is_finite(), "{name}");
        out.push((name.to_string(), value, unit.to_string()));
    }
    out
}

fn smoke(workload: &str) {
    let spec = benchmark_json();
    let listed = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .any(|w| w.get("name").and_then(Json::as_str) == Some(workload));
    assert!(listed, "{workload} is not in BENCHMARK.json");

    // End to end: the simulated cycles repeat exactly; no metric is 0.
    let a = metrics(&run(workload, false), &spec, "end_to_end");
    let b = metrics(&run(workload, false), &spec, "end_to_end");
    for ((name, x, _), (_, y, _)) in a.iter().zip(&b) {
        assert!(*x > 0.0, "{workload}: {name} is {x}");
        if name.starts_with("sim_mcycles") {
            assert_eq!(x, y, "{workload}: {name} differs between runs");
        }
    }

    // Per layer: every count (anything not a host time) repeats.
    let a = metrics(&run(workload, true), &spec, "per_layer");
    let b = metrics(&run(workload, true), &spec, "per_layer");
    for ((name, x, unit), (_, y, _)) in a.iter().zip(&b) {
        if !matches!(unit.as_str(), "ns" | "%") {
            assert_eq!(x, y, "{workload}: {name} differs between runs");
        }
    }
}

#[test]
fn steady() {
    smoke("steady");
}

#[test]
fn churn() {
    smoke("churn");
}

#[test]
fn pressure() {
    smoke("pressure");
}

#[test]
fn promote() {
    smoke("promote");
}
