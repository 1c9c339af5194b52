//! `BENCHMARK.json` at the repository root names the same metrics, units
//! and directions that `drive` prints.

use ida_sweep::jsonv::{self, JsonValue};
use idabench::cli::gated_per_layer;
use idabench::metrics::{def, Workload, GATED_END_TO_END};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    jsonv::parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    match doc.get(key) {
        Some(JsonValue::Arr(items)) => items,
        other => panic!("{key} is not an array: {other:?}"),
    }
}

fn field<'a>(entry: &'a JsonValue, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
}

#[test]
fn end_to_end_metrics_match_the_registry() {
    let doc = benchmark_json();
    let listed = entries(&doc, "end_to_end");
    let names: Vec<&str> = listed.iter().map(|e| field(e, "name")).collect();
    assert_eq!(names, GATED_END_TO_END);
    let mut largest = 0.0;
    for e in listed {
        let d = def(field(e, "name")).expect("registered metric");
        assert_eq!((field(e, "unit"), field(e, "better")), (d.unit, d.better));
        let bound = e.get("bound").and_then(JsonValue::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", d.name);
        largest = f64::max(largest, bound);
    }
    let setup = listed
        .iter()
        .find(|e| field(e, "name") == "setup_s")
        .unwrap();
    assert_eq!(
        setup.get("bound").and_then(JsonValue::as_f64),
        Some(largest)
    );
}

#[test]
fn per_layer_metrics_match_the_registry() {
    let doc = benchmark_json();
    let listed: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|e| (field(e, "name"), field(e, "unit"), field(e, "better")))
        .collect();
    let want: Vec<(&str, &str, &str)> = gated_per_layer()
        .iter()
        .map(|d| (d.name, d.unit, d.better))
        .collect();
    assert_eq!(listed, want);
}

#[test]
fn workloads_match_the_registry() {
    let doc = benchmark_json();
    let names: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|e| field(e, "name"))
        .collect();
    let want: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, want);
}
