//! `BENCHMARK.json` and the code agree on what is measured.

use std::path::Path;

use servo_benchmark::json::Json;
use servo_benchmark::metrics::{higher_is_better, END_TO_END, PER_LAYER};
use servo_benchmark::workloads::NAMES;
use servo_benchmark::DEFAULT_SECONDS;

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
}

#[test]
fn names_units_and_directions_match_the_code() {
    let doc = benchmark_json();
    let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

    let workloads: Vec<String> = list("workloads")
        .iter()
        .map(|w| field(w, "name").to_string())
        .collect();
    assert_eq!(workloads, NAMES);

    let end_to_end = list("end_to_end");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (entry, (name, unit)) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "unit"), unit);
        let better = if higher_is_better(name) {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(entry, "better"), better, "{name}");
        let bound = entry.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }

    let per_layer = list("per_layer");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (entry, (name, unit)) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(field(entry, "name"), name);
        assert_eq!(field(entry, "unit"), unit);
    }

    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::str("benchmark")]))
    );
    assert_eq!(
        doc.get("command"),
        Some(&Json::Arr(vec![
            Json::str("bash"),
            Json::str("benchmark/run.sh")
        ]))
    );
}
