//! The metrics the benchmark prints are the ones `BENCHMARK.json`
//! declares, with the same units.

use perfbench::{E2E_METRICS, LAYER_METRICS};

#[test]
fn printed_metrics_match_the_manifest() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in E2E_METRICS.iter().chain(LAYER_METRICS) {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(
            manifest.contains(&entry),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let declared = manifest.matches("\"unit\":").count();
    assert_eq!(
        declared,
        E2E_METRICS.len() + LAYER_METRICS.len(),
        "extra metrics declared"
    );
}
