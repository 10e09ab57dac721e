//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark reports, with the units it reports them in.

use accturbo_perfbench::measure::{per_layer_names, END_TO_END};
use accturbo_perfbench::workload::Workload;
use std::path::Path;

fn benchmark_json() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_lists_every_workload_and_metric() {
    let json = benchmark_json();
    let mut expected = 0;
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())),
            "workload {} missing",
            w.name()
        );
        expected += 1;
    }
    let metrics = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_names());
    for (name, unit) in metrics {
        assert!(
            json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ")),
            "metric {name} ({unit}) missing"
        );
        expected += 1;
    }
    assert_eq!(
        json.matches("{\"name\": ").count(),
        expected,
        "BENCHMARK.json names something the benchmark does not report"
    );
}
