//! The metrics a run reports match `BENCHMARK.json`, name for name and
//! unit for unit.

use evbench::layers::Layers;
use evbench::run::{EndToEnd, Outcome, Samples};

/// `(name, unit)` of every metric in the manifest section `key`.
fn declared(manifest: &str, key: &str) -> Vec<(String, String)> {
    let start = manifest.find(&format!("\"{key}\"")).unwrap();
    let section = &manifest[start..];
    let end = section.find(']').unwrap();
    let field = |entry: &str, f: &str| -> String {
        let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').unwrap() + 1;
        let close = rest[open..].find('"').unwrap();
        rest[open..open + close].to_string()
    };
    section[..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn reported(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn manifest() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
}

#[test]
fn end_to_end_metrics_match_the_manifest() {
    let mut out = Outcome::default();
    EndToEnd {
        setups: Vec::new(),
        samples: Samples::default(),
        recoveries_s: Vec::new(),
    }
    .report(&mut out);
    assert_eq!(reported(&out), declared(&manifest(), "end_to_end"));
}

#[test]
fn per_layer_metrics_match_the_manifest() {
    let mut out = Outcome::default();
    Layers::default().report(&mut out);
    assert_eq!(reported(&out), declared(&manifest(), "per_layer"));
}

#[test]
fn gated_workloads_exist() {
    let m = manifest();
    let start = m.find("\"workloads\"").unwrap();
    let section = &m[start..start + m[start..].find(']').unwrap()];
    let names: Vec<&str> = section
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').unwrap()])
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for n in names {
        assert!(evbench::WORKLOADS.contains(&n), "unknown workload {n}");
    }
}
