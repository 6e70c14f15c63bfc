//! The benchmark's self-test: every workload at a small size, timed and
//! traced, with its metric names checked against `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::run::{check_gapped_scene, run, RunConfig};
use perfbench::valid_metric_name;
use perfbench::workloads::{Kind, Scale, Workload, WORKLOADS};

/// The metric names declared under `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is an array")];
    body.split("\"name\"")
        .skip(1)
        .map(|entry| {
            let quoted = entry.split('"').nth(1).expect("a quoted name");
            quoted.to_string()
        })
        .collect()
}

fn small(kind: Kind, trace: bool) -> RunConfig {
    RunConfig {
        scale: Scale::small(),
        // Eight calls reach every Fig 12a distance on `localize`.
        min_calls: 8,
        spans_dir: None,
        ..RunConfig::new(kind, 7, 0.0, trace)
    }
}

fn check_names(kind: Kind, trace: bool, section: &str) {
    let res = run(&small(kind, trace)).unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
    assert!(
        res.correct,
        "{} trace={trace}: {}",
        kind.name(),
        res.provenance_json()
    );
    assert_eq!(res.failed, 0);
    assert!(res.attempted >= 8);
    let printed: Vec<&str> = res.metrics.iter().map(|m| m.name.as_str()).collect();
    let declared = declared(section);
    for name in &printed {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        assert!(
            declared.iter().any(|d| d == name),
            "{name} is printed but not declared under {section}"
        );
    }
    for name in &declared {
        assert!(
            printed.contains(&name.as_str()),
            "{name} is declared under {section} but {} does not print it",
            kind.name()
        );
    }
    assert_eq!(
        printed.len(),
        declared.len(),
        "a metric is printed twice by {}",
        kind.name()
    );
    let line = res.result_json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn every_workload_runs_timed_with_declared_metrics() {
    for name in WORKLOADS {
        check_names(Kind::from_name(name).expect("known"), false, "end_to_end");
    }
}

#[test]
fn every_workload_runs_traced_with_declared_metrics() {
    for name in WORKLOADS {
        check_names(Kind::from_name(name).expect("known"), true, "per_layer");
    }
}

#[test]
fn city_digest_is_the_same_at_one_and_two_workers() {
    let mut w = Workload::build(Kind::City, Scale::small()).expect("city builds");
    for call in 0..2 {
        let seed = milback_bench::runner::trial_seed(7, call);
        let one = w.call_on(call, seed, 1).expect("1 worker");
        let two = w.call_on(call, seed, 2).expect("2 workers");
        assert_eq!(one.digest, two.digest);
        assert!(one.attempts > 0 && one.delivered <= one.attempts);
    }
}

#[test]
fn rebuilt_gapped_scene_matches_the_relay_experiment() {
    check_gapped_scene().expect("gap-node counts agree");
}

#[test]
fn unknown_workloads_are_rejected() {
    assert!(Kind::from_name("nope").is_none());
    assert_eq!(WORKLOADS.len(), 4);
}
