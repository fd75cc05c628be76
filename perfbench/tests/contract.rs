//! The benchmark's own tests: its printed metrics match `BENCHMARK.json`,
//! every workload runs at a tiny length with no failed check, and the
//! workload-premise checks hold and catch a violation.
//!
//! Run with `cargo test --manifest-path perfbench/Cargo.toml`.

use wdm_perfbench::{
    checks::Checks,
    rounds::{RoundCost, RoundOutput},
    run, Options, Workload, END_TO_END, PER_LAYER,
};
use wdm_sim::metrics::MetricsSnapshot;

const BENCHMARK_JSON: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));

/// The `"name"` values inside the JSON array that follows `key`.
fn names_in(key: &str) -> Vec<String> {
    let start = BENCHMARK_JSON
        .find(&format!("\"{key}\""))
        .expect("key present");
    let rest = &BENCHMARK_JSON[start..];
    let array = &rest[rest.find('[').expect("array")..rest.find(']').expect("array end")];
    array
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let e2e: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    let layer: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    assert_eq!(names_in("per_layer"), layer);
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_in("workloads"), workloads);
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(matches!(d.better, "higher" | "lower"));
        let json = format!(
            "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
            d.name, d.unit, d.better
        );
        assert!(
            BENCHMARK_JSON.contains(&json),
            "BENCHMARK.json lacks {json}"
        );
    }
}

/// A tiny-length run of `w`: simulated lengths far below the defaults.
fn smoke(w: Workload, trace: bool) -> wdm_perfbench::Report {
    let length = match w {
        Workload::Datapump => 2.0,
        _ => 0.02,
    };
    let r = run(&Options {
        workload: w,
        seed: 5,
        seconds: 0.01,
        trace,
        length,
    });
    let defs = if trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let printed: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    let expected: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(printed, expected);
    assert_eq!(r.failed, 0, "{} smoke run failed checks", w.name());
    assert!(r.attempted > 0);
    let json = r.to_json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    r
}

fn value(r: &wdm_perfbench::Report, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.0 == name)
        .expect("metric printed")
        .1
}

#[test]
fn smoke_grid() {
    let r = smoke(Workload::Grid, false);
    assert!(value(&r, "sim_speed") > 0.0 && value(&r, "table3_err") > 0.0);
    let t = smoke(Workload::Grid, true);
    assert_eq!(value(&t, "latency.blame.watched_resumes"), 0.0);
    assert!(value(&t, "latency.staged_samples") > 0.0);
    assert!(value(&t, "sim.notify_takes") > 0.0);
}

#[test]
fn smoke_datapump() {
    smoke(Workload::Datapump, false);
    let t = smoke(Workload::Datapump, true);
    assert_eq!(value(&t, "sim.notify_takes"), 0.0);
    assert_eq!(value(&t, "latency.staged_samples"), 0.0);
}

#[test]
fn smoke_forensics() {
    smoke(Workload::Forensics, false);
    let t = smoke(Workload::Forensics, true);
    assert!(value(&t, "latency.blame.watched_resumes") > 0.0);
    assert!(value(&t, "sim.flight.ring_peak") > 0.0);
}

/// A round whose registry holds `counters`.
fn round_with(counters: &[(&str, u64)]) -> RoundOutput {
    let mut registry = MetricsSnapshot::new();
    for &(name, v) in counters {
        registry.counter(name, v);
    }
    RoundOutput {
        cost: RoundCost::default(),
        fingerprint: Vec::new(),
        registry,
        cells: None,
        pumps: Vec::new(),
        peak_calendar: 0,
        scanned_ring_events: 0.0,
    }
}

#[test]
fn premise_checks_catch_a_workload_that_changed_sides() {
    let opts = |w| Options {
        workload: w,
        seed: 1,
        seconds: 1.0,
        trace: false,
        length: 1.0,
    };
    let cases = [
        (Workload::Datapump, round_with(&[("sim.notify_takes", 3)])),
        (
            Workload::Datapump,
            round_with(&[("latency.staged_samples", 1)]),
        ),
        (
            Workload::Grid,
            round_with(&[("latency.blame.triggered", 0)]),
        ),
        (
            Workload::Forensics,
            round_with(&[("latency.blame.watched_resumes", 0)]),
        ),
    ];
    for (w, round) in cases {
        let mut ck = Checks::new(w.name(), 1);
        wdm_perfbench::check_premises(&opts(w), &round, &mut ck);
        assert!(ck.failed > 0, "{} premise violation not caught", w.name());
    }
    let mut ck = Checks::new("forensics", 1);
    wdm_perfbench::check_premises(
        &opts(Workload::Forensics),
        &round_with(&[("latency.blame.watched_resumes", 9)]),
        &mut ck,
    );
    assert_eq!(ck.failed, 0);
}
