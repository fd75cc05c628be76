//! Integration tests for `repro`'s argument validation: every degenerate
//! or malformed flag must exit 2 with the usage text on stderr before any
//! simulation work starts, and the escape-hatch flags must parse.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_rejection(args: &[&str], needle: &str) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {stderr}",
        out.status.code()
    );
    assert!(
        stderr.contains("usage: repro"),
        "{args:?} must print usage, got: {stderr}"
    );
    assert!(
        stderr.contains(needle),
        "{args:?} stderr must mention '{needle}', got: {stderr}"
    );
}

#[test]
fn zero_and_negative_numeric_flags_exit_2_with_usage() {
    assert_usage_rejection(&["timing", "--repeats", "0"], "--repeats");
    assert_usage_rejection(&["digest", "--minutes", "0"], "--minutes");
    assert_usage_rejection(&["digest", "--minutes", "-1"], "--minutes");
    assert_usage_rejection(&["digest", "--minutes", "nan"], "--minutes");
    assert_usage_rejection(&["digest", "--minutes", "inf"], "--minutes");
    assert_usage_rejection(&["digest", "--shards", "0"], "--shards");
}

#[test]
fn malformed_values_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--threads", "lots"], "--threads");
    assert_usage_rejection(&["digest", "--seed", "-3"], "--seed");
    assert_usage_rejection(&["digest", "--seed", "1999x"], "--seed");
    assert_usage_rejection(&["digest", "--shards", "two"], "--shards");
    assert_usage_rejection(&["timing", "--repeats", "-1"], "--repeats");
    assert_usage_rejection(
        &["digest", "--sampler-mode", "fast"],
        "--sampler-mode",
    );
}

#[test]
fn missing_values_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--minutes"], "--minutes");
    assert_usage_rejection(&["digest", "--seed"], "--seed");
    assert_usage_rejection(&["digest", "--out"], "--out");
}

#[test]
fn unknown_flags_and_artifacts_exit_2_with_usage() {
    assert_usage_rejection(&["digest", "--frobnicate"], "--frobnicate");
    assert_usage_rejection(&["no-such-artifact"], "no-such-artifact");
    assert_usage_rejection(&["digest", "--quiet", "--verbose"], "exclusive");
}

#[test]
fn retired_flags_exit_2_with_usage() {
    // Escape hatches retire with the path they guarded: the one-release
    // `--stats-v1` hatch along with the whole `--stats-*` family, and
    // `--no-compile` along with the compiled program walker. Any survivor
    // in a script must fail loudly rather than silently measuring in the
    // wrong mode.
    assert_usage_rejection(&["digest", "--stats-v1"], "--stats-v1");
    assert_usage_rejection(&["digest", "--no-compile"], "--no-compile");
    assert_usage_rejection(&["digest", "--stats-v2"], "--stats-v2");
    assert_usage_rejection(&["digest", "--stats-v0"], "--stats-v0");
    assert_usage_rejection(&["digest", "--stats-legacy"], "--stats-legacy");
    assert_usage_rejection(&["digest", "--stats-v1=1"], "--stats-v1=1");
}

#[test]
fn malformed_blame_and_flame_flags_exit_2_with_usage() {
    assert_usage_rejection(&["blame", "--blame-mode", "biggest"], "--blame-mode");
    assert_usage_rejection(&["blame", "--blame-top", "0"], "--blame-top");
    assert_usage_rejection(
        &["blame", "--blame-threshold-ms", "-2"],
        "--blame-threshold-ms",
    );
    assert_usage_rejection(&["flame", "--flame-hz", "0"], "--flame-hz");
    assert_usage_rejection(&["flame", "--flame-hz", "nan"], "--flame-hz");
}

#[test]
fn armed_forensics_digest_is_bit_identical() {
    // DESIGN.md §15: blame capture and the flame sampler are pure
    // observation — digests with forensics armed are byte-equal to the
    // bare run.
    let base = repro(&["digest", "--minutes", "0.02", "--quiet"]);
    let armed = repro(&[
        "digest",
        "--minutes",
        "0.02",
        "--quiet",
        "--blame-mode",
        "blockmax",
    ]);
    assert!(base.status.success() && armed.status.success());
    assert_eq!(
        String::from_utf8_lossy(&base.stdout),
        String::from_utf8_lossy(&armed.stdout),
        "armed blame capture must digest identically"
    );
}

#[test]
fn escape_hatches_parse_and_run() {
    // A tiny grid proves --no-batch-record reaches the harness rather than
    // dying in the parser. Digest output goes to stdout; 0.02 simulated
    // minutes keeps the run under a second.
    let out = repro(&[
        "digest",
        "--minutes",
        "0.02",
        "--quiet",
        "--no-batch-record",
    ]);
    assert!(
        out.status.success(),
        "escape hatches must run: {:?}\nstderr: {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        stdout.lines().count(),
        8,
        "digest emits one line per cell: {stdout}"
    );
}

#[test]
fn no_batch_record_digest_is_bit_identical() {
    // The heart of the batched-recording contract (DESIGN.md §13): the
    // per-sample reference path and the batched path produce byte-equal
    // digests.
    let base = repro(&["digest", "--minutes", "0.02", "--quiet"]);
    let nobatch = repro(&[
        "digest",
        "--minutes",
        "0.02",
        "--quiet",
        "--no-batch-record",
    ]);
    assert!(base.status.success() && nobatch.status.success());
    assert_eq!(
        String::from_utf8_lossy(&base.stdout),
        String::from_utf8_lossy(&nobatch.stdout),
        "batched and per-sample recording must digest identically"
    );
}
