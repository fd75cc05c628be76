//! `repro` — regenerate the tables and figures of the OSDI '99 paper
//! *"A Comparison of Windows Driver Model Latency Performance on Windows NT
//! and Windows 98"* on the simulated substrate.
//!
//! ```text
//! repro <artifact> [--minutes N | --full] [--seed S] [--threads T]
//!                  [--shards K] [--out DIR]
//!                  [--sampler-mode exact|table]
//!
//! artifacts:
//!   table1 table2 table3 table4 figure4 figure5 figure6 figure7
//!   throughput validate-mttf sched feasibility win2000 microbench
//!   interactive stability ablations timing digest all
//! ```
//!
//! `--full` collects for the paper's §3.1 durations (4–12.5 simulated hours
//! per cell); the default is 2 simulated minutes per cell, which reproduces
//! the shape but under-samples the weekly tails. `--threads` fans
//! independent runs out over worker threads (0 or omitted = one per core);
//! output is byte-identical at any thread count. `--shards K` splits each
//! cell's window into up to K independent whole-minute simulations so the
//! fan-out has 8 x K jobs to balance (DESIGN.md §9); a given K is
//! byte-identical at every thread count, and `--shards 1` (the default) is
//! bit-identical to the unsharded harness.

use wdm_bench::{
    cells::{measure_all, summary_digest, Duration, RunConfig},
    extras, figures, forensics, output, progress, tables, timing, tracecmd,
};
use wdm_osmodel::dist::SamplerMode;

const USAGE: &str = "usage: repro <artifact> [--minutes N | --full] [--seed S] [--threads T] [--shards K] [--out DIR] [--trace] [--no-batch-record] [--sampler-mode exact|table] [--blame-mode topk|threshold|blockmax] [--blame-threshold-ms T] [--blame-top K] [--flame-hz HZ] [--repeats R] [--quiet | --verbose]

artifacts:
  table1 table2 table3 table4 figure4 figure5 figure6 figure7
  throughput validate-mttf sched feasibility win2000 microbench
  interactive stability ablations timing digest trace metrics
  blame flame all

options:
  --minutes N   simulated minutes per cell (positive number; default 2)
  --full        the paper's full per-workload collection times (\u{a7}3.1)
  --seed S      base RNG seed (non-negative integer; default 1999)
  --threads T   worker threads for independent runs (0 = one per core)
  --shards K    time shards per cell, on whole-minute boundaries (default 1)
  --out DIR     also write TSV/JSON artifacts into DIR
  --trace       attach a flight recorder to every cell (output unchanged;
                the 'trace' artifact implies this and writes TRACE_*.json)
  --no-batch-record
                record each latency sample straight into its series instead
                of staging and batch-folding (output byte-identical)
  --sampler-mode exact|table
                how distribution draws are lowered: 'exact' (default) is
                bit-identical to the interpreted samplers; 'table' uses
                quantile-table inverse-CDF lookups (own digest baseline,
                artifacts/CELL_digests_table.txt)
  --blame-mode topk|threshold|blockmax
                which latency samples trigger a forensic capture (DESIGN.md
                \u{a7}15): the K largest per cell (default), samples at or above
                --blame-threshold-ms, or new per-cell running maxima. The
                'blame' artifact arms forensics; these flags tune it.
                Digest-neutral: measured values never change
  --blame-threshold-ms T
                trigger threshold for --blame-mode threshold (default 1.0)
  --blame-top K retained episodes per cell (default 4)
  --flame-hz HZ virtual-time sampling rate for the 'flame' artifact in
                samples per simulated second (default 8000)
  --repeats R   wall-clock attempts per timing side; each cell reports its
                fastest attempt (timing artifact only; default 3 for quick
                grids, 1 for --full)
  --quiet       suppress progress lines on stderr
  --verbose     per-shard progress lines on stderr";

/// Reports a bad invocation and exits with status 2 (no panic backtrace).
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\n\n{USAGE}");
    std::process::exit(2);
}

/// Reports a runtime failure (I/O, serialization) and exits with status 1.
/// Prints regardless of `--quiet`: errors are not progress.
fn fatal(what: &str, err: impl std::fmt::Display) -> ! {
    eprintln!("repro: error: {what}: {err}");
    std::process::exit(1);
}

/// Pulls the value of `--flag value`, failing with usage on a missing or
/// malformed value.
fn flag_value<T: std::str::FromStr>(args: &[String], i: &mut usize, what: &str) -> T {
    *i += 1;
    let raw = args
        .get(*i)
        .unwrap_or_else(|| usage_error(&format!("{what} requires a value")));
    raw.parse().unwrap_or_else(|_| {
        usage_error(&format!("invalid value '{raw}' for {what}"))
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact = None;
    let mut duration = Duration::Minutes(2.0);
    let mut seed = 1999u64;
    let mut threads = 0usize;
    let mut shards = 1usize;
    let mut trace = false;
    let mut batch_record = true;
    let mut sampler_mode = SamplerMode::Exact;
    let mut blame_mode: Option<String> = None;
    let mut blame_threshold_ms = 1.0f64;
    let mut blame_top = 4usize;
    let mut flame_hz: Option<f64> = None;
    let mut repeats: Option<usize> = None;
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut verbosity: Option<progress::Verbosity> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--minutes" => {
                let m: f64 = flag_value(&args, &mut i, "--minutes");
                if !(m.is_finite() && m > 0.0) {
                    usage_error("--minutes must be a positive number");
                }
                duration = Duration::Minutes(m);
            }
            "--full" => duration = Duration::FullCollection,
            "--seed" => seed = flag_value(&args, &mut i, "--seed"),
            "--threads" => threads = flag_value(&args, &mut i, "--threads"),
            "--shards" => {
                shards = flag_value(&args, &mut i, "--shards");
                if shards < 1 {
                    usage_error("--shards must be at least 1");
                }
            }
            "--trace" => trace = true,
            "--no-batch-record" => batch_record = false,
            "--blame-mode" => {
                let raw: String = flag_value(&args, &mut i, "--blame-mode");
                match raw.as_str() {
                    "topk" | "threshold" | "blockmax" => blame_mode = Some(raw),
                    _ => usage_error(&format!(
                        "invalid value '{raw}' for --blame-mode (expected 'topk', \
                         'threshold', or 'blockmax')"
                    )),
                }
            }
            "--blame-threshold-ms" => {
                blame_threshold_ms = flag_value(&args, &mut i, "--blame-threshold-ms");
                if !(blame_threshold_ms.is_finite() && blame_threshold_ms > 0.0) {
                    usage_error("--blame-threshold-ms must be a positive number");
                }
            }
            "--blame-top" => {
                blame_top = flag_value(&args, &mut i, "--blame-top");
                if blame_top < 1 {
                    usage_error("--blame-top must be at least 1");
                }
            }
            "--flame-hz" => {
                let hz: f64 = flag_value(&args, &mut i, "--flame-hz");
                if !(hz.is_finite() && hz > 0.0) {
                    usage_error("--flame-hz must be a positive number");
                }
                flame_hz = Some(hz);
            }
            "--repeats" => {
                let r: usize = flag_value(&args, &mut i, "--repeats");
                if r < 1 {
                    usage_error("--repeats must be at least 1");
                }
                repeats = Some(r);
            }
            "--sampler-mode" => {
                let raw: String = flag_value(&args, &mut i, "--sampler-mode");
                sampler_mode = SamplerMode::parse(&raw).unwrap_or_else(|| {
                    usage_error(&format!(
                        "invalid value '{raw}' for --sampler-mode (expected 'exact' or 'table')"
                    ))
                });
            }
            "--quiet" => {
                if verbosity == Some(progress::Verbosity::Verbose) {
                    usage_error("--quiet and --verbose are mutually exclusive");
                }
                verbosity = Some(progress::Verbosity::Quiet);
            }
            "--verbose" => {
                if verbosity == Some(progress::Verbosity::Quiet) {
                    usage_error("--quiet and --verbose are mutually exclusive");
                }
                verbosity = Some(progress::Verbosity::Verbose);
            }
            "--out" => {
                i += 1;
                let dir = args
                    .get(i)
                    .unwrap_or_else(|| usage_error("--out requires a directory"));
                if dir.is_empty() || dir.starts_with('-') {
                    usage_error(&format!("invalid directory '{dir}' for --out"));
                }
                out_dir = Some(std::path::PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            a if !a.starts_with('-') && artifact.is_none() => {
                artifact = Some(a.to_string());
            }
            other => usage_error(&format!("unknown argument: {other}")),
        }
        i += 1;
    }
    let artifact = artifact.unwrap_or_else(|| "all".to_string());
    if let Some(v) = verbosity {
        progress::set_verbosity(v);
    }
    // The 'blame' artifact arms forensics; --blame-* flags tune the trigger
    // (and a bare `repro blame` captures the default per-cell top-K).
    let blame = (artifact == "blame" || blame_mode.is_some()).then(|| {
        let trigger = match blame_mode.as_deref() {
            Some("threshold") => wdm_latency::BlameTrigger::ThresholdMs(blame_threshold_ms),
            Some("blockmax") => wdm_latency::BlameTrigger::BlockMax,
            _ => wdm_latency::BlameTrigger::TopK(blame_top),
        };
        wdm_latency::BlameOptions { trigger, max_episodes: blame_top }
    });
    let cfg = RunConfig {
        duration,
        seed,
        threads,
        shards,
        trace,
        sampler_mode,
        batch_record,
        blame,
        // The 'flame' artifact arms the sampler at its default rate; an
        // explicit --flame-hz arms it for any artifact (digest included —
        // CI proves sampling is digest-neutral that way).
        flame_hz: if artifact == "flame" {
            Some(flame_hz.unwrap_or(8000.0))
        } else {
            flame_hz
        },
    };
    let minutes = match duration {
        Duration::Minutes(m) => m,
        Duration::FullCollection => 30.0,
    };

    // Artifacts that need the 8 measured cells share one run.
    let needs_cells = matches!(
        artifact.as_str(),
        "table3" | "figure4" | "figure6" | "figure7" | "throughput" | "sched" | "feasibility"
            | "digest" | "metrics" | "all"
    );
    let cells = if needs_cells {
        progress::note(
            "grid",
            &format!("measuring 8 OS x workload cells ({duration:?}, seed {seed})..."),
        );
        Some(measure_all(&cfg))
    } else {
        None
    };
    let cells = cells.as_ref();

    match artifact.as_str() {
        "table1" => print!("{}", tables::table1()),
        "table2" => print!("{}", tables::table2()),
        "table3" => {
            print!("{}", tables::table3(cells.unwrap()));
            println!();
            print!("{}", tables::table3_nt(cells.unwrap()));
        }
        "table4" => print!("{}", tables::table4(&cfg)),
        "figure4" => {
            print!("{}", figures::figure4(cells.unwrap()));
            if let Some(dir) = &out_dir {
                let files = output::write_figure4(cells.unwrap(), dir)
                    .unwrap_or_else(|e| fatal("writing figure4 TSVs", e));
                for f in files {
                    progress::note("out", &format!("wrote {f}"));
                }
            }
        }
        "figure5" => {
            let f = figures::figure5(&cfg);
            print!("{}", figures::render_figure5(&f));
            if let Some(dir) = &out_dir {
                let path = output::write_figure5(&f, dir)
                    .unwrap_or_else(|e| fatal("writing figure5 TSV", e));
                progress::note("out", &format!("wrote {path}"));
            }
        }
        "figure6" | "figure7" => {
            print!("{}", figures::figures_6_7(cells.unwrap()));
            if let Some(dir) = &out_dir {
                let files = output::write_figures_6_7(cells.unwrap(), dir)
                    .unwrap_or_else(|e| fatal("writing figure 6/7 TSVs", e));
                for f in files {
                    progress::note("out", &format!("wrote {f}"));
                }
            }
        }
        "throughput" => print!("{}", extras::throughput(cells.unwrap())),
        "validate-mttf" => print!("{}", extras::validate(&cfg)),
        "win2000" => print!("{}", extras::win2000(&cfg)),
        "microbench" => print!("{}", extras::microbench(&cfg)),
        "interactive" => print!("{}", extras::interactive(&cfg)),
        "stability" => print!("{}", extras::stability(&cfg, 5)),
        "sched" => print!("{}", extras::sched(cells.unwrap())),
        "feasibility" => print!("{}", extras::feasibility(cells.unwrap())),
        "ablations" => print!("{}", extras::ablations(minutes.min(5.0), seed, threads)),
        "digest" => {
            // One exact digest line per cell, NT first, paper workload
            // order. CI diffs this against a committed reference to prove
            // the harness still reproduces the recorded runs bit-for-bit.
            let cells = cells.unwrap();
            for m in cells.nt.iter().chain(&cells.win98) {
                println!("{}", summary_digest(m));
            }
        }
        "timing" => {
            progress::note(
                "grid",
                &format!(
                    "timing the 8-cell grid ({shards} shard(s)/cell), serial vs {} threads \
                     on {} host cores ({duration:?}, seed {seed})...",
                    wdm_bench::parallel::effective_threads(threads, 8 * shards),
                    wdm_bench::parallel::host_cores()
                ),
            );
            let r = timing::run(&cfg, repeats);
            print!("{}", timing::render_summary(&r));
            let json = timing::render_json(&cfg, &r);
            println!("{json}");
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fatal("creating output directory", e));
                let path = dir.join("BENCH_cells.json");
                std::fs::write(&path, &json)
                    .unwrap_or_else(|e| fatal("writing BENCH_cells.json", e));
                progress::note("out", &format!("wrote {}", path.display()));
            }
            if !r.identical {
                eprintln!("repro: error: parallel output differs from the serial reference");
                std::process::exit(1);
            }
        }
        "trace" => {
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            progress::note(
                "grid",
                &format!(
                    "tracing 8 OS x workload cells ({duration:?}, seed {seed}) \
                     into {}...",
                    dir.display()
                ),
            );
            let (_cells, files) = tracecmd::run_trace(&cfg, &dir)
                .unwrap_or_else(|e| fatal("writing trace files", e));
            for f in &files {
                progress::note("out", &format!("wrote {}", f.display()));
            }
        }
        "blame" => {
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            progress::note(
                "grid",
                &format!(
                    "blame-profiling 8 OS x workload cells ({duration:?}, seed {seed}) \
                     into {}...",
                    dir.display()
                ),
            );
            let (_cells, files) = forensics::run_blame(&cfg, &dir)
                .unwrap_or_else(|e| fatal("writing blame files", e));
            for f in &files {
                progress::note("out", &format!("wrote {}", f.display()));
            }
        }
        "flame" => {
            let dir = out_dir
                .clone()
                .unwrap_or_else(|| std::path::PathBuf::from("artifacts"));
            progress::note(
                "grid",
                &format!(
                    "flame-profiling 8 OS x workload cells ({duration:?}, seed {seed}) \
                     into {}...",
                    dir.display()
                ),
            );
            let (_cells, files) = forensics::run_flame(&cfg, &dir)
                .unwrap_or_else(|e| fatal("writing flame files", e));
            for f in &files {
                progress::note("out", &format!("wrote {}", f.display()));
            }
        }
        "metrics" => {
            let json = tracecmd::render_metrics_json(&cfg, cells.unwrap());
            print!("{json}");
            if let Some(dir) = &out_dir {
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| fatal("creating output directory", e));
                let path = dir.join("METRICS_cells.json");
                std::fs::write(&path, &json)
                    .unwrap_or_else(|e| fatal("writing METRICS_cells.json", e));
                progress::note("out", &format!("wrote {}", path.display()));
            }
        }
        "all" => {
            let cells = cells.unwrap();
            let hr = "\n================================================================\n\n";
            print!("{}", tables::table1());
            print!("{hr}");
            print!("{}", tables::table2());
            print!("{hr}");
            print!("{}", figures::figure4(cells));
            print!("{hr}");
            print!("{}", tables::table3(cells));
            println!();
            print!("{}", tables::table3_nt(cells));
            print!("{hr}");
            let f5 = figures::figure5(&cfg);
            print!("{}", figures::render_figure5(&f5));
            print!("{hr}");
            print!("{}", tables::table4(&cfg));
            print!("{hr}");
            print!("{}", figures::figures_6_7(cells));
            print!("{hr}");
            print!("{}", extras::throughput(cells));
            print!("{hr}");
            print!("{}", extras::validate(&cfg));
            print!("{hr}");
            print!("{}", extras::sched(cells));
            print!("{hr}");
            print!("{}", extras::feasibility(cells));
            print!("{hr}");
            print!("{}", extras::win2000(&cfg));
            print!("{hr}");
            print!("{}", extras::microbench(&cfg));
            print!("{hr}");
            print!("{}", extras::interactive(&cfg));
            print!("{hr}");
            print!("{}", extras::ablations(minutes.min(5.0), seed, threads));
            if let Some(dir) = &out_dir {
                let f4 = output::write_figure4(cells, dir)
                    .unwrap_or_else(|e| fatal("writing figure4 TSVs", e));
                let f67 = output::write_figures_6_7(cells, dir)
                    .unwrap_or_else(|e| fatal("writing figure 6/7 TSVs", e));
                let p5 = output::write_figure5(&f5, dir)
                    .unwrap_or_else(|e| fatal("writing figure5 TSV", e));
                for f in f4.iter().chain(&f67).chain(std::iter::once(&p5)) {
                    progress::note("out", &format!("wrote {f}"));
                }
            }
        }
        other => usage_error(&format!("unknown artifact '{other}'")),
    }
}
