//! `wdm-perfbench --workload <grid|datapump|forensics> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric (name, value, unit), then, as the last line
//! of standard output, the JSON result object. A traced run also writes its
//! spans to `perfbench/out/spans-<workload>-<seed>.json`. Exits 2 on a
//! malformed command line.

use std::process::exit;

use wdm_perfbench::{run, Options, Workload};

const USAGE: &str =
    "usage: wdm-perfbench --workload grid|datapump|forensics [--seed N] [--seconds S] [--trace 0|1]";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1999u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let Some(value) = value else {
            fail(&format!("missing value for {}", args[i]))
        };
        match args[i].as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| fail(&format!("unknown workload '{value}'"))),
                )
            }
            "--seed" => {
                seed = value
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("invalid seed '{value}'")))
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| fail(&format!("invalid seconds '{value}'")))
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => fail(&format!("invalid trace flag '{value}'")),
                }
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| fail("--workload is required"));
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        length: workload.default_length(),
    };
    let report = run(&opts);
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    if trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-{seed}.json", workload.name());
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, &report.spans_json))
        {
            eprintln!("writing {path}: {e}");
        }
    }
    println!("{}", report.to_json());
}
