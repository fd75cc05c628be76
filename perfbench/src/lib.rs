//! # wdm-perfbench — the repository benchmark
//!
//! Measures the host CPU cost of the simulator on three workloads and, in a
//! separate traced run, where that cost goes layer by layer. See
//! `perfbench/README.md` for the workload and metric tables and the reasons
//! behind them.
//!
//! Everything runs in one process on one thread. Every host time is CPU
//! time of the process ([`clock::cpu_ns`]); wall clock only bounds how long
//! a run measures.

pub mod checks;
pub mod clock;
pub mod probes;
pub mod rounds;
pub mod spans;

use std::collections::BTreeMap;

use wdm_bench::{
    cells::{measure_cell, RunConfig},
    tables::PAPER_TABLE3_WEEKLY,
};
use wdm_latency::{
    session::{FlightOptions, ScenarioMeasurement},
    worstcase::worst_cases,
};
use wdm_osmodel::personality::OsKind;
use wdm_workloads::{build_scenario, ScenarioOptions, WorkloadKind};

use checks::Checks;
use clock::{calib_ns, median, peak_rss_mb, quantile, Yardstick};
use rounds::{counter, gauge, grid_round, CellMode, RoundOutput};
use spans::Tracer;

/// A benchmark workload: which inputs the program is given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 8 paper cells with the default measurement session.
    Grid,
    /// The six `repro validate-mttf` direct datapump simulations, with no
    /// measurement session.
    Datapump,
    /// The grid with the `repro blame` defaults armed.
    Forensics,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Grid, Workload::Datapump, Workload::Forensics];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::Datapump => "datapump",
            Workload::Forensics => "forensics",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Simulated length of one round: minutes per cell for the grid
    /// workloads, seconds per case for the datapump. Chosen so one round
    /// costs 0.1–0.3 s of CPU on a 2-vCPU x86-64 host, which gives 100 or
    /// more rounds in a 30-second run.
    pub fn default_length(self) -> f64 {
        match self {
            Workload::Grid => 0.25,
            Workload::Datapump => 30.0,
            Workload::Forensics => 0.05,
        }
    }
}

/// One metric definition: name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: [MetricDef; 5] = [
    def("sim_speed", "s/s", "higher"),
    def("setup_s", "s", "lower"),
    def("finish_s", "s", "lower"),
    def("peak_rss_mb", "MiB", "lower"),
    def("table3_err", "log10", "lower"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 47] = [
    def("workloads.build_ms", "ms", "lower"),
    def("osmodel.draw_ns", "ns", "lower"),
    def("osmodel.draws", "count", "lower"),
    def("osmodel.model_ms", "ms", "lower"),
    def("sim.run_ms", "ms", "lower"),
    def("sim.ns_per_event", "ns", "lower"),
    def("sim.slice_ms.p50", "ms", "lower"),
    def("sim.slice_ms.p99", "ms", "lower"),
    def("sim.slices", "count", "higher"),
    def("sim.events", "count", "lower"),
    def("sim.steps_executed", "count", "lower"),
    def("sim.step_dispatches", "count", "lower"),
    def("sim.compiled_steps", "count", "higher"),
    def("sim.notify_takes", "count", "lower"),
    def("sim.calendar_tick_work", "count", "lower"),
    def("sim.context_switches", "count", "lower"),
    def("sim.calendar.peak_entries", "count", "lower"),
    def("sim.flight.ring_peak", "count", "lower"),
    def("sim.calendar.op_ns", "ns", "lower"),
    def("sim.calendar.model_ms", "ms", "lower"),
    def("sim.residual_share", "ratio", "lower"),
    def("latency.install_ms", "ms", "lower"),
    def("latency.session_share", "ratio", "lower"),
    def("latency.staged_samples", "count", "lower"),
    def("latency.batch_flushes", "count", "lower"),
    def("latency.stage_ns_per_sample", "ns", "lower"),
    def("latency.model_ms", "ms", "lower"),
    def("latency.flush_ms", "ms", "lower"),
    def("latency.extract_ms", "ms", "lower"),
    def("latency.blame.watched_resumes", "count", "lower"),
    def("latency.blame.triggered", "count", "lower"),
    def("latency.blame.evicted", "count", "lower"),
    def("latency.blame.capture_us", "us", "lower"),
    def("latency.blame.ring_mean", "count", "lower"),
    def("latency.blame.capture_mean_us", "us", "lower"),
    def("latency.blame.model_ms", "ms", "lower"),
    def("softmodem.install_ms", "ms", "lower"),
    def("softmodem.finish_ms", "ms", "lower"),
    def("analysis.mttf_ms", "ms", "lower"),
    def("render.ms", "ms", "lower"),
    def("host.trace_overhead", "ratio", "higher"),
    def("host.calib_ns", "ns", "lower"),
    def("host.calib_drift", "ratio", "lower"),
    def("host.yard_ns", "ns", "lower"),
    def("host.rounds_timed", "count", "higher"),
    def("host.rounds_traced", "count", "higher"),
    def("host.rounds_bare", "count", "higher"),
];

/// One benchmark run's parameters.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which inputs to run.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock seconds to spend in the measured rounds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Simulated length per round (see [`Workload::default_length`]).
    pub length: f64,
}

/// A finished run: check totals plus named metrics with units.
#[derive(Debug)]
pub struct Report {
    /// Checks made.
    pub attempted: u64,
    /// Checks failed.
    pub failed: u64,
    /// `(name, value, unit)` in definition order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The traced run's spans as JSON (empty for timed runs).
    pub spans_json: String,
}

impl Report {
    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Check (a)'s configuration: the committed `artifacts/CELL_digests.txt`
/// is `repro digest --minutes 0.2 --seed 1999 --shards 1`.
const REFERENCE_SEED: u64 = 1999;
const REFERENCE_MINUTES: f64 = 0.2;

/// The committed cell digests, resolved inside the checkout the benchmark
/// was built from.
const CELL_DIGESTS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../artifacts/CELL_digests.txt");

/// The yardstick's CPU time, in nanoseconds, on the host the baseline was
/// recorded on (2-vCPU KVM guest on an Intel Xeon, model 207, with no
/// neighbour contention). The end-to-end times are measured in yardsticks
/// and reported as CPU time on that host, so they keep their units.
///
/// On a shared host the same round's CPU time swings by up to 3x with the
/// load neighbouring tenants put on the core. The yardstick, timed next to
/// every round, is there to swing with it, so that the ratio of the two
/// does not; `perfbench/README.md` says what that was tested against.
const YARD_REFERENCE_NS: f64 = 2.94e6;

/// Which kind of round to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    Timed,
    Traced,
    Bare,
}

fn run_round(o: &Options, pass: Pass, tr: &mut Tracer, ck: &mut Checks) -> RoundOutput {
    let mode = match (o.workload, pass) {
        (_, Pass::Bare) => CellMode::Bare,
        (Workload::Forensics, _) => CellMode::Armed,
        _ => CellMode::Measured,
    };
    match o.workload {
        Workload::Datapump => rounds::datapump_round(o.seed, o.length, tr, ck),
        Workload::Grid | Workload::Forensics => grid_round(o.seed, o.length, mode, tr, ck),
    }
}

/// The summary digests of a cell round (the part of each fingerprint line
/// before the metrics registry).
fn digests(r: &RoundOutput) -> Vec<String> {
    r.fingerprint
        .iter()
        .map(|l| l.split(" metrics=").next().unwrap_or_default().to_string())
        .collect()
}

/// Seeds and simulated minutes per cell behind `table3_err`.
const FIT_SEEDS: u64 = 8;
const FIT_MINUTES: f64 = 0.5;

/// Mean |log10(simulated / paper)| over the 16 weekly entries of the
/// paper's Table 3, from the four Windows 98 cells in paper workload order.
fn table3_fit(win98: &[ScenarioMeasurement]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0;
    for (col, m) in win98.iter().enumerate() {
        let (h, d, w) = m.usage.windows();
        for &(row, paper) in &PAPER_TABLE3_WEEKLY {
            let series = match row {
                0 => &m.int_to_isr,
                2 => &m.int_to_dpc,
                4 => &m.thread_int_28,
                _ => &m.thread_int_24,
            };
            let sim = worst_cases(series, m.collected_hours, h, d, w).weekly;
            sum += (sim / paper[col]).log10().abs();
            n += 1;
        }
    }
    sum / n as f64
}

/// `table3_err`: [`table3_fit`] averaged over the Windows 98 cells of
/// seeds `seed .. seed + 8` at 0.5 simulated minutes each, measured with
/// `wdm_bench::cells::measure_cell`. A single seed's weekly worst cases
/// are dominated by a few extreme samples (its fit error spreads by about
/// ±20% from seed to seed at any cell length tried, 0.5 to 5 minutes), so
/// the benchmark averages seeds to measure the model rather than one draw.
fn table3_err(seed: u64) -> f64 {
    let total: f64 = (0..FIT_SEEDS)
        .map(|i| {
            let cfg = RunConfig {
                duration: wdm_bench::Duration::Minutes(FIT_MINUTES),
                seed: seed.wrapping_add(i),
                threads: 1,
                ..RunConfig::default()
            };
            let win98: Vec<ScenarioMeasurement> = WorkloadKind::ALL
                .iter()
                .map(|&w| measure_cell(&cfg, OsKind::Win98, w))
                .collect();
            table3_fit(&win98)
        })
        .sum();
    total / FIT_SEEDS as f64
}

/// The workload-premise checks: a later change must not quietly make a
/// workload stop using, or stop bypassing, its layer.
pub fn check_premises(o: &Options, first: &RoundOutput, ck: &mut Checks) {
    let reg = &first.registry;
    match o.workload {
        Workload::Datapump => {
            for name in ["sim.notify_takes", "latency.staged_samples"] {
                let v = counter(reg, name);
                ck.check("all", "premise.bypass", v == 0, || {
                    format!("{name} is {v}, not 0")
                });
            }
        }
        Workload::Grid => {
            let blame: Vec<&str> = reg
                .iter()
                .map(|(k, _)| k)
                .filter(|k| k.starts_with("latency.blame."))
                .collect();
            ck.check("all", "premise.no_blame", blame.is_empty(), || {
                format!("blame metrics present: {blame:?}")
            });
        }
        Workload::Forensics => {
            let v = counter(reg, "latency.blame.watched_resumes");
            ck.check("all", "premise.blame_used", v > 0, || {
                "latency.blame.watched_resumes is 0".to_string()
            });
        }
    }
}

/// Check (a): the grid at the committed configuration reproduces
/// `artifacts/CELL_digests.txt` byte for byte.
fn check_committed_digests(reference: &RoundOutput, ck: &mut Checks) {
    let got: String = digests(reference)
        .iter()
        .map(|d| format!("{d}\n"))
        .collect();
    match std::fs::read_to_string(CELL_DIGESTS) {
        Ok(want) => {
            let (gl, wl): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
            for i in 0..gl.len().max(wl.len()) {
                let cell = gl
                    .get(i)
                    .or(wl.get(i))
                    .and_then(|l| l.split(' ').next())
                    .unwrap_or("?");
                ck.check(cell, "a.committed_digest", gl.get(i) == wl.get(i), || {
                    format!("digest differs from {CELL_DIGESTS} (seed 1999, 0.2 min, 1 shard)")
                });
            }
            ck.check("all", "a.committed_bytes", got == want, || {
                "digest file differs byte for byte".to_string()
            });
        }
        Err(e) => ck.check("all", "a.committed_digest", false, || {
            format!("reading {CELL_DIGESTS}: {e}")
        }),
    }
}

/// Datapump counterpart of check (b): the round's buffer counts equal the
/// direct-simulation half of `validate_mttf` at the same seed and length.
fn check_validate_mttf(o: &Options, first: &RoundOutput, ck: &mut Checks) {
    for ((os, w, modality, buf), &(completed, missed)) in
        rounds::PUMP_CASES.iter().zip(&first.pumps)
    {
        let seed = wdm_bench::cells::cell_seed(o.seed, *os, *w) ^ 0xda7a;
        let v = wdm_softmodem::validate_mttf(*os, *w, *modality, *buf, seed, o.length / 3600.0);
        let cell = format!("{os:?}/{w:?}/{modality:?}@{buf}ms");
        ck.check(
            &cell,
            "b.validate_mttf",
            (v.misses, v.processed) == (missed, completed + missed),
            || {
                format!(
                    "validate_mttf saw {} misses of {}, the round {missed} of {}",
                    v.misses,
                    v.processed,
                    completed + missed
                )
            },
        );
    }
}

/// Runs the benchmark: a warm-up round, measured rounds until `o.seconds`
/// of wall time have passed, then the one-off checks and (traced runs) the
/// unit-cost probes.
pub fn run(o: &Options) -> Report {
    let calib_start = calib_ns();
    let mut ck = Checks::new(o.workload.name(), o.seed);
    let mut off = Tracer::new(false);

    // The first round warms caches and the allocator; every later round
    // must reproduce it exactly (check d).
    let first = run_round(o, Pass::Timed, &mut off, &mut ck);
    check_premises(o, &first, &mut ck);

    let passes: &[Pass] = if o.trace {
        &[Pass::Timed, Pass::Traced, Pass::Bare]
    } else {
        &[Pass::Timed]
    };
    let mut tracer = Tracer::new(true);
    let mut timed = Vec::new();
    let mut traced = Vec::new();
    let mut traced_spans: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut slices = Vec::new();
    let mut bare = Vec::new();
    // Read after the warm-up round, which every later round repeats, and
    // before the yardstick allocates its table.
    let peak_rss = peak_rss_mb();
    let mut yard = Yardstick::new();
    let wall = std::time::Instant::now();
    let mut yards = vec![yard.measure()];
    while timed.len() < 3 || wall.elapsed().as_secs_f64() < o.seconds {
        for &pass in passes {
            let mark = tracer.mark();
            let tr = if pass == Pass::Traced {
                &mut tracer
            } else {
                &mut off
            };
            let r = run_round(o, pass, tr, &mut ck);
            match pass {
                Pass::Timed => {
                    yards.push(yard.measure());
                    ck.same_fingerprint("d.rounds_repeat", &first.fingerprint, &r.fingerprint);
                    timed.push(r.cost);
                }
                Pass::Traced => {
                    ck.same_fingerprint("d.trace_reproduces", &first.fingerprint, &r.fingerprint);
                    traced.push(r.cost);
                    traced_spans.push(tracer.totals_ms_since(mark));
                    slices.extend(tracer.durations_ms_since(mark, "sim.run_for"));
                }
                Pass::Bare => bare.push(r.cost),
            }
        }
    }

    let calib_end = calib_ns();

    let reference = grid_round(
        REFERENCE_SEED,
        REFERENCE_MINUTES,
        CellMode::Measured,
        &mut off,
        &mut ck,
    );
    check_committed_digests(&reference, &mut ck);
    match o.workload {
        Workload::Forensics => {
            let plain = grid_round(o.seed, o.length, CellMode::Measured, &mut off, &mut ck);
            let (armed, unarmed) = (digests(&first), digests(&plain));
            for (a, u) in armed.iter().zip(&unarmed) {
                let cell = a.split(' ').next().unwrap_or("?");
                ck.check(cell, "b.forensics_digest", a == u, || {
                    "armed digest differs from the unarmed grid".to_string()
                });
            }
        }
        Workload::Datapump => check_validate_mttf(o, &first, &mut ck),
        Workload::Grid => {}
    }

    let sim_speed =
        |v: &[rounds::RoundCost]| median(&v.iter().map(|c| c.sim_speed()).collect::<Vec<_>>());
    let yard_ns: Vec<f64> = yards.iter().map(|&y| y as f64).collect();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    if !o.trace {
        // Each round's phase costs in yardsticks: the round divided by the
        // mean of the yardstick timed just before it and just after it.
        let in_yards = |f: &dyn Fn(&rounds::RoundCost) -> u64| {
            let ratios: Vec<f64> = timed
                .iter()
                .zip(yards.windows(2))
                .map(|(c, y)| f(c) as f64 / ((y[0] + y[1]) as f64 / 2.0))
                .collect();
            median(&ratios) * YARD_REFERENCE_NS / 1e9
        };
        let sim_seconds = timed[0].sim_seconds;
        values.insert(
            "sim_speed",
            sim_seconds / in_yards(&|c| c.run_ns + c.finish_ns),
        );
        values.insert("setup_s", in_yards(&|c| c.setup_ns));
        values.insert("finish_s", in_yards(&|c| c.finish_ns));
        values.insert("peak_rss_mb", peak_rss);
        values.insert("table3_err", table3_err(o.seed));
        println!(
            "# {} seed {}: {} timed rounds, median sim_speed {:.1} in host CPU time; yardstick median {:.0} ns (reference {YARD_REFERENCE_NS:.0}); host.calib_ns {calib_start:.0} at start, {calib_end:.0} at end",
            o.workload.name(),
            o.seed,
            timed.len(),
            sim_speed(&timed),
            median(&yard_ns),
        );
    } else {
        layer_metrics(o, &reference, &first, &traced_spans, &slices, &mut values);
        let run_ns = |v: &[rounds::RoundCost]| {
            median(&v.iter().map(|c| c.run_ns as f64).collect::<Vec<_>>())
        };
        values.insert(
            "latency.session_share",
            1.0 - run_ns(&bare) / run_ns(&timed),
        );
        values.insert(
            "host.trace_overhead",
            sim_speed(&traced) / sim_speed(&timed) - 1.0,
        );
        values.insert("host.calib_ns", calib_start);
        values.insert("host.calib_drift", calib_end / calib_start - 1.0);
        values.insert("host.yard_ns", median(&yard_ns));
        values.insert("host.rounds_timed", timed.len() as f64);
        values.insert("host.rounds_traced", traced.len() as f64);
        values.insert("host.rounds_bare", bare.len() as f64);
    }

    let defs: &[MetricDef] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(f64::NAN);
            ck.check("all", "metric.finite", v.is_finite(), || {
                format!("{} is {v}", d.name)
            });
            (d.name, if v.is_finite() { v } else { 0.0 }, d.unit)
        })
        .collect();
    Report {
        attempted: ck.attempted,
        failed: ck.failed,
        metrics,
        spans_json: if o.trace {
            tracer.to_json()
        } else {
            String::new()
        },
    }
}

/// Fills the per-layer metrics from the traced rounds, the exact counters
/// of the workload's first round and the unit-cost probes.
fn layer_metrics(
    o: &Options,
    reference: &RoundOutput,
    first: &RoundOutput,
    traced_spans: &[BTreeMap<&'static str, f64>],
    slices: &[f64],
    values: &mut BTreeMap<&'static str, f64>,
) {
    let span_ms = |name: &str| {
        median(
            &traced_spans
                .iter()
                .map(|t| t.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    for (metric, span) in [
        ("workloads.build_ms", "workloads.build_scenario"),
        ("sim.run_ms", "sim.run_for"),
        ("latency.install_ms", "latency.install"),
        ("latency.flush_ms", "latency.flush"),
        ("latency.extract_ms", "latency.extract"),
        ("softmodem.install_ms", "softmodem.install"),
        ("softmodem.finish_ms", "softmodem.finish"),
        ("render.ms", "bench.render"),
    ] {
        values.insert(metric, span_ms(span));
    }
    values.insert("sim.slice_ms.p50", quantile(slices, 0.5));
    values.insert("sim.slice_ms.p99", quantile(slices, 0.99));
    values.insert("sim.slices", slices.len() as f64);

    let reg = &first.registry;
    for name in [
        "sim.events",
        "sim.steps_executed",
        "sim.step_dispatches",
        "sim.compiled_steps",
        "sim.notify_takes",
        "sim.calendar_tick_work",
        "sim.context_switches",
        "osmodel.draws",
        "latency.staged_samples",
        "latency.batch_flushes",
        "latency.blame.watched_resumes",
        "latency.blame.triggered",
        "latency.blame.evicted",
    ] {
        values.insert(name, counter(reg, name) as f64);
    }
    for name in ["sim.calendar.peak_entries", "sim.flight.ring_peak"] {
        values.insert(name, gauge(reg, name));
    }
    let run_ms = values["sim.run_ms"];
    values.insert("sim.ns_per_event", run_ms * 1e6 / values["sim.events"]);

    let kinds: Vec<WorkloadKind> = match o.workload {
        Workload::Datapump => vec![WorkloadKind::Games, WorkloadKind::Business],
        _ => WorkloadKind::ALL.to_vec(),
    };
    let cpu_hz = build_scenario(
        OsKind::Win98,
        WorkloadKind::Games,
        o.seed,
        &ScenarioOptions::default(),
    )
    .kernel
    .config()
    .cpu_hz;
    let ref_cells = reference
        .cells
        .as_ref()
        .expect("reference round keeps its cells");
    let draw_ns = probes::draw_ns(&kinds, cpu_hz, o.seed);
    let op_ns = probes::calendar_op_ns(first.peak_calendar, o.seed);
    let stage_ns = probes::stage_ns_per_sample(ref_cells, cpu_hz, o.seed);
    let capture_us = probes::capture_us(FlightOptions::default().capacity, o.seed);
    let resumes = values["latency.blame.watched_resumes"];
    let ring_mean = if resumes > 0.0 {
        first.scanned_ring_events / resumes
    } else {
        0.0
    };
    let capture_mean_us = probes::capture_us(ring_mean.round() as usize, o.seed);
    values.insert("osmodel.draw_ns", draw_ns);
    values.insert("sim.calendar.op_ns", op_ns);
    values.insert("latency.stage_ns_per_sample", stage_ns);
    values.insert("latency.blame.capture_us", capture_us);
    values.insert("latency.blame.ring_mean", ring_mean);
    values.insert("latency.blame.capture_mean_us", capture_mean_us);
    values.insert("analysis.mttf_ms", probes::mttf_ms(ref_cells));

    let models = [
        ("osmodel.model_ms", values["osmodel.draws"] * draw_ns / 1e6),
        (
            "sim.calendar.model_ms",
            values["sim.calendar_tick_work"] * op_ns / 1e6,
        ),
        (
            "latency.model_ms",
            values["latency.staged_samples"] * stage_ns / 1e6,
        ),
        ("latency.blame.model_ms", resumes * capture_mean_us / 1e3),
    ];
    let explained: f64 = models.iter().map(|(_, ms)| ms).sum();
    for (name, ms) in models {
        values.insert(name, ms);
    }
    values.insert("sim.residual_share", 1.0 - explained / run_ms);
}
