//! One round of each workload, split into set-up, run and finish.
//!
//! A round drives the repository's public functions in the order the
//! `repro` artifacts do, but with the phase boundaries exposed so their
//! host CPU time can be read separately:
//!
//! - **set-up**: `build_scenario` plus the tools, pump or recorders;
//! - **run**: `Kernel::run_for` (in one-simulated-second slices when the
//!   round is traced);
//! - **finish**: stage flush, series extraction, digests, worst-case and
//!   MTTF analysis, and rendering.
//!
//! The cell path reproduces `wdm_latency::session::measure_scenario` step
//! for step (that function runs all three phases in one call); the
//! committed-digest check proves the two agree byte for byte.

use std::{cell::RefCell, collections::BTreeMap, rc::Rc};

use wdm_analysis::mttf::MttfParams;
use wdm_bench::{
    cells::{cell_seed, finish_blame, summary_digest, AllCells, RunConfig},
    figures, forensics, tables,
};
use wdm_latency::{
    session::{BlameEpisodePayload, FlightOptions, MeasureOptions, ScenarioMeasurement},
    worstcase::LatencySeries,
    BlameOptions, BlameRecorder, MeasurementSession,
};
use wdm_osmodel::personality::OsKind;
use wdm_sim::{
    flight::FlightRecorder, ids::VectorId, kernel::Kernel, metrics::MetricsSnapshot, time::Cycles,
};
use wdm_softmodem::{Datapump, Modality};
use wdm_workloads::{build_scenario, Scenario, ScenarioOptions, WorkloadKind, WorkloadSpec};

use crate::{checks::Checks, clock::cpu_ns, spans::Tracer};

/// What a cell round attaches to each scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellMode {
    /// The default measurement session (`repro digest`).
    Measured,
    /// The session plus the `repro blame` defaults: a flight ring and a
    /// top-K blame recorder on the rt24/rt28 threads.
    Armed,
    /// Nothing: the bare scenario, for the session's share of run time.
    Bare,
}

/// The eight paper cells, NT first, paper workload order.
pub(crate) fn grid_cells() -> Vec<(OsKind, WorkloadKind)> {
    [OsKind::Nt4, OsKind::Win98]
        .into_iter()
        .flat_map(|os| WorkloadKind::ALL.into_iter().map(move |w| (os, w)))
        .collect()
}

/// The six `repro validate-mttf` cases: OS, load, modality and total
/// buffering in ms.
pub(crate) const PUMP_CASES: [(OsKind, WorkloadKind, Modality, f64); 6] = [
    (OsKind::Win98, WorkloadKind::Games, Modality::Dpc, 8.0),
    (OsKind::Win98, WorkloadKind::Games, Modality::Dpc, 16.0),
    (
        OsKind::Win98,
        WorkloadKind::Games,
        Modality::Thread(28),
        16.0,
    ),
    (
        OsKind::Win98,
        WorkloadKind::Business,
        Modality::Thread(28),
        12.0,
    ),
    (OsKind::Nt4, WorkloadKind::Games, Modality::Dpc, 6.0),
    (OsKind::Nt4, WorkloadKind::Games, Modality::Thread(28), 6.0),
];

/// The seed `repro validate-mttf` gives the direct simulation of a case.
pub(crate) fn pump_seed(base: u64, os: OsKind, w: WorkloadKind) -> u64 {
    (cell_seed(base, os, w) ^ 0xda7a).wrapping_add(1)
}

/// Host CPU time of one round by phase, and the simulated time it covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundCost {
    /// Set-up CPU nanoseconds.
    pub setup_ns: u64,
    /// `run_for` CPU nanoseconds.
    pub run_ns: u64,
    /// Finish CPU nanoseconds.
    pub finish_ns: u64,
    /// Simulated machine-seconds, summed over cells or cases.
    pub sim_seconds: f64,
}

impl RoundCost {
    /// Simulated machine-seconds per host CPU-second of run plus finish.
    pub fn sim_speed(&self) -> f64 {
        self.sim_seconds / ((self.run_ns + self.finish_ns) as f64 / 1e9)
    }
}

/// Everything a round produced that metrics and checks read.
pub struct RoundOutput {
    /// Phase costs.
    pub cost: RoundCost,
    /// One exact line per cell or case (digest plus metrics registry):
    /// equal lines mean an identical simulation.
    pub fingerprint: Vec<String>,
    /// The cells' metrics registries merged (counters sum, gauges max).
    pub registry: MetricsSnapshot,
    /// The measurements, for cell rounds that keep them.
    pub cells: Option<AllCells>,
    /// Datapump buffers `(completed, missed)` per case, in case order.
    pub pumps: Vec<(u64, u64)>,
    /// Largest calendar occupancy seen (the calendar probe's heap size).
    pub peak_calendar: usize,
    /// Flight-ring events blame captures scanned (see
    /// [`scanned_ring_events`]).
    pub scanned_ring_events: f64,
}

/// A scenario with its tools attached, between set-up and finish.
struct LiveCell {
    scenario: Scenario,
    session: Option<MeasurementSession>,
    flight: Option<Rc<RefCell<FlightRecorder>>>,
    blame: Option<Rc<RefCell<BlameRecorder>>>,
}

/// The `MeasureOptions` behind a cell mode.
pub(crate) fn measure_opts(mode: CellMode) -> MeasureOptions {
    MeasureOptions {
        blame: (mode == CellMode::Armed).then(BlameOptions::default),
        ..MeasureOptions::default()
    }
}

/// Runs the kernel for `d`, in one-simulated-second slices (each its own
/// span) when tracing.
fn run_sim(k: &mut Kernel, d: Cycles, tr: &mut Tracer) {
    if !tr.enabled() {
        k.run_for(d);
        return;
    }
    let slice = Cycles::from_ms_at(1000.0, k.config().cpu_hz);
    let end = k.now() + d;
    while k.now() < end {
        let step = Cycles(slice.0.min((end - k.now()).0));
        let id = tr.open("sim.run_for");
        k.run_for(step);
        tr.close(id);
    }
}

/// Set-up of one cell: the scenario, then what `mode` attaches, in the
/// order `measure_scenario` attaches it.
fn set_up_cell(
    os: OsKind,
    w: WorkloadKind,
    seed: u64,
    mode: CellMode,
    opts: &MeasureOptions,
    tr: &mut Tracer,
) -> LiveCell {
    let id = tr.open("workloads.build_scenario");
    let mut scenario = build_scenario(os, w, seed, &opts.scenario);
    tr.close(id);
    tr.bypass(&["softmodem.install"]);
    if mode == CellMode::Bare {
        return LiveCell {
            scenario,
            session: None,
            flight: None,
            blame: None,
        };
    }
    let id = tr.open("latency.install");
    let session =
        MeasurementSession::install_with(&mut scenario.kernel, opts.period_ms, opts.batch_record);
    let flight = opts.blame.map(|_| {
        let r = Rc::new(RefCell::new(FlightRecorder::new(
            FlightOptions::default().capacity,
        )));
        scenario.kernel.add_observer(r.clone());
        r
    });
    let blame = opts.blame.map(|b| {
        let r = Rc::new(RefCell::new(BlameRecorder::new(
            &scenario.kernel,
            vec![(session.rt24.thread, "rt24"), (session.rt28.thread, "rt28")],
            b,
            flight.clone(),
        )));
        scenario.kernel.add_observer(r.clone());
        r
    });
    tr.close(id);
    LiveCell {
        scenario,
        session: Some(session),
        flight,
        blame,
    }
}

/// Finish of one measured cell: flush, then move the series out into a
/// [`ScenarioMeasurement`] exactly as `measure_scenario` does. Also reads
/// what the per-cell invariants need from the live kernel.
fn finish_cell(
    cell: LiveCell,
    sim_hours: f64,
    tr: &mut Tracer,
) -> (ScenarioMeasurement, CellFacts) {
    let LiveCell {
        scenario,
        session,
        flight,
        blame,
    } = cell;
    let session = session.expect("measured cells carry a session");
    let id = tr.open("latency.flush");
    session.flush();
    tr.close(id);

    let id = tr.open("latency.extract");
    let batch_flushes = session.batch_flushes();
    let staged_samples = session.staged_samples();
    let stage_peak = session.peak_staged();
    let cpu_hz = scenario.kernel.config().cpu_hz;
    let mut truth = session.truth.borrow_mut();
    let mut r28 = session.rt28.results.borrow_mut();
    let take = |s: &mut LatencySeries| {
        let name = s.name.clone();
        std::mem::replace(s, LatencySeries::new(&name, cpu_hz))
    };
    let dpc28 = truth
        .dpcs
        .remove(&session.rt28.dpc)
        .expect("watched dpc has series");
    let thr28 = truth
        .threads
        .remove(&session.rt28.thread)
        .expect("watched thread has series");
    let thr24 = truth
        .threads
        .remove(&session.rt24.thread)
        .expect("watched thread has series");
    let blame_pid = FlightOptions::default().pid;
    let blame_episodes: Vec<BlameEpisodePayload> = blame
        .as_ref()
        .map(|r| {
            r.borrow()
                .episodes
                .iter()
                .map(|ep| {
                    (
                        ep.latency_cycles,
                        ep.meta_json(),
                        ep.render_trace(&scenario.kernel, blame_pid),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    let flight_peak = flight.as_ref().map(|r| r.borrow().peak_depth());
    let metrics = scenario.kernel.metrics_snapshot();
    let mut m = ScenarioMeasurement {
        os: scenario.os,
        workload: scenario.workload,
        collected_hours: sim_hours,
        usage: scenario.usage,
        int_to_isr: dpc28.round_int,
        int_to_isr_all_ticks: take(&mut truth.pit_int),
        isr_to_dpc: dpc28.isr_to_dpc,
        int_to_dpc: dpc28.int,
        dpc_lat: dpc28.lat,
        thread_lat_28: thr28.lat,
        thread_int_28: thr28.int,
        thread_lat_24: thr24.lat,
        thread_int_24: thr24.int,
        tool_dpc_to_thread_28: take(&mut r28.dpc_to_thread),
        tool_est_int_to_dpc: take(&mut r28.est_int_to_dpc),
        ops_completed: scenario.total_ops(),
        account: scenario.kernel.account,
        episodes: Vec::new(),
        waits_24: scenario.kernel.thread(session.rt24.thread).waits_satisfied,
        waits_28: scenario.kernel.thread(session.rt28.thread).waits_satisfied,
        sim_events: scenario.kernel.sim_events,
        steps_executed: scenario.kernel.steps_executed,
        step_dispatches: scenario.kernel.step_dispatches,
        metrics,
        trace_events: Vec::new(),
        blame_episodes,
        flame: BTreeMap::new(),
    };
    m.metrics.counter("latency.ops_completed", m.ops_completed);
    m.metrics.counter("latency.episodes", 0);
    m.metrics.counter("latency.waits_24", m.waits_24);
    m.metrics.counter("latency.waits_28", m.waits_28);
    let fast_bin = m.fast_bin_samples();
    m.metrics.counter("latency.fast_bin_samples", fast_bin);
    m.metrics.counter("latency.batch_flushes", batch_flushes);
    m.metrics.counter("latency.staged_samples", staged_samples);
    m.metrics.gauge("latency.stage.peak", stage_peak as f64);
    if let Some(peak) = flight_peak {
        m.metrics.gauge("sim.flight.ring_peak", peak as f64);
    }
    if let Some(b) = &blame {
        let r = b.borrow();
        let s = &r.summary;
        m.metrics
            .counter("latency.blame.watched_resumes", s.watched_resumes);
        m.metrics.counter("latency.blame.triggered", s.triggered);
        m.metrics.counter("latency.blame.evicted", s.evicted);
        m.metrics
            .counter("latency.blame.retained", r.episodes.len() as u64);
        let t = &s.totals;
        for (name, v) in [
            ("latency.blame.isr_cycles", t.isr),
            ("latency.blame.dpc_cycles", t.dpc),
            ("latency.blame.masked_cycles", t.masked),
            ("latency.blame.dispatch_cycles", t.dispatch),
            ("latency.blame.preempt_cycles", t.preempt),
            ("latency.blame.quantum_cycles", t.quantum),
            ("latency.blame.idle_cycles", t.idle),
        ] {
            m.metrics.counter(name, v);
        }
        m.metrics.histogram(
            "latency.blame.hist.triggered_ms",
            r.triggered_hist.edges_ms().to_vec(),
            r.triggered_hist.counts().to_vec(),
        );
    }
    let hists = [
        ("latency.hist.int_to_isr_ms", &m.int_to_isr),
        ("latency.hist.dpc_lat_ms", &m.dpc_lat),
        ("latency.hist.thread_lat_28_ms", &m.thread_lat_28),
        ("latency.hist.thread_lat_24_ms", &m.thread_lat_24),
    ]
    .map(|(name, s)| (name, s.hist.edges_ms().to_vec(), s.hist.counts().to_vec()));
    for (name, edges, counts) in hists {
        m.metrics.histogram(name, edges, counts);
    }
    tr.close(id);

    let facts = CellFacts {
        elapsed_cycles: scenario.kernel.now().0,
        scanned_ring_events: match (&flight, &blame) {
            (Some(f), Some(b)) => {
                scanned_ring_events(b.borrow().summary.watched_resumes, f.borrow().total)
            }
            _ => 0.0,
        },
        episodes: blame
            .as_ref()
            .map(|b| {
                b.borrow()
                    .episodes
                    .iter()
                    .map(|ep| (ep.ordinal, ep.breakdown.total(), ep.latency_cycles))
                    .collect()
            })
            .unwrap_or_default(),
    };
    (m, facts)
}

/// What the per-cell invariants need from the live kernel.
struct CellFacts {
    /// Simulated cycles elapsed when the run ended.
    elapsed_cycles: u64,
    /// Retained blame episodes: ordinal, breakdown sum, latency.
    episodes: Vec<(usize, u64, u64)>,
    /// Flight-ring events scanned by blame captures (see
    /// [`scanned_ring_events`]).
    scanned_ring_events: f64,
}

/// Under top-K every watched resume copies its window out of the flight
/// ring with one linear scan of the ring. Returns the events those scans
/// visit, assuming the `events` the ring saw arrived at a constant rate
/// (the ring holds `min(events * t / T, capacity)` at time `t` of a
/// `T`-long run, so a resume at a uniform time sees the mean occupancy).
pub(crate) fn scanned_ring_events(resumes: u64, events: u64) -> f64 {
    let cap = FlightOptions::default().capacity as f64;
    let events = events as f64;
    let mean = if events <= cap {
        events / 2.0
    } else {
        cap * (1.0 - cap / (2.0 * events))
    };
    resumes as f64 * mean
}

/// Check (c): the per-cell invariants that hold at any seed.
fn check_cell(m: &ScenarioMeasurement, facts: &CellFacts, label: &str, ck: &mut Checks) {
    let (total, elapsed) = (m.account.total(), facts.elapsed_cycles);
    ck.check(label, "c.account_total", total == elapsed, || {
        format!("CycleAccount::total() {total} != elapsed {elapsed}")
    });
    let empty = series_counts(m).iter().filter(|&&n| n == 0).count();
    ck.check(label, "c.series_nonempty", empty == 0, || {
        format!("{empty} of 11 series are empty")
    });
    for &(ordinal, sum, latency) in &facts.episodes {
        ck.check(label, "c.blame_sum", sum == latency, || {
            format!("episode {ordinal} breakdown sums to {sum}, latency is {latency}")
        });
    }
}

/// The 11 measurement series, in digest order.
pub(crate) fn series(m: &ScenarioMeasurement) -> [&LatencySeries; 11] {
    [
        &m.int_to_isr,
        &m.int_to_isr_all_ticks,
        &m.isr_to_dpc,
        &m.int_to_dpc,
        &m.dpc_lat,
        &m.thread_lat_28,
        &m.thread_int_28,
        &m.thread_lat_24,
        &m.thread_int_24,
        &m.tool_dpc_to_thread_28,
        &m.tool_est_int_to_dpc,
    ]
}

/// Sample counts of the 11 measurement series, in digest order.
pub(crate) fn series_counts(m: &ScenarioMeasurement) -> [u64; 11] {
    series(m).map(|s| s.hist.count())
}

/// One round of the 8-cell grid: `minutes` simulated per cell at `seed`.
pub(crate) fn grid_round(
    seed: u64,
    minutes: f64,
    mode: CellMode,
    tr: &mut Tracer,
    ck: &mut Checks,
) -> RoundOutput {
    let opts = measure_opts(mode);
    let hours = minutes / 60.0;
    let mut cost = RoundCost {
        sim_seconds: minutes * 60.0 * 8.0,
        ..RoundCost::default()
    };
    let mut registry = MetricsSnapshot::new();
    let mut peak_calendar = 0;
    let mut draws = 0;
    let mut scanned = 0.0;
    let (mut nt, mut win98, mut fingerprint) = (Vec::new(), Vec::new(), Vec::new());
    for (os, w) in grid_cells() {
        let label = format!("{os:?}/{w:?}");
        let t0 = cpu_ns();
        let mut cell = set_up_cell(os, w, cell_seed(seed, os, w), mode, &opts, tr);
        let t1 = cpu_ns();
        let k = &mut cell.scenario.kernel;
        let d = Cycles::from_ms_at(hours * 3_600_000.0, k.config().cpu_hz);
        run_sim(k, d, tr);
        let t2 = cpu_ns();
        cost.setup_ns += t1 - t0;
        cost.run_ns += t2 - t1;
        draws += witnessed_draws(&cell.scenario);
        if mode == CellMode::Bare {
            let k = &cell.scenario.kernel;
            fingerprint.push(format!("{label} bare sim_events={}", k.sim_events));
            continue;
        }
        let t3 = cpu_ns();
        tr.bypass(&["softmodem.finish"]);
        let (m, facts) = finish_cell(cell, hours, tr);
        cost.finish_ns += cpu_ns() - t3;
        check_cell(&m, &facts, &label, ck);
        registry.merge_from(&m.metrics);
        scanned += facts.scanned_ring_events;
        peak_calendar = peak_calendar.max(gauge(&m.metrics, "sim.calendar.peak_entries") as usize);
        match os {
            OsKind::Nt4 => nt.push(m),
            _ => win98.push(m),
        }
    }
    registry.counter(DRAWS, draws);
    if mode == CellMode::Bare {
        return RoundOutput {
            cost,
            fingerprint,
            registry,
            cells: None,
            pumps: Vec::new(),
            peak_calendar,
            scanned_ring_events: 0.0,
        };
    }

    let t0 = cpu_ns();
    let id = tr.open("bench.render");
    let cfg = RunConfig {
        duration: wdm_bench::Duration::Minutes(minutes),
        seed,
        threads: 1,
        blame: opts.blame,
        ..RunConfig::default()
    };
    for m in nt.iter_mut().chain(win98.iter_mut()) {
        finish_blame(m, &cfg);
    }
    let digests: Vec<String> = nt.iter().chain(&win98).map(summary_digest).collect();
    let cells = AllCells { nt, win98 };
    let mut rendered = tables::table3(&cells).len()
        + tables::table3_nt(&cells).len()
        + figures::figure4(&cells).len()
        + figures::figures_6_7(&cells).len();
    if opts.blame.is_some() {
        rendered += forensics::render_blame_json(&cfg, &cells).len();
    }
    std::hint::black_box(rendered);
    tr.close(id);
    cost.finish_ns += cpu_ns() - t0;

    for (d, m) in digests.into_iter().zip(cells.nt.iter().chain(&cells.win98)) {
        fingerprint.push(format!("{d} metrics={}", m.metrics.to_json("")));
    }
    RoundOutput {
        cost,
        fingerprint,
        registry,
        cells: Some(cells),
        pumps: Vec::new(),
        peak_calendar,
        scanned_ring_events: scanned,
    }
}

/// One round of the six datapump cases: `seconds` simulated per case, no
/// measurement session (the observer-delivery and `wdm-latency` bypass).
///
/// The round runs each phase for all six cases before the next phase (all
/// set-ups, then all runs, then all finishes) rather than case by case as
/// `repro validate-mttf` does. The work is the same. A datapump case's
/// set-up and finish take only microseconds, and timed one by one between
/// long runs they swung by up to 2× from run to run on a shared host; timed
/// as one block per round they are far steadier.
pub(crate) fn datapump_round(
    seed: u64,
    seconds: f64,
    tr: &mut Tracer,
    ck: &mut Checks,
) -> RoundOutput {
    let params = MttfParams::default();
    let mut cost = RoundCost {
        sim_seconds: seconds * PUMP_CASES.len() as f64,
        ..RoundCost::default()
    };

    let t0 = cpu_ns();
    let mut live = Vec::with_capacity(PUMP_CASES.len());
    for (os, w, modality, buffering_ms) in PUMP_CASES {
        let id = tr.open("workloads.build_scenario");
        let mut scenario =
            build_scenario(os, w, pump_seed(seed, os, w), &ScenarioOptions::default());
        tr.close(id);
        tr.bypass(&["latency.install"]);
        let id = tr.open("softmodem.install");
        let cpu = scenario.kernel.config().cpu_hz;
        let period_ms = buffering_ms / (params.buffers - 1) as f64;
        let pump = Datapump::install(
            &mut scenario.kernel,
            modality,
            Cycles::from_ms_at(period_ms, cpu),
            Cycles::from_ms_at(period_ms * params.compute_fraction, cpu),
            Cycles::from_ms_at(buffering_ms, cpu),
        );
        tr.close(id);
        live.push((scenario, pump));
    }
    let t1 = cpu_ns();
    for (scenario, _) in &mut live {
        let sim = Cycles::from_ms_at(seconds * 1000.0, scenario.kernel.config().cpu_hz);
        run_sim(&mut scenario.kernel, sim, tr);
    }
    let t2 = cpu_ns();
    let draws: u64 = live.iter().map(|(s, _)| witnessed_draws(s)).sum();

    // Finish: the observed MTTF and buffer counts `validate_mttf` reads, the
    // counter snapshot, and the scenario teardown (a grid cell's teardown
    // falls in its finish too).
    let t3 = cpu_ns();
    let mut results = Vec::with_capacity(live.len());
    for (scenario, pump) in live {
        let id = tr.open("softmodem.finish");
        let cpu = scenario.kernel.config().cpu_hz;
        let observed = pump.observed_mttf_s(Cycles::from_ms_at(seconds * 1000.0, cpu), cpu);
        let (completed, missed) = {
            let st = pump.state.borrow();
            (st.completed, st.missed)
        };
        let metrics = scenario.kernel.metrics_snapshot();
        let (elapsed, total) = (scenario.kernel.now().0, scenario.kernel.account.total());
        drop((scenario, pump));
        tr.close(id);
        tr.bypass(&["latency.flush", "latency.extract", "bench.render"]);
        results.push((observed, completed, missed, metrics, elapsed, total));
    }
    cost.setup_ns = t1 - t0;
    cost.run_ns = t2 - t1;
    cost.finish_ns = cpu_ns() - t3;

    let mut registry = MetricsSnapshot::new();
    let mut fingerprint = Vec::new();
    let mut pumps = Vec::new();
    let mut peak_calendar = 0;
    for ((os, w, modality, buffering_ms), (observed, completed, missed, metrics, elapsed, total)) in
        PUMP_CASES.into_iter().zip(results)
    {
        let label = format!("{os:?}/{w:?}/{modality:?}@{buffering_ms}ms");
        ck.check(&label, "c.account_total", total == elapsed, || {
            format!("CycleAccount::total() {total} != elapsed {elapsed}")
        });
        ck.check(&label, "c.pump_processed", completed + missed > 0, || {
            "datapump processed no buffer".to_string()
        });
        peak_calendar = peak_calendar.max(gauge(&metrics, "sim.calendar.peak_entries") as usize);
        fingerprint.push(format!(
            "{label} completed={completed} missed={missed} mttf={} metrics={}",
            observed.to_bits(),
            metrics.to_json("")
        ));
        registry.merge_from(&metrics);
        pumps.push((completed, missed));
    }
    registry.counter(DRAWS, draws);
    RoundOutput {
        cost,
        fingerprint,
        registry,
        cells: None,
        pumps,
        peak_calendar,
        scanned_ring_events: 0.0,
    }
}

/// Registry name of the benchmark's own draw count (see
/// [`witnessed_draws`]); it rides the round registry beside the program's
/// counters.
pub(crate) const DRAWS: &str = "osmodel.draws";

/// Distribution draws that exact kernel counters witness: one arrival and
/// one ISR-duration draw per interrupt asserted on a `WorkloadSpec` device,
/// and one burst and one idle draw per application operation. Device DPC
/// durations and OS background sources draw too but keep no counter; their
/// cost stays in the cost model's residual.
pub(crate) fn witnessed_draws(s: &Scenario) -> u64 {
    let devices: Vec<&str> = WorkloadSpec::of(s.workload)
        .devices
        .iter()
        .map(|d| d.name)
        .collect();
    let ic = s.kernel.interrupts();
    let asserts: u64 = (0..ic.len())
        .map(|i| ic.vector(VectorId(i)))
        .filter(|v| devices.contains(&v.name.as_str()))
        .map(|v| v.assert_count)
        .sum();
    2 * asserts + 2 * s.total_ops()
}

/// A gauge's value, or 0 when absent.
pub(crate) fn gauge(m: &MetricsSnapshot, name: &str) -> f64 {
    match m.get(name) {
        Some(wdm_sim::metrics::MetricValue::Gauge(v)) => *v,
        _ => 0.0,
    }
}

/// A counter's value, or 0 when absent.
pub(crate) fn counter(m: &MetricsSnapshot, name: &str) -> u64 {
    m.counter_value(name).unwrap_or(0)
}
