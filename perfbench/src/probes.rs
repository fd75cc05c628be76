//! Unit costs measured through single public functions.
//!
//! Each probe times one repository function on inputs taken from the
//! workload (its own distributions, its peak calendar size, the grid's
//! recorded latencies, a full default flight ring). Multiplied by the exact
//! counters the program keeps, they give the cost model's `<layer>.model_ms`.
//! Every probe reports the median of five repetitions.

use std::hint::black_box;

use rand::{rngs::StdRng, Rng, SeedableRng};
use wdm_analysis::mttf::{fig6_axis, fig7_axis, mttf_seconds, MttfParams};
use wdm_bench::cells::AllCells;
use wdm_latency::{stage::SampleStage, worstcase::LatencySeries};
use wdm_osmodel::{
    dist::{CompiledSampler, SamplerMode},
    personality::OsKind,
};
use wdm_sim::{
    calendar::DeadlineHeap,
    flight::FlightRecorder,
    time::{Cycles, Instant},
};
use wdm_workloads::{build_scenario, ScenarioOptions, WorkloadKind, WorkloadSpec};

use crate::clock::{cpu_timed, median};

const REPS: usize = 5;

fn median_of_reps(mut rep: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..REPS).map(|_| rep()).collect();
    median(&v)
}

/// Nanoseconds per `CompiledSampler::draw`, round-robin over every
/// distribution in the given workloads' `WorkloadSpec`s.
pub fn draw_ns(kinds: &[WorkloadKind], cpu_hz: u64, seed: u64) -> f64 {
    let samplers: Vec<CompiledSampler> = kinds
        .iter()
        .flat_map(|&k| {
            let spec = WorkloadSpec::of(k);
            let mut dists = Vec::new();
            for d in &spec.devices {
                dists.push(d.isr_ms.clone());
                dists.extend(d.dpc_ms.clone());
            }
            for t in &spec.tasks {
                dists.push(t.burst_ms.clone());
                dists.push(t.idle_ms.clone());
            }
            dists
        })
        .map(|d| d.compile(cpu_hz, SamplerMode::Exact))
        .collect();
    const DRAWS: usize = 200_000;
    let mut rng = StdRng::seed_from_u64(seed);
    median_of_reps(|| {
        let (sum, ns) = cpu_timed(|| {
            let mut sum = 0u64;
            for i in 0..DRAWS {
                sum = sum.wrapping_add(samplers[i % samplers.len()].draw(&mut rng).0);
            }
            black_box(sum)
        });
        black_box(sum);
        ns as f64 / DRAWS as f64
    })
}

/// Nanoseconds per `DeadlineHeap::push` + `pop_due_into` pair, holding the
/// heap at `entries` (the workload's peak calendar size).
pub fn calendar_op_ns(entries: usize, seed: u64) -> f64 {
    let entries = entries.max(1);
    // Deadlines spread over one simulated millisecond per entry at 300 MHz.
    let span = 300_000 * entries as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut heap = DeadlineHeap::new();
    let mut now = 0u64;
    for i in 0..entries {
        heap.push(Instant(rng.gen_range(1..=span)), i as u32, 0);
    }
    const OPS: usize = 200_000;
    let mut out = Vec::with_capacity(entries);
    median_of_reps(|| {
        let (pops, ns) = cpu_timed(|| {
            let mut pops = 0usize;
            while pops < OPS {
                now = heap.peek_deadline().expect("heap holds entries").0;
                heap.pop_due_into(Instant(now), |_, _| true, &mut out);
                pops += out.len();
                for &idx in &out {
                    heap.push(Instant(now + rng.gen_range(1..=span)), idx, 0);
                }
                out.clear();
            }
            pops
        });
        ns as f64 / pops as f64
    })
}

/// Nanoseconds per sample through `SampleStage::push`, `partition` and
/// `fold_into`, over the latency distributions `cells` recorded (each
/// series' histogram expanded back to at most 1024 cycle values at bin
/// edges, shuffled, one sample per simulated millisecond).
pub fn stage_ns_per_sample(cells: &AllCells, cpu_hz: u64, seed: u64) -> f64 {
    let mut samples: Vec<(u16, u64)> = Vec::new();
    for m in cells.nt.iter().chain(&cells.win98) {
        for (sid, s) in crate::rounds::series(m).into_iter().enumerate() {
            let hist = &s.hist;
            let count = hist.count();
            let (edges, counts) = (hist.edges_ms(), hist.counts());
            let keep = |n: u64| (n as f64 * 1024.0 / count.max(1) as f64).ceil() as u64;
            for (i, &n) in counts.iter().enumerate() {
                let ms = match i {
                    0 => edges[0] * 0.5,
                    _ if i > edges.len() => edges[edges.len() - 1] * 1.5,
                    _ => edges[i - 1],
                };
                let c = Cycles::from_ms_at(ms, cpu_hz).0;
                for _ in 0..keep(n).min(n) {
                    samples.push((sid as u16, c));
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..samples.len()).rev() {
        samples.swap(i, rng.gen_range(0..=i));
    }
    let tick = cpu_hz / 1000;
    median_of_reps(|| {
        let ((), ns) = cpu_timed(|| {
            let mut stage = SampleStage::new(60 * cpu_hz);
            let base = stage.register_series(11);
            let mut series: Vec<LatencySeries> = (0..11)
                .map(|i| LatencySeries::new(&format!("s{i}"), cpu_hz))
                .collect();
            let flush = |stage: &mut SampleStage, series: &mut [LatencySeries]| {
                stage.partition();
                for (i, s) in series.iter_mut().enumerate() {
                    stage.fold_into(base + i as u16, s);
                }
                stage.reset();
            };
            for (k, &(sid, lat)) in samples.iter().enumerate() {
                if stage.push(base + sid, Instant(k as u64 * tick), Cycles(lat)) {
                    flush(&mut stage, &mut series);
                }
            }
            flush(&mut stage, &mut series);
            black_box(&series);
        });
        ns as f64 / samples.len() as f64
    })
}

/// Microseconds per `FlightRecorder::events_in` on a full ring of
/// `events` events, for a 3 ms window ending at the newest event: a 1 ms
/// latency with the blame tool's 1 ms of padding each side.
pub fn capture_us(events: usize, seed: u64) -> f64 {
    let events = events.max(1);
    let mut s = build_scenario(
        OsKind::Win98,
        WorkloadKind::Games,
        seed,
        &ScenarioOptions::default(),
    );
    let ring = std::rc::Rc::new(std::cell::RefCell::new(FlightRecorder::new(events)));
    s.kernel.add_observer(ring.clone());
    let cpu_hz = s.kernel.config().cpu_hz;
    while ring.borrow().len() < events {
        s.kernel.run_for(Cycles::from_ms_at(100.0, cpu_hz));
    }
    let ring = ring.borrow();
    let hi = s.kernel.now();
    let lo = Instant(hi.0 - Cycles::from_ms_at(3.0, cpu_hz).0);
    const CALLS: usize = 100;
    median_of_reps(|| {
        let (n, ns) = cpu_timed(|| {
            (0..CALLS)
                .map(|_| black_box(ring.events_in(lo, hi)).len())
                .sum::<usize>()
        });
        black_box(n);
        ns as f64 / 1e3 / CALLS as f64
    })
}

/// Milliseconds for the MTTF analysis Figures 6 and 7 make: `mttf_seconds`
/// over the Windows 98 cells at every buffering point of both axes.
pub fn mttf_ms(cells: &AllCells) -> f64 {
    let params = MttfParams::default();
    median_of_reps(|| {
        let (sum, ns) = cpu_timed(|| {
            let mut sum = 0.0;
            for m in &cells.win98 {
                for b in fig6_axis() {
                    sum += mttf_seconds(&m.int_to_dpc.hist, b, &params).min(1e12);
                }
                for b in fig7_axis() {
                    sum += mttf_seconds(&m.thread_int_28.hist, b, &params).min(1e12);
                }
            }
            black_box(sum)
        });
        black_box(sum);
        ns as f64 / 1e6
    })
}
