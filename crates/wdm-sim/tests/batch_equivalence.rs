//! Batched-vs-single-step equivalence oracle.
//!
//! The kernel fast-forwards busy chunks that end strictly before the
//! current preemption horizon (DESIGN.md §8): thread and ISR/DPC program
//! `Busy` steps, thread service-call charges, and the frame chunks of ISR
//! entry/exit, the clock ISR body, DPC dispatch, cli windows and
//! non-preemptible sections. That is a pure execution-strategy change: the
//! simulation it produces must be *observably identical* to spending one
//! decision-loop iteration per chunk. This suite drives randomized device +
//! thread scenarios twice — batching on (the default) and off — and
//! requires byte-identical:
//!
//! - instrumentation event streams (every ISR enter with the label it
//!   interrupted, DPC start, thread resume, context switch, calendar pop
//!   and quantum expiry, with exact instants),
//! - the exact blame decomposition of every resume window and the virtual
//!   flame sample counts (both read the per-chunk charges directly),
//! - the kernel fingerprint: final `now`, `sim_events`, RNG position,
//! - cycle accounting by hierarchy level and total context switches,
//! - the executed-step count (batching may not skip or invent steps).
//!
//! Deterministic companion tests pin that the batched run actually fuses
//! chunks (`batched_steps > 0`), including with no program `Busy` chunk in
//! any thread, so the proptest cannot pass vacuously by never batching.

use std::{cell::RefCell, rc::Rc};

use proptest::prelude::*;

use wdm_sim::prelude::*;

/// Full-interest recorder: a flat, ordered log of every event the kernel
/// can emit, with exact instants. Two runs are observably identical for
/// every latency tool iff these logs match. Its default interest arms
/// resume blame for every thread.
#[derive(Default)]
struct FullLog {
    events: Vec<(u8, u64, u64, u64, u64)>,
    blame: Vec<(u64, u64, u64, BlameBreakdown)>,
}

impl Observer for FullLog {
    fn on_isr_enter(&mut self, e: &IsrEnter) {
        self.events.push((
            0,
            e.vector.0 as u64,
            e.asserted.0,
            e.started.0,
            e.interrupted_label.0 as u64,
        ));
    }
    fn on_dpc_start(&mut self, e: &DpcStart) {
        self.events
            .push((1, e.dpc.0 as u64, e.queued.0, e.started.0, 0));
    }
    fn on_thread_resume(&mut self, e: &ThreadResume) {
        self.events.push((
            2,
            e.thread.0 as u64,
            e.readied.0,
            e.started.0,
            e.priority as u64,
        ));
    }
    fn on_context_switch(&mut self, from: Option<ThreadId>, to: ThreadId, now: Instant) {
        let f = from.map(|t| t.0 as u64 + 1).unwrap_or(0);
        self.events.push((3, f, to.0 as u64, now.0, 0));
    }
    fn on_calendar_pop(&mut self, e: &CalendarPop) {
        let kind = match e.kind {
            CalendarPopKind::Tick => 0,
            CalendarPopKind::Env => 1,
            CalendarPopKind::Timer => 2,
            CalendarPopKind::Wait => 3,
        };
        self.events.push((4, kind, e.index as u64, e.at.0, 0));
    }
    fn on_quantum_expiry(&mut self, e: &QuantumExpiry) {
        self.events.push((
            5,
            e.thread.0 as u64,
            e.priority as u64,
            e.at.0,
            e.descheduled as u64,
        ));
    }
    fn on_resume_blame(&mut self, e: &ResumeBlame) {
        self.blame
            .push((e.thread.0 as u64, e.readied.0, e.started.0, e.breakdown));
    }
}

/// Everything one run produces that batching could conceivably perturb.
#[derive(PartialEq, Debug)]
struct RunDigest {
    events: Vec<(u8, u64, u64, u64, u64)>,
    blame: Vec<(u64, u64, u64, BlameBreakdown)>,
    flame: Vec<u64>,
    now: u64,
    sim_events: u64,
    rng_fingerprint: u64,
    account: CycleAccount,
    context_switches: u64,
    steps_executed: u64,
}

/// Scenario knobs the proptest explores. Odd cycle values keep chunk ends
/// off tick boundaries so both `end < horizon` and `end == horizon` paths
/// are exercised. A zero `*_busy` knob drops that program's `Busy` step.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    seed: u64,
    isr_busy: u64,
    dpc_busy: u64,
    rt_busy: u64,
    hog_busy: u64,
    hog_sleep: u64,
    arrival_lo: u64,
    arrival_hi: u64,
    svc_busy: u64,
    svc_sleep: u64,
    svc_cli: u64,
    cli_len: u64,
    cli_gap: u64,
    section_len: u64,
    section_gap: u64,
    quantum: u64,
    flame_period: u64,
    run_ms: u64,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    let device = (
        0u64..1_000,
        (500u64..40_000, 500u64..120_000),
        (1_000u64..300_000, 1_000u64..900_000),
        (50_000u64..600_000, 30_000u64..400_000, 100_000u64..900_000),
        3u64..12,
    );
    let kernel = (
        (0u64..40_000, 5_000u64..300_000, 100u64..20_000),
        (200u64..30_000, 50_000u64..900_000),
        (2_000u64..200_000, 200_000u64..3_000_000),
        200_000u64..4_000_000,
        997u64..60_000,
    );
    (device, kernel).prop_map(
        |(
            (seed, (isr_busy, dpc_busy), (rt_busy, hog_busy), (hog_sleep, lo, span), run_ms),
            (
                (svc_busy, svc_sleep, svc_cli),
                (cli_len, cli_gap),
                (section_len, section_gap),
                quantum,
                flame_period,
            ),
        )| Scenario {
            seed,
            isr_busy: isr_busy | 1,
            dpc_busy: dpc_busy | 1,
            rt_busy: rt_busy | 1,
            hog_busy: hog_busy | 1,
            hog_sleep: hog_sleep | 1,
            arrival_lo: lo | 1,
            arrival_hi: (lo + span) | 1,
            // Sometimes none: the service thread is then all kernel calls.
            svc_busy: if svc_busy < 10_000 { 0 } else { svc_busy | 1 },
            svc_sleep: svc_sleep | 1,
            svc_cli: svc_cli | 1,
            cli_len: cli_len | 1,
            cli_gap: cli_gap | 1,
            section_len: section_len | 1,
            section_gap: section_gap | 1,
            quantum: quantum | 1,
            flame_period,
            run_ms,
        },
    )
}

/// A `Busy` step, or nothing for a zero length.
fn busy(cycles: u64, label: Label) -> Option<Step> {
    (cycles > 0).then_some(Step::Busy {
        cycles: Cycles(cycles),
        label,
    })
}

/// Builds one scenario, with the recorder attached: a stochastic device
/// interrupt (ISR -> DPC -> SetEvent), a real-time thread woken by the
/// event, normal-priority CPU hogs with sleeps, a service thread that
/// makes kernel calls (TSC reads, slot writes, a signal to a
/// lower-priority waiter, timer arming, DPC queueing, raised-IRQL work, a
/// yield and a cli burst), zero-length chunks, env-driven cli windows and non-preemptible
/// sections, and a periodic timer-driven DPC — all over stochastic arrival
/// processes that draw from the kernel RNG (so any batching-induced
/// divergence also desynchronizes the RNG stream and is caught twice).
fn build(sc: Scenario) -> (Kernel, Rc<RefCell<FullLog>>) {
    let cfg = KernelConfig {
        seed: sc.seed,
        quantum: Cycles(sc.quantum),
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(cfg);
    let log = Rc::new(RefCell::new(FullLog::default()));
    k.add_observer(log.clone());
    k.set_flame_period(sc.flame_period);

    let l_isr = k.intern("DEV", "_Isr");
    let l_dpc = k.intern("DEV", "_Dpc");
    let l_rt = k.intern("APP", "_RtWork");
    let l_hog = k.intern("APP", "_Hog");
    let l_svc = k.intern("APP", "_Svc");
    let l_cli = k.intern("VMM", "_Cli");
    let l_section = k.intern("VMM", "_Section");
    // Zero-length chunks cost the single-step path no time; their label
    // must never become the "interrupted" label.
    let zero = Step::Busy {
        cycles: Cycles::ZERO,
        label: k.intern("APP", "_Zero"),
    };

    let wake = k.create_event(EventKind::Synchronization, false);
    let dpc = k.create_dpc(
        "dev-dpc",
        DpcImportance::Medium,
        Box::new(OpSeq::new(
            [
                busy(sc.dpc_busy, l_dpc),
                Some(zero),
                Some(Step::SetEvent(wake)),
            ]
            .into_iter()
            .flatten()
            .collect(),
        )),
    );
    let v = k.install_vector(
        "dev",
        Irql(12),
        Box::new(OpSeq::new(
            [
                Some(zero),
                busy(sc.isr_busy, l_isr),
                Some(Step::QueueDpc(dpc)),
            ]
            .into_iter()
            .flatten()
            .collect(),
        )),
    );
    k.add_env_source(EnvSource::new(
        "dev-arrivals",
        samplers::uniform(Cycles(sc.arrival_lo), Cycles(sc.arrival_hi)),
        EnvAction::AssertInterrupt(v),
    ));
    k.add_env_source(EnvSource::new(
        "cli-windows",
        samplers::uniform(Cycles(sc.cli_gap / 2 + 1), Cycles(sc.cli_gap)),
        EnvAction::Cli {
            duration: samplers::uniform(Cycles(1), Cycles(sc.cli_len)),
            label: l_cli,
        },
    ));
    k.add_env_source(EnvSource::new(
        "sections",
        samplers::uniform(Cycles(sc.section_gap / 2 + 1), Cycles(sc.section_gap)),
        EnvAction::Section {
            duration: samplers::uniform(Cycles(1), Cycles(sc.section_len)),
            label: l_section,
        },
    ));

    let _rt = k.create_thread(
        "rt",
        RT_DEFAULT_PRIORITY,
        Box::new(LoopSeq::new(
            [
                Some(Step::Wait(WaitObject::Event(wake))),
                busy(sc.rt_busy, l_rt),
            ]
            .into_iter()
            .flatten()
            .collect(),
        )),
    );
    for i in 0..2u64 {
        let hog_busy = if sc.hog_busy == 0 {
            0
        } else {
            sc.hog_busy + 17 * i
        };
        k.create_thread(
            &format!("hog-{i}"),
            (6 + i) as u8,
            Box::new(LoopSeq::new(
                [
                    busy(hog_busy, l_hog),
                    Some(Step::Sleep(Cycles(sc.hog_sleep + 31 * i))),
                ]
                .into_iter()
                .flatten()
                .collect(),
            )),
        );
    }

    // The service thread signals a waiter below it (no preemption, so its
    // charge may fuse), arms a one-shot timer and queues a DPC (whose
    // drain preempts it, so that charge may not). The waiter runs an APC
    // of kernel calls queued by the service thread on its next wake.
    let slots = k.alloc_slots(2);
    let slot2 = Slot(slots.0 + 1);
    let low_wake = k.create_event(EventKind::Synchronization, false);
    let waiter = k.create_thread(
        "waiter",
        4,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(low_wake)),
            Step::ReadTsc(slots),
        ])),
    );
    let apc = k.create_apc(Box::new(OpSeq::new(vec![
        Step::ReadTsc(slot2),
        Step::WriteSlot(slots, 3),
    ])));
    let svc_dpc = k.create_dpc(
        "svc-dpc",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![Step::ReadTsc(slot2)])),
    );
    let svc_timer = k.create_timer(None);
    k.create_thread(
        "svc",
        9,
        Box::new(LoopSeq::new(
            [
                Some(Step::ReadTsc(slots)),
                Some(Step::WriteSlot(slot2, 1)),
                busy(sc.svc_busy, l_svc),
                Some(zero),
                Some(Step::SetEvent(low_wake)),
                Some(Step::QueueApc(waiter, apc)),
                Some(Step::SetTimer {
                    timer: svc_timer,
                    due: Cycles(sc.svc_sleep / 3 + 1),
                    period: None,
                }),
                Some(Step::ResetEvent(low_wake)),
                Some(Step::SetEvent(low_wake)),
                Some(Step::Yield),
                Some(Step::RaiseIrql(Irql::DISPATCH)),
                Some(Step::QueueDpc(svc_dpc)),
                Some(Step::ReadTsc(slot2)),
                Some(Step::LowerIrql),
                Some(Step::BusyCli {
                    cycles: Cycles(sc.svc_cli),
                    label: l_cli,
                }),
                Some(Step::QueueDpc(svc_dpc)),
                Some(Step::ReadTsc(slots)),
                Some(zero),
                Some(Step::Sleep(Cycles(sc.svc_sleep))),
            ]
            .into_iter()
            .flatten()
            .collect(),
        )),
    );

    // A periodic timer DPC keeps calendar deadlines landing inside busy
    // runs, exercising the horizon clip from the calendar side.
    let tick_dpc = k.create_dpc(
        "tick-dpc",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![Step::Return])),
    );
    let timer = k.create_timer(Some(tick_dpc));
    k.set_timer(timer, Cycles::from_ms(1.5), Some(Cycles::from_ms(2.0)));
    (k, log)
}

/// The observable state of a finished run.
fn digest(k: &Kernel, log: &RefCell<FullLog>) -> RunDigest {
    let log = log.borrow();
    RunDigest {
        events: log.events.clone(),
        blame: log.blame.clone(),
        flame: k.flame_counts().to_vec(),
        now: k.now().0,
        sim_events: k.sim_events,
        rng_fingerprint: k.rng_fingerprint(),
        account: k.account,
        context_switches: k.context_switches,
        steps_executed: k.steps_executed,
    }
}

/// Builds and runs one scenario; returns its digest and the number of
/// chunks the batcher fused.
fn run_scenario(sc: Scenario, batching: bool) -> (RunDigest, u64) {
    let (mut k, log) = build(sc);
    k.set_step_batching(batching);
    k.run_for(Cycles::from_ms(sc.run_ms as f64));
    (digest(&k, &log), k.batched_steps)
}

proptest! {
    /// Batched execution is observably identical to single-stepping: same
    /// event stream, same instants, same RNG position, same accounting.
    #[test]
    fn batched_run_is_byte_identical_to_single_step(sc in scenario()) {
        let (batched, _) = run_scenario(sc, true);
        let (single, fused_off) = run_scenario(sc, false);
        prop_assert_eq!(fused_off, 0, "batching off must never fuse");
        prop_assert_eq!(batched, single);
    }
}

/// A busy-heavy deterministic scenario for the companion tests.
fn busy_scenario(seed: u64, run_ms: u64) -> Scenario {
    Scenario {
        seed,
        isr_busy: 20_001,
        dpc_busy: 60_001,
        rt_busy: 150_001,
        hog_busy: 90_001,
        hog_sleep: 200_001,
        arrival_lo: 80_001,
        arrival_hi: 700_001,
        svc_busy: 30_001,
        svc_sleep: 250_001,
        svc_cli: 5_001,
        cli_len: 8_001,
        cli_gap: 400_001,
        section_len: 60_001,
        section_gap: 900_001,
        quantum: 1_500_001,
        flame_period: 4_999,
        run_ms,
    }
}

/// The fast path engages on a busy-heavy scenario — the proptest above
/// would pass vacuously if `batched_steps` stayed at zero.
#[test]
fn batching_fuses_chunks_on_a_busy_scenario() {
    let sc = busy_scenario(7, 20);
    let (batched, fused) = run_scenario(sc, true);
    assert!(fused > 0, "no chunk was fused on a busy-heavy run");
    assert!(
        batched.steps_executed > batched.sim_events / 100,
        "sanity: the run executed real steps"
    );
    assert!(
        !batched.blame.is_empty(),
        "sanity: blame windows were decomposed"
    );
    assert!(
        batched.flame.iter().any(|&n| n > 0),
        "sanity: flame samples were taken"
    );
    let (single, _) = run_scenario(sc, false);
    assert_eq!(batched, single);
}

/// With no program `Busy` chunk anywhere, only kernel-charged chunks
/// (service calls, ISR entry/exit, the clock ISR body, DPC dispatch,
/// dispatch overhead, cli windows and sections) remain — and they fuse.
#[test]
fn kernel_charged_chunks_fuse_without_program_busy() {
    let sc = Scenario {
        isr_busy: 0,
        dpc_busy: 0,
        rt_busy: 0,
        hog_busy: 0,
        svc_busy: 0,
        ..busy_scenario(5, 20)
    };
    let (batched, fused) = run_scenario(sc, true);
    assert!(fused > 0, "no kernel-charged chunk was fused");
    assert!(
        batched.account.cli > 0 && batched.account.section > 0,
        "sanity: cli windows and sections ran"
    );
    let (single, _) = run_scenario(sc, false);
    assert_eq!(batched, single);
}

/// Toggling batching halfway through a run must leave the remainder of the
/// schedule on the same trajectory: the flag selects an execution strategy,
/// not a simulation behavior.
#[test]
fn toggling_batching_mid_run_stays_on_trajectory() {
    let sc = busy_scenario(11, 12);
    let (all_on, _) = run_scenario(sc, true);

    // Same scenario, flipping the switch at 4 ms and 8 ms.
    let (mut k, log) = build(sc);
    k.set_step_batching(false);
    k.run_for(Cycles::from_ms(4.0));
    k.set_step_batching(true);
    k.run_for(Cycles::from_ms(4.0));
    k.set_step_batching(false);
    k.run_for(Cycles::from_ms(4.0));

    assert_eq!(digest(&k, &log), all_on);
}
