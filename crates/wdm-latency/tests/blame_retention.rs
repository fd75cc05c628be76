//! Retention oracle for the blame episode store (DESIGN.md §15).
//!
//! [`BlameRecorder`] keeps the largest triggered samples under a fixed
//! capacity, earlier arrivals winning ties, and decides retention *before*
//! it copies a flight window: a sample evicted on arrival keeps its
//! ordinal and its counts but never touches the ring. This suite drives
//! the recorder with random latency sequences under random capacities and
//! all three triggers and checks it against an independent reference —
//! a stable sort of the triggered samples by latency, truncated to the
//! capacity:
//!
//! - the retained `(ordinal, latency)` list, `triggered`, `evicted` and
//!   the triggered-histogram count equal the reference's;
//! - a sample the reference evicts on arrival is delivered while the
//!   flight ring is mutably borrowed, so any capture attempt panics;
//! - every retained episode carries the non-empty window the ring held
//!   when it arrived.

use std::{cell::RefCell, collections::HashMap, rc::Rc};

use proptest::prelude::*;

use wdm_latency::{BlameOptions, BlameRecorder, BlameTrigger};
use wdm_sim::prelude::*;

/// Readied times are this far apart, above the largest generated
/// latency, so every window and flight event arrives in time order.
const GAP: u64 = 10_000_000;

/// Latencies are multiples of this (~0.17 ms at the default clock), drawn
/// from a small range so ties are common.
const UNIT: u64 = 50_000;

fn trigger() -> impl Strategy<Value = BlameTrigger> {
    prop_oneof![
        (0usize..8).prop_map(BlameTrigger::TopK),
        (0u64..48).prop_map(|q| BlameTrigger::ThresholdMs(q as f64 * 0.25)),
        Just(BlameTrigger::BlockMax),
    ]
}

/// `(trigger, max_episodes, latency units)`. A `TopK(0)` draw is lifted
/// to `TopK(1)`: construction rejects an empty store.
fn case() -> impl Strategy<Value = (BlameTrigger, usize, Vec<u64>)> {
    (
        trigger(),
        1usize..7,
        prop::collection::vec(0u64..64, 0..160),
    )
        .prop_map(|(t, max, lats)| {
            let t = match t {
                BlameTrigger::TopK(0) => BlameTrigger::TopK(1),
                t => t,
            };
            (t, max, lats)
        })
}

/// The reference trigger: whether each sample fires, in arrival order.
fn fires(trigger: BlameTrigger, lats: &[u64], cpu_hz: u64) -> Vec<bool> {
    let mut running_max: Option<u64> = None;
    lats.iter()
        .map(|&lat| match trigger {
            BlameTrigger::TopK(_) => true,
            BlameTrigger::ThresholdMs(t) => Cycles(lat).as_ms_at(cpu_hz) >= t,
            BlameTrigger::BlockMax => {
                let new_max = running_max.is_none_or(|m| lat > m);
                if new_max {
                    running_max = Some(lat);
                }
                new_max
            }
        })
        .collect()
}

/// Delivers one resume window `[readied, readied + lat]` to `rec`.
fn resume(rec: &Rc<RefCell<BlameRecorder>>, readied: u64, lat: u64) {
    rec.borrow_mut().on_resume_blame(&ResumeBlame {
        thread: ThreadId(0),
        priority: 24,
        readied: Instant(readied),
        started: Instant(readied + lat),
        breakdown: BlameBreakdown {
            idle: lat,
            ..BlameBreakdown::default()
        },
    });
}

/// Pushes a flight event stamped `at` into the ring.
fn stamp(flight: &Rc<RefCell<FlightRecorder>>, at: u64) {
    flight.borrow_mut().on_calendar_pop(&CalendarPop {
        kind: CalendarPopKind::Tick,
        index: 0,
        at: Instant(at),
    });
}

proptest! {
    #[test]
    fn store_matches_stable_sort_top_k_and_captures_only_kept(c in case()) {
        let (trigger, max_episodes, units) = c;
        let k = Kernel::new(KernelConfig::default());
        let cpu_hz = k.config().cpu_hz;
        let pad = cpu_hz / 1000;
        let opts = BlameOptions { trigger, max_episodes };
        let cap = match trigger {
            BlameTrigger::TopK(k) => k.min(max_episodes),
            _ => max_episodes,
        };
        let lats: Vec<u64> = units.iter().map(|u| u * UNIT).collect();

        let fire = fires(trigger, &lats, cpu_hz);
        let fired: Vec<u64> = lats.iter().zip(&fire).filter(|(_, &f)| f).map(|(&l, _)| l).collect();
        let mut reference: Vec<(usize, u64)> = fired.iter().copied().enumerate().collect();
        reference.sort_by_key(|&(_, lat)| std::cmp::Reverse(lat)); // stable: earlier wins ties
        reference.truncate(cap);
        reference.sort_by_key(|&(ordinal, _)| ordinal);

        let flight = Rc::new(RefCell::new(FlightRecorder::new(8)));
        let rec = Rc::new(RefCell::new(BlameRecorder::new(
            &k,
            vec![(ThreadId(0), "rt24")],
            opts,
            Some(flight.clone()),
        )));
        let mut ordinal = 0usize;
        let mut windows = HashMap::new();
        for (i, &lat) in lats.iter().enumerate() {
            let readied = GAP * (i as u64 + 1);
            stamp(&flight, readied);
            stamp(&flight, readied + lat);
            if !fire[i] {
                resume(&rec, readied, lat);
                continue;
            }
            // Kept on arrival iff fewer than `cap` earlier triggered
            // samples are at least as large (ties go to the earlier one).
            let larger = fired[..ordinal].iter().filter(|&&l| l >= lat).count();
            if larger < cap {
                let window = flight
                    .borrow()
                    .events_in(Instant(readied - pad), Instant(readied + lat + pad));
                prop_assert!(!window.is_empty());
                windows.insert(ordinal, window);
                resume(&rec, readied, lat);
            } else {
                // Any capture attempt would panic on this borrow.
                let _no_capture = flight.borrow_mut();
                resume(&rec, readied, lat);
            }
            ordinal += 1;
        }
        prop_assert_eq!(ordinal, fired.len());

        let rec = rec.borrow();
        let kept: Vec<(usize, u64)> =
            rec.episodes.iter().map(|e| (e.ordinal, e.latency_cycles)).collect();
        prop_assert_eq!(&kept, &reference, "trigger {:?}, cap {}", trigger, cap);
        prop_assert_eq!(rec.summary.watched_resumes, lats.len() as u64);
        prop_assert_eq!(rec.summary.triggered, fired.len() as u64);
        prop_assert_eq!(rec.summary.evicted, (fired.len() - reference.len()) as u64);
        prop_assert_eq!(rec.triggered_hist.count(), fired.len() as u64);
        for ep in &rec.episodes {
            prop_assert_eq!(Some(&ep.window), windows.get(&ep.ordinal));
        }
    }
}
