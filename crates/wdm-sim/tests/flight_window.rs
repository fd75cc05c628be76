//! `FlightRecorder::events_in` against a linear-scan reference.
//!
//! The recorder finds an episode window by binary search, which is only
//! correct because the ring is sorted by timestamp. These properties drive
//! a recorder through its public `Observer` hooks with chosen, non-decreasing
//! timestamps and check every window against the obvious oracle — filter
//! the retained events to `lo <= at <= hi` — on wrapped rings, runs of
//! duplicate timestamps, inverted bounds, single-instant windows and bounds
//! that miss the ring entirely.

use proptest::prelude::*;

use wdm_sim::prelude::*;

/// The pre-binary-search implementation: one pass over the whole ring.
fn reference(rec: &FlightRecorder, lo: Instant, hi: Instant) -> Vec<FlightEvent> {
    rec.events()
        .filter(|e| lo <= e.at() && e.at() <= hi)
        .copied()
        .collect()
}

/// A recorder of `capacity` fed one event per gap, starting at `base`.
/// Gaps of zero make duplicate timestamps; the push index rides in each
/// event so duplicates stay distinguishable. Pops and quantum expiries
/// alternate so the window mixes event kinds.
fn feed(capacity: usize, base: u64, gaps: &[u64]) -> FlightRecorder {
    let mut rec = FlightRecorder::new(capacity);
    let mut at = Instant(base);
    for (i, &gap) in gaps.iter().enumerate() {
        at = at + Cycles(gap);
        if i % 3 == 2 {
            rec.on_quantum_expiry(&QuantumExpiry {
                thread: ThreadId(i),
                priority: 24,
                descheduled: false,
                at,
            });
        } else {
            rec.on_calendar_pop(&CalendarPop {
                kind: CalendarPopKind::Env,
                index: i as u32,
                at,
            });
        }
    }
    rec
}

/// Asserts `events_in` agrees with the reference on `[lo, hi]`.
fn agrees(rec: &FlightRecorder, lo: u64, hi: u64) {
    let (lo, hi) = (Instant(lo), Instant(hi));
    assert_eq!(
        rec.events_in(lo, hi),
        reference(rec, lo, hi),
        "window [{lo:?}, {hi:?}]"
    );
}

proptest! {
    /// Arbitrary windows over arbitrary (often wrapped) rings.
    #[test]
    fn window_matches_linear_scan(
        capacity in 1usize..24,
        base in 0u64..50,
        gaps in prop::collection::vec(0u64..4, 0..80),
        lo in 0u64..300,
        hi in 0u64..300,
    ) {
        let rec = feed(capacity, base, &gaps);
        prop_assert_eq!(rec.len(), gaps.len().min(capacity));
        prop_assert_eq!(rec.dropped as usize, gaps.len().saturating_sub(capacity));
        agrees(&rec, lo, hi);
        // Inverted bounds select nothing, whatever the ring holds.
        agrees(&rec, hi.max(lo) + 1, hi.min(lo));
    }

    /// The edge windows, pinned per ring: single instants on every
    /// retained timestamp (duplicates included), windows whose ends land
    /// on retained events, and windows wholly before or after the ring.
    #[test]
    fn edge_windows_match_linear_scan(
        capacity in 1usize..16,
        base in 1u64..50,
        gaps in prop::collection::vec(0u64..3, 1..60),
    ) {
        let rec = feed(capacity, base, &gaps);
        let times: Vec<u64> = rec.events().map(|e| e.at().0).collect();
        let (first, last) = (times[0], times[times.len() - 1]);
        for &t in &times {
            agrees(&rec, t, t);
            agrees(&rec, first, t);
            agrees(&rec, t, last);
            agrees(&rec, t + 1, t);
        }
        agrees(&rec, 0, first - 1);
        agrees(&rec, last + 1, last + 100);
        agrees(&rec, 0, u64::MAX);
        prop_assert_eq!(rec.events_in(Instant(0), Instant(u64::MAX)).len(), rec.len());
    }
}

#[test]
fn duplicate_run_is_captured_whole() {
    // Five events at t = 10 between singletons at 5 and 20, in a ring that
    // has already evicted its two oldest entries.
    let rec = feed(7, 0, &[1, 1, 3, 5, 0, 0, 0, 0, 10]);
    assert_eq!(rec.dropped, 2);
    assert_eq!(rec.events().next().map(|e| e.at()), Some(Instant(5)));
    let run = rec.events_in(Instant(10), Instant(10));
    assert_eq!(run.len(), 5);
    assert!(run.iter().all(|e| e.at() == Instant(10)));
    assert_eq!(run, reference(&rec, Instant(10), Instant(10)));
    assert!(rec.events_in(Instant(11), Instant(19)).is_empty());
    assert!(rec.events_in(Instant(10), Instant(9)).is_empty());
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "time order")]
fn out_of_order_push_trips_the_guard() {
    // The binary search's premise: a push earlier than the ring's newest
    // event is a kernel bug, caught in every debug run.
    let mut rec = feed(4, 10, &[0, 5]);
    rec.on_calendar_pop(&CalendarPop {
        kind: CalendarPopKind::Tick,
        index: 0,
        at: Instant(14),
    });
}
