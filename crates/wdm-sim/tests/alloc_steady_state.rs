//! Steady-state allocation audit for the interpreted step loop.
//!
//! Programs are boxed once at attach time; stepping one afterwards is a
//! virtual `Program::step` call on a stack-built `StepCtx`, and the kernel
//! moves the box in and out of its frame or thread slot without copying
//! it — no per-step heap traffic (DESIGN.md §11). This binary installs a
//! counting global allocator and pins that down: after a warm-up window
//! (which is allowed to grow queues and heaps to their steady capacity),
//! a long measured window must perform **zero** heap operations, event
//! for event.
//!
//! The counter is per thread, because everything audited runs on the
//! test's own thread. A global counter also saw the test harness's main
//! thread, whose bookkeeping allocations landed in the measured window on
//! roughly one run in ten, failing the audit for code it never ran.

use std::{
    alloc::{GlobalAlloc, Layout, System},
    cell::Cell,
};

use wdm_sim::prelude::*;

struct CountingAlloc;

thread_local! {
    /// Heap operations (allocations, frees and reallocations) made by this
    /// thread. Const-initialised with no destructor, so the allocator can
    /// bump it without allocating.
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

fn count_op() {
    HEAP_OPS.with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_op();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_op();
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_op();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_ops() -> u64 {
    HEAP_OPS.with(Cell::get)
}

/// A device ISR -> DPC -> event -> real-time thread pipeline plus two
/// timesliced hogs, every body an `OpSeq`/`LoopSeq` driven through the
/// ISR, DPC and thread step loops.
#[test]
fn interpreted_step_loop_is_allocation_free() {
    let mut k = Kernel::new(KernelConfig {
        seed: 42,
        ..KernelConfig::default()
    });
    let l_isr = k.intern("DEV", "_Isr");
    let l_dpc = k.intern("DEV", "_Dpc");
    let l_rt = k.intern("APP", "_RtWork");
    let l_hog = k.intern("APP", "_Hog");

    let wake = k.create_event(EventKind::Synchronization, false);
    let dpc = k.create_dpc(
        "dev-dpc",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(60_001),
                label: l_dpc,
            },
            Step::SetEvent(wake),
            Step::Return,
        ])),
    );
    let v = k.install_vector(
        "dev",
        Irql(12),
        Box::new(OpSeq::new(vec![
            Step::Busy {
                cycles: Cycles(20_001),
                label: l_isr,
            },
            Step::QueueDpc(dpc),
            Step::Return,
        ])),
    );
    k.add_env_source(EnvSource::new(
        "dev-arrivals",
        samplers::uniform(Cycles(80_001), Cycles(700_001)),
        EnvAction::AssertInterrupt(v),
    ));
    k.create_thread(
        "rt",
        RT_DEFAULT_PRIORITY,
        Box::new(LoopSeq::new(vec![
            Step::Wait(WaitObject::Event(wake)),
            Step::Busy {
                cycles: Cycles(150_001),
                label: l_rt,
            },
        ])),
    );
    for i in 0..2u64 {
        k.create_thread(
            &format!("hog-{i}"),
            (6 + i) as u8,
            Box::new(LoopSeq::new(vec![
                Step::Busy {
                    cycles: Cycles(90_001 + 17 * i),
                    label: l_hog,
                },
                Step::Sleep(Cycles(200_001 + 31 * i)),
            ])),
        );
    }
    let tick_dpc = k.create_dpc(
        "tick-dpc",
        DpcImportance::Medium,
        Box::new(OpSeq::new(vec![Step::Return])),
    );
    let timer = k.create_timer(Some(tick_dpc));
    k.set_timer(timer, Cycles::from_ms(1.5), Some(Cycles::from_ms(2.0)));

    // Warm-up: queues, heaps and scratch buffers grow to steady capacity.
    k.run_for(Cycles::from_ms(200.0));

    let events_before = k.sim_events;
    let ops_before = heap_ops();
    k.run_for(Cycles::from_ms(1_000.0));
    let ops = heap_ops() - ops_before;
    let events = k.sim_events - events_before;

    assert!(events > 10_000, "sanity: the window simulated real load");
    assert_eq!(
        ops, 0,
        "interpreted steady state must not touch the heap ({ops} ops over {events} events)"
    );
}
