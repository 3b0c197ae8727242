//! Pins the flight recorder's zero-cost-when-disabled claim with a
//! counting global allocator: instrumentation calls on a handle whose
//! recorder is off must not allocate at all — the field closures may
//! never be evaluated — and recording into a metric the registry already
//! holds allocates nothing. One test only, so no concurrent test thread
//! can pollute the allocation counter.

use dead_data_members::telemetry::{EventClass, Telemetry};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disabled_recorder_makes_no_allocations() {
    // Both the fully disabled handle and the spans-only handle
    // (`--stats` without `--log-out`) must take the free path.
    for (label, telemetry) in [
        ("disabled", Telemetry::disabled()),
        ("spans-only", Telemetry::enabled()),
    ] {
        // Warm up any lazy runtime state outside the measured window.
        telemetry.event(EventClass::Deterministic, "warmup", || vec![("i", 0i64.into())]);
        telemetry.metrics(|m| m.hist_record("warmup/h", 1));
        // Every enabled handle keeps the metrics registry, which
        // allocates a metric's name on first use only: register the
        // names recorded below, so the 10,000 recordings into them must
        // allocate nothing.
        telemetry.metrics(|m| {
            m.hist_record("probe/h", 0);
            m.counter_add("probe/c", 0);
        });

        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for i in 0..10_000i64 {
            telemetry.event(EventClass::Deterministic, "probe", || {
                vec![("i", i.into()), ("label", "expensive".into())]
            });
            telemetry.event(EventClass::Observational, "probe_obs", || {
                vec![("i", i.into())]
            });
            telemetry.metrics(|m| m.hist_record("probe/h", i as u64));
            telemetry.metrics(|m| m.counter_add("probe/c", 1));
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert_eq!(
            after - before,
            0,
            "{label}: instrumentation allocated with the recorder off"
        );
    }

    // Sanity: the same calls with the recorder on do allocate, so the
    // counter is actually observing this code path.
    let recording = Telemetry::recording();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    recording.event(EventClass::Deterministic, "probe", || {
        vec![("i", 1i64.into())]
    });
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "counting allocator is not wired up");
}
