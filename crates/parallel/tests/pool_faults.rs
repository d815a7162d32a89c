//! Fault injection into the worker pool.
//!
//! The `anyscan-faults` registry is process-global: a fault armed here would
//! be consumed by whichever test happens to dispatch on a pool first. This
//! binary therefore holds the pool's fault-arming tests alone, away from the
//! unit tests that run concurrently inside the library's test binary.

use std::sync::atomic::{AtomicUsize, Ordering};

use anyscan_parallel::{ChunkPolicy, WorkerPool};

#[test]
fn injected_job_panic_is_deterministic_and_typed() {
    // The `pool::job` failpoint panics inside a worker's claim loop;
    // `try_run` must hand it back as a typed error and leave the pool
    // dispatchable.
    let pool = WorkerPool::new();
    anyscan_faults::configure("pool::job", anyscan_faults::FaultAction::Panic, 1);
    let err = pool.try_run(4, 100, ChunkPolicy::Fixed(1), |_, _| {});
    anyscan_faults::clear();
    let err = err.expect_err("injected fault must fail the job");
    assert!(
        err.message().contains("injected fault: pool::job"),
        "unexpected message: {}",
        err.message()
    );
    let hits = AtomicUsize::new(0);
    pool.run(4, 100, ChunkPolicy::Fixed(1), |_, range| {
        hits.fetch_add(range.len(), Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 100);
}
