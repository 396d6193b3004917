//! Concurrency test: many threads hammer one registry and one journal
//! simultaneously; totals must come out exact. This test also runs
//! under ThreadSanitizer in CI (see the chaos-tsan job), where any
//! unsynchronised access in the metrics hot path would be reported.

use obs::{EventKind, Journal, Registry};
use std::sync::Arc;
use std::thread;

const THREADS: usize = 8;
const OPS_PER_THREAD: u64 = 20_000;

#[test]
fn n_threads_one_registry_exact_totals() {
    let registry = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            thread::spawn(move || {
                // Every thread resolves the same names itself, so the
                // get-or-create path races too — handles must converge
                // on one metric per name.
                let counter = registry.counter("ops");
                let gauge = registry.gauge("inflight");
                let histogram = registry.histogram("latency_ns", &[100, 1_000, 10_000]);
                for i in 0..OPS_PER_THREAD {
                    counter.inc();
                    gauge.inc();
                    histogram.record((t as u64 * 31 + i * 7) % 20_000);
                    gauge.dec();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }

    let expected = THREADS as u64 * OPS_PER_THREAD;
    assert_eq!(registry.counter("ops").get(), expected);
    assert_eq!(
        registry.gauge("inflight").get(),
        0,
        "every inc paired with a dec"
    );
    let s = registry.histogram("latency_ns", &[]).snapshot();
    assert_eq!(s.count, expected);
    assert_eq!(
        s.buckets.iter().map(|&(_, n)| n).sum::<u64>() + s.overflow,
        expected,
        "no sample lost between buckets"
    );
    assert!(s.max < Some(20_000));
}

#[test]
fn concurrent_journal_recording_loses_nothing_unexpectedly() {
    const EVENTS_PER_THREAD: usize = 500;
    let journal = Arc::new(Journal::new(THREADS * EVENTS_PER_THREAD));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let journal = Arc::clone(&journal);
            thread::spawn(move || {
                for i in 0..EVENTS_PER_THREAD {
                    journal.emit(i as u64, EventKind::Repaired, Some(t), None, String::new());
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker thread panicked");
    }
    // Capacity covers every event, so nothing may be overwritten and
    // per-shard attribution must be exact.
    assert_eq!(journal.len(), THREADS * EVENTS_PER_THREAD);
    assert_eq!(journal.overwritten(), 0);
    for t in 0..THREADS {
        assert_eq!(journal.for_shard(t).len(), EVENTS_PER_THREAD);
    }
}
