//! A hand-rolled worker pool over `std::thread::scope`.
//!
//! The dependency policy keeps this workspace free of crossbeam/rayon, so
//! the pool is the minimal correct construction: an atomic cursor over the
//! work list (dynamic scheduling — fast units don't wait behind slow ones)
//! and a mutex-guarded slot vector for results. Determinism comes from the
//! *slots*, not the schedule: result `i` always lands in slot `i`, so the
//! output is independent of which worker ran it and when.
//!
//! **The calling thread is worker 0.** A map over `threads` workers spawns
//! `threads - 1` helpers (`worker-1`, `worker-2`, …) and the caller pulls
//! units from the same cursor instead of sleeping in the scope — one thread
//! fewer to fork, join and give a malloc arena per map, and the caller's
//! units record on the caller's own tracing lane, nested under whatever
//! span it has open.
//!
//! **A helper does not inherit a pin.** A thread is forked with its
//! parent's affinity mask, so the helpers of a caller pinned to one CPU (a
//! shard worker lending an idle shard's core) would queue up behind it on
//! that CPU. When the caller's mask is a strict subset of the process's,
//! each helper first moves itself to *the process's CPUs minus the
//! caller's* ([`affinity`]); an unpinned caller, a one-CPU process and a
//! non-Linux host change nothing. The caller's own mask is never touched.
//!
//! Failure model: each invocation of the work closure runs under
//! `catch_unwind`, so one panicking unit never takes down a worker, poisons
//! a lock, or abandons the remaining units. [`parallel_map_caught`] exposes
//! the panic as a *value* ([`CaughtPanic`], slot-addressed like any other
//! result); [`parallel_map`] keeps the historical fail-fast contract by
//! resuming the first caught panic — in index order, deterministically —
//! after every unit has finished. Lock poisoning is recovered rather than
//! escalated: a poisoned mutex only ever means a worker panicked, and the
//! data under it is still valid.

pub mod affinity;

use perfeval_trace::Tracer;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Per-worker execution counters, for throughput/straggler reporting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkerStats {
    /// Units this worker completed (including units whose closure
    /// panicked — the worker still spent the time).
    pub units: usize,
    /// Total busy time, seconds.
    pub busy_secs: f64,
}

/// A panic caught from one invocation of the work closure, surfaced as a
/// value: the extracted message for reporting, and the original payload so
/// fail-fast callers can resume the unwind without losing information.
#[derive(Debug)]
pub struct CaughtPanic {
    /// Human-readable panic message (`&str`/`String` payloads pass
    /// through; anything else is labelled opaquely).
    pub message: String,
    /// The original panic payload.
    pub payload: Box<dyn std::any::Any + Send>,
}

impl CaughtPanic {
    fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        CaughtPanic { message, payload }
    }
}

/// Locks a mutex, recovering the data from a poisoned lock: poisoning here
/// only ever means another worker's closure panicked, and the slot/stat
/// data is still consistent (each entry is written exactly once). Turning
/// that into a second panic would mask the original failure.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Applies `f` to every index in `0..count` using `threads` workers and
/// returns the results in index order, plus per-worker statistics.
///
/// `f` is called as `f(index)`; the returned vector's element `i` is
/// `f(i)` regardless of thread count or scheduling. With `threads <= 1`
/// the work runs on the calling thread (no spawn overhead).
///
/// # Panics
/// If any invocation of `f` panicked, resumes the lowest-index panic on
/// the calling thread — after all other units have completed.
pub fn parallel_map<T, F>(count: usize, threads: usize, f: F) -> (Vec<T>, Vec<WorkerStats>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_traced(count, threads, None, f)
}

/// [`parallel_map`] with an optional tracer: helpers get stable names
/// (`worker-<n>`, n ≥ 1), and each registers + labels its tracing lane
/// before taking work, so a snapshot stitches every worker into one
/// timeline. Worker 0 is the calling thread and keeps its own lane.
///
/// The closure runs on the worker threads, so spans it opens against the
/// same tracer land on the correct per-worker lane automatically.
///
/// # Panics
/// If any invocation of `f` panicked, resumes the lowest-index panic on
/// the calling thread — after all other units have completed.
pub fn parallel_map_traced<T, F>(
    count: usize,
    threads: usize,
    tracer: Option<&Tracer>,
    f: F,
) -> (Vec<T>, Vec<WorkerStats>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let (results, stats) = parallel_map_caught(count, threads, tracer, f);
    let values = results
        .into_iter()
        .map(|slot| match slot {
            Ok(value) => value,
            Err(caught) => std::panic::resume_unwind(caught.payload),
        })
        .collect();
    (values, stats)
}

/// [`parallel_map_traced`] with panics contained per unit: element `i` is
/// `Ok(f(i))`, or `Err(CaughtPanic)` if that invocation panicked. All
/// units always execute; a panic in one never aborts the others. This is
/// the primitive the experiment scheduler's failure containment builds on.
pub fn parallel_map_caught<T, F>(
    count: usize,
    threads: usize,
    tracer: Option<&Tracer>,
    f: F,
) -> (Vec<Result<T, CaughtPanic>>, Vec<WorkerStats>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    // AssertUnwindSafe: each invocation writes only its own slot, and `f`
    // is immutable-borrowed — a caught panic cannot leave pool state torn.
    let call = |i: usize| -> Result<T, CaughtPanic> {
        std::panic::catch_unwind(AssertUnwindSafe(|| f(i))).map_err(CaughtPanic::from_payload)
    };

    let threads = threads.max(1).min(count.max(1));
    if threads <= 1 {
        let t0 = std::time::Instant::now();
        let results = (0..count).map(call).collect();
        return (
            results,
            vec![WorkerStats {
                units: count,
                busy_secs: t0.elapsed().as_secs_f64(),
            }],
        );
    }

    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<T, CaughtPanic>>>> =
        Mutex::new((0..count).map(|_| None).collect());
    let stats: Mutex<Vec<WorkerStats>> = Mutex::new(vec![WorkerStats::default(); threads]);

    let work = |worker: usize| {
        let mut local = WorkerStats::default();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            let t0 = std::time::Instant::now();
            let value = call(i);
            local.busy_secs += t0.elapsed().as_secs_f64();
            local.units += 1;
            lock_recover(&slots)[i] = Some(value);
        }
        lock_recover(&stats)[worker] = local;
    };
    let helper_cpus = affinity::helper_mask_of_caller();
    std::thread::scope(|scope| {
        let work = &work;
        for worker in 1..threads {
            let name = format!("worker-{worker}");
            std::thread::Builder::new()
                .name(name.clone())
                .spawn_scoped(scope, move || {
                    if let Some(cpus) = helper_cpus {
                        cpus.pin_current_thread();
                    }
                    if let Some(t) = tracer {
                        t.label_thread(&name);
                    }
                    work(worker);
                })
                .expect("failed to spawn pool worker");
        }
        work(0);
    });

    let results = lock_recover(&slots)
        .iter_mut()
        .map(|slot| slot.take().expect("every index executed"))
        .collect();
    let stats = lock_recover(&stats).clone();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::affinity::CpuSet;
    use super::*;

    #[test]
    fn results_arrive_in_index_order() {
        let (out, _) = parallel_map(100, 4, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_matches_multi() {
        let (serial, stats1) = parallel_map(37, 1, |i| i as u64 * 3 + 1);
        let (parallel, _) = parallel_map(37, 8, |i| i as u64 * 3 + 1);
        assert_eq!(serial, parallel);
        assert_eq!(stats1.len(), 1);
        assert_eq!(stats1[0].units, 37);
    }

    #[test]
    fn worker_stats_cover_all_units() {
        let (_, stats) = parallel_map(64, 3, |i| i);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.units).sum::<usize>(), 64);
    }

    #[test]
    fn empty_work_list() {
        let (out, _) = parallel_map(0, 4, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn threads_capped_by_count() {
        // 2 units, 16 threads requested: only 2 workers spawn.
        let (out, stats) = parallel_map(2, 16, |i| i + 10);
        assert_eq!(out, vec![10, 11]);
        assert_eq!(stats.len(), 2);
    }

    #[test]
    fn caught_panics_are_values_and_other_units_complete() {
        for threads in [1, 4] {
            let (out, stats) = parallel_map_caught(20, threads, None, |i| {
                if i % 7 == 3 {
                    panic!("unit {i} died");
                }
                i * 2
            });
            assert_eq!(out.len(), 20);
            for (i, slot) in out.iter().enumerate() {
                match slot {
                    Ok(v) => {
                        assert_ne!(i % 7, 3);
                        assert_eq!(*v, i * 2);
                    }
                    Err(caught) => {
                        assert_eq!(i % 7, 3, "only armed units fail");
                        assert_eq!(caught.message, format!("unit {i} died"));
                    }
                }
            }
            // Every unit (including panicked ones) is accounted for.
            assert_eq!(
                stats.iter().map(|s| s.units).sum::<usize>(),
                20,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_map_resumes_the_lowest_index_panic() {
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            parallel_map(16, 4, |i| {
                if i == 5 || i == 11 {
                    panic!("boom {i}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                i
            })
        }));
        let payload = result.expect_err("panic propagates");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("string payload");
        assert_eq!(message, "boom 5", "lowest index wins, deterministically");
        assert_eq!(
            completed.load(Ordering::Relaxed),
            14,
            "all healthy units still ran"
        );
    }

    /// Two units that meet at a barrier run at the same time, so on two
    /// different threads: one per worker. Returns, per unit, the thread it
    /// ran on and the affinity mask it saw there.
    fn two_units_at_once() -> Vec<(std::thread::ThreadId, Option<String>, Option<CpuSet>)> {
        let both = std::sync::Barrier::new(2);
        let (out, stats) = parallel_map(2, 2, |_| {
            both.wait();
            let me = std::thread::current();
            (
                me.id(),
                me.name().map(str::to_owned),
                CpuSet::of_current_thread(),
            )
        });
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.units == 1), "{stats:?}");
        out
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        let caller = std::thread::current().id();
        let out = two_units_at_once();
        let on_caller = out.iter().filter(|(id, ..)| *id == caller).count();
        assert_eq!(on_caller, 1, "one unit ran on the calling thread");
        let helper = out.iter().find(|(id, ..)| *id != caller).unwrap();
        assert_eq!(helper.1.as_deref(), Some("worker-1"));
    }

    #[test]
    fn the_caller_works_and_the_contract_holds() {
        // Slot order, every unit run, lowest-index panic, `threads` stats
        // entries summing to `count` — with the caller pulling units too.
        let caller = std::thread::current().id();
        let on_caller = AtomicUsize::new(0);
        let ran = AtomicUsize::new(0);
        let (out, stats) = parallel_map_caught(200, 3, None, |i| {
            if std::thread::current().id() == caller {
                on_caller.fetch_add(1, Ordering::Relaxed);
            }
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 150 || i == 17 {
                panic!("boom {i}");
            }
            i + 1
        });
        assert_eq!(ran.load(Ordering::Relaxed), 200);
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.iter().map(|s| s.units).sum::<usize>(), 200);
        assert_eq!(stats[0].units, on_caller.load(Ordering::Relaxed));
        for (i, slot) in out.iter().enumerate() {
            match slot {
                Ok(v) => assert_eq!(*v, i + 1),
                Err(caught) => assert_eq!(caught.message, format!("boom {i}")),
            }
        }
        let first = out.iter().find_map(|s| s.as_ref().err()).unwrap();
        assert_eq!(first.message, "boom 17");
    }

    /// Placement, from what a unit observes where it runs. Each case runs
    /// on a thread of its own, so a pin never leaks into the test harness.
    #[test]
    fn a_pinned_callers_helper_leaves_the_callers_cpu() {
        let Some(process) = CpuSet::of_process() else {
            println!("placement: skipped (no affinity calls on this platform)");
            return;
        };
        let run = |pin: Option<CpuSet>| {
            std::thread::spawn(move || {
                if let Some(cpus) = pin {
                    assert!(cpus.pin_current_thread(), "pin to {cpus:?}");
                }
                let before = CpuSet::of_current_thread();
                let caller = std::thread::current().id();
                let out = two_units_at_once();
                assert_eq!(
                    CpuSet::of_current_thread(),
                    before,
                    "the caller's own mask is never touched"
                );
                let (worker0, helper): (Vec<_>, Vec<_>) =
                    out.into_iter().partition(|(id, ..)| *id == caller);
                assert_eq!(worker0[0].2, before, "worker 0 is the caller");
                (before.unwrap(), helper[0].2.unwrap())
            })
            .join()
            .expect("placement case")
        };

        let (caller, helper) = run(None);
        assert_eq!(helper, caller, "an unpinned caller's helpers inherit");

        if process.count() < 2 {
            // Nothing to move to: a pin to the only CPU equals the process.
            let only = (0..1024).find(|&c| process.contains(c)).unwrap();
            let (caller, helper) = run(Some(CpuSet::single(only)));
            assert_eq!(helper, caller, "one-CPU process: helpers inherit");
            println!("placement: process has one CPU {process:?}; pinned case skipped");
            return;
        }
        let cpu = (0..1024).find(|&c| process.contains(c)).unwrap();
        let (caller, helper) = run(Some(CpuSet::single(cpu)));
        assert_eq!(caller, CpuSet::single(cpu));
        assert!(!helper.contains(cpu), "helper {helper:?} left cpu {cpu}");
        assert_eq!(Some(helper), caller.helper_mask(&process));
        println!("placement: ran; caller on {caller:?}, helper on {helper:?}");
    }

    #[test]
    fn non_string_payloads_are_labelled() {
        let (out, _) = parallel_map_caught(1, 1, None, |_| -> usize {
            std::panic::panic_any(77u32);
        });
        let err = out.into_iter().next().unwrap().unwrap_err();
        assert_eq!(err.message, "non-string panic payload");
        assert_eq!(err.payload.downcast_ref::<u32>(), Some(&77));
    }
}
