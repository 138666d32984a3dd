//! A hand-rolled worker pool over parked helper threads.
//!
//! The dependency policy keeps this workspace free of crossbeam/rayon, so
//! the pool is the minimal correct construction: an atomic cursor over the
//! work list (dynamic scheduling — fast units don't wait behind slow ones)
//! and a mutex-guarded slot vector for results. Determinism comes from the
//! *slots*, not the schedule: result `i` always lands in slot `i`, so the
//! output is independent of which worker ran it and when.
//!
//! **The calling thread is worker 0.** A map over `threads` workers borrows
//! `threads - 1` helpers and the caller pulls units from the same cursor
//! instead of sleeping — the caller's units record on the caller's own
//! tracing lane, nested under whatever span it has open. `worker-<n>`
//! (n ≥ 1) is a *role*, not a thread: the label a helper gives its tracing
//! lane for the length of one map, before its first unit. The OS threads
//! are all named `pool-helper`.
//!
//! **A helper is born once and parked between maps.** The first caller
//! that needs a helper on a given set of CPUs spawns it; the helper pins
//! itself to that set *at birth* and then waits on its slot's condvar. A
//! map *takes* the helpers it needs off the parked list — those whose mask
//! is the one this caller's helpers should have, spawning any that are
//! missing — hands each the map's per-worker body, runs worker 0 itself,
//! waits until every helper has reported the body done, and only then
//! *returns* them to the list. So a helper is never taken twice by one
//! map, a nested map (a unit that itself maps) simply takes more helpers —
//! there is no fixed size, hence nothing for a helper to wait on a helper
//! for — and a map that lives as long as a server holds its helpers that
//! long. Helpers are never joined: they hold nothing between maps and end
//! with the process.
//!
//! **Borrowed work on a thread that outlives it.** A map's closure borrows
//! from the caller's stack and a parked helper is `'static`, so handing it
//! over erases a lifetime — the crate's one `unsafe` block outside
//! [`affinity`], in `run_on_workers`, the scoped-pool construction of rayon
//! and crossbeam. What makes it sound is an ordering, spelled out there: a
//! helper lets go of its job *before* it reports `Done`, and the caller
//! cannot leave the map — by return or by unwind, a drop guard sees to the
//! second — before every helper it handed a job has reported `Done`.
//!
//! **Where a helper runs.** A thread is forked with its parent's affinity
//! mask, and a freshly forked thread has to be *scheduled on that mask*
//! before it can run the call that moves it — behind the caller, which is
//! busy being worker 0. Spawning a helper per map therefore made the
//! helper of a caller pinned to one CPU (a shard worker lending an idle
//! shard's core) arrive 1–2 ms late, after most short maps were over. A
//! parked helper is already where it should be: when the caller's mask is
//! a strict subset of the process's, on *the process's CPUs minus the
//! caller's* ([`affinity`]); otherwise on the caller's own mask. The
//! caller's mask is never touched.
//!
//! Failure model: each invocation of the work closure runs under
//! `catch_unwind`, so one panicking unit never takes down a worker, poisons
//! a lock, or abandons the remaining units. [`parallel_map_caught`] exposes
//! the panic as a *value* ([`CaughtPanic`], slot-addressed like any other
//! result); [`parallel_map`] keeps the historical fail-fast contract by
//! resuming the first caught panic — in index order, deterministically —
//! after every unit has finished. A panic on a helper *outside* a unit is
//! caught too: the helper reports it, stays alive and is parked again, and
//! the caller resumes it once every worker is done. Lock poisoning is
//! recovered rather than escalated: a poisoned mutex only ever means a
//! worker panicked, and the data under it is still valid.

pub mod affinity;

use affinity::CpuSet;
use perfeval_trace::Tracer;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// A map's per-worker body, called as `body(worker)`.
type Body<'a> = dyn Fn(usize) + Sync + 'a;

/// What a map hands a helper: its body — the lifetime erased, see
/// [`run_on_workers`] — and the helper's role in it.
#[derive(Clone, Copy)]
struct Job {
    body: &'static Body<'static>,
    worker: usize,
}

/// The one word a helper and the map that holds it exchange.
enum State {
    /// Parked, or taken and not yet handed a job.
    Idle,
    Run(Job),
    /// The job has returned or unwound, and the helper no longer holds it.
    Done(std::thread::Result<()>),
}

struct Slot {
    state: Mutex<State>,
    /// The helper waits on it for `Run`, the map for `Done` — never both at
    /// once, so one condvar and `notify_one` serve both directions.
    changed: Condvar,
}

/// A helper thread, seen from the side that hands it work.
struct Helper {
    /// The CPUs the thread pinned itself to at birth (`None` where the
    /// platform has no affinity calls).
    mask: Option<CpuSet>,
    slot: Arc<Slot>,
}

/// The helpers no map holds. A map takes from the end and returns in
/// reverse, so a caller that maps again gets the same thread in the same
/// role — and a tracing lane keeps the label it had.
static PARKED: Mutex<Vec<Helper>> = Mutex::new(Vec::new());

impl Helper {
    /// A parked helper on `mask`, or a new one.
    fn take(mask: Option<CpuSet>) -> Helper {
        let parked = {
            let mut parked = lock_recover(&PARKED);
            let at = parked.iter().rposition(|h| h.mask == mask);
            at.map(|at| parked.remove(at))
        };
        parked.unwrap_or_else(|| Helper::spawn(mask))
    }

    fn spawn(mask: Option<CpuSet>) -> Helper {
        let slot = Arc::new(Slot {
            state: Mutex::new(State::Idle),
            changed: Condvar::new(),
        });
        let theirs = Arc::clone(&slot);
        std::thread::Builder::new()
            .name("pool-helper".to_owned())
            .spawn(move || {
                if let Some(cpus) = mask {
                    cpus.pin_current_thread();
                }
                theirs.serve()
            })
            .expect("failed to spawn pool helper");
        Helper { mask, slot }
    }

    fn hand(&self, job: Job) {
        *lock_recover(&self.slot.state) = State::Run(job);
        self.slot.changed.notify_one();
    }

    /// Blocks until the helper has let go of its job; how the job ended.
    fn wait_done(&self) -> std::thread::Result<()> {
        let mut state = lock_recover(&self.slot.state);
        loop {
            match std::mem::replace(&mut *state, State::Idle) {
                State::Done(outcome) => return outcome,
                running => *state = running,
            }
            state = (self.slot.changed.wait(state)).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Slot {
    /// The helper thread's whole life: wait for a job, run it, report.
    fn serve(&self) -> ! {
        loop {
            let outcome = {
                let mut state = lock_recover(&self.state);
                let job = loop {
                    if let State::Run(job) = *state {
                        break job;
                    }
                    state = (self.changed.wait(state)).unwrap_or_else(PoisonError::into_inner);
                };
                drop(state);
                catch_unwind(AssertUnwindSafe(|| (job.body)(job.worker)))
            };
            // `job` is out of scope: from here on the helper holds nothing
            // of the map's, and `Done` is what tells the map so.
            *lock_recover(&self.state) = State::Done(outcome);
            self.changed.notify_one();
        }
    }
}

/// The helpers one map holds, from the first job handed out until every
/// one of them is `Done` — also when the map unwinds.
struct Borrowed(Vec<Helper>);

impl Borrowed {
    /// Waits for every helper, returns them to the parked list, and yields
    /// the lowest-numbered worker's panic, if any body unwound.
    fn wait(&mut self) -> std::thread::Result<()> {
        if self.0.is_empty() {
            return Ok(());
        }
        let outcomes: Vec<_> = self.0.iter().map(Helper::wait_done).collect();
        lock_recover(&PARKED).extend(self.0.drain(..).rev());
        outcomes.into_iter().collect()
    }
}

impl Drop for Borrowed {
    fn drop(&mut self) {
        let _ = self.wait();
    }
}

/// Runs `body(0)` on the calling thread and `body(1)` … `body(threads - 1)`
/// on helpers, and returns when all of them have.
///
/// # Panics
/// Resumes a panic that escaped `body` — the calling thread's own first —
/// after every worker is done.
fn run_on_workers(threads: usize, body: &Body<'_>) {
    let mask = affinity::helper_mask_of_caller();
    // SAFETY: the transmute only lengthens the lifetimes of `body`: the
    // reference and the closure's captures (same fat pointer, same
    // vtable). A helper thread outlives this call, so what has to hold is
    // that no helper touches `erased` after this function has given up
    // control — by return or by unwind. (1) `erased` goes nowhere but into
    // the `Job` handed to a helper already recorded in `borrowed`, and
    // `Job` is private to this module. (2) A helper copies its `Job` out
    // of its slot, calls it, lets the copy go out of scope and only then
    // overwrites the slot's `Run(job)` with `Done` (`Slot::serve`), so
    // after `Done` neither the helper's stack nor its slot holds `erased`.
    // (3) Every way out of this function passes `Borrowed::wait` — called
    // below, and by `Borrowed`'s `Drop` if `body(0)` or a later `take`
    // unwinds — which blocks until each recorded helper is `Done`; every
    // recorded helper has been handed its job (`hand` is a store and a
    // notify, it does not unwind), so each gets there. (4) `body` is
    // `Sync`, so calling it from several threads at once is what its type
    // allows; a panic payload is `'static` by type and borrows nothing.
    let erased: &'static Body<'static> = unsafe { std::mem::transmute(body) };
    let mut borrowed = Borrowed(Vec::with_capacity(threads.saturating_sub(1)));
    for worker in 1..threads {
        borrowed.0.push(Helper::take(mask));
        borrowed.0[worker - 1].hand(Job {
            body: erased,
            worker,
        });
    }
    body(0);
    if let Err(payload) = borrowed.wait() {
        resume_unwind(payload);
    }
}

/// Applies `f` to every index in `0..count` using `threads` workers and
/// returns the results in index order, plus per-worker statistics.
///
/// `f` is called as `f(index)`; the returned vector's element `i` is
/// `f(i)` regardless of thread count or scheduling. With `threads <= 1`
/// the work runs on the calling thread (no helper is woken).
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

/// [`parallel_map`] with an optional tracer: each helper registers its
/// tracing lane and labels it with its role in this map (`worker-<n>`,
/// n ≥ 1) before taking work, so a snapshot stitches every worker into one
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
    run_on_workers(threads, &|worker| {
        if let (Some(t), true) = (tracer, worker > 0) {
            t.label_thread(&format!("worker-{worker}"));
        }
        work(worker);
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
        // 2 units, 16 threads requested: only 2 workers run.
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
    fn two_units_at_once(tracer: Option<&Tracer>) -> Vec<(std::thread::ThreadId, Option<CpuSet>)> {
        let both = std::sync::Barrier::new(2);
        let (out, stats) = parallel_map_traced(2, 2, tracer, |i| {
            both.wait();
            drop(tracer.map(|t| t.span(&format!("unit {i}"))));
            (std::thread::current().id(), CpuSet::of_current_thread())
        });
        assert_eq!(stats.len(), 2);
        assert!(stats.iter().all(|s| s.units == 1), "{stats:?}");
        out
    }

    #[test]
    fn the_calling_thread_is_worker_zero() {
        let caller = std::thread::current().id();
        let tracer = Tracer::new();
        tracer.label_thread("caller");
        let out = two_units_at_once(Some(&tracer));
        let on_caller = out.iter().filter(|(id, _)| *id == caller).count();
        assert_eq!(on_caller, 1, "one unit ran on the calling thread");
        // `worker-1` is the helper's role in this map: its lane's label,
        // with its unit on it. The OS thread carries no role.
        let trace = tracer.snapshot();
        let lanes: Vec<_> = (trace.lanes.iter())
            .map(|l| (l.label.as_str(), l.records.len()))
            .collect();
        assert_eq!(lanes, [("caller", 1), ("worker-1", 1)]);
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
                let out = two_units_at_once(None);
                assert_eq!(
                    CpuSet::of_current_thread(),
                    before,
                    "the caller's own mask is never touched"
                );
                let (worker0, helper): (Vec<_>, Vec<_>) =
                    out.into_iter().partition(|(id, _)| *id == caller);
                assert_eq!(worker0[0].1, before, "worker 0 is the caller");
                (before.unwrap(), helper[0].1.unwrap())
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

    /// Placement in time: a parked helper is already on the other CPU, so
    /// it takes its share of a map that is over in a millisecond. A helper
    /// forked per map first had to be scheduled on the pinned caller's CPU,
    /// behind the caller, and arrived after the last unit.
    #[test]
    fn a_pinned_callers_helper_starts_on_time() {
        let process = CpuSet::of_process().filter(|p| p.count() >= 2);
        let Some(process) = process else {
            println!("placement in time: skipped (the process has fewer than two CPUs)");
            return;
        };
        let cpu = (0..1024).find(|&c| process.contains(c)).unwrap();
        let (units, first_us) = std::thread::spawn(move || {
            assert!(CpuSet::single(cpu).pin_current_thread(), "pin to {cpu}");
            let caller = std::thread::current().id();
            let mut units = Vec::new();
            let mut first_us = Vec::new();
            for _ in 0..20 {
                let t0 = std::time::Instant::now();
                let (out, stats) = parallel_map(8, 2, |_| {
                    let started = t0.elapsed();
                    let mut x = 1u64;
                    while t0.elapsed() - started < std::time::Duration::from_micros(300) {
                        x = std::hint::black_box(x.wrapping_mul(6364136223846793005) + 1);
                    }
                    (std::thread::current().id(), started.as_micros())
                });
                let helper_first = (out.iter().filter(|(id, _)| *id != caller))
                    .map(|(_, us)| *us)
                    .min();
                units.push(stats[1].units);
                first_us.push(helper_first.unwrap_or(u128::MAX));
            }
            units.sort_unstable();
            first_us.sort_unstable();
            (units[10], first_us[10])
        })
        .join()
        .expect("timed placement case");
        println!("placement in time: helper ran {units} of 8 units, first after {first_us} us (medians of 20)");
        assert!(
            units >= 2,
            "the helper ran {units} of 8 units at the median"
        );
        assert!(
            first_us <= 500,
            "the helper's first unit started after {first_us} us"
        );
    }

    /// A mask no caller asks for: the pin is refused, the helper stays
    /// where it was born, and no other test can take it off the list.
    fn private_mask() -> Option<CpuSet> {
        Some(CpuSet::single(1000))
    }

    #[test]
    fn a_panic_outside_a_unit_is_reported_and_the_helper_is_parked_again() {
        let helper = Helper::take(private_mask());
        let slot = Arc::clone(&helper.slot);
        let mut borrowed = Borrowed(vec![helper]);
        borrowed.0[0].hand(Job {
            body: &|worker| panic!("outside a unit, worker {worker}"),
            worker: 1,
        });
        let payload = borrowed
            .wait()
            .expect_err("the body's panic is the outcome");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("outside a unit, worker 1")
        );
        // Alive and parked: the same thread takes the next job.
        let again = Helper::take(private_mask());
        assert!(Arc::ptr_eq(&again.slot, &slot), "no second helper was born");
        again.hand(Job {
            body: &|_| {},
            worker: 1,
        });
        assert!(Borrowed(vec![again]).wait().is_ok());

        // The same through a map: the caller resumes the helper's panic
        // after its own work, and the next map runs as if nothing happened.
        let ran = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_on_workers(2, &|worker| {
                ran.fetch_add(1, Ordering::Relaxed);
                if worker == 1 {
                    panic!("role {worker} died");
                }
            })
        }));
        let payload = caught.expect_err("resumed on the caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("role 1 died")
        );
        assert_eq!(ran.load(Ordering::Relaxed), 2);
        assert_eq!(parallel_map(8, 2, |i| i).0, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_map_never_takes_one_helper_twice() {
        // Units this short are over before the second helper is handed its
        // job: a helper that parked itself after its last unit would be
        // taken again as `worker-2` and relabel the lane it had as
        // `worker-1`. Helpers go back only when the whole map is over.
        for _ in 0..200 {
            let tracer = Tracer::new();
            tracer.label_thread("caller");
            parallel_map_traced(3, 3, Some(&tracer), |_| ());
            let trace = tracer.snapshot();
            let mut labels: Vec<_> = trace.lanes.iter().map(|l| l.label.as_str()).collect();
            labels.sort_unstable();
            assert_eq!(labels, ["caller", "worker-1", "worker-2"]);
        }
    }

    #[test]
    fn nested_maps_take_more_helpers_and_complete() {
        for outer in [2, 4] {
            // Every inner map needs a helper of its own at the same time:
            // its two units meet at a barrier.
            let (sums, stats) = parallel_map(outer, outer, |i| {
                let both = std::sync::Barrier::new(2);
                let (inner, _) = parallel_map(2, 2, |j| {
                    both.wait();
                    i * 10 + j
                });
                inner.iter().sum::<usize>()
            });
            let expect: Vec<_> = (0..outer).map(|i| i * 20 + 1).collect();
            assert_eq!(sums, expect, "outer threads = {outer}");
            assert_eq!(stats.len(), outer);
        }
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
