//! The hostile-bytes suites' allocator: it passes every request to
//! [`System`] and records, per thread, the largest single request, so a
//! suite can measure — not argue — that a decoder allocates no more than
//! its input can back.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest single allocation this thread has asked for since the last
    /// reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// A global allocator that records the largest request each thread makes.
/// A test binary installs it with
/// `#[global_allocator] static ALLOCATOR: WatchingAlloc = WatchingAlloc;`
/// and reads it through [`WatchingAlloc::largest`]; no library installs it.
pub struct WatchingAlloc;

impl WatchingAlloc {
    /// Runs `f` and returns its answer with the largest single allocation
    /// this thread asked for while `f` ran (0 unless the binary installed
    /// the allocator).
    pub fn largest<T>(f: impl FnOnce() -> T) -> (T, usize) {
        LARGEST.with(|largest| largest.set(0));
        let got = f();
        (got, LARGEST.with(Cell::get))
    }
}

fn note(size: usize) {
    // `try_with`: an allocation made while the thread's locals are being
    // torn down is simply not recorded.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every request is passed to `System` unchanged and its answer
// returned unchanged; the only addition is a thread-local store of the
// requested size, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for WatchingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
