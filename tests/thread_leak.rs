//! Regression test: creating and exiting an unbound thread must not leak
//! heap memory.
//!
//! An unbound thread leaves its stack by switching away forever, so its
//! entry frame never unwinds: anything the entry path boxed and meant to
//! drop on return is simply lost. A counting global allocator tracks live
//! allocations across a batch of create/exit cycles; after a warm-up that
//! fills the thread and stack magazines, the live count must not grow by
//! one allocation per thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

/// Live heap allocations (allocs minus frees) in this process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: Every method forwards to the system allocator unchanged and
// only adjusts a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: Forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(1, Ordering::Relaxed);
        // SAFETY: Forwarded verbatim.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: Forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: Forwarded verbatim; a realloc keeps the live count.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Creates and reaps `n` unbound threads, one at a time.
fn churn(n: usize) {
    for _ in 0..n {
        let id = ThreadBuilder::new()
            .flags(CreateFlags::WAIT)
            .spawn(|| {})
            .expect("spawn unbound thread");
        threads::wait(Some(id)).expect("reap thread");
    }
}

#[test]
fn unbound_create_exit_does_not_leak() {
    const THREADS: usize = 10_000;
    threads::init();
    // Warm-up: magazines, the run queues, per-LWP state and the thread
    // table reach their steady-state size.
    churn(1_000);
    let before = LIVE.load(Ordering::SeqCst);
    churn(THREADS);
    let grown = LIVE.load(Ordering::SeqCst) - before;
    assert!(
        grown < THREADS as isize,
        "{grown} live allocations left behind by {THREADS} thread create/exit cycles"
    );
}
