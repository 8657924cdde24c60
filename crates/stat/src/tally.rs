//! The always-on tally: process-lifetime event totals kept per host
//! thread.
//!
//! Some totals are part of the library's contract rather than of a
//! statistics epoch: `sunmt::stats()` reports dispatches and magazine
//! hits "since init", and the "chan" and "sched" sources report sends,
//! parks and wakes whether or not anyone called [`crate::enable`]. Those
//! totals used to live in process-wide atomics, so every send, receive
//! and dispatch wrote a cache line every other CPU also wrote. The tally
//! keeps them the way the stat blocks keep epoch counters:
//!
//! - Each host thread (on a pool LWP, that is the LWP) owns one block
//!   of counters, allocated and registered on its first count. The owner
//!   is the only writer, so an increment is a relaxed load and store on
//!   a line no other CPU writes.
//! - The tally is counted even while stats are disabled or compiled out
//!   with `off`, and [`crate::enable`] never zeroes it.
//! - [`totals`] sums the live blocks plus a retired total. A thread's
//!   exit folds its block into the retired total and unregisters it
//!   under the registry lock, so totals stay exact and the registry
//!   holds one block per live counting thread, however many threads
//!   come and go.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};

/// Always-on event vocabulary.
#[repr(usize)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tally {
    /// Messages committed to a channel.
    ChanSends,
    /// Messages taken from a channel.
    ChanRecvs,
    /// Receivers that parked on an empty channel.
    ChanRecvParks,
    /// Senders that parked on a full channel.
    ChanSendParks,
    /// Unbounded-channel sends that overflowed into the spill.
    ChanSpills,
    /// `Select::wait`/`wait_timeout` calls.
    ChanSelectWaits,
    /// Select hooks fired by a send or a disconnect.
    ChanSelectWakes,
    /// Async waker hooks fired by a send or a disconnect.
    ChanAsyncWakes,
    /// User-level dispatches.
    Dispatches,
    /// Pool-growth events (setconcurrency, NEW_LWP, SIGWAITING).
    PoolGrows,
    /// User-level sleeps ended by their deadline.
    TimeoutWakeups,
    /// Parked pool LWPs unparked because a push handed them work.
    IdleWakes,
    /// Running threads switched out at a preemption tick.
    Preempts,
    /// Timeshare decay steps applied at preemption ticks.
    Decays,
    /// Priority-inheritance boosts pushed by blocked waiters.
    PiBoosts,
    /// Create-path magazine/depot hits (stacks and thread objects).
    MagazineHits,
    /// Create-path magazine/depot misses (fresh allocations).
    MagazineMisses,
    /// Condvar broadcasts resolved by wait morphing.
    CvRequeues,
}

/// Number of tally counters (the last variant's index plus one).
pub const NTALLY: usize = Tally::CvRequeues as usize + 1;

/// One host thread's counters, on lines of their own so a neighbouring
/// heap object never shares them.
#[repr(align(64))]
struct Block {
    cells: [AtomicU64; NTALLY],
}

struct Registry {
    /// Boxed so a block stays put when the vector grows: its owner
    /// writes through a raw pointer (`MINE`).
    #[allow(clippy::vec_box)]
    live: Vec<Box<Block>>,
    /// Totals folded in from exited threads.
    retired: [u64; NTALLY],
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    live: Vec::new(),
    retired: [0; NTALLY],
});

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Retires this thread's block when the thread exits.
struct Retire;

impl Drop for Retire {
    fn drop(&mut self) {
        let p = MINE.replace(std::ptr::null());
        EXITED.set(true);
        let mut reg = registry();
        let Some(i) = reg.live.iter().position(|b| std::ptr::eq(&**b, p)) else {
            return;
        };
        let b = reg.live.swap_remove(i);
        for (r, c) in reg.retired.iter_mut().zip(&b.cells) {
            *r = r.wrapping_add(c.load(Relaxed));
        }
    }
}

thread_local! {
    /// This thread's registered block, or null before its first count
    /// and after its exit.
    static MINE: Cell<*const Block> = const { Cell::new(std::ptr::null()) };
    /// Set once this thread's block is retired (or could not be given a
    /// retirement hook); later counts go straight to the retired total.
    static EXITED: Cell<bool> = const { Cell::new(false) };
    static RETIRE: Retire = const { Retire };
}

/// Adds 1 to `t` in the calling thread's block.
///
/// Never inlined: an unbound thread can move to another LWP at any
/// blocking call, and a thread-local address computed once by an
/// inlined caller could then name the previous LWP's block, breaking
/// its single writer.
#[inline(never)]
pub fn count(t: Tally) {
    // SAFETY: a non-null `MINE` is this thread's block, which the
    // registry keeps allocated until this thread's `Retire` runs, and
    // `Retire` nulls `MINE` first.
    match unsafe { MINE.get().as_ref() } {
        Some(b) => {
            let c = &b.cells[t as usize];
            c.store(c.load(Relaxed).wrapping_add(1), Relaxed);
        }
        None => count_cold(t),
    }
}

#[cold]
fn count_cold(t: Tally) {
    // Arm the retirement hook before registering, so a thread that can
    // no longer run destructors (it is exiting) never leaves a block
    // behind in the registry.
    let armed = !EXITED.get() && RETIRE.try_with(|_| ()).is_ok();
    let mut reg = registry();
    if !armed {
        EXITED.set(true);
        reg.retired[t as usize] = reg.retired[t as usize].wrapping_add(1);
        return;
    }
    let b = Box::new(Block {
        cells: [const { AtomicU64::new(0) }; NTALLY],
    });
    b.cells[t as usize].store(1, Relaxed);
    MINE.set(&*b);
    reg.live.push(b);
}

/// Every counter's process-lifetime total, indexed by `Tally as usize`.
/// Exact for counts that happen-before the call (a quiescent process
/// reads exact totals); counts racing with it may or may not appear.
pub fn totals() -> [u64; NTALLY] {
    let reg = registry();
    let mut out = reg.retired;
    for b in &reg.live {
        for (o, c) in out.iter_mut().zip(&b.cells) {
            *o = o.wrapping_add(c.load(Relaxed));
        }
    }
    out
}

/// Blocks currently registered: one per live thread that has counted.
pub fn blocks() -> usize {
    registry().live.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exited_threads_fold_into_exact_totals_and_unregister() {
        let before = totals()[Tally::ChanSpills as usize];
        let blocks0 = blocks();
        for i in 0..200u64 {
            std::thread::spawn(move || {
                for _ in 0..=i {
                    count(Tally::ChanSpills);
                }
            })
            .join()
            .unwrap();
        }
        let after = totals()[Tally::ChanSpills as usize];
        assert_eq!(after - before, (1..=200).sum::<u64>());
        // Other tests in this binary may hold a block or two at once;
        // 200 joined threads must not have left theirs behind.
        assert!(blocks() <= blocks0 + 8, "{} blocks after churn", blocks());
    }

    #[test]
    fn stat_epochs_do_not_reset_the_tally() {
        let _g = crate::test_lock();
        count(Tally::ChanSelectWakes);
        let before = totals()[Tally::ChanSelectWakes as usize];
        crate::enable();
        crate::disable();
        assert_eq!(totals()[Tally::ChanSelectWakes as usize], before);
    }
}
