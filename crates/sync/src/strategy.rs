//! Pluggable blocking: how a contended synchronization variable suspends the
//! caller.
//!
//! The same `mutex_enter` call must (per the paper) block a *user-level
//! thread* without kernel involvement when called from an unbound thread,
//! and block the *LWP in the kernel* when called from a bound thread, from
//! plain LWP code, or on a process-shared variable. This module is that
//! dispatch point: sync variables park through the process-global
//! [`BlockStrategy`], which the threads library replaces at startup.
//!
//! The contract is futex-shaped, which both backends implement naturally:
//! `park(word, expected)` sleeps only while `*word == expected`, and
//! `unpark(word, n)` releases up to `n` sleepers.
//!
//! Sync variables are not the only clients: `sunmt-chan` parks its
//! channel waiters, select waiters, and async `Waker`s on private
//! eventcount words through the same entry points, so every message
//! wait inherits the two-level blocking split (and the scheduler's
//! futex-elision on user-level wakes) without that crate knowing which
//! backend is installed.
//!
//! Kernel waits on private words are *counted*: every backend parks in
//! the kernel through [`kernel_wait`], which bumps a per-address-slot
//! count around the futex wait, and wakes through [`kernel_wake`] /
//! [`kernel_requeue`], which skip the syscall when that count reads zero.
//! A wake that finds no possible kernel waiter therefore costs a fence
//! and a load instead of a system call.

use core::sync::atomic::{fence, AtomicU32, Ordering};
use core::time::Duration;
use std::sync::OnceLock;

use sunmt_sys::futex::{self, Scope};
use sunmt_sys::task;

/// A blocking backend for synchronization variables.
pub trait BlockStrategy: Sync {
    /// Suspends the calling context until a matching [`Self::unpark`], if
    /// `word` still holds `expected` at sleep time. Spurious returns are
    /// allowed; callers always re-check their predicate.
    ///
    /// `shared` is true for `SYNC_SHARED` variables: those must always park
    /// in the kernel so that waiters in *other processes* can be woken.
    fn park(&self, word: &AtomicU32, expected: u32, shared: bool);

    /// Like [`Self::park`], but returns (spuriously or otherwise) no later
    /// than `timeout` from now. Used by the timed primitives
    /// (`cv_timedwait`, `sema_timedp`, I/O deadlines); callers re-check
    /// both their predicate and their deadline, so the return carries no
    /// "timed out" verdict.
    ///
    /// The default is the kernel path — a futex wait with a timeout — which
    /// is correct for any backend whose `park` is a kernel block. The
    /// threads library overrides it to put unbound threads on the
    /// user-level sleep queue with a deadline instead.
    fn park_timeout(&self, word: &AtomicU32, expected: u32, shared: bool, timeout: Duration) {
        kernel_wait(word, expected, shared, Some(timeout));
    }

    /// Wakes up to `n` contexts parked on `word`.
    fn unpark(&self, word: &AtomicU32, n: u32, shared: bool);

    /// Wait morphing: wakes **one** context parked on `word` and transfers
    /// every other one onto `target`'s wait queue without waking it, so the
    /// transferred waiters are released one at a time as `target` (a mutex
    /// word already marked contended) is exited.
    ///
    /// `expected` is the value the caller last published to `word`; if the
    /// word has moved on (a racing signaller), the transfer is abandoned
    /// and everyone is woken instead — waking too many is merely slow,
    /// while requeueing on a stale protocol state could strand a waiter.
    ///
    /// The default is the kernel path (`FUTEX_CMP_REQUEUE`), correct for
    /// any backend whose `park` is a kernel block. The threads library
    /// overrides it to also migrate unbound threads between user-level
    /// sleep queues.
    fn unpark_requeue(&self, word: &AtomicU32, expected: u32, target: &AtomicU32, shared: bool) {
        kernel_requeue(word, expected, target, shared);
    }

    /// Politely gives up the processor inside a spin loop.
    fn yield_now(&self);

    /// A stable identity for the current execution context, used by the
    /// `DEBUG` variant's ownership tracking. The default is the kernel
    /// task id; the threads library overrides it with the *thread* id so
    /// ownership survives an unbound thread's migration between LWPs.
    fn self_id(&self) -> u32 {
        sunmt_sys::task::gettid()
    }

    /// An opaque hint naming the LWP the caller is executing on, published
    /// by `ADAPTIVE` mutexes on acquire so waiters can ask
    /// [`Self::lwp_running`] about the holder. Zero means "no hint"; the
    /// default backend has no LWP bookkeeping, so that is all it offers.
    fn lwp_hint(&self) -> u32 {
        0
    }

    /// Whether the LWP behind a [`Self::lwp_hint`] value is believed to be
    /// on a processor right now — the paper's "spin only while the owner is
    /// running" query. Must err toward `true` (spin) when it cannot tell;
    /// callers cap the spin either way.
    fn lwp_running(&self, _hint: u32) -> bool {
        true
    }

    /// Priority inheritance: pushes the calling waiter's priority onto the
    /// LWP behind `owner_hint` (the published holder of the lock the caller
    /// is about to park on), so a preempting scheduler will not keep the
    /// holder off the processor while a higher-priority waiter sleeps.
    /// Returns the priority actually pushed, or 0 if no boost was applied
    /// (the owner already ran at least that high, or the backend has no
    /// priorities — the default).
    fn pi_boost(&self, _owner_hint: u32) -> i32 {
        0
    }

    /// Strips whatever [`Self::pi_boost`] pushed onto the LWP behind
    /// `owner_hint`, returning the boost that was removed (0 = there was
    /// none). Called by the lock release path.
    fn pi_strip(&self, _owner_hint: u32) -> i32 {
        0
    }
}

/// The default strategy: block the calling LWP in the kernel.
///
/// This is the behaviour of plain LWP code with no threads library loaded —
/// the degenerate "process = address space + one LWP" case the paper
/// requires to behave like a standard UNIX process.
pub struct KernelBlock;

impl BlockStrategy for KernelBlock {
    fn park(&self, word: &AtomicU32, expected: u32, shared: bool) {
        kernel_wait(word, expected, shared, None);
    }

    fn unpark(&self, word: &AtomicU32, n: u32, shared: bool) {
        kernel_wake(word, n, shared);
    }

    fn yield_now(&self) {
        task::sched_yield();
    }
}

// ---------------------------------------------------------------------
// Counted kernel waits.
//
// A kernel wake on a private word is only needed when some LWP may be
// blocked in `futex_wait` on that word. `KPARKS` counts such waiters per
// hashed address slot: the waiter increments its word's slot before its
// final check of the word and decrements it after the wait returns, and
// wakers issue the syscall only when the slot is non-zero.
//
// Ordering is the store-buffering (Dekker) pattern. The waiter does
// `slot += 1` (SeqCst), then re-loads the word (SeqCst), then sleeps only
// if the word still holds `expected`. The waker has already changed the
// word; it issues a SeqCst fence and then loads the slot. In the single
// total order either the waker's load follows the increment (it sees the
// waiter and wakes it), or the waiter's re-load follows the fence (it
// sees the new word and does not sleep). A skipped wake is therefore
// equivalent to one issued before the waiter reached the kernel, which
// the futex contract already treats as a no-op.
//
// Invariant: a slot may over-count (hash collisions, a requeue credit
// that outlives the waiters it covered) but never under-counts the
// waiters that a wake on a word hashing to it must reach.
//
// `SHARED` words are never counted or gated: their waiters may be in
// other processes, whose counts this table cannot see.

const KPARK_SLOTS: usize = 64;

/// Ceiling for requeue credits, far above any real waiter count, so a
/// long-lived slot's accumulated credit saturates instead of wrapping to
/// an under-count.
const KPARK_CAP: u32 = u32::MAX / 2;

/// One slot per cache line: waiters on unrelated words do not make each
/// other's wakers miss.
#[repr(align(64))]
struct KparkSlot(AtomicU32);

static KPARKS: [KparkSlot; KPARK_SLOTS] = [const { KparkSlot(AtomicU32::new(0)) }; KPARK_SLOTS];

fn scope(shared: bool) -> Scope {
    if shared {
        Scope::Shared
    } else {
        Scope::Private
    }
}

/// The slot counting kernel waiters on `word` (Fibonacci hash of its
/// address, top 6 bits).
#[inline]
fn kpark_slot(word: &AtomicU32) -> &'static AtomicU32 {
    let h = (word.as_ptr() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58;
    &KPARKS[h as usize].0
}

/// Blocks the calling LWP in the kernel while `*word == expected`, for at
/// most `timeout` if one is given. Every kernel park of a sync variable
/// goes through here, so the wake side can tell when nobody can be in
/// the kernel. Mismatch, wake, timeout and `EINTR` all mean "re-check".
pub fn kernel_wait(word: &AtomicU32, expected: u32, shared: bool, timeout: Option<Duration>) {
    let slot = (!shared).then(|| kpark_slot(word));
    if let Some(slot) = slot {
        slot.fetch_add(1, Ordering::SeqCst);
    }
    if word.load(Ordering::SeqCst) == expected {
        let _ = match timeout {
            None => futex::wait(word, expected, scope(shared)),
            Some(t) => futex::wait_timeout(word, expected, scope(shared), t),
        };
    }
    if let Some(slot) = slot {
        slot.fetch_sub(1, Ordering::Release);
    }
}

/// Whether a kernel wake on `word` can reach anybody. The caller must
/// already have published the change to `word` that the wake announces;
/// see the ordering argument above. Always true for `SHARED` words.
#[inline]
fn kernel_waiters(word: &AtomicU32, shared: bool) -> bool {
    if shared {
        return true;
    }
    fence(Ordering::SeqCst);
    kpark_slot(word).load(Ordering::Relaxed) != 0
}

/// Wakes up to `n` LWPs blocked in the kernel on `word`. The syscall is
/// skipped when the word's kernel-park slot reads zero.
pub fn kernel_wake(word: &AtomicU32, n: u32, shared: bool) {
    if !kernel_waiters(word, shared) {
        return;
    }
    sunmt_trace::probe!(sunmt_trace::Tag::FutexWake, word.as_ptr() as usize, n);
    let _ = futex::wake(word, n, scope(shared));
}

/// The kernel half of wait morphing (see [`BlockStrategy::unpark_requeue`]):
/// wakes one LWP blocked on `word` and moves the rest onto `target`.
///
/// The moved waiters stay counted in `word`'s slot, where they will
/// decrement on wakeup, so `target`'s slot is credited with `word`'s
/// count *before* the requeue: a later wake of `target` must not skip
/// them. The credit is never taken back — over-counting is safe — and
/// saturates at `KPARK_CAP`.
pub fn kernel_requeue(word: &AtomicU32, expected: u32, target: &AtomicU32, shared: bool) {
    if !kernel_waiters(word, shared) {
        return;
    }
    let scope = scope(shared);
    if !shared {
        let credit = kpark_slot(word).load(Ordering::SeqCst);
        let _ = kpark_slot(target).fetch_update(Ordering::SeqCst, Ordering::SeqCst, |c| {
            Some(c.max(c.saturating_add(credit).min(KPARK_CAP)))
        });
    }
    match futex::cmp_requeue(word, expected, 1, target, i32::MAX as u32, scope) {
        Ok(_) => {
            sunmt_trace::probe!(sunmt_trace::Tag::FutexWake, word.as_ptr() as usize, 1u32);
        }
        Err(_) => {
            // Stale `expected` (or an exotic futex failure): wake
            // everyone, the pre-morphing behaviour.
            sunmt_trace::probe!(
                sunmt_trace::Tag::FutexWake,
                word.as_ptr() as usize,
                u32::MAX
            );
            let _ = futex::wake_all(word, scope);
        }
    }
}

static KERNEL_BLOCK: KernelBlock = KernelBlock;
static STRATEGY: OnceLock<&'static dyn BlockStrategy> = OnceLock::new();

/// Installs the process-wide blocking strategy.
///
/// Called once by the threads library when it initializes; later calls are
/// ignored (the first installation wins). Returns whether the installation
/// took effect.
pub fn install(strategy: &'static dyn BlockStrategy) -> bool {
    STRATEGY.set(strategy).is_ok()
}

/// The current strategy ([`KernelBlock`] until something is installed).
#[inline]
pub fn current() -> &'static dyn BlockStrategy {
    match STRATEGY.get() {
        Some(s) => *s,
        None => &KERNEL_BLOCK,
    }
}

/// Parks through the current strategy; see [`BlockStrategy::park`].
#[inline]
pub fn park(word: &AtomicU32, expected: u32, shared: bool) {
    if shared {
        // Shared variables always block in the kernel, regardless of the
        // installed strategy: a user-level sleep queue is invisible to the
        // other processes mapping this variable.
        KERNEL_BLOCK.park(word, expected, true);
    } else {
        current().park(word, expected, false);
    }
}

/// Parks with a deadline through the current strategy; see
/// [`BlockStrategy::park_timeout`].
#[inline]
pub fn park_timeout(word: &AtomicU32, expected: u32, shared: bool, timeout: Duration) {
    if shared {
        KERNEL_BLOCK.park_timeout(word, expected, true, timeout);
    } else {
        current().park_timeout(word, expected, false, timeout);
    }
}

/// Unparks through the current strategy; see [`BlockStrategy::unpark`].
#[inline]
pub fn unpark(word: &AtomicU32, n: u32, shared: bool) {
    if shared {
        KERNEL_BLOCK.unpark(word, n, true);
    } else {
        current().unpark(word, n, false);
    }
}

/// Wakes one waiter and morphs the rest onto `target`; see
/// [`BlockStrategy::unpark_requeue`].
#[inline]
pub fn unpark_requeue(word: &AtomicU32, expected: u32, target: &AtomicU32, shared: bool) {
    if shared {
        KERNEL_BLOCK.unpark_requeue(word, expected, target, true);
    } else {
        current().unpark_requeue(word, expected, target, false);
    }
}

/// Yields through the current strategy.
#[inline]
pub fn yield_now() {
    current().yield_now();
}

/// The current execution context's identity (see [`BlockStrategy::self_id`]).
#[inline]
pub fn self_id() -> u32 {
    current().self_id()
}

/// The calling context's LWP hint (see [`BlockStrategy::lwp_hint`]).
#[inline]
pub fn lwp_hint() -> u32 {
    current().lwp_hint()
}

/// Whether the hinted LWP is running (see [`BlockStrategy::lwp_running`]).
#[inline]
pub fn lwp_running(hint: u32) -> bool {
    current().lwp_running(hint)
}

/// Boosts the hinted owner's priority (see [`BlockStrategy::pi_boost`]).
#[inline]
pub fn pi_boost(owner_hint: u32) -> i32 {
    current().pi_boost(owner_hint)
}

/// Strips an inherited boost (see [`BlockStrategy::pi_strip`]).
#[inline]
pub fn pi_strip(owner_hint: u32) -> i32 {
    current().pi_strip(owner_hint)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Runs `f` on a helper thread and fails the test if it has not
    /// finished within `secs`: a lost wakeup shows up as a named failure,
    /// not a hung test binary.
    fn within(secs: u64, what: &str, f: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            f();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .unwrap_or_else(|_| panic!("{what}: no progress in {secs}s (lost wakeup?)"));
    }

    #[test]
    fn kernel_park_returns_on_value_mismatch() {
        let w = AtomicU32::new(5);
        // Must return immediately: the word does not hold `expected`.
        park(&w, 0, false);
        park(&w, 0, true);
    }

    #[test]
    fn kernel_unpark_wakes_kernel_parker() {
        let w = Arc::new(AtomicU32::new(0));
        let w2 = Arc::clone(&w);
        let h = std::thread::spawn(move || {
            while w2.load(Ordering::Acquire) == 0 {
                park(&w2, 0, false);
            }
        });
        std::thread::sleep(Duration::from_millis(5));
        w.store(1, Ordering::Release);
        unpark(&w, u32::MAX, false);
        h.join().unwrap();
    }

    #[test]
    fn counted_wait_and_gated_wake_never_lose_a_handoff() {
        // Two host threads hand a turn back and forth through one private
        // word, each parking in the kernel until the other advances it.
        // Every handoff is the store-buffering race the slot count must
        // win: the waker's skipped wake is only safe if the waiter's
        // re-load sees the new value.
        const ROUNDS: u32 = 200_000;
        within(120, "ping-pong", || {
            let w = Arc::new(AtomicU32::new(0));
            let w2 = Arc::clone(&w);
            let pong = std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    while w2.load(Ordering::Acquire) == 2 * i {
                        park(&w2, 2 * i, false);
                    }
                    w2.store(2 * i + 2, Ordering::Release);
                    unpark(&w2, 1, false);
                }
            });
            for i in 0..ROUNDS {
                w.store(2 * i + 1, Ordering::Release);
                unpark(&w, 1, false);
                while w.load(Ordering::Acquire) == 2 * i + 1 {
                    park(&w, 2 * i + 1, false);
                }
            }
            pong.join().unwrap();
        });
    }

    #[test]
    fn requeued_kernel_waiters_stay_wakeable_on_the_target() {
        // The target word lives in a different slot from the source, so
        // only the requeue credit can make a wake on it reach the waiter
        // the kernel moved there.
        static WORDS: [AtomicU32; 64] = [const { AtomicU32::new(0) }; 64];
        let from = &WORDS[0];
        let to = WORDS
            .iter()
            .find(|w| !core::ptr::eq(kpark_slot(w), kpark_slot(from)))
            .expect("64 words span more than one slot");
        let done: &'static AtomicU32 = &WORDS[63];
        within(30, "requeue", move || {
            let waiters: Vec<_> = (0..2)
                .map(|_| {
                    std::thread::spawn(move || {
                        while done.load(Ordering::Acquire) == 0 {
                            kernel_wait(from, 0, false, None);
                        }
                    })
                })
                .collect();
            // Let both waiters reach the kernel: one is woken by the
            // requeue, the other is moved onto `to`.
            std::thread::sleep(Duration::from_millis(50));
            kernel_requeue(from, 0, to, false);
            done.store(1, Ordering::Release);
            from.fetch_add(1, Ordering::Release);
            kernel_wake(from, u32::MAX, false);
            to.fetch_add(1, Ordering::Release);
            kernel_wake(to, u32::MAX, false);
            for h in waiters {
                h.join().unwrap();
            }
        });
    }
}
