//! Thread objects and the thread-management half of the paper's Figure 4.
//!
//! "Threads are actually represented by data structures in the address
//! space of a program" — a [`Thread`] is exactly that: the per-thread state
//! the paper enumerates (thread ID, register state, stack, signal mask,
//! priority, thread-local storage) plus the library bookkeeping that makes
//! `thread_wait`, `thread_stop` and signal delivery work.

use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use sunmt_context::stack::Stack;
use sunmt_context::Continuation;
use sunmt_lwp::parker::Parker;
use sunmt_sync::{Sema, SyncType};

use crate::sched;
use crate::types::{CreateFlags, MtError, Result, ThreadId, ThreadState};

/// Panic payload used by [`exit`] to unwind the current thread cleanly, so
/// destructors on the thread's stack run before the thread is reaped.
pub(crate) struct ExitToken;

/// The in-memory representation of one thread.
pub(crate) struct Thread {
    pub(crate) id: ThreadId,
    pub(crate) flags: CreateFlags,
    /// Permanently bound to its own LWP (`THREAD_BIND_LWP`), or the adopted
    /// initial thread.
    pub(crate) bound: bool,
    state: AtomicU8,
    priority: AtomicI32,
    /// Per-thread signal mask (bit N = signal N blocked).
    pub(crate) sigmask: AtomicU64,
    /// Per-thread pending signal set (non-queuing, like UNIX).
    pub(crate) pending: AtomicU64,
    /// Process-directed interrupts `send_interrupt` chose this thread
    /// for, not yet claimed at a delivery point. Kept apart from
    /// `pending` so that a thread exiting first hands them back to the
    /// process instead of losing them.
    pub(crate) intr_pending: AtomicU64,
    /// A `thread_stop` has been issued and takes effect at the next
    /// scheduling point.
    pub(crate) stop_requested: AtomicBool,
    /// Stoppers blocked until this thread actually stops.
    pub(crate) stop_waiters: AtomicU32,
    pub(crate) stop_event: Sema,
    /// Kernel parker a *bound* thread suspends on when stopped.
    pub(crate) stop_park: Parker,
    /// Posted on exit for the (single) `thread_wait` waiter.
    pub(crate) exit_sema: Sema,
    /// Set once a specific waiter has claimed this thread.
    pub(crate) claimed: AtomicBool,
    /// The suspended execution state; `None` for bound threads (they live
    /// on their LWP's own stack). Touched only by the LWP that owns the
    /// thread at that moment — see the `Send`/`Sync` safety argument.
    pub(crate) cont: UnsafeCell<Option<Continuation>>,
    /// Zero-initialized thread-local storage block.
    pub(crate) tls: UnsafeCell<Box<[u8]>>,
    /// CPU time (ns) accumulated over completed dispatches.
    pub(crate) cpu_ns: AtomicU64,
    /// Times this thread was dispatched onto an LWP (user-level context
    /// switches; always counted — it is one relaxed increment).
    pub(crate) ctx_switches: AtomicU64,
    /// The dispatching LWP's CPU clock (ns) when this thread last went on
    /// CPU; the live dispatch's contribution is `lwp_now - this`.
    pub(crate) dispatch_cpu0_ns: AtomicU64,
    /// Per-thread virtual interval timer (SIGVTALRM): next expiry and
    /// period, in thread-CPU ns. Zero period = disarmed.
    pub(crate) vt_deadline_ns: AtomicU64,
    pub(crate) vt_interval_ns: AtomicU64,
    /// Per-thread profiling interval timer (SIGPROF), same encoding.
    pub(crate) prof_deadline_ns: AtomicU64,
    pub(crate) prof_interval_ns: AtomicU64,
    /// Cycle timestamp (`sunmt_stat::tick`) of the last enqueue onto the
    /// run queue; 0 when stats are disabled or the thread is not queued.
    /// Consumed by the dispatcher to charge run-queue wait time.
    pub(crate) queued_cy: AtomicU64,
    /// Timeshare decay: how far below its base priority this thread
    /// currently schedules. Grown by the preemption tick while the thread
    /// hogs a processor, reset to 0 when it sleeps and is woken (the
    /// simkernel's ts_sleep-boost analogue). `priority()` keeps returning
    /// the base — the decay is scheduler state, not an API-visible change.
    pub(crate) ts_penalty: AtomicI32,
    /// Whole ticks this thread has run in its current stint on an LWP
    /// (reset at every dispatch); drives the decay table.
    pub(crate) quantum_ticks: AtomicU32,
    /// The `running_hint` of the LWP this thread is currently dispatched
    /// on (0 = not on an LWP). Lets `thread_priority` on a *running*
    /// thread kick that LWP's preempt flag so the change takes effect
    /// within one safepoint instead of at the next voluntary reschedule.
    pub(crate) on_lwp_hint: AtomicU32,
}

/// The timeshare decay table: `quantum_ticks -> penalty` (values past the
/// end clamp to the last entry). Mirrors the simkernel timeshare class: a
/// thread that keeps the processor across ticks drops by 10 per tick until
/// its effective priority floors at 0.
pub(crate) const TS_DECAY: [i32; 5] = [0, 10, 20, 30, 40];

// SAFETY: `cont` is accessed only by the single LWP currently running or
// dispatching the thread (the scheduler hands a thread to at most one LWP at
// a time), and `tls` only by the thread itself; all other fields are atomics
// or internally synchronized.
unsafe impl Send for Thread {}
// SAFETY: As above.
unsafe impl Sync for Thread {}

impl Thread {
    #[allow(clippy::too_many_arguments)] // Mirrors thread_create()'s parameter list.
    pub(crate) fn new(
        id: ThreadId,
        flags: CreateFlags,
        bound: bool,
        priority: i32,
        sigmask: u64,
        cont: Option<Continuation>,
        tls_len: usize,
        initial_state: ThreadState,
    ) -> Arc<Thread> {
        Arc::new(Thread {
            id,
            flags,
            bound,
            state: AtomicU8::new(initial_state as u8),
            priority: AtomicI32::new(priority),
            sigmask: AtomicU64::new(sigmask),
            pending: AtomicU64::new(0),
            intr_pending: AtomicU64::new(0),
            stop_requested: AtomicBool::new(false),
            stop_waiters: AtomicU32::new(0),
            stop_event: Sema::new(0, SyncType::DEFAULT),
            stop_park: Parker::new(),
            exit_sema: Sema::new(0, SyncType::DEFAULT),
            claimed: AtomicBool::new(false),
            cont: UnsafeCell::new(cont),
            tls: UnsafeCell::new(vec![0u8; tls_len].into_boxed_slice()),
            cpu_ns: AtomicU64::new(0),
            ctx_switches: AtomicU64::new(0),
            dispatch_cpu0_ns: AtomicU64::new(0),
            vt_deadline_ns: AtomicU64::new(0),
            vt_interval_ns: AtomicU64::new(0),
            prof_deadline_ns: AtomicU64::new(0),
            prof_interval_ns: AtomicU64::new(0),
            queued_cy: AtomicU64::new(0),
            ts_penalty: AtomicI32::new(0),
            quantum_ticks: AtomicU32::new(0),
            on_lwp_hint: AtomicU32::new(0),
        })
    }

    /// Re-initializes a retired thread object taken from a magazine, giving
    /// it a fresh identity — the allocation-free half of `thread_create`.
    ///
    /// The `&mut` access (obtained through `Arc::get_mut`) proves no other
    /// reference — strong *or weak*, so no stale timeout entry either —
    /// still sees this object, which is what makes the non-atomic resets
    /// sound. `stop_event`, `exit_sema` and `stop_park` are quiescent at
    /// retirement (exit/wait balanced their counts; unbound threads never
    /// touch the parker) and are reused as-is.
    #[allow(clippy::too_many_arguments)] // Mirrors Thread::new.
    pub(crate) fn reinit(
        &mut self,
        id: ThreadId,
        flags: CreateFlags,
        priority: i32,
        sigmask: u64,
        cont: Continuation,
        tls_len: usize,
        initial_state: ThreadState,
    ) {
        self.id = id;
        self.flags = flags;
        self.bound = false;
        *self.state.get_mut() = initial_state as u8;
        *self.priority.get_mut() = priority;
        *self.sigmask.get_mut() = sigmask;
        *self.pending.get_mut() = 0;
        crate::signals::hand_back_interrupts(self);
        *self.stop_requested.get_mut() = false;
        *self.stop_waiters.get_mut() = 0;
        *self.claimed.get_mut() = false;
        *self.cont.get_mut() = Some(cont);
        let tls = self.tls.get_mut();
        if tls.len() == tls_len {
            tls.fill(0);
        } else {
            *tls = vec![0u8; tls_len].into_boxed_slice();
        }
        *self.cpu_ns.get_mut() = 0;
        *self.ctx_switches.get_mut() = 0;
        *self.dispatch_cpu0_ns.get_mut() = 0;
        *self.vt_deadline_ns.get_mut() = 0;
        *self.vt_interval_ns.get_mut() = 0;
        *self.prof_deadline_ns.get_mut() = 0;
        *self.prof_interval_ns.get_mut() = 0;
        *self.queued_cy.get_mut() = 0;
        *self.ts_penalty.get_mut() = 0;
        *self.quantum_ticks.get_mut() = 0;
        *self.on_lwp_hint.get_mut() = 0;
    }

    /// A minimal thread object for data-structure unit tests.
    #[cfg(test)]
    pub(crate) fn new_for_test(priority: i32, flags: CreateFlags) -> Arc<Thread> {
        Self::new(
            ThreadId(0),
            flags,
            false,
            priority,
            0,
            None,
            0,
            ThreadState::Runnable,
        )
    }

    /// Whether this is an adopted host thread (the initial thread or a
    /// test-harness thread) rather than one `thread_create` made. The
    /// library cannot bring such a thread to a delivery point; it reaches
    /// one only when it next calls in.
    pub(crate) fn adopted(&self) -> bool {
        self.bound && !self.flags.contains(CreateFlags::BIND_LWP)
    }

    pub(crate) fn state(&self) -> ThreadState {
        ThreadState::from_u8(self.state.load(Ordering::SeqCst))
    }

    pub(crate) fn set_state(&self, s: ThreadState) {
        self.state.store(s as u8, Ordering::SeqCst);
    }

    pub(crate) fn priority(&self) -> i32 {
        self.priority.load(Ordering::SeqCst)
    }

    pub(crate) fn set_priority_raw(&self, p: i32) -> i32 {
        self.priority.swap(p, Ordering::SeqCst)
    }

    /// The priority this thread actually schedules at: base minus the
    /// timeshare decay penalty, floored at 0.
    pub(crate) fn effective_priority(&self) -> i32 {
        (self.priority() - self.ts_penalty.load(Ordering::Relaxed)).max(0)
    }

    /// One preemption tick landed while this thread held a processor:
    /// advance its quantum count and look the new penalty up in the decay
    /// table. Returns the new effective priority.
    pub(crate) fn decay_tick(&self) -> i32 {
        let ticks = self.quantum_ticks.fetch_add(1, Ordering::Relaxed) as usize + 1;
        let penalty = TS_DECAY[ticks.min(TS_DECAY.len() - 1)];
        self.ts_penalty.store(penalty, Ordering::Relaxed);
        self.effective_priority()
    }

    /// A sleep-then-wake restores the thread to its base priority — the
    /// timeshare "sleep boost" that keeps interactive threads responsive.
    /// Yield/preempt requeues do NOT restore, or a hog could launder its
    /// penalty by yielding.
    pub(crate) fn wake_restore(&self) {
        self.ts_penalty.store(0, Ordering::Relaxed);
        self.quantum_ticks.store(0, Ordering::Relaxed);
    }
}

impl core::fmt::Debug for Thread {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Thread")
            .field("id", &self.id)
            .field("state", &self.state())
            .field("bound", &self.bound)
            .field("priority", &self.priority())
            .finish()
    }
}

/// Configures and creates threads — the Rust spelling of the paper's
/// `thread_create(stack_addr, stack_size, func, arg, flags)`.
///
/// ```
/// use sunmt::{ThreadBuilder, CreateFlags};
/// let id = ThreadBuilder::new()
///     .flags(CreateFlags::WAIT)
///     .spawn(|| { /* thread body */ })
///     .unwrap();
/// sunmt::wait(Some(id)).unwrap();
/// ```
#[derive(Default)]
pub struct ThreadBuilder {
    flags: CreateFlags,
    stack_size: Option<usize>,
}

impl ThreadBuilder {
    /// A builder with no flags and the default (cached) stack.
    pub fn new() -> ThreadBuilder {
        ThreadBuilder::default()
    }

    /// Sets the or-able creation flags.
    pub fn flags(mut self, flags: CreateFlags) -> ThreadBuilder {
        self.flags = flags;
        self
    }

    /// Requests a non-default stack size (the paper's nonzero
    /// `stack_size` with NULL `stack_addr`: "the stack is allocated from
    /// the heap ... of the specified size").
    pub fn stack_size(mut self, bytes: usize) -> ThreadBuilder {
        self.stack_size = Some(bytes);
        self
    }

    /// Creates the thread; returns its id.
    ///
    /// "The initial thread priority and signal mask is set to the same
    /// values as its creator. When the new thread is started, it begins
    /// execution by a procedure call to `func(arg)`. If `func` returns, the
    /// thread exits."
    pub fn spawn<F>(self, f: F) -> Result<ThreadId>
    where
        F: FnOnce() + Send + 'static,
    {
        let stack = if self.flags.contains(CreateFlags::BIND_LWP) {
            None // Bound threads run on their LWP's own stack.
        } else {
            Some(match self.stack_size {
                None => sched::take_default_stack().map_err(spawn_err)?,
                Some(n) => Stack::new(n).map_err(spawn_err)?,
            })
        };
        sched::create_thread(self.flags, stack, Box::new(f))
    }

    /// Creates the thread on a caller-supplied stack (the paper's
    /// non-NULL `stack_addr` path).
    ///
    /// # Safety
    ///
    /// `base..base+len` must be writable memory, unused by anything else,
    /// that outlives the thread. "If a stack was supplied by the programmer
    /// when the thread was created, it may be reclaimed when
    /// `thread_wait()` returns successfully" — and only then.
    pub unsafe fn spawn_on_stack<F>(self, base: *mut u8, len: usize, f: F) -> Result<ThreadId>
    where
        F: FnOnce() + Send + 'static,
    {
        assert!(
            !self.flags.contains(CreateFlags::BIND_LWP),
            "bound threads run on their LWP's stack; a supplied stack is meaningless"
        );
        // SAFETY: Forwarded verbatim from the caller's contract.
        let stack = unsafe { Stack::from_raw_parts(base, len) };
        sched::create_thread(self.flags, Some(stack), Box::new(f))
    }
}

fn spawn_err(e: sunmt_sys::Errno) -> MtError {
    MtError::SpawnFailed(std::io::Error::other(format!("stack allocation: {e}")))
}

/// Creates an unbound, immediately runnable thread with default flags.
pub fn spawn<F>(f: F) -> Result<ThreadId>
where
    F: FnOnce() + Send + 'static,
{
    ThreadBuilder::new().spawn(f)
}

/// `thread_exit()`: terminates the current thread.
///
/// Unwinds the thread's stack (running destructors) before the thread is
/// reaped, then never returns.
///
/// # Panics
///
/// Panics (fatally) if called from the adopted initial thread: the host
/// process's main thread cannot be individually terminated on our substrate;
/// return from `main` or use `std::process::exit` instead. This divergence
/// is recorded in DESIGN.md.
pub fn exit() -> ! {
    let t = sched::current_thread();
    assert!(
        !t.adopted(),
        "thread_exit() from the initial thread is not supported"
    );
    panic::resume_unwind(Box::new(ExitToken));
}

/// The body wrapper every created thread runs: delivers startup-pending
/// signals, runs `f`, and treats an [`ExitToken`] unwind as a clean
/// `thread_exit()`. A genuine panic aborts the process — the paper's
/// equivalent (an unhandled trap) kills the whole process too.
pub(crate) fn run_thread_body(f: Box<dyn FnOnce() + Send>) {
    crate::signals::poll();
    if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
        if !payload.is::<ExitToken>() {
            eprintln!("sunmt: thread panicked; aborting process");
            // Propagate the message if printable.
            if let Some(s) = payload.downcast_ref::<&str>() {
                eprintln!("sunmt: panic payload: {s}");
            } else if let Some(s) = payload.downcast_ref::<String>() {
                eprintln!("sunmt: panic payload: {s}");
            }
            std::process::abort();
        }
    }
}

/// `thread_get_id()`: the calling thread's id.
pub fn get_id() -> ThreadId {
    sched::current_thread().id
}

/// `thread_wait()`: blocks until the specified thread (or, with `None`, any
/// `THREAD_WAIT` thread) exits; returns the exited thread's id.
///
/// "It is an error to wait for a thread that was created without the
/// `THREAD_WAIT` attribute, to wait for the current thread, or to have
/// multiple `thread_wait()`s on the same thread."
pub fn wait(which: Option<ThreadId>) -> Result<ThreadId> {
    match which {
        Some(id) => sched::wait_specific(id),
        None => sched::wait_any(),
    }
}

/// `thread_stop()`: prevents the specified thread from running (with
/// `None`, stops the calling thread immediately).
///
/// "The effect of `thread_continue()` may be delayed, but `thread_stop()`
/// does not return until the specified thread is stopped." Threads stop at
/// scheduling points (yield, block, unblock, signal poll); compute-only
/// loops that never enter the library are not asynchronously preemptible on
/// this substrate (see DESIGN.md).
pub fn stop(which: Option<ThreadId>) -> Result<()> {
    sched::stop_thread(which)
}

/// `thread_continue()`: initially starts a `THREAD_STOP`-created thread, or
/// restarts one stopped by [`stop`].
pub fn cont(id: ThreadId) -> Result<()> {
    sched::continue_thread(id)
}

/// `thread_priority()`: sets the priority of the specified thread (`None`
/// for the calling thread) and returns the old priority.
///
/// "The priority must be greater than or equal to zero. Increasing the
/// specified priority gives increasing scheduling priority."
pub fn set_priority(which: Option<ThreadId>, priority: i32) -> Result<i32> {
    if priority < 0 {
        return Err(MtError::BadPriority(priority));
    }
    let t = match which {
        Some(id) => sched::lookup(id)?,
        None => sched::current_thread(),
    };
    let old = t.set_priority_raw(priority);
    // An explicit change starts the thread on a fresh timeshare slate.
    t.ts_penalty.store(0, Ordering::SeqCst);
    t.quantum_ticks.store(0, Ordering::SeqCst);
    // If the target is on an LWP right now, raise that LWP's preempt flag:
    // a demotion must be able to take effect at the target's next safepoint,
    // not at its next voluntary reschedule. (Raising the flag for a thread
    // that just switched out is harmless — the check is a re-validation.)
    let hint = t.on_lwp_hint.load(Ordering::SeqCst);
    if hint != 0 && sched::maybe_current().map(|c| c.id) != Some(t.id) {
        sunmt_lwp::raise_preempt(hint);
    }
    Ok(old)
}

/// Voluntarily yields the processor to another runnable thread.
///
/// For an unbound thread this is a pure user-level reschedule; for bound
/// threads it yields the LWP to the kernel.
pub fn yield_now() {
    sched::yield_current();
}

/// `thread_setconcurrency()`: sets "the degree of real concurrency (i.e.
/// the number of LWPs) that unbound threads in the application require".
///
/// "If `n` is zero (the default), the library automatically creates as many
/// LWPs for use in scheduling unbound threads as required to avoid
/// deadlock" (the `SIGWAITING` mechanism). "If `n` is less than the current
/// maximum, LWPs are removed from the pool" (lazily, as they go idle).
pub fn set_concurrency(n: usize) -> Result<()> {
    sched::set_concurrency(n);
    Ok(())
}

/// The number of pool LWPs currently serving unbound threads (diagnostic).
pub fn concurrency() -> usize {
    sched::pool_size()
}

/// Whether the caller is an *unbound* thread under the user-level
/// scheduler.
///
/// Never adopts the caller: a bare host thread (or one that has not touched
/// the library yet) reports `false`. This is the dispatch predicate
/// `sunmt-io` uses to mirror the sync-variable strategy split — unbound
/// callers park at user level and free their LWP, everyone else blocks the
/// LWP in the kernel.
pub fn current_is_unbound() -> bool {
    sched::maybe_current().is_some_and(|t| !t.bound)
}

/// Whether the caller already has a thread identity (bound, unbound, or a
/// previously adopted host thread). `false` before threads-library init on
/// this host thread; like [`current_is_unbound`], never adopts.
pub fn current_has_thread() -> bool {
    sched::maybe_current().is_some()
}

/// The home run-queue shard of the pool LWP the caller is executing on, or
/// `None` off the pool (bound threads, bare host threads, the timer LWP).
///
/// Subsystems that shard per pool LWP — the sharded I/O poller — use this
/// to pick the *local* shard, mirroring the run queue's owner-side
/// push/pop discipline: an unbound thread arms its fd on the shard of the
/// LWP it is running on, and strangers fall back to round-robin.
pub fn current_shard() -> Option<usize> {
    sched::my_shard()
}
