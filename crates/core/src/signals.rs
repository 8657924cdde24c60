//! The paper's signal model, virtualized at library level.
//!
//! "Signals are divided into two categories: traps and interrupts. Traps
//! (e.g. SIGILL, SIGFPE, SIGSEGV) are signals that are caused synchronously
//! by the operation of a thread, and are handled only by the thread that
//! caused them. Interrupts (e.g. SIGINT, SIGIO) are signals that are caused
//! asynchronously by something outside the process. An interrupt may be
//! handled by any thread that has it enabled in its signal mask. ... If all
//! threads mask a signal, it will pend on the process until a thread
//! unmasks that signal."
//!
//! Properties reproduced exactly:
//!
//! * one process-wide table of handlers ("all threads in the same address
//!   space share the set of signal handlers"), per-thread *masks*;
//! * traps delivered only to the causing thread; interrupts to any one
//!   thread with the signal unmasked; process-pending otherwise;
//! * non-queuing pending sets, so "the number of signals received by the
//!   process is less than or equal to the number sent";
//! * `thread_kill()` targets one thread ("the signal behaves like a trap"),
//!   `sigsend(P_THREAD_ALL)` targets every thread;
//! * `SIG_DFL`/`SIG_IGN` actions affect the whole process.
//!
//! Deliberate substitution (recorded in DESIGN.md): delivery is not an
//! asynchronous kernel upcall but happens at *delivery points* — thread
//! start, every scheduling point (yield, block, unblock), mask changes, and
//! explicit [`poll`] calls. With no user-thread preemption in the paper's
//! library either, the observable delivery orderings coincide.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::sched;
use crate::thread::Thread;
use crate::types::{MtError, Result, ThreadId, ThreadState};

/// A signal number in `1..=63`.
pub type SigNo = u32;

/// Well-known signal numbers used by the examples and tests.
#[allow(missing_docs)]
pub mod sig {
    pub const SIGINT: u32 = 2;
    pub const SIGILL: u32 = 4;
    pub const SIGFPE: u32 = 8;
    pub const SIGSEGV: u32 = 11;
    pub const SIGALRM: u32 = 14;
    pub const SIGVTALRM: u32 = 26;
    pub const SIGPROF: u32 = 27;
    pub const SIGIO: u32 = 29;
    /// "A new signal, SIGWAITING, is sent to the process when all its LWPs
    /// are waiting for some indefinite, external event."
    pub const SIGWAITING: u32 = 32;
}

/// What the process does with a delivered signal.
#[derive(Clone)]
pub enum Disposition {
    /// `SIG_DFL`: terminate the process (except `SIGWAITING`, whose default
    /// "is to ignore it").
    Default,
    /// `SIG_IGN`: discard.
    Ignore,
    /// A caught signal; the handler runs on the receiving thread.
    Handler(Arc<dyn Fn(SigNo) + Send + Sync>),
}

impl core::fmt::Debug for Disposition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Disposition::Default => f.write_str("Default"),
            Disposition::Ignore => f.write_str("Ignore"),
            Disposition::Handler(_) => f.write_str("Handler(..)"),
        }
    }
}

/// How [`thread_sigsetmask`] combines the given set with the current mask.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MaskHow {
    /// Add the set's signals to the mask (`SIG_BLOCK`).
    Block,
    /// Remove the set's signals from the mask (`SIG_UNBLOCK`).
    Unblock,
    /// Replace the mask (`SIG_SETMASK`).
    SetMask,
}

fn validate(signo: SigNo) -> Result<u64> {
    if (1..=63).contains(&signo) {
        Ok(1u64 << signo)
    } else {
        Err(MtError::BadSignal(signo))
    }
}

/// Whether a signal is a trap (synchronously caused, handled by the causing
/// thread) rather than an interrupt.
pub fn is_trap(signo: SigNo) -> bool {
    matches!(signo, sig::SIGILL | sig::SIGFPE | sig::SIGSEGV)
}

/// `signal()` and variants: installs the process-wide disposition.
pub fn set_disposition(signo: SigNo, disp: Disposition) -> Result<()> {
    validate(signo)?;
    sched::mt()
        .handlers
        .lock()
        .expect("handler table poisoned")
        .insert(signo, disp);
    Ok(())
}

fn disposition_of(signo: SigNo) -> Disposition {
    sched::mt()
        .handlers
        .lock()
        .expect("handler table poisoned")
        .get(&signo)
        .cloned()
        .unwrap_or(Disposition::Default)
}

fn default_action(signo: SigNo) {
    if signo == sig::SIGWAITING {
        // "The default handling for SIGWAITING is to ignore it."
        return;
    }
    // "If a signal handler is marked SIG_DFL ... the action on receipt of
    // the signal (exit, core dump, ...) affects all the threads in the
    // receiving process."
    eprintln!("sunmt: terminating on signal {signo} (default disposition)");
    std::process::exit(128 + signo as i32);
}

fn dispatch(signo: SigNo) {
    sunmt_trace::probe!(sunmt_trace::Tag::SignalDeliver, signo);
    match disposition_of(signo) {
        Disposition::Default => default_action(signo),
        Disposition::Ignore => {}
        Disposition::Handler(h) => h(signo),
    }
}

/// `thread_sigsetmask()`: adjusts the calling thread's signal mask and
/// returns the previous mask.
///
/// "Each thread has its own signal mask. This permits a thread to block
/// some signals while it uses state that is also modified by a signal
/// handler." Unblocking immediately claims matching process-pending
/// interrupts, which is how a pended signal finally gets delivered.
pub fn thread_sigsetmask(how: MaskHow, set: u64) -> u64 {
    let t = sched::current_thread();
    let old = match how {
        MaskHow::Block => t.sigmask.fetch_or(set, Ordering::SeqCst),
        MaskHow::Unblock => t.sigmask.fetch_and(!set, Ordering::SeqCst),
        MaskHow::SetMask => t.sigmask.swap(set, Ordering::SeqCst),
    };
    poll();
    old
}

/// The calling thread's signal mask.
pub fn current_mask() -> u64 {
    sched::current_thread().sigmask.load(Ordering::SeqCst)
}

/// `thread_kill()`: sends `signo` to one specific thread in this process.
///
/// "In this case the signal behaves like a trap and can be handled only by
/// the specified thread." (It is *pended* on that thread and delivered at
/// its next delivery point.)
pub fn thread_kill(id: ThreadId, signo: SigNo) -> Result<()> {
    let bit = validate(signo)?;
    let t = sched::lookup(id)?;
    if matches!(t.state(), ThreadState::Zombie | ThreadState::Dead) {
        return Err(MtError::UnknownThread(id));
    }
    t.pending.fetch_or(bit, Ordering::SeqCst);
    if sched::maybe_current().is_some_and(|c| Arc::ptr_eq(&c, &t)) {
        poll();
    }
    Ok(())
}

/// `sigsend(P_THREAD_ALL)`: sends `signo` to every thread in the process.
pub fn sigsend_all(signo: SigNo) -> Result<()> {
    let bit = validate(signo)?;
    let threads: Vec<Arc<Thread>> = sched::mt()
        .threads
        .lock()
        .expect("thread registry poisoned")
        .values()
        .cloned()
        .collect();
    for t in threads {
        if !matches!(t.state(), ThreadState::Zombie | ThreadState::Dead) {
            t.pending.fetch_or(bit, Ordering::SeqCst);
        }
    }
    poll();
    Ok(())
}

/// Delivers a process-directed *interrupt* (the asynchronous category).
///
/// "An interrupt may be handled by any thread that has it enabled in its
/// signal mask. If more than one thread is enabled to receive the
/// interrupt, only one is chosen." With every thread masking it, the signal
/// pends on the process.
///
/// Delivery happens at delivery points, so the interrupt is pended only on
/// a thread sure to reach one: the caller (which polls right here), or a
/// running or runnable thread the library created, whose LWP is kicked so
/// it notices at its next safepoint. Adopted host threads reach a delivery
/// point only when they next call in, and sleeping or stopped threads only
/// when woken; with no better taker the interrupt pends on the process,
/// where the first thread to poll with it unmasked claims it.
pub fn send_interrupt(signo: SigNo) -> Result<()> {
    let bit = validate(signo)?;
    let enabled = |t: &Thread| t.sigmask.load(Ordering::SeqCst) & bit == 0;
    if let Some(me) = sched::maybe_current().filter(|t| enabled(t)) {
        me.pending.fetch_or(bit, Ordering::SeqCst);
        poll();
        return Ok(());
    }
    let threads: Vec<Arc<Thread>> = sched::mt()
        .threads
        .lock()
        .expect("thread registry poisoned")
        .values()
        .cloned()
        .collect();
    let pick = threads.iter().find(|t| {
        !t.adopted()
            && matches!(t.state(), ThreadState::Running | ThreadState::Runnable)
            && enabled(t)
    });
    let Some(t) = pick else {
        sched::mt().proc_pending.fetch_or(bit, Ordering::SeqCst);
        return Ok(());
    };
    t.intr_pending.fetch_or(bit, Ordering::SeqCst);
    // Exit marks the thread, then hands its interrupts back. If it was
    // marked before this pend landed, the hand-back may have missed the
    // bit: whichever side clears it returns it to the process.
    if matches!(t.state(), ThreadState::Zombie | ThreadState::Dead) {
        if t.intr_pending.fetch_and(!bit, Ordering::SeqCst) & bit != 0 {
            sched::mt().proc_pending.fetch_or(bit, Ordering::SeqCst);
        }
    } else {
        sunmt_lwp::raise_preempt(t.on_lwp_hint.load(Ordering::Acquire));
    }
    Ok(())
}

/// Returns the interrupts `send_interrupt` pended on `t` that it never
/// claimed to the process, so another thread can take them. Called when
/// `t` exits and again when its object is recycled.
pub(crate) fn hand_back_interrupts(t: &Thread) {
    let left = t.intr_pending.swap(0, Ordering::SeqCst);
    if left != 0 {
        sched::mt().proc_pending.fetch_or(left, Ordering::SeqCst);
    }
}

/// Raises a synchronous *trap* in the calling thread, delivered
/// immediately (or pended on the thread while masked, like a blocked
/// hardware trap).
///
/// "A floating-point overflow trap applies to a particular thread, not the
/// whole program."
pub fn raise_trap(signo: SigNo) -> Result<()> {
    let bit = validate(signo)?;
    let t = sched::current_thread();
    t.pending.fetch_or(bit, Ordering::SeqCst);
    poll();
    Ok(())
}

/// The calling thread's pending-signal set (diagnostic).
pub fn pending() -> u64 {
    sched::maybe_current()
        .map(|t| t.pending.load(Ordering::SeqCst))
        .unwrap_or(0)
}

/// A signal delivery point: claims eligible process-pending interrupts and
/// runs handlers for every deliverable pending signal of the calling
/// thread.
///
/// Called automatically at every scheduling point; call it explicitly from
/// long computations that should remain interruptible.
pub fn poll() {
    let Some(t) = sched::maybe_current() else {
        return;
    };
    // Expire per-thread interval timers first, so their signals join this
    // delivery round.
    crate::timers::poll_current(&t);
    // Claim the interrupts a sender chose this thread for; any it has
    // masked since go back to the process for another thread to take.
    // Every dispatch polls, so the common empty case is one plain load.
    if t.intr_pending.load(Ordering::SeqCst) != 0 {
        let chosen = t.intr_pending.swap(0, Ordering::SeqCst);
        let mask = t.sigmask.load(Ordering::SeqCst);
        t.pending.fetch_or(chosen & !mask, Ordering::SeqCst);
        if chosen & mask != 0 {
            sched::mt()
                .proc_pending
                .fetch_or(chosen & mask, Ordering::SeqCst);
        }
    }
    // Claim process-pending interrupts this thread does not mask.
    loop {
        let mask = t.sigmask.load(Ordering::SeqCst);
        let pp = sched::mt().proc_pending.load(Ordering::SeqCst);
        let take = pp & !mask;
        if take == 0 {
            break;
        }
        let bit = take & take.wrapping_neg();
        if sched::mt()
            .proc_pending
            .compare_exchange(pp, pp & !bit, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
        {
            t.pending.fetch_or(bit, Ordering::SeqCst);
        }
    }
    // Deliver everything deliverable, one signal at a time (handlers may
    // change masks or send further signals).
    loop {
        let mask = t.sigmask.load(Ordering::SeqCst);
        let p = t.pending.load(Ordering::SeqCst);
        let deliverable = p & !mask;
        if deliverable == 0 {
            return;
        }
        let bit = deliverable & deliverable.wrapping_neg();
        t.pending.fetch_and(!bit, Ordering::SeqCst);
        dispatch(bit.trailing_zeros());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn invalid_signal_numbers_are_rejected() {
        assert!(matches!(
            set_disposition(0, Disposition::Ignore),
            Err(MtError::BadSignal(0))
        ));
        assert!(matches!(
            set_disposition(64, Disposition::Ignore),
            Err(MtError::BadSignal(64))
        ));
        assert!(raise_trap(0).is_err());
    }

    #[test]
    fn trap_is_delivered_synchronously_to_caller() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_disposition(
            sig::SIGFPE,
            Disposition::Handler(Arc::new(move |s| {
                assert_eq!(s, sig::SIGFPE);
                h.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .unwrap();
        raise_trap(sig::SIGFPE).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn masked_trap_pends_until_unmasked() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_disposition(
            sig::SIGILL,
            Disposition::Handler(Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .unwrap();
        let bit = 1u64 << sig::SIGILL;
        thread_sigsetmask(MaskHow::Block, bit);
        raise_trap(sig::SIGILL).unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 0, "masked: must pend");
        assert_ne!(pending() & bit, 0);
        thread_sigsetmask(MaskHow::Unblock, bit);
        assert_eq!(hits.load(Ordering::SeqCst), 1, "unmask delivers");
        assert_eq!(pending() & bit, 0);
    }

    #[test]
    fn pending_set_does_not_queue_duplicates() {
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        set_disposition(
            sig::SIGALRM,
            Disposition::Handler(Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            })),
        )
        .unwrap();
        let bit = 1u64 << sig::SIGALRM;
        thread_sigsetmask(MaskHow::Block, bit);
        // Three sends while masked collapse into one pending bit —
        // "the number of signals received ... is less than or equal to the
        // number sent".
        raise_trap(sig::SIGALRM).unwrap();
        raise_trap(sig::SIGALRM).unwrap();
        raise_trap(sig::SIGALRM).unwrap();
        thread_sigsetmask(MaskHow::Unblock, bit);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn ignored_signal_is_discarded() {
        set_disposition(sig::SIGIO, Disposition::Ignore).unwrap();
        raise_trap(sig::SIGIO).unwrap();
        assert_eq!(pending() & (1 << sig::SIGIO), 0);
    }

    #[test]
    fn sigwaiting_default_is_ignore() {
        // Must not terminate the process.
        raise_trap(sig::SIGWAITING).unwrap();
    }

    #[test]
    fn mask_set_replaces_and_returns_old() {
        let orig = thread_sigsetmask(MaskHow::SetMask, 0);
        let old = thread_sigsetmask(MaskHow::SetMask, 0b1100);
        assert_eq!(old, 0);
        let old = thread_sigsetmask(MaskHow::Block, 0b0011);
        assert_eq!(old, 0b1100);
        assert_eq!(current_mask(), 0b1111);
        thread_sigsetmask(MaskHow::SetMask, orig);
    }
}
