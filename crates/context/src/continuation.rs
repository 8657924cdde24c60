//! A prepared thread context owning its stack and entry closure.

use crate::arch::{self, MachContext};
use crate::stack::Stack;

/// A suspended thread of control: a stack, the machine context saved in
/// process memory (the "thread state" box of the paper's Figure 2), and —
/// until first resumed — the entry closure.
///
/// `Continuation` is the building block shared by the threads library and
/// the baseline packages: each user-level thread is a `Continuation` plus
/// scheduling state.
pub struct Continuation {
    ctx: MachContext,
    stack: Stack,
    /// Entry closure, stored at the top of `stack` and still owned by us
    /// until the first resume hands it to the trampoline. A raw pointer
    /// because its address is baked into the prepared context; null once
    /// started.
    pending: *mut u8,
    /// Type-erased destructor for `pending`, run if the continuation is
    /// dropped without ever starting.
    drop_pending: unsafe fn(*mut u8),
}

// SAFETY: The stack and context are exclusively owned, and the payload
// closure is required to be Send, so the whole continuation may migrate
// between LWPs (that is the point of unbound threads).
unsafe impl Send for Continuation {}

impl Continuation {
    /// Prepares `f` to run on `stack` when first resumed.
    ///
    /// `f` must not return normally: a thread leaves its stack only by
    /// context-switching away forever (e.g. the threads library's
    /// `thread_exit`). If `f` does return, the process aborts with a
    /// diagnostic rather than executing off the end of the stack.
    ///
    /// The closure is moved into the top of `stack` rather than onto the
    /// heap: a thread leaves by switching away, so its entry frame never
    /// unwinds and a boxed closure would never be freed.
    pub fn new<F>(stack: Stack, f: F) -> Continuation
    where
        F: FnOnce() + Send + 'static,
    {
        let size = core::mem::size_of::<F>();
        let align = core::mem::align_of::<F>();
        assert!(
            size + align <= stack.usable(),
            "entry closure ({size} bytes) does not fit its {} byte stack",
            stack.usable()
        );
        let pending = ((stack.top() as usize - size) & !(align - 1)) as *mut u8;
        // SAFETY: `pending` is aligned for `F` and lies within the top
        // `size + align` bytes of the stack's usable region (checked
        // above), which nothing else uses until the first resume.
        unsafe { pending.cast::<F>().write(f) };
        // SAFETY: The region below `pending` is the live writable stack the
        // entry runs on, and `cont_entry` never returns.
        let ctx = unsafe { arch::prepare(pending, cont_entry::<F>, pending as usize) };
        Continuation {
            ctx,
            stack,
            pending,
            drop_pending: drop_closure::<F>,
        }
    }

    /// Suspends the caller into `save` and resumes this continuation.
    ///
    /// Returns when some other context switches back into `save`.
    ///
    /// # Safety
    ///
    /// * This continuation must be suspended (not currently running on any
    ///   LWP), and no other LWP may resume it concurrently.
    /// * `save` must remain valid until control returns to it.
    /// * The continuation must not be dropped while its closure is still
    ///   running on its stack.
    pub unsafe fn resume(&mut self, save: &mut MachContext) {
        if !self.pending.is_null() {
            // The first resume hands the closure to the trampoline.
            self.pending = core::ptr::null_mut();
        }
        // SAFETY: Upheld by the caller; `self.ctx` is either the freshly
        // prepared context or one saved by a previous switch out.
        unsafe { arch::switch_context(save, &self.ctx) };
    }

    /// The context slot this continuation suspends into; the scheduler
    /// passes it as the *save* side when switching away from this thread.
    pub fn context_mut(&mut self) -> &mut MachContext {
        &mut self.ctx
    }

    /// A raw pointer to the context slot, for schedulers that must name the
    /// save and load sides of one switch simultaneously.
    pub fn context_ptr(&mut self) -> *mut MachContext {
        &mut self.ctx
    }

    /// The stack backing this continuation.
    pub fn stack(&self) -> &Stack {
        &self.stack
    }

    /// Consumes the continuation and returns its stack for reuse.
    ///
    /// # Safety
    ///
    /// The continuation's closure must have finished (the thread exited) or
    /// never started, and nothing may ever resume this context again.
    pub unsafe fn into_stack(mut self) -> Stack {
        self.reclaim_pending();
        // Move the stack out without running Drop twice.
        let this = core::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never used again; the stack is read exactly once.
        unsafe { core::ptr::read(&this.stack) }
    }

    fn reclaim_pending(&mut self) {
        if !self.pending.is_null() {
            // SAFETY: The closure was never handed to the trampoline, so it
            // is still initialized on the stack and owned by us; the
            // destructor matches the type `new` wrote there.
            unsafe { (self.drop_pending)(self.pending) };
            self.pending = core::ptr::null_mut();
        }
    }
}

impl Drop for Continuation {
    fn drop(&mut self) {
        self.reclaim_pending();
    }
}

impl core::fmt::Debug for Continuation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Continuation")
            .field("started", &self.pending.is_null())
            .field("stack_top", &self.stack.top())
            .finish()
    }
}

/// Drops an entry closure of type `F` that never started.
///
/// # Safety
///
/// `p` must point at an initialized `F` that nothing else will use.
unsafe fn drop_closure<F>(p: *mut u8) {
    // SAFETY: Upheld by the caller.
    unsafe { core::ptr::drop_in_place(p.cast::<F>()) };
}

extern "C" fn cont_entry<F: FnOnce()>(arg: usize) -> ! {
    {
        // SAFETY: `arg` is where `new` wrote the closure, handed to exactly
        // one first resume, which gave up ownership. The read moves it into
        // this frame; the slot above the frame is dead afterwards.
        let f = unsafe { core::ptr::read(arg as *const F) };
        f();
    }
    // The closure returned instead of switching away; there is no caller to
    // return to on this stack.
    eprintln!("sunmt-context: continuation entry returned; aborting");
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    // A scratch cell letting the test closure switch back out. Each test
    // builds one; the closure captures raw pointers to it.
    struct Yielder {
        main: MachContext,
        thread: *mut MachContext,
    }

    #[test]
    fn dropped_unstarted_continuation_frees_closure() {
        let flag = Arc::new(AtomicU32::new(0));
        let f2 = Arc::clone(&flag);
        let cont = Continuation::new(Stack::new(32 * 1024).unwrap(), move || {
            f2.store(1, Ordering::SeqCst);
        });
        drop(cont);
        assert_eq!(flag.load(Ordering::SeqCst), 0, "closure must not run");
        assert_eq!(Arc::strong_count(&flag), 1, "captured Arc must be freed");
    }

    #[test]
    fn continuation_runs_closure_and_suspends() {
        let mut y = Box::new(Yielder {
            main: MachContext::zeroed(),
            thread: core::ptr::null_mut(),
        });
        let log: Arc<AtomicU32> = Arc::new(AtomicU32::new(0));
        let log2 = Arc::clone(&log);
        let y_addr = &mut *y as *mut Yielder as usize;
        let mut cont = Continuation::new(Stack::new(64 * 1024).unwrap(), move || {
            log2.store(7, Ordering::SeqCst);
            // SAFETY: The test keeps `y` alive and single-threaded.
            let y = unsafe { &mut *(y_addr as *mut Yielder) };
            // SAFETY: `y.thread` points at this continuation's context slot,
            // set before resume; `y.main` was saved by that resume.
            unsafe { arch::switch_context(y.thread, &y.main) };
            unreachable!("never resumed again");
        });
        y.thread = cont.context_ptr();
        // SAFETY: Continuation is fresh; `y.main` lives across the switch.
        unsafe { cont.resume(&mut y.main) };
        assert_eq!(log.load(Ordering::SeqCst), 7);
        // Leak the continuation: its closure is parked forever mid-stack and
        // must not be dropped while "running". (Test-only; the threads
        // library always runs threads to exit.)
        core::mem::forget(cont);
    }
}
