//! The async bridge: a `Waker` that unparks an unbound thread.
//!
//! The executor is deliberately minimal — one thread drives one future
//! ([`block_on`]), and [`spawn`] puts that loop on a fresh *unbound*
//! thread so async tasks multiplex over the LWP pool like every other
//! thread in the library. The waker is an event word: `wake` bumps it
//! and unparks through the blocking strategy, which for an unbound
//! thread is a user-level sleep-queue wake — usually no syscall at all.
//!
//! Futures connect to channels through [`RecvFuture`]: its `poll`
//! registers the task's waker as a one-shot hook on the channel (the
//! same hook list select uses), re-checks, and returns `Pending` only
//! when the re-check still sees nothing — the lost-wakeup-free ordering
//! every blocking path in this crate follows.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU32, Ordering::SeqCst};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use sunmt_sync::strategy;

use crate::channel::{Hook, Receiver};
use crate::error::{RecvError, TryRecvError};

/// The waker behind [`block_on`]: an event word the driving thread
/// parks on. `wake` is callable from any context — another unbound
/// thread, a bound thread, or a bare LWP — because it goes through the
/// installed blocking strategy like every other wake in the library.
struct ThreadWaker {
    word: AtomicU32,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.word.fetch_add(1, SeqCst);
        strategy::unpark(&self.word, 1, false);
    }
}

/// Drives `fut` to completion on the calling thread, parking between
/// polls. On an unbound thread the park is a user-level sleep — the LWP
/// runs other threads while the task waits.
pub fn block_on<F: Future>(fut: F) -> F::Output {
    let w = Arc::new(ThreadWaker {
        word: AtomicU32::new(0),
    });
    let waker = Waker::from(Arc::clone(&w));
    let mut cx = Context::from_waker(&waker);
    let mut fut = std::pin::pin!(fut);
    loop {
        // Snapshot before polling: a wake that lands *during* the poll
        // moves the word past `seen` and the park falls through.
        let seen = w.word.load(SeqCst);
        match fut.as_mut().poll(&mut cx) {
            Poll::Ready(v) => return v,
            Poll::Pending => strategy::park(&w.word, seen, false),
        }
    }
}

/// Runs `fut` on a new unbound thread (a [`block_on`] loop over the LWP
/// pool). Join it like any thread: `sunmt::wait(Some(id))`.
pub fn spawn<F>(fut: F) -> sunmt::Result<sunmt::ThreadId>
where
    F: Future + Send + 'static,
    F::Output: Send,
{
    sunmt::ThreadBuilder::new()
        .flags(sunmt::CreateFlags::WAIT)
        .spawn(move || {
            let _ = block_on(fut);
        })
}

/// The future behind [`Receiver::recv_async`]. Resolves to the received
/// message, or [`RecvError`] once the channel is disconnected and
/// drained.
pub struct RecvFuture<'a, T> {
    rx: &'a Receiver<T>,
}

impl<'a, T> RecvFuture<'a, T> {
    pub(crate) fn new(rx: &'a Receiver<T>) -> RecvFuture<'a, T> {
        RecvFuture { rx }
    }
}

impl<T: Send> Future for RecvFuture<'_, T> {
    type Output = Result<T, RecvError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.rx.try_recv() {
            Ok(v) => return Poll::Ready(Ok(v)),
            Err(TryRecvError::Disconnected) => return Poll::Ready(Err(RecvError)),
            Err(TryRecvError::Empty) => {}
        }
        // Register, then re-check: a message that arrived before the
        // registration was visible would otherwise never wake us. The
        // re-check reads the cursors (`recv_ready`), not the slot: the
        // sender's tail CAS is the write its `hook_count` read is
        // ordered after (DESIGN §12), while its slot publication may
        // still be in flight.
        self.rx.chan().register_hook(Hook::Task(cx.waker().clone()));
        if !self.rx.chan().recv_ready() {
            return Poll::Pending;
        }
        match self.rx.try_recv() {
            Ok(v) => Poll::Ready(Ok(v)),
            Err(TryRecvError::Disconnected) => Poll::Ready(Err(RecvError)),
            Err(TryRecvError::Empty) => {
                // Claimed but not yet published, or taken by another
                // receiver: poll again rather than wait for a wake.
                cx.waker().wake_by_ref();
                Poll::Pending
            }
        }
    }
}
