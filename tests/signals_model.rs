//! The paper's signal model across threads: traps to the causing thread,
//! interrupts to any unmasked thread, process-pending while all mask,
//! `thread_kill` targeting, and `sigsend(P_THREAD_ALL)` broadcast.
//!
//! The tests run in parallel and share the process's threads, so an
//! interrupt may go to any test's unmasked thread. The one test that
//! needs to know which thread an interrupt is pended on runs with every
//! other test held off (`exclusive`).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

use sunos_mt::threads::signals::{self, sig, Disposition, MaskHow};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

/// Held shared by every test, and exclusively by the one that must be the
/// only source of unmasked library threads.
static RUN: RwLock<()> = RwLock::new(());

fn concurrent() -> RwLockReadGuard<'static, ()> {
    RUN.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    RUN.write().unwrap_or_else(|e| e.into_inner())
}

fn install_counter(signo: u32) -> Arc<AtomicUsize> {
    let hits = Arc::new(AtomicUsize::new(0));
    let h = Arc::clone(&hits);
    signals::set_disposition(
        signo,
        Disposition::Handler(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        })),
    )
    .expect("set_disposition");
    hits
}

#[test]
fn thread_kill_reaches_only_the_target() {
    let _run = concurrent();
    let hits = install_counter(sig::SIGIO);
    let target_ran = Arc::new(AtomicU32::new(0));
    let release = Arc::new(AtomicU32::new(0));
    let (t, r) = (Arc::clone(&target_ran), Arc::clone(&release));
    let victim = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            t.store(threads::get_id().0, Ordering::SeqCst);
            while r.load(Ordering::SeqCst) == 0 {
                threads::yield_now(); // Delivery point.
            }
        })
        .expect("spawn");
    while target_ran.load(Ordering::SeqCst) == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = hits.load(Ordering::SeqCst);
    signals::thread_kill(victim, sig::SIGIO).expect("thread_kill");
    // The victim yields in a loop, so it reaches a delivery point promptly.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while hits.load(Ordering::SeqCst) == before {
        assert!(
            std::time::Instant::now() < deadline,
            "signal never delivered"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(1, Ordering::SeqCst);
    threads::wait(Some(victim)).expect("wait");
}

#[test]
fn interrupt_pends_on_process_while_all_threads_mask_it() {
    let _run = concurrent();
    let hits = install_counter(sig::SIGALRM);
    let bit = 1u64 << sig::SIGALRM;
    // Mask in this thread; helper threads also mask, then one unmasks.
    let old = signals::thread_sigsetmask(MaskHow::Block, bit);
    let release = Arc::new(AtomicU32::new(0));
    let r = Arc::clone(&release);
    let masked_helper = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            signals::thread_sigsetmask(MaskHow::Block, bit);
            while r.load(Ordering::SeqCst) == 0 {
                threads::yield_now();
            }
        })
        .expect("spawn");
    std::thread::sleep(Duration::from_millis(10));

    let before = hits.load(Ordering::SeqCst);
    signals::send_interrupt(sig::SIGALRM).expect("send_interrupt");
    std::thread::sleep(Duration::from_millis(20));
    // Nobody can take it yet (this thread and the helper mask it; other
    // tests' threads are not guaranteed, so only assert the unmask path).
    // "If all threads mask a signal, it will pend on the process until a
    // thread unmasks that signal."
    signals::thread_sigsetmask(MaskHow::Unblock, bit);
    assert!(
        hits.load(Ordering::SeqCst) > before,
        "unmasking must deliver the process-pending interrupt"
    );
    release.store(1, Ordering::SeqCst);
    threads::wait(Some(masked_helper)).expect("wait");
    signals::thread_sigsetmask(MaskHow::SetMask, old);
}

#[test]
fn interrupt_pended_on_a_thread_that_exits_is_handed_back() {
    let _run = exclusive();
    let hits = install_counter(sig::SIGPROF);
    let bit = 1u64 << sig::SIGPROF;
    let old = signals::thread_sigsetmask(MaskHow::Block, bit);
    // The target is the only thread with the signal unmasked. After
    // unmasking it spins on plain atomics, so it reaches no delivery
    // point before it exits.
    let armed = Arc::new(AtomicU32::new(0));
    let go = Arc::new(AtomicU32::new(0));
    let (a, g) = (Arc::clone(&armed), Arc::clone(&go));
    let target = ThreadBuilder::new()
        .flags(CreateFlags::WAIT | CreateFlags::BIND_LWP)
        .spawn(move || {
            signals::thread_sigsetmask(MaskHow::Unblock, bit);
            a.store(1, Ordering::SeqCst);
            while g.load(Ordering::SeqCst) == 0 {
                std::thread::yield_now();
            }
        })
        .expect("spawn");
    while armed.load(Ordering::SeqCst) == 0 {
        std::thread::yield_now();
    }
    let before = hits.load(Ordering::SeqCst);
    signals::send_interrupt(sig::SIGPROF).expect("send_interrupt");
    go.store(1, Ordering::SeqCst);
    threads::wait(Some(target)).expect("wait");
    assert_eq!(
        hits.load(Ordering::SeqCst),
        before,
        "the target exited without reaching a delivery point"
    );
    // The exit handed the interrupt back to the process; unmasking here
    // claims it.
    signals::thread_sigsetmask(MaskHow::Unblock, bit);
    assert_eq!(
        hits.load(Ordering::SeqCst),
        before + 1,
        "an interrupt pended on an exiting thread must not be lost"
    );
    signals::thread_sigsetmask(MaskHow::SetMask, old);
}

#[test]
fn sigsend_all_reaches_every_thread() {
    let _run = concurrent();
    let hits = install_counter(sig::SIGVTALRM);
    const N: usize = 4;
    let running = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicU32::new(0));
    let mut ids = Vec::new();
    for _ in 0..N {
        let (run, rel) = (Arc::clone(&running), Arc::clone(&release));
        ids.push(
            ThreadBuilder::new()
                .flags(CreateFlags::WAIT)
                .spawn(move || {
                    run.fetch_add(1, Ordering::SeqCst);
                    while rel.load(Ordering::SeqCst) == 0 {
                        threads::yield_now();
                    }
                })
                .expect("spawn"),
        );
    }
    while running.load(Ordering::SeqCst) < N {
        std::thread::sleep(Duration::from_millis(1));
    }
    let before = hits.load(Ordering::SeqCst);
    signals::sigsend_all(sig::SIGVTALRM).expect("sigsend_all");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    // At least the N helpers (plus possibly this thread) deliver.
    while hits.load(Ordering::SeqCst) < before + N {
        assert!(
            std::time::Instant::now() < deadline,
            "broadcast reached only {} of {N}",
            hits.load(Ordering::SeqCst) - before
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    release.store(1, Ordering::SeqCst);
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
}

#[test]
fn traps_stay_with_the_causing_thread() {
    let _run = concurrent();
    let hits = install_counter(sig::SIGFPE);
    let which = Arc::new(AtomicU32::new(0));
    let w = Arc::clone(&which);
    let h2 = Arc::clone(&hits);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            let before = h2.load(Ordering::SeqCst);
            signals::raise_trap(sig::SIGFPE).expect("raise_trap");
            // Synchronous delivery on this thread.
            assert_eq!(h2.load(Ordering::SeqCst), before + 1);
            w.store(1, Ordering::SeqCst);
        })
        .expect("spawn");
    threads::wait(Some(id)).expect("wait");
    assert_eq!(which.load(Ordering::SeqCst), 1);
}

#[test]
fn per_thread_masks_are_independent_and_inherited() {
    let _run = concurrent();
    let bit = 1u64 << sig::SIGINT;
    let old = signals::thread_sigsetmask(MaskHow::Block, bit);
    let child_mask = Arc::new(AtomicU32::new(0));
    let c = Arc::clone(&child_mask);
    let id = ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(move || {
            // "The initial ... signal mask is set to the same values as
            // its creator."
            let inherited = signals::current_mask();
            c.store(((inherited & bit) != 0) as u32, Ordering::SeqCst);
            // Changing ours must not touch the parent's.
            signals::thread_sigsetmask(MaskHow::Unblock, bit);
        })
        .expect("spawn");
    threads::wait(Some(id)).expect("wait");
    assert_eq!(
        child_mask.load(Ordering::SeqCst),
        1,
        "mask must be inherited"
    );
    assert_ne!(
        signals::current_mask() & bit,
        0,
        "parent mask must be intact"
    );
    signals::thread_sigsetmask(MaskHow::SetMask, old);
}
