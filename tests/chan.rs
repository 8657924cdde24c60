//! End-to-end tests for `sunmt-chan`: blocking MPSC/MPMC handoff across
//! unbound threads, backpressure on bounded sends, timed receives,
//! disconnect semantics, `Select` multi-wait, the event bus, and the
//! async `Waker` bridge (`recv().await` driven by an unbound thread —
//! the crate's acceptance path).
//!
//! Channels are per-test instances, so these tests run in parallel; the
//! shared state is the threads runtime, which `init` makes idempotent,
//! and the process-wide trace counters, which the one test that counts
//! futex wakes reads with every other test held off (`exclusive`).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use sunos_mt::chan::{self, EventBus, RecvTimeoutError, Select, TryRecvError, TrySendError};
use sunos_mt::sync::{Sema, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};
use sunos_mt::trace::{self, Tag};

/// Held shared by every test, and exclusively by the one that counts
/// kernel futex wakes: other tests' kernel parks (the adopted test thread
/// blocking on a channel) make real wakes that would land in its window.
static RUN: RwLock<()> = RwLock::new(());

fn concurrent() -> RwLockReadGuard<'static, ()> {
    RUN.read().unwrap_or_else(|e| e.into_inner())
}

fn exclusive() -> RwLockWriteGuard<'static, ()> {
    RUN.write().unwrap_or_else(|e| e.into_inner())
}

/// Spawns an *unbound* joinable thread — the multiplexed kind whose
/// blocking goes through the user-level sleep queue.
fn unbound(f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn unbound thread")
}

#[test]
fn bounded_handoff_is_fifo_across_unbound_threads() {
    let _run = concurrent();
    threads::init();
    const N: u64 = 10_000;
    // Capacity far below N: the producer must repeatedly block on a
    // full ring and be woken by the consumer's receives.
    let (tx, rx) = chan::bounded::<u64>(4);
    let producer = unbound(move || {
        for i in 0..N {
            tx.send(i).expect("receiver alive");
        }
    });
    for expect in 0..N {
        assert_eq!(rx.recv().expect("producer alive"), expect);
    }
    threads::wait(Some(producer)).expect("join producer");
    assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
}

#[test]
fn mpmc_conserves_every_message_under_contention() {
    let _run = concurrent();
    threads::init();
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 4;
    const PER: u64 = 2_500;

    let (tx, rx) = chan::bounded::<u64>(8);
    let mut ids = Vec::new();
    for p in 0..PRODUCERS {
        let tx = tx.clone();
        ids.push(unbound(move || {
            for i in 0..PER {
                tx.send(p * PER + i).expect("receivers alive");
            }
        }));
    }
    drop(tx);

    let got = Arc::new(Mutex::new(Vec::new()));
    for _ in 0..CONSUMERS {
        let rx = rx.clone();
        let got = Arc::clone(&got);
        ids.push(unbound(move || {
            let mut local = Vec::new();
            while let Ok(v) = rx.recv() {
                local.push(v);
            }
            got.lock().expect("collector").extend(local);
        }));
    }
    drop(rx);
    for id in ids {
        threads::wait(Some(id)).expect("join");
    }

    let got = got.lock().expect("collector");
    assert_eq!(
        got.len() as u64,
        PRODUCERS * PER,
        "messages lost or duplicated"
    );
    let distinct: HashSet<u64> = got.iter().copied().collect();
    assert_eq!(
        distinct.len() as u64,
        PRODUCERS * PER,
        "duplicate deliveries"
    );
}

#[test]
fn full_bounded_channel_applies_backpressure() {
    let _run = concurrent();
    threads::init();
    // `bounded` promises *at least* the requested capacity; the ring
    // rounds a request of 1 up to its floor of 2.
    let (tx, rx) = chan::bounded::<u32>(1);
    tx.send(1).expect("empty channel");
    tx.send(2).expect("one slot left");
    assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));

    // A blocking send parks until the receiver drains a slot.
    let sent_third = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&sent_third);
    let tx2 = tx.clone();
    let sender = unbound(move || {
        tx2.send(3).expect("receiver alive");
        flag.store(true, Ordering::SeqCst);
    });
    assert_eq!(rx.recv().expect("value queued"), 1);
    assert_eq!(rx.recv().expect("value queued"), 2);
    assert_eq!(rx.recv().expect("blocked sender delivers"), 3);
    threads::wait(Some(sender)).expect("join sender");
    assert!(sent_third.load(Ordering::SeqCst));
}

#[test]
fn unbounded_spill_preserves_single_sender_order() {
    let _run = concurrent();
    threads::init();
    // Far past the internal ring, so the overflow spill engages.
    const N: u64 = 5_000;
    let (tx, rx) = chan::unbounded::<u64>();
    for i in 0..N {
        tx.send(i)
            .expect("unbounded send cannot fail while rx lives");
    }
    assert_eq!(rx.len() as u64, N);
    drop(tx);
    let drained: Vec<u64> = rx.iter().collect();
    assert_eq!(drained, (0..N).collect::<Vec<_>>());
}

#[test]
fn recv_timeout_expires_then_delivers() {
    let _run = concurrent();
    threads::init();
    let (tx, rx) = chan::bounded::<u32>(4);

    let t0 = Instant::now();
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(50)),
        Err(RecvTimeoutError::Timeout)
    ));
    assert!(
        t0.elapsed() >= Duration::from_millis(40),
        "timed out early: {:?}",
        t0.elapsed()
    );

    let late = unbound(move || {
        std::thread::sleep(Duration::from_millis(20));
        tx.send(7).expect("receiver alive");
    });
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(5))
            .expect("in-deadline send"),
        7
    );
    threads::wait(Some(late)).expect("join");
    assert!(matches!(
        rx.recv_timeout(Duration::from_millis(10)),
        Err(RecvTimeoutError::Disconnected)
    ));
}

#[test]
fn disconnect_wakes_a_blocked_receiver_and_fails_senders() {
    let _run = concurrent();
    threads::init();
    let (tx, rx) = chan::bounded::<u32>(4);
    let receiver = unbound(move || {
        // Blocks with nothing queued; only the sender drop ends this.
        assert!(rx.recv().is_err());
    });
    std::thread::sleep(Duration::from_millis(20));
    drop(tx);
    threads::wait(Some(receiver)).expect("join receiver");

    let (tx, rx) = chan::bounded::<u32>(4);
    drop(rx);
    assert!(tx.send(1).is_err());
    assert!(matches!(tx.try_send(2), Err(TrySendError::Disconnected(2))));
}

#[test]
fn select_reports_the_ready_port() {
    let _run = concurrent();
    threads::init();
    let (tx_a, rx_a) = chan::bounded::<u32>(4);
    let (tx_b, rx_b) = chan::bounded::<&'static str>(4);

    let mut sel = Select::new();
    let ia = sel.recv(&rx_a);
    let ib = sel.recv(&rx_b);
    assert_eq!((ia, ib), (0, 1));
    assert_eq!(sel.ready(), None);
    assert_eq!(sel.wait_timeout(Duration::from_millis(20)), None);

    tx_b.send("hello").expect("rx_b alive");
    assert_eq!(sel.wait(), ib);
    assert_eq!(rx_b.try_recv().expect("winner has the message"), "hello");

    // A blocked select is woken by a send that arrives later.
    let late = unbound(move || {
        std::thread::sleep(Duration::from_millis(20));
        tx_a.send(42).expect("rx_a alive");
    });
    assert_eq!(sel.wait(), ia);
    assert_eq!(rx_a.try_recv().expect("woken port delivers"), 42);
    threads::wait(Some(late)).expect("join");
}

#[test]
fn select_covers_mpsc_receivers_and_disconnects() {
    let _run = concurrent();
    threads::init();
    let (tx, rx) = chan::mpsc::channel::<u32>(4);
    let mut sel = Select::new();
    let i = sel.recv(&rx);
    drop(tx);
    // Disconnection counts as readiness: the waiter must not hang.
    assert_eq!(sel.wait(), i);
    assert!(matches!(rx.try_recv(), Err(TryRecvError::Disconnected)));
}

#[test]
fn event_bus_fans_out_in_order_and_prunes_dead_subscribers() {
    let _run = concurrent();
    threads::init();
    let bus = EventBus::new();
    let a = bus.subscribe();
    let b = bus.subscribe();
    assert_eq!(bus.subscriber_count(), 2);

    for ev in ["open", "write", "close"] {
        assert_eq!(bus.publish(&ev.to_string()), 2);
    }
    for rx in [&a, &b] {
        assert_eq!(rx.try_recv().expect("fanned out"), "open");
        assert_eq!(rx.try_recv().expect("fanned out"), "write");
        assert_eq!(rx.try_recv().expect("fanned out"), "close");
    }

    drop(b);
    assert_eq!(bus.publish(&"late".to_string()), 1);
    assert_eq!(bus.subscriber_count(), 1);
    assert_eq!(a.recv().expect("surviving subscriber"), "late");
}

#[test]
fn mpsc_receiver_blocks_and_drains_like_the_core_channel() {
    let _run = concurrent();
    threads::init();
    const N: u64 = 1_000;
    let (tx, rx) = chan::mpsc::unbounded::<u64>();
    let mut ids = Vec::new();
    for p in 0..4u64 {
        let tx = tx.clone();
        ids.push(unbound(move || {
            for i in 0..N {
                tx.send(p * N + i).expect("receiver alive");
            }
        }));
    }
    drop(tx);
    let mut got: Vec<u64> = rx.iter().collect();
    assert_eq!(got.len() as u64, 4 * N);
    got.sort_unstable();
    got.dedup();
    assert_eq!(got.len() as u64, 4 * N, "duplicate deliveries");
    for id in ids {
        threads::wait(Some(id)).expect("join");
    }
}

/// The acceptance path: an async task does `recv().await` across the
/// `Waker` bridge while running on an *unbound* thread, so waits are
/// user-level sleeps multiplexed over the LWP pool.
#[test]
fn async_recv_await_runs_on_an_unbound_thread() {
    let _run = concurrent();
    threads::init();
    let (tx, rx) = chan::bounded::<u64>(4);
    let (done_tx, done_rx) = chan::bounded::<u64>(1);

    let task = chan::spawn(async move {
        let mut sum = 0;
        while let Ok(v) = rx.recv_async().await {
            sum += v;
        }
        done_tx.send(sum).expect("main waits on done_rx");
    })
    .expect("spawn async task");

    for v in 1..=100u64 {
        tx.send(v).expect("task alive");
    }
    drop(tx);
    assert_eq!(done_rx.recv().expect("task finishes"), 5_050);
    threads::wait(Some(task)).expect("join async task");
}

#[test]
fn block_on_drives_futures_on_the_calling_thread() {
    let _run = concurrent();
    threads::init();
    // Trivially ready future: no parks at all.
    assert_eq!(chan::block_on(async { 2 + 2 }), 4);

    // A pending future woken from another thread.
    let (tx, rx) = chan::bounded::<&'static str>(1);
    let sender = unbound(move || {
        std::thread::sleep(Duration::from_millis(10));
        tx.send("woken").expect("receiver alive");
    });
    assert_eq!(
        chan::block_on(async { rx.recv_async().await }).expect("sender delivers"),
        "woken"
    );
    threads::wait(Some(sender)).expect("join");
    assert!(chan::block_on(rx.recv_async()).is_err());
}

/// The paper's claim for in-process interaction: "without involving the
/// operating system". A pipeline made only of unbound threads parks and
/// wakes entirely on user-level sleep queues, so no send may fall through
/// to a kernel futex wake, even while a woken receiver still counts as a
/// waiter because it has not been dispatched yet.
#[test]
fn unbound_pipeline_issues_no_futex_wakes() {
    let _run = exclusive();
    threads::init();
    const STAGES: usize = 3;
    const MSGS: u64 = 10_000;

    let mut hops: Vec<_> = (0..=STAGES).map(|_| chan::bounded::<u64>(8)).collect();
    let mut ids = Vec::new();
    for s in 0..STAGES {
        let rx = hops[s].1.clone();
        let tx = hops[s + 1].0.clone();
        ids.push(unbound(move || {
            while let Ok(v) = rx.recv() {
                tx.send(v + 1).expect("downstream stage alive");
            }
        }));
    }
    let (source, _) = hops.remove(0);
    let (_, sink) = hops.pop().expect("sink hop");
    drop(hops);

    // The sink is unbound too, and samples the counter the moment the
    // last message arrives; this thread polls instead of blocking, so it
    // never parks in the kernel while the window is open.
    let done = Arc::new(AtomicU64::new(u64::MAX));
    let done2 = Arc::clone(&done);
    ids.push(unbound(move || {
        let mut sum = 0;
        for _ in 0..MSGS {
            sum += sink.recv().expect("pipeline alive");
        }
        let wakes = trace::counters().get(Tag::FutexWake);
        assert_eq!(sum, (0..MSGS).map(|i| i + STAGES as u64).sum::<u64>());
        done2.store(wakes, Ordering::SeqCst);
    }));
    trace::enable();
    ids.push(unbound(move || {
        for i in 0..MSGS {
            source.send(i).expect("stage 0 alive");
        }
    }));
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::SeqCst) == u64::MAX {
        assert!(Instant::now() < deadline, "pipeline stalled");
        std::thread::sleep(Duration::from_millis(1));
    }
    trace::disable();
    let wakes = done.load(Ordering::SeqCst);
    for id in ids {
        threads::wait(Some(id)).expect("join stage");
    }
    assert_eq!(
        wakes, 0,
        "{wakes} kernel futex wakes for {MSGS} messages between unbound threads"
    );
}

/// Receivers that block in the kernel — a bound thread, and the adopted
/// test thread itself — fed by unbound senders whose wakes the kernel-park
/// count may skip. Any lost wakeup hangs a receiver; the watchdog turns
/// that into a failure instead of a stuck test run.
#[test]
fn kernel_blocked_receivers_never_miss_a_wake() {
    let _run = concurrent();
    threads::init();
    const N: u64 = 100_000;

    let finished = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&finished);
    std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(120);
        while !flag.load(Ordering::SeqCst) {
            if Instant::now() > deadline {
                eprintln!("kernel_blocked_receivers_never_miss_a_wake: lost wakeup, aborting");
                std::process::abort();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    // Channel, then semaphore; each received by `receive`.
    fn channel_rounds() -> u64 {
        let (tx, rx) = chan::bounded::<u64>(1);
        let sender = unbound(move || {
            for i in 0..N {
                tx.send(i).expect("receiver alive");
            }
        });
        let mut sum = 0;
        while let Ok(v) = rx.recv() {
            sum += v;
        }
        threads::wait(Some(sender)).expect("join sender");
        sum
    }
    fn sema_rounds() -> u64 {
        let sema = Arc::new(Sema::new(0, SyncType::DEFAULT));
        let s = Arc::clone(&sema);
        let poster = unbound(move || {
            for _ in 0..N {
                s.v();
            }
        });
        for _ in 0..N {
            sema.p();
        }
        threads::wait(Some(poster)).expect("join poster");
        N
    }
    let expect = N * (N - 1) / 2;

    // Bound receiver.
    let bound = ThreadBuilder::new()
        .flags(CreateFlags::WAIT | CreateFlags::BIND_LWP)
        .spawn(move || {
            assert_eq!(channel_rounds(), expect);
            assert_eq!(sema_rounds(), N);
        })
        .expect("spawn bound receiver");
    threads::wait(Some(bound)).expect("join bound receiver");

    // Adopted receiver: this test thread.
    assert_eq!(channel_rounds(), expect);
    assert_eq!(sema_rounds(), N);
    finished.store(true, Ordering::SeqCst);
}
