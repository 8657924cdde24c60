//! Mutex-variant conformance: the paper's sleep (default), spin and
//! adaptive variants, with and without the `DEBUG` bit, exclude under
//! real contention on threads the library creates — bound ones, and
//! unbound ones multiplexed over the LWP pool — and round-trip
//! `init`/`enter`/`exit`/`destroy`. The `DEBUG` bit catches
//! unlock-by-non-owner on every variant, including `ADAPTIVE`, whose
//! `owner` word otherwise carries the holder's LWP hint.
//!
//! The cross-*process* leg of `SHARED` lives in `tests/cross_process.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sunos_mt::sync::{api, Mutex, SyncType};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder};

const VARIANTS: &[(SyncType, &str)] = &[
    (SyncType::DEFAULT, "sleep"),
    (SyncType::SPIN, "spin"),
    (SyncType::ADAPTIVE, "adaptive"),
];

/// Hammers one mutex from `workers` threads spawned with `flags`,
/// checking mutual exclusion the classic way: a non-atomic read-modify-
/// write under the lock must still sum exactly.
fn hammer(kind: SyncType, flags: CreateFlags, workers: usize, iters: usize) {
    struct World {
        m: Mutex,
        // Plain cell mutated under the lock; AtomicUsize only so the
        // type is Sync — every access uses Relaxed load/store pairs,
        // which the mutex alone must keep race-free.
        counter: AtomicUsize,
    }
    let w = Arc::new(World {
        m: Mutex::new(kind),
        counter: AtomicUsize::new(0),
    });
    let mut ids = Vec::new();
    for _ in 0..workers {
        let w = Arc::clone(&w);
        ids.push(
            ThreadBuilder::new()
                .flags(flags)
                .spawn(move || {
                    for _ in 0..iters {
                        w.m.enter();
                        let v = w.counter.load(Ordering::Relaxed);
                        w.counter.store(v + 1, Ordering::Relaxed);
                        w.m.exit();
                    }
                })
                .expect("spawn"),
        );
    }
    for id in ids {
        threads::wait(Some(id)).expect("wait");
    }
    assert_eq!(w.counter.load(Ordering::Relaxed), workers * iters);
}

#[test]
fn variants_exclude_on_bound_threads() {
    for &(kind, name) in VARIANTS {
        hammer(kind, CreateFlags::WAIT | CreateFlags::BIND_LWP, 4, 2_000);
        // Same again with the DEBUG bookkeeping on: the owner word must
        // follow every acquisition or the exits start panicking.
        hammer(
            kind | SyncType::DEBUG,
            CreateFlags::WAIT | CreateFlags::BIND_LWP,
            4,
            1_000,
        );
        eprintln!("bound ok: {name}");
    }
}

#[test]
fn variants_exclude_on_unbound_threads() {
    // More unbound threads than pool LWPs, so a contended enter parks
    // (or, for SPIN, yields) the user thread and the release resumes a
    // different one.
    for &(kind, name) in VARIANTS {
        hammer(kind, CreateFlags::WAIT, 8, 1_000);
        hammer(kind | SyncType::DEBUG, CreateFlags::WAIT, 8, 500);
        eprintln!("unbound ok: {name}");
    }
}

#[test]
fn variants_round_trip_destroy_and_reinit() {
    // One storage slot cycling through every variant: ADAPTIVE leaves
    // its LWP hint in `owner` while held and DEBUG stores a holder id
    // there, so destroy+init must fully reset the lock or the next
    // variant misreads leftover state.
    let m = Mutex::new(SyncType::DEFAULT);
    for &(kind, _) in VARIANTS {
        for &debug in &[SyncType::DEFAULT, SyncType::DEBUG] {
            api::mutex_init(&m, kind | debug);
            for _ in 0..3 {
                api::mutex_enter(&m);
                assert!(!api::mutex_tryenter(&m), "tryenter on a held lock");
                api::mutex_exit(&m);
                assert!(api::mutex_tryenter(&m), "tryenter on a free lock");
                api::mutex_exit(&m);
            }
            api::mutex_destroy(&m);
        }
    }
}

#[test]
fn shared_variant_excludes_in_process() {
    // SYNC_SHARED switches every park to a kernel futex keyed for
    // cross-process use; within one process it must still exclude, on
    // bound threads and on unbound ones (whose LWP blocks in the kernel).
    hammer(
        SyncType::SHARED,
        CreateFlags::WAIT | CreateFlags::BIND_LWP,
        4,
        2_000,
    );
    hammer(SyncType::SHARED, CreateFlags::WAIT, 8, 1_000);
}

/// Spawns a helper that acquires `m` and parks forever *holding it*,
/// then returns once the acquisition is visible. The caller's
/// subsequent `exit` is an unlock-by-non-owner.
fn held_by_someone_else(m: &'static Mutex) {
    let entered = Arc::new(AtomicUsize::new(0));
    let flag = Arc::clone(&entered);
    std::thread::spawn(move || {
        m.enter();
        flag.store(1, Ordering::Release);
        // Keep holding; the thread (and the lock) die with the process.
        loop {
            std::thread::park();
        }
    });
    while entered.load(Ordering::Acquire) == 0 {
        std::thread::yield_now();
    }
}

fn exit_by_non_owner(kind: SyncType) {
    let m: &'static Mutex = Box::leak(Box::new(Mutex::new(kind | SyncType::DEBUG)));
    held_by_someone_else(m);
    m.exit();
}

#[test]
#[should_panic(expected = "mutex_exit by a non-holder")]
fn debug_default_catches_exit_by_non_owner() {
    exit_by_non_owner(SyncType::DEFAULT);
}

#[test]
#[should_panic(expected = "mutex_exit by a non-holder")]
fn debug_spin_catches_exit_by_non_owner() {
    exit_by_non_owner(SyncType::SPIN);
}

#[test]
#[should_panic(expected = "mutex_exit by a non-holder")]
fn debug_adaptive_catches_exit_by_non_owner() {
    exit_by_non_owner(SyncType::ADAPTIVE);
}
