//! The always-on tally behind `sunmt::stats()` and the "chan" and
//! "sched" stat sources: its totals are exact, and its registry of
//! per-thread blocks stays bounded however many host threads come and
//! go.
//!
//! One test, because the totals are process-wide: a second test in this
//! binary sending on its own channels would land in the deltas.

use sunos_mt::chan;
use sunos_mt::stat::{self, tally};
use sunos_mt::threads::{self, CreateFlags, ThreadBuilder, ThreadId};

const STAGES: usize = 3;
const WORKERS: usize = 2;
const MSGS: u64 = 20_000;
const BOUND_THREADS: u64 = 2_000;
/// Slack over the live host-thread count: a joined bound thread may
/// still be running its exit path (and so still hold its block) when the
/// join returns.
const BLOCK_SLACK: usize = 4;

/// The "chan" source's `sends` and `recvs` totals.
fn chan_counts() -> (u64, u64) {
    let snap = stat::snapshot();
    // The source registers with the first channel; before that, nothing
    // has been sent.
    let Some((_, kv)) = snap.sources.iter().find(|(name, _)| *name == "chan") else {
        return (0, 0);
    };
    let get = |key: &str| {
        kv.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("chan source has no {key}"))
    };
    (get("sends"), get("recvs"))
}

/// Host threads in this process, from `/proc/self/status`.
fn host_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

fn spawn(flags: CreateFlags, f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(flags)
        .spawn(f)
        .expect("spawn thread")
}

/// Drives `MSGS` messages through a source, `STAGES` stages of
/// `WORKERS` unbound MPMC workers each, and a sink: `STAGES + 1` hops.
fn pipeline() {
    let mut hops: Vec<_> = (0..=STAGES).map(|_| chan::bounded::<u64>(64)).collect();
    let mut ids = Vec::new();
    for s in 0..STAGES {
        for _ in 0..WORKERS {
            let rx = hops[s].1.clone();
            let tx = hops[s + 1].0.clone();
            ids.push(spawn(CreateFlags::WAIT, move || {
                while let Ok(v) = rx.recv() {
                    tx.send(v + 1).expect("downstream stage alive");
                }
            }));
        }
    }
    let (source, _) = hops.remove(0);
    let (_, sink) = hops.pop().expect("sink hop");
    drop(hops);
    ids.push(spawn(CreateFlags::WAIT, move || {
        for i in 0..MSGS {
            source.send(i).expect("stage 0 alive");
        }
    }));
    let mut got = 0u64;
    while sink.recv().is_ok() {
        got += 1;
    }
    for id in ids {
        threads::wait(Some(id)).expect("join pipeline thread");
    }
    assert_eq!(got, MSGS, "pipeline lost or duplicated messages");
}

#[test]
fn tally_totals_stay_exact_and_the_registry_bounded() {
    threads::init();
    threads::set_concurrency(2).expect("two LWPs");

    let (s0, r0) = chan_counts();
    pipeline();
    let (s1, r1) = chan_counts();
    let hops = (STAGES + 1) as u64;
    assert_eq!(s1 - s0, MSGS * hops, "sends over the pipeline");
    assert_eq!(r1 - r0, MSGS * hops, "recvs over the pipeline");

    // Bound-thread churn: each thread is its own host thread, counts one
    // send into a block of its own, and exits; the exit must fold that
    // block into the retired total and unregister it.
    let (tx, rx) = chan::unbounded::<u64>();
    for i in 0..BOUND_THREADS {
        let tx = tx.clone();
        let id = spawn(CreateFlags::BIND_LWP | CreateFlags::WAIT, move || {
            tx.send(i).expect("receiver alive");
        });
        threads::wait(Some(id)).expect("join bound thread");
        assert_eq!(rx.recv().expect("bound thread's message"), i);
        let (blocks, live) = (tally::blocks(), host_threads());
        assert!(
            blocks <= live + BLOCK_SLACK,
            "{blocks} tally blocks for {live} live host threads after {} bound threads",
            i + 1
        );
    }
    let (s2, r2) = chan_counts();
    assert_eq!(s2 - s1, BOUND_THREADS, "sends by bound threads");
    assert_eq!(r2 - r1, BOUND_THREADS, "recvs of their messages");
}
