//! ABL-CHAN — the actor pipeline over `sunmt-chan` channels.
//!
//! Three sections, one table:
//!
//! 1. **Pipeline throughput (the gated row).** A classic actor topology:
//!    `STAGES` stages with `WORKERS` unbound workers each, joined by
//!    bounded MPMC channels. The source injects `msgs` values, every
//!    stage increments and forwards, and the sink sums — so message
//!    conservation is checked arithmetically at the end. The
//!    `pipeline_msgs_per_ms` note is wall-clock on a shared runner, so
//!    the CI gate gives it the same wide 4x band as the other
//!    wall-clock benches. `pipeline_futex_wakes_per_msg` counts the
//!    kernel futex wakes the run made per message: only the adopted
//!    main thread (the sink) ever blocks in the kernel, so nearly every
//!    wake must be skipped by the kernel-park count, and CI gates the
//!    figure under a ceiling.
//! 2. **Wake-chain latency.** One receiver parked on an empty channel;
//!    the sender stamps an `Instant` into the message and the receiver
//!    reports how stale it was on arrival — send, user-level unpark,
//!    LWP dispatch, and the recv return all inside the measured window.
//!    `wake_chain_p99_us` is ceiling-gated: if the wakeup path grows a
//!    thundering herd or a lost-wakeup retry loop, the tail is where it
//!    shows first.
//! 3. **Blocked-receiver handoff cost.** The acceptance criterion from
//!    the channel design: handing one message to a parked receiver must
//!    issue at most 2 kernel futex wakes (one to wake the sleeper, at
//!    most one more to kick an LWP). The receiver itself samples the
//!    `FutexWake` trace counter the moment `recv` returns, so the
//!    window cannot include the ack's own wakeup; the minimum over the
//!    reps discards unrelated pool activity.
//!
//! Statistics run alongside: the "chan" stat source must count exactly
//! `msgs x (STAGES + 1)` sends and receives over the pipeline, and the
//! ChanSend/ChanRecv histograms must have fired, which pins the
//! end-to-end instrumentation, not just the data path.
//!
//! `--smoke` shrinks the budgets for CI; `--json PATH` writes the
//! machine-readable table (committed as `BENCH_chan.json`).

use std::time::{Duration, Instant};

use sunmt::trace::{self, Tag};
use sunmt::{CreateFlags, ThreadBuilder, ThreadId};
use sunmt_bench::PaperTable;
use sunmt_chan as chan;

const STAGES: usize = 3;
const WORKERS: usize = 2;

/// Spawns an unbound joinable thread — blocking goes through the
/// user-level sleep queue, which is the path under test.
fn unbound(f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn unbound worker")
}

/// The "chan" stat source's `sends` and `recvs` totals.
fn chan_counts() -> (u64, u64) {
    let snap = sunmt_stat::snapshot();
    // The source registers with the first channel; before that, nothing
    // has been sent.
    let Some((_, kv)) = snap.sources.iter().find(|(name, _)| *name == "chan") else {
        return (0, 0);
    };
    let get = |key: &str| {
        kv.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("the chan source has no {key}"))
    };
    (get("sends"), get("recvs"))
}

/// Drives `msgs` messages through the stage pipeline and returns the
/// wall-clock seconds from first send to last sink receive.
fn pipeline(msgs: u64) -> f64 {
    // STAGES+1 channel hops: source -> s0 -> s1 -> ... -> sink.
    let mut hops = Vec::with_capacity(STAGES + 1);
    for _ in 0..=STAGES {
        hops.push(chan::bounded::<u64>(64));
    }
    let mut ids = Vec::with_capacity(STAGES * WORKERS);
    for s in 0..STAGES {
        for _ in 0..WORKERS {
            let rx = hops[s].1.clone();
            let tx = hops[s + 1].0.clone();
            ids.push(unbound(move || {
                while let Ok(v) = rx.recv() {
                    tx.send(v + 1).expect("downstream stage alive");
                }
                // Dropping this worker's tx clone propagates the
                // source's disconnect one stage down.
            }));
        }
    }
    let (source, _) = hops.remove(0);
    let (_, sink) = hops.pop().expect("sink hop");
    drop(hops); // only the workers' clones keep the inner hops alive

    // The source must run concurrently with the sink drain: the pipeline
    // holds at most ~cap*(STAGES+1) messages, so injecting everything
    // up front before draining would deadlock on backpressure.
    let start = Instant::now();
    ids.push(unbound(move || {
        for i in 0..msgs {
            source.send(i).expect("stage 0 alive");
        }
    }));
    let mut sum = 0u64;
    let mut got = 0u64;
    while let Ok(v) = sink.recv() {
        sum += v;
        got += 1;
    }
    let secs = start.elapsed().as_secs_f64();

    for id in ids {
        sunmt::wait(Some(id)).expect("join worker");
    }
    assert_eq!(got, msgs, "pipeline lost or duplicated messages");
    let expect = (0..msgs).map(|i| i + STAGES as u64).sum::<u64>();
    assert_eq!(sum, expect, "pipeline corrupted a payload");
    secs
}

/// Measures send-to-receiver-running latency with the receiver parked:
/// each message carries its send stamp and the receiver reports the
/// staleness on arrival. Returns one duration per sample.
fn wake_chain(samples: usize) -> Vec<Duration> {
    let (tx, rx) = chan::bounded::<Instant>(2);
    let (reply_tx, reply_rx) = chan::bounded::<Duration>(2);
    let receiver = unbound(move || {
        while let Ok(stamp) = rx.recv() {
            reply_tx.send(stamp.elapsed()).expect("main collects");
        }
    });
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        // Let the receiver drain the previous reply and park again.
        std::thread::sleep(Duration::from_micros(50));
        tx.send(Instant::now()).expect("receiver alive");
        out.push(reply_rx.recv().expect("receiver replies"));
    }
    drop(tx);
    sunmt::wait(Some(receiver)).expect("join receiver");
    out
}

/// The acceptance measurement: kernel futex wakes spent handing one
/// message to a parked receiver. The receiver samples the counter the
/// instant `recv` returns, so the ack path is outside the window; the
/// minimum over `reps` discards samples polluted by pool housekeeping.
fn handoff_wakes(reps: usize) -> u64 {
    let (tx, rx) = chan::bounded::<()>(2);
    let (ack_tx, ack_rx) = chan::bounded::<u64>(2);
    let receiver = unbound(move || {
        while rx.recv().is_ok() {
            let seen = trace::counters().get(Tag::FutexWake);
            ack_tx.send(seen).expect("main collects");
        }
    });
    let mut min = u64::MAX;
    for _ in 0..reps {
        // Long enough for the receiver to park through the sleep queue.
        std::thread::sleep(Duration::from_micros(300));
        let before = trace::counters().get(Tag::FutexWake);
        tx.send(()).expect("receiver alive");
        let after = ack_rx.recv().expect("receiver acks");
        min = min.min(after.saturating_sub(before));
    }
    drop(tx);
    sunmt::wait(Some(receiver)).expect("join receiver");
    min
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let msgs: u64 = if smoke { 20_000 } else { 200_000 };
    let samples = if smoke { 200 } else { 2_000 };
    let reps = if smoke { 10 } else { 30 };

    sunmt::init();
    trace::enable();
    sunmt_stat::enable();

    let mut t = PaperTable::new(
        "Ablation: channel actor pipeline — stage-to-stage throughput, \
         parked-receiver wake-chain latency, and handoff futex cost",
    );

    // 1. Pipeline throughput.
    let fw0 = trace::counters().get(Tag::FutexWake);
    let (sends0, recvs0) = chan_counts();
    let secs = pipeline(msgs);
    let pipe_wakes = trace::counters().get(Tag::FutexWake) - fw0;
    let (sends1, recvs1) = chan_counts();
    t.row(
        format!("{STAGES}-stage pipeline, {WORKERS} workers/stage (us/msg)"),
        secs * 1e6 / msgs as f64,
    );
    let throughput = msgs as f64 / (secs * 1e3);
    t.note(format!(
        "pipeline: stages={STAGES} workers={WORKERS} msgs={msgs} \
         futex_wakes={pipe_wakes} cap=64"
    ));
    t.note(format!("pipeline_msgs_per_ms={throughput:.2}"));
    let wakes_per_msg = pipe_wakes as f64 / msgs as f64;
    t.note(format!("pipeline_futex_wakes_per_msg={wakes_per_msg:.3}"));

    // 2. Wake-chain latency percentiles.
    let mut lat = wake_chain(samples);
    lat.sort_unstable();
    let p50 = lat[lat.len() / 2].as_secs_f64() * 1e6;
    let p99 = lat[lat.len() * 99 / 100].as_secs_f64() * 1e6;
    t.row("wake chain, parked receiver (p50 us)", p50);
    t.row("wake chain, parked receiver (p99 us)", p99);
    t.note(format!(
        "wake_chain_p50_us={p50:.2} wake_chain_p99_us={p99:.2} samples={samples}"
    ));

    // 3. Blocked-receiver handoff futex cost.
    let handoff = handoff_wakes(reps);
    t.row("blocked-receiver handoff (futex wakes)", handoff as f64);
    t.note(format!(
        "handoff_futex_wakes={handoff} (min over {reps} reps)"
    ));

    trace::disable();
    sunmt_stat::disable();

    // The lockstat-style view of the same run: the "chan" source must
    // have counted every hop of every pipeline message exactly, and the
    // channel histograms must have fired — this bench gates the
    // instrumentation end-to-end, not just the data path.
    println!("{}", sunmt_stat::stats_report());
    let hop_msgs = msgs * (STAGES as u64 + 1);
    assert_eq!(
        sends1 - sends0,
        hop_msgs,
        "the chan source's sends over the pipeline"
    );
    assert_eq!(
        recvs1 - recvs0,
        hop_msgs,
        "the chan source's recvs over the pipeline"
    );
    let snap = sunmt_stat::snapshot();
    for h in [sunmt_stat::Hs::ChanSend, sunmt_stat::Hs::ChanRecv] {
        assert!(
            snap.hist(h).count > 0,
            "histogram {h:?} recorded no samples with stats enabled"
        );
    }
    assert!(
        trace::counters().get(Tag::ChanSend) > 0,
        "tracing was on but no ChanSend events were counted"
    );

    t.print();
    if let Err(e) = t.write_json_if_requested("abl_chan_pipeline", std::env::args()) {
        eprintln!("abl_chan_pipeline: {e}");
        std::process::exit(2);
    }

    // Shape checks: the acceptance ceiling on handoff wakes, and sane
    // latency ordering.
    assert!(
        handoff <= 2,
        "blocked-receiver handoff cost {handoff} futex wakes (budget: 2)"
    );
    assert!(p99 >= p50, "percentiles out of order: p50={p50} p99={p99}");
    println!(
        "\nshape check: OK ({throughput:.0} msgs/ms through {STAGES}x{WORKERS}, \
         handoff {handoff} futex wakes)"
    );
}
