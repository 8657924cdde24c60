//! The channel pipeline: a source, three stages of two unbound workers
//! each, and a sink, joined by bounded `sunmt-chan` channels.
//!
//! The loop is closed: the source holds `IN_FLIGHT` credits (a `sunmt-sync`
//! semaphore) and the sink returns one per message, so a fixed number of
//! messages is always in flight. Every stage adds one to the payload; the
//! sink checks that each sequence number arrives exactly once and that the
//! payloads sum to the inputs plus one per stage per message. No thread is
//! created after setup and no socket or file is touched.
//!
//! Run as `perfbench pipeline --seed N`; the parent drives it over stdin
//! (`mark 0|1`, `end`, `stop`, `quit`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Instant;

use sunmt::{CreateFlags, ThreadBuilder, ThreadId};
use sunmt_chan::{bounded, Receiver, Sender};
use sunmt_sync::{Sema, SyncType};
use sunmt_trace::clock::cycles_to_ns;

use crate::hist::Latencies;
use crate::layers::{self, now, SPANS};
use crate::proto::Rng;
use crate::verify::PipelineCheck;

/// Incrementing stages between source and sink.
pub const STAGES: usize = 3;
/// Unbound workers per stage.
const WORKERS: usize = 2;
/// Slots per channel.
const CAP: usize = 64;
/// Messages in flight at any time.
const IN_FLIGHT: u32 = 64;

#[derive(Clone, Copy)]
struct Msg {
    seq: u64,
    value: u64,
    stamp: u64,
}

/// Window state shared by the control thread and the sink.
#[derive(Default)]
struct Windows {
    /// 0 while no window is open, else the open window's index plus one.
    open: AtomicUsize,
    /// Cycle stamp at which window 0 opened.
    start0: AtomicU64,
    /// Messages reaching the sink in each window.
    counts: [AtomicU64; 2],
    stop: AtomicBool,
}

struct SinkResult {
    check: PipelineCheck,
    latencies: Latencies,
}

fn unbound(f: impl FnOnce() + Send + 'static) -> ThreadId {
    ThreadBuilder::new()
        .flags(CreateFlags::WAIT)
        .spawn(f)
        .expect("spawn pipeline thread")
}

fn send(tx: &Sender<Msg>, m: Msg) {
    if SPANS.on() {
        let t0 = now();
        tx.send(m).expect("downstream alive");
        SPANS.chan_send.record(now() - t0);
    } else {
        tx.send(m).expect("downstream alive");
    }
}

fn recv(rx: &Receiver<Msg>) -> Option<Msg> {
    if SPANS.on() {
        let t0 = now();
        let m = rx.recv().ok();
        SPANS.chan_recv.record(now() - t0);
        m
    } else {
        rx.recv().ok()
    }
}

/// `perfbench pipeline --seed N`.
pub fn main(args: &crate::Args) -> ! {
    let start = Instant::now();
    let seed: u64 = args.num("seed");
    sunmt::init();
    sunmt::set_concurrency(2).expect("pin the unbound pool at 2 LWPs");

    let win = Arc::new(Windows::default());
    let credits = Arc::new(Sema::new(IN_FLIGHT, SyncType::DEFAULT));
    let mut hops: Vec<(Sender<Msg>, Receiver<Msg>)> = (0..=STAGES).map(|_| bounded(CAP)).collect();
    let mut ids = Vec::new();
    for s in 0..STAGES {
        for _ in 0..WORKERS {
            let rx = hops[s].1.clone();
            let tx = hops[s + 1].0.clone();
            ids.push(unbound(move || {
                while let Some(mut m) = recv(&rx) {
                    m.value += 1;
                    send(&tx, m);
                }
            }));
        }
    }
    let (source_tx, _) = hops.remove(0);
    let (_, sink_rx) = hops.pop().expect("sink hop");
    drop(hops);

    // Sent count and input sum, published by the source when it stops.
    let sent = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
    let (w, c, s) = (Arc::clone(&win), Arc::clone(&credits), Arc::clone(&sent));
    ids.push(unbound(move || {
        let mut rng = Rng::new(seed, 0);
        let (mut seq, mut sum) = (0u64, 0u64);
        loop {
            c.p();
            if w.stop.load(Ordering::Acquire) {
                break;
            }
            let value = rng.next_u64() % 1000;
            sum += value;
            send(
                &source_tx,
                Msg {
                    seq,
                    value,
                    stamp: now(),
                },
            );
            seq += 1;
        }
        s.0.store(seq, Ordering::Release);
        s.1.store(sum, Ordering::Release);
    }));

    let result = Arc::new(StdMutex::new(None));
    let (w, c, r) = (Arc::clone(&win), Arc::clone(&credits), Arc::clone(&result));
    let sink = unbound(move || {
        let mut check = PipelineCheck::default();
        let mut latencies = Latencies::default();
        while let Some(m) = recv(&sink_rx) {
            let t = now();
            check.record(m.seq, m.value);
            c.v();
            match w.open.load(Ordering::Relaxed) {
                0 => {}
                k => {
                    w.counts[k - 1].fetch_add(1, Ordering::Relaxed);
                    if k == 1 {
                        let off = t.saturating_sub(w.start0.load(Ordering::Relaxed));
                        latencies.record(
                            cycles_to_ns(off) as u64,
                            cycles_to_ns(t.saturating_sub(m.stamp)) as u64,
                        );
                    }
                }
            }
        }
        *r.lock().expect("sink result") = Some(SinkResult { check, latencies });
    });
    ids.push(sink);
    layers::ready(start, "");
    sunmt_trace::clock::ns_per_cycle();

    let mut open = None;
    let mut window_ns = [0f64; 2];
    let mut next = 0;
    layers::control_loop(|cmd| match cmd {
        "mark 0" | "mark 1" if next < 2 => {
            open = Some(layers::mark(cmd == "mark 1"));
            if next == 0 {
                win.start0.store(now(), Ordering::Relaxed);
            }
            next += 1;
            win.open.store(next, Ordering::Relaxed);
            Some("marked".into())
        }
        "end" => {
            win.open.store(0, Ordering::Relaxed);
            let (ns, report) = layers::end(open.take()?, 0..0);
            window_ns[next - 1] = ns;
            Some(format!("end {report}"))
        }
        "stop" => {
            win.stop.store(true, Ordering::Release);
            // One more credit wakes a source parked on an empty count.
            credits.v();
            for id in ids.drain(..) {
                sunmt::wait(Some(id)).expect("join pipeline thread");
            }
            let res = result.lock().expect("sink result").take()?;
            let (n, input_sum) = (
                sent.0.load(Ordering::Acquire),
                sent.1.load(Ordering::Acquire),
            );
            let (failed, faults) = res.check.finish(n, input_sum, STAGES as u64);
            for f in &faults {
                eprintln!("{f}");
            }
            let lat = res.latencies.summary((window_ns[0] / 1e9).round() as usize);
            Some(format!(
                "stop sent={n} received={} failed={failed} ok={} ops0={} ops1={} \
                 window0_ns={} window1_ns={} {}",
                res.check.received(),
                u8::from(faults.is_empty()),
                win.counts[0].load(Ordering::Relaxed),
                win.counts[1].load(Ordering::Relaxed),
                window_ns[0],
                window_ns[1],
                lat.render(),
            ))
        }
        _ => None,
    });
    std::process::exit(0)
}
