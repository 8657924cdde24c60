//! Per-layer measurement inside a benchmarked process.
//!
//! The benchmark's own code brackets each call it makes into a library
//! layer with cycle stamps and records the delta into [`SPANS`]; the
//! library's counters (`sunmt::stats`, `sunmt_io::stats`, the trace tag
//! counters and the stat lock-site table) are read at the window's edges.
//! Spans are recorded only while a traced window is open, so the untraced
//! windows that give the end-to-end figures pay one relaxed load per span.

use std::io::{BufRead, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::LazyLock;

use sunmt_trace::clock::{cycles_to_ns, now_cycles};
use sunmt_trace::Tag;

use crate::hist::SpanHist;

/// One histogram per span the benchmark opens around a layer call.
#[derive(Default)]
pub struct Spans {
    on: AtomicBool,
    /// `ThreadBuilder::spawn` call to return (`sunmt`).
    pub spawn: SpanHist,
    /// `spawn` return to the request closure's first line (`sunmt`).
    pub start_delay: SpanHist,
    /// Record-lock `enter` (`sunmt-sync`, `SHARED`).
    pub rec_enter: SpanHist,
    /// Record-lock `exit` (`sunmt-sync`, `SHARED`).
    pub rec_exit: SpanHist,
    /// Per-connection mutex `enter` (`sunmt-sync`, `DEFAULT`).
    pub conn_enter: SpanHist,
    /// `sunmt_io::read` on a connection, parking included.
    pub io_read: SpanHist,
    /// `sunmt_io::write_all` of one reply.
    pub io_write: SpanHist,
    /// `Sender::send` (`sunmt-chan`).
    pub chan_send: SpanHist,
    /// `Receiver::recv` (`sunmt-chan`), parking included.
    pub chan_recv: SpanHist,
    /// Reads that returned data, and the requests they carried.
    pub reads: AtomicU64,
    /// Requests parsed out of those reads.
    pub read_requests: AtomicU64,
    /// Server-side request spans: total cycles, and the cycles spent in
    /// each layer's calls inside them (children never overlap, so the
    /// remainder is the request's own work).
    pub req_total: AtomicU64,
    /// Cycles in `sunmt` (spawn call through closure start).
    pub req_sunmt: AtomicU64,
    /// Cycles in `sunmt-sync` calls.
    pub req_sync: AtomicU64,
    /// Cycles in `sunmt-io` calls.
    pub req_io: AtomicU64,
}

/// The process's span table.
pub static SPANS: LazyLock<Spans> = LazyLock::new(Spans::default);

impl Spans {
    /// Whether a traced window is open.
    #[inline]
    pub fn on(&self) -> bool {
        self.on.load(Relaxed)
    }

    fn reset(&self) {
        for h in self.hists() {
            h.1.reset();
        }
        for c in [
            &self.reads,
            &self.read_requests,
            &self.req_total,
            &self.req_sunmt,
            &self.req_sync,
            &self.req_io,
        ] {
            c.store(0, Relaxed);
        }
    }

    fn hists(&self) -> [(&'static str, &SpanHist); 9] {
        [
            ("spawn", &self.spawn),
            ("start_delay", &self.start_delay),
            ("rec_enter", &self.rec_enter),
            ("rec_exit", &self.rec_exit),
            ("conn_enter", &self.conn_enter),
            ("io_read", &self.io_read),
            ("io_write", &self.io_write),
            ("chan_send", &self.chan_send),
            ("chan_recv", &self.chan_recv),
        ]
    }
}

/// The cycle clock spans use.
#[inline]
pub fn now() -> u64 {
    now_cycles()
}

/// Cumulative library counters at a window's opening edge.
pub struct Mark {
    traced: bool,
    sched: sunmt::SchedStats,
    io: sunmt_io::IoStats,
    dropped: u64,
    t0: u64,
}

/// Opens a window. A traced window also starts a trace and stat epoch
/// (which zeroes their counters) and turns the span table on.
pub fn mark(traced: bool) -> Mark {
    if traced {
        SPANS.reset();
        sunmt_trace::enable();
        sunmt_stat::enable();
        SPANS.on.store(true, Relaxed);
    }
    Mark {
        traced,
        sched: sunmt::stats(),
        io: sunmt_io::stats(),
        dropped: sunmt_trace::dropped(),
        t0: now(),
    }
}

/// Closes a window; returns its length in nanoseconds and what it saw as
/// `key=value` pairs. `records` is the address range of the record locks (empty when the
/// process has none); their lock-site totals are reported apart from the
/// library's own locks, with the shared overflow slot counted as records.
pub fn end(m: Mark, records: Range<usize>) -> (f64, String) {
    let window_ns = cycles_to_ns(now() - m.t0);
    SPANS.on.store(false, Relaxed);
    let sched = sunmt::stats();
    let io = sunmt_io::stats();
    let tags = sunmt_trace::counters();
    let mut kv: Vec<(String, f64)> = Vec::new();
    let mut put = |k: &str, v: f64| kv.push((k.to_string(), v));
    put("window_ns", window_ns);
    put("traced", f64::from(u8::from(m.traced)));
    put("dispatches", (sched.dispatches - m.sched.dispatches) as f64);
    put("steals", (sched.steals - m.sched.steals) as f64);
    put("idle_wakes", (sched.idle_wakes - m.sched.idle_wakes) as f64);
    put("pool_grows", (sched.pool_grows - m.sched.pool_grows) as f64);
    put("pool_lwps", sched.pool_lwps as f64);
    put(
        "mag_hits",
        (sched.magazine_hits - m.sched.magazine_hits) as f64,
    );
    put(
        "mag_misses",
        (sched.magazine_misses - m.sched.magazine_misses) as f64,
    );
    put("io_parks", (io.parks - m.io.parks) as f64);
    put("io_epoll_waits", (io.epoll_waits - m.io.epoll_waits) as f64);
    put(
        "io_ctl_syscalls",
        (io.ctl_syscalls - m.io.ctl_syscalls) as f64,
    );
    put("trace_dropped", (sunmt_trace::dropped() - m.dropped) as f64);
    if m.traced {
        sunmt_trace::disable();
        sunmt_stat::disable();
        put("lwp_parks", tags.get(Tag::LwpPark) as f64);
        put("lwp_unparks", tags.get(Tag::LwpUnpark) as f64);
        put("switches", tags.get(Tag::SwitchOut) as f64);
        put("futex_wakes", tags.get(Tag::FutexWake) as f64);
        put("chan_parks", tags.get(Tag::ChanPark) as f64);
        let (mut acq, mut cont, mut parks) = (0u64, 0u64, 0u64);
        for s in sunmt_stat::snapshot().locks {
            if s.addr == 0 || records.contains(&s.addr) {
                acq += s.acquires;
                cont += s.contended;
                parks += s.parks;
            }
        }
        put("rec_acquires", acq as f64);
        put("rec_contended", cont as f64);
        put("rec_parks", parks as f64);
        for (name, h) in SPANS.hists() {
            put(&format!("{name}_count"), h.count() as f64);
            put(
                &format!("{name}_p50_ns"),
                cycles_to_ns(h.quantile(0.5) as u64),
            );
            put(
                &format!("{name}_p99_ns"),
                cycles_to_ns(h.quantile(0.99) as u64),
            );
        }
        put("reads", SPANS.reads.load(Relaxed) as f64);
        put("read_requests", SPANS.read_requests.load(Relaxed) as f64);
        for (k, c) in [
            ("req_total_ns", &SPANS.req_total),
            ("req_sunmt_ns", &SPANS.req_sunmt),
            ("req_sync_ns", &SPANS.req_sync),
            ("req_io_ns", &SPANS.req_io),
        ] {
            put(k, cycles_to_ns(c.load(Relaxed)));
        }
    }
    let report = kv
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>();
    (window_ns, report.join(" "))
}

/// Serves the parent's commands on stdin, one per line, answering each on
/// stdout, until the handler declines a command or input ends (the parent
/// is gone).
pub fn control_loop(mut handle: impl FnMut(&str) -> Option<String>) {
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        match handle(line.trim()) {
            Some(reply) => {
                let _ = writeln!(out, "{reply}");
                let _ = out.flush();
            }
            None => break,
        }
    }
}

/// Announces readiness: setup time since `start` plus extra fields.
pub fn ready(start: std::time::Instant, extra: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "ready setup_ns={} {extra}", start.elapsed().as_nanos());
    let _ = out.flush();
}
