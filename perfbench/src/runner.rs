//! One benchmark run: starts the benchmarked process (several times, to time
//! its setup), generates the load, samples the process from `/proc`,
//! checks every output and prints the result.
//!
//! The database generator is this process: two connections, each driven
//! by its own thread (the calling thread and one more), each keeping
//! `IN_FLIGHT` requests outstanding in a closed loop. Every record choice
//! comes from the workload seed. The calling thread also drives the
//! window edges (`mark`/`end` to the server) and samples the server's
//! thread count and memory.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::hist::{median, Latencies, Summary};
use crate::proto::{Reply, Req, Rng, OP_READ, OP_TRANSFER, REPLY_LEN, REQ_LEN};
use crate::verify::{audit, ReplyBook};
use crate::{server, Args};

/// Requests each connection keeps outstanding.
const IN_FLIGHT: usize = 32;
/// Processes started per run to time setup; the last one is measured.
const SETUP_REPS: usize = 15;
/// Load before the first window opens.
const WARMUP: Duration = Duration::from_secs(1);
/// How often the benchmarked process's `/proc/<pid>/status` is sampled.
const SAMPLE_EVERY: Duration = Duration::from_millis(5);
/// Linux reports process CPU time in ticks of 1/100 s.
const US_PER_TICK: f64 = 10_000.0;

type Kv = HashMap<String, f64>;

fn parse_kv(line: &str) -> Kv {
    line.split_whitespace()
        .filter_map(|t| t.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

fn get(kv: &Kv, k: &str) -> f64 {
    kv.get(k).copied().unwrap_or(0.0)
}

/// A benchmarked child process driven over its stdin/stdout.
struct Child {
    proc: std::process::Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
}

impl Child {
    fn spawn(args: &[&str]) -> Child {
        let exe = std::env::current_exe().expect("own executable");
        let mut proc = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the benchmarked process");
        let stdin = proc.stdin.take();
        let out = BufReader::new(proc.stdout.take().expect("child stdout"));
        Child { proc, stdin, out }
    }

    fn pid(&self) -> u32 {
        self.proc.id()
    }

    fn send(&mut self, cmd: &str) {
        send_cmd(self.stdin.as_mut().expect("child stdin"), cmd);
    }

    /// Reads lines up to and including the first that starts with
    /// `prefix`; returns them all.
    fn until(&mut self, prefix: &str) -> Vec<String> {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            let n = self.out.read_line(&mut line).expect("read child output");
            assert!(
                n > 0,
                "benchmarked process exited before answering '{prefix}'"
            );
            let done = line.starts_with(prefix);
            lines.push(line.trim_end().to_string());
            if done {
                return lines;
            }
        }
    }

    fn expect(&mut self, prefix: &str) -> Kv {
        parse_kv(self.until(prefix).last().expect("a line"))
    }

    /// Closes the child's stdin (its signal to exit) and reaps it.
    fn finish(mut self) -> bool {
        self.stdin = None;
        self.proc.wait().map(|s| s.success()).unwrap_or(false)
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        self.stdin = None;
        if self.proc.try_wait().ok().flatten().is_none() {
            let _ = self.proc.kill();
            let _ = self.proc.wait();
        }
    }
}

fn send_cmd(stdin: &mut ChildStdin, cmd: &str) {
    writeln!(stdin, "{cmd}")
        .and_then(|()| stdin.flush())
        .expect("send a command to the benchmarked process");
}

/// Starts the process `SETUP_REPS` times, each to readiness; keeps the
/// last one running and returns the `ready` lines of all of them.
fn start_timed(args: &[&str]) -> (Child, Vec<Kv>) {
    let mut readies = Vec::with_capacity(SETUP_REPS);
    loop {
        let mut c = Child::spawn(args);
        readies.push(c.expect("ready"));
        if readies.len() == SETUP_REPS {
            return (c, readies);
        }
        assert!(c.finish(), "a setup-only process failed");
    }
}

fn proc_cpu_ticks(pid: u32) -> u64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    f.get(11).copied().unwrap_or(0) + f.get(12).copied().unwrap_or(0)
}

/// `(Threads, VmHWM in kB)` from `/proc/<pid>/status`.
fn proc_status(pid: u32) -> (u64, u64) {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("Threads:"), field("VmHWM:"))
}

/// Window edges: window `k` runs from `edges[k]` to `edges[k + 1]`.
/// Window 0 is untraced; window 1, present in traced runs, is traced.
struct Plan {
    edges: Vec<Instant>,
    seconds: u64,
}

impl Plan {
    fn new(seconds: u64, traced: bool) -> Plan {
        let t0 = Instant::now() + WARMUP;
        let windows = 1 + u32::from(traced);
        let edges = (0..=windows)
            .map(|k| t0 + Duration::from_secs(seconds) * k)
            .collect();
        Plan { edges, seconds }
    }

    fn end(&self) -> Instant {
        *self.edges.last().expect("edges")
    }

    fn window_of(&self, t: Instant) -> Option<usize> {
        self.edges.windows(2).position(|w| w[0] <= t && t < w[1])
    }
}

/// The window-edge duties of the calling thread: commands to the child at
/// each edge, and `/proc` samples while window 0 is open.
struct Duty<'a> {
    stdin: &'a mut ChildStdin,
    pid: u32,
    plan: &'a Plan,
    next_edge: usize,
    next_sample: Option<Instant>,
    cpu_ticks: [u64; 2],
    threads_peak: u64,
    hwm_kb: u64,
    /// `/proc/stat` (steal, total) ticks at each second of window 0.
    host: Vec<(u64, u64)>,
}

fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let f: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    (f.get(7).copied().unwrap_or(0), f.iter().sum())
}

/// Each second's share of CPU time the hypervisor took from this machine.
fn steal_per_second(host: &[(u64, u64)]) -> String {
    let pct = |(s0, t0): (u64, u64), (s1, t1): (u64, u64)| {
        100.0 * ratio((s1 - s0) as f64, (t1 - t0) as f64)
    };
    host.windows(2)
        .map(|w| format!("{:.1}", pct(w[0], w[1])))
        .collect::<Vec<_>>()
        .join(" ")
}

impl<'a> Duty<'a> {
    fn new(stdin: &'a mut ChildStdin, pid: u32, plan: &'a Plan) -> Duty<'a> {
        Duty {
            stdin,
            pid,
            plan,
            next_edge: 0,
            next_sample: None,
            cpu_ticks: [0; 2],
            threads_peak: 0,
            hwm_kb: 0,
            host: Vec::new(),
        }
    }

    fn tick(&mut self, now: Instant) {
        let windows = self.plan.edges.len() - 1;
        while self.next_edge <= windows && now >= self.plan.edges[self.next_edge] {
            let k = self.next_edge;
            if k > 0 {
                send_cmd(self.stdin, "end");
            }
            if k == 1 {
                self.host.push(host_ticks());
                println!("per-second host steal%: {}", steal_per_second(&self.host));
                self.cpu_ticks[1] = proc_cpu_ticks(self.pid);
                self.hwm_kb = proc_status(self.pid).1;
                self.next_sample = None;
            }
            if k < windows {
                send_cmd(self.stdin, if k == 1 { "mark 1" } else { "mark 0" });
            }
            if k == 0 {
                self.cpu_ticks[0] = proc_cpu_ticks(self.pid);
                self.next_sample = Some(now);
            }
            self.next_edge += 1;
        }
        if self.next_sample.is_some_and(|t| now >= t) {
            let second = self.plan.edges[0] + Duration::from_secs(self.host.len() as u64);
            if now >= second {
                self.host.push(host_ticks());
            }
            self.threads_peak = self.threads_peak.max(proc_status(self.pid).0);
            self.next_sample = Some(now + SAMPLE_EVERY);
        }
    }

    fn done(&self) -> bool {
        self.next_edge == self.plan.edges.len()
    }
}

/// The database traffic mix.
#[derive(Clone, Copy)]
struct Mix {
    records: u32,
    transfer_pct: u32,
}

impl Mix {
    fn next(&self, rng: &mut Rng, id: u64) -> Req {
        if rng.below(100) < self.transfer_pct {
            let a = rng.below(self.records);
            let b = (a + 1 + rng.below(self.records - 1)) % self.records;
            Req {
                id,
                op: OP_TRANSFER,
                a,
                b,
                amount: 1 + rng.below(8),
            }
        } else {
            Req {
                id,
                op: OP_READ,
                a: rng.below(self.records),
                b: 0,
                amount: 0,
            }
        }
    }
}

#[derive(Default)]
struct ConnResult {
    sent: u64,
    transfers: u64,
    failed: u64,
    lost: u64,
    win_ops: [u64; 2],
    latencies: Latencies,
}

fn drive_conn(
    mut s: TcpStream,
    conn: u64,
    plan: &Plan,
    mix: Mix,
    seed: u64,
    mut duty: Option<&mut Duty>,
) -> ConnResult {
    let mut rng = Rng::new(seed, conn);
    let mut book = ReplyBook::default();
    let mut res = ConnResult::default();
    let mut next_id = conn << 48;
    let mut out = Vec::with_capacity(IN_FLIGHT * REQ_LEN);
    let mut send_batch =
        |n: usize, book: &mut ReplyBook, res: &mut ConnResult, s: &mut TcpStream| {
            out.clear();
            let at = Instant::now();
            for _ in 0..n {
                let req = mix.next(&mut rng, next_id);
                next_id += 1;
                req.encode(&mut out);
                book.sent(req, at);
                res.sent += 1;
                res.transfers += u64::from(req.op == OP_TRANSFER);
            }
            s.write_all(&out).is_ok()
        };
    let deadline = plan.end() + Duration::from_secs(5);
    let mut buf = vec![0u8; 64 * 1024];
    let mut filled = 0;
    let mut sending = send_batch(IN_FLIGHT, &mut book, &mut res, &mut s);
    loop {
        let read = s.read(&mut buf[filled..]);
        let now = Instant::now();
        if let Some(d) = duty.as_deref_mut() {
            d.tick(now);
        }
        let n = match read {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                0
            }
            Err(_) => break,
        };
        filled += n;
        let whole = filled / REPLY_LEN * REPLY_LEN;
        let mut freed = 0;
        for frame in buf[..whole].chunks_exact(REPLY_LEN) {
            let reply = Reply::decode(frame);
            match book.complete(&reply) {
                Ok(at) => {
                    freed += 1;
                    if let Some(k) = plan.window_of(now) {
                        res.win_ops[k] += 1;
                        if k == 0 {
                            let off = (now - plan.edges[0]).as_nanos() as u64;
                            res.latencies.record(off, (now - at).as_nanos() as u64);
                        }
                    }
                }
                Err(crate::verify::ReplyError::Mismatch) => {
                    freed += 1;
                    res.failed += 1;
                }
                Err(crate::verify::ReplyError::UnknownId) => res.failed += 1,
            }
        }
        buf.copy_within(whole..filled, 0);
        filled -= whole;
        if sending && now < plan.end() {
            if freed > 0 {
                sending = send_batch(freed, &mut book, &mut res, &mut s);
            }
        } else if book.pending() == 0 || now >= deadline {
            break;
        }
    }
    // The calling thread owns the window edges; finish them even if this
    // connection ended early.
    if let Some(d) = duty {
        while !d.done() {
            d.tick(Instant::now());
            std::thread::sleep(SAMPLE_EVERY);
        }
    }
    res.lost = book.pending() as u64;
    res.failed += res.lost;
    res
}

/// One metric as printed.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A run's verdict and figures.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics shared by both kinds of workload, from the traced
/// window's counters `e` over `ops` operations.
fn layer_metrics(
    e: &Kv,
    ops: f64,
    untraced_rate: f64,
    traced_rate: f64,
    create_init_ms: f64,
) -> Vec<Metric> {
    let us = |k: &str| get(e, k) / 1e3;
    let per_op = |k: &str| ratio(get(e, k), ops);
    let hits = get(e, "mag_hits");
    let acquires = get(e, "rec_acquires");
    vec![
        m("sunmt.spawn_us.p50", us("spawn_p50_ns"), "us"),
        m("sunmt.spawn_us.p99", us("spawn_p99_ns"), "us"),
        m("sunmt.start_delay_us.p50", us("start_delay_p50_ns"), "us"),
        m("sunmt.start_delay_us.p99", us("start_delay_p99_ns"), "us"),
        m(
            "sunmt.magazine_hit_ratio",
            ratio(hits, hits + get(e, "mag_misses")),
            "ratio",
        ),
        m("sunmt.dispatches_per_op", per_op("dispatches"), "1/op"),
        m("sunmt.steals_per_op", per_op("steals"), "1/op"),
        m("sunmt.idle_wakes_per_op", per_op("idle_wakes"), "1/op"),
        m("sunmt.pool_grows", get(e, "pool_grows"), "count"),
        m("sunmt-lwp.parks_per_op", per_op("lwp_parks"), "1/op"),
        m("sunmt-lwp.unparks_per_op", per_op("lwp_unparks"), "1/op"),
        m("sunmt-context.switches_per_op", per_op("switches"), "1/op"),
        m(
            "sunmt-sys.futex_wakes_per_op",
            per_op("futex_wakes"),
            "1/op",
        ),
        m("sunmt-sync.enter_us.p50", us("rec_enter_p50_ns"), "us"),
        m("sunmt-sync.enter_us.p99", us("rec_enter_p99_ns"), "us"),
        m("sunmt-sync.exit_us.p99", us("rec_exit_p99_ns"), "us"),
        m(
            "sunmt-sync.contended_ratio",
            ratio(get(e, "rec_contended"), acquires),
            "ratio",
        ),
        m(
            "sunmt-sync.parks_per_enter",
            ratio(get(e, "rec_parks"), acquires),
            "1/enter",
        ),
        m(
            "sunmt-sync.conn_enter_us.p99",
            us("conn_enter_p99_ns"),
            "us",
        ),
        m("sunmt-io.read_us.p50", us("io_read_p50_ns"), "us"),
        m("sunmt-io.read_us.p99", us("io_read_p99_ns"), "us"),
        m("sunmt-io.write_us.p50", us("io_write_p50_ns"), "us"),
        m("sunmt-io.write_us.p99", us("io_write_p99_ns"), "us"),
        m(
            "sunmt-io.requests_per_read",
            ratio(get(e, "read_requests"), get(e, "reads")),
            "1/read",
        ),
        m("sunmt-io.parks_per_op", per_op("io_parks"), "1/op"),
        m(
            "sunmt-io.epoll_waits_per_op",
            per_op("io_epoll_waits"),
            "1/op",
        ),
        m(
            "sunmt-io.ctl_syscalls_per_op",
            per_op("io_ctl_syscalls"),
            "1/op",
        ),
        m("sunmt-chan.send_us.p50", us("chan_send_p50_ns"), "us"),
        m("sunmt-chan.send_us.p99", us("chan_send_p99_ns"), "us"),
        m("sunmt-chan.recv_us.p50", us("chan_recv_p50_ns"), "us"),
        m("sunmt-chan.recv_us.p99", us("chan_recv_p99_ns"), "us"),
        m("sunmt-chan.parks_per_msg", per_op("chan_parks"), "1/msg"),
        m("sunmt-shm.create_init_ms", create_init_ms, "ms"),
        m(
            "sunmt-trace.overhead_ratio",
            ratio(untraced_rate, traced_rate),
            "ratio",
        ),
        m("sunmt-trace.dropped", get(e, "trace_dropped"), "count"),
    ]
}

/// The request-span shares: each layer's self time over the server-side
/// request span, and the unattributed remainder as `req.share.other`.
/// Fails when the children overrun their parent or the shares do not sum
/// to one.
fn share_metrics(e: &Kv) -> Result<Vec<Metric>, String> {
    let total = get(e, "req_total_ns");
    let s = ratio(get(e, "req_sunmt_ns"), total);
    let y = ratio(get(e, "req_sync_ns"), total);
    let i = ratio(get(e, "req_io_ns"), total);
    // With no request spans (the pipeline) every share is 0.
    let other = if total > 0.0 { 1.0 - s - y - i } else { 0.0 };
    if total > 0.0 && (other < -1e-9 || ((s + y + i + other) - 1.0).abs() > 1e-9) {
        return Err(format!(
            "request-span shares do not partition the span: sunmt={s} sync={y} io={i} other={other}"
        ));
    }
    Ok(vec![
        m("req.share.sunmt", s, "ratio"),
        m("req.share.sunmt-sync", y, "ratio"),
        m("req.share.sunmt-io", i, "ratio"),
        m("req.share.other", other, "ratio"),
    ])
}

/// What one run measured, before it becomes metrics.
struct Measured {
    /// Latency and rate of window 0.
    latency: Summary,
    /// Operations in each window, and each window's length in seconds.
    ops: [f64; 2],
    window_s: [f64; 2],
    cpu_ticks: [u64; 2],
    hwm_kb: u64,
    threads_peak: u64,
    setup_ns: Vec<f64>,
    create_init_ms: f64,
    /// The child's counters over the traced window (window 1).
    traced: Option<Kv>,
}

impl Measured {
    /// The end-to-end metrics (untraced run) or the per-layer metrics
    /// (traced run).
    fn metrics(self) -> Result<Vec<Metric>, String> {
        let l = &self.latency;
        println!("per-second samples:p99_us {}", l.per_second);
        println!(
            "latency: samples={} p50_us={:.1} p90_us={:.1} p99_us={:.1} \
             (median of per-second p99) p99_all_us={:.1}",
            l.samples, l.p50_us, l.p90_us, l.p99_us, l.p99_all_us
        );
        let Some(e) = &self.traced else {
            let cpu_us = self.cpu_ticks[1].saturating_sub(self.cpu_ticks[0]) as f64 * US_PER_TICK;
            return Ok(vec![
                m("ops_per_s", l.rate, "1/s"),
                m("latency_p50_us", l.p50_us, "us"),
                m("latency_p90_us", l.p90_us, "us"),
                m("cpu_us_per_op", ratio(cpu_us, self.ops[0]), "us"),
                m("peak_rss_mb", self.hwm_kb as f64 / 1024.0, "MB"),
                m("lwps_peak", self.threads_peak as f64, "count"),
                m("setup_s", median(&self.setup_ns) / 1e9, "s"),
            ]);
        };
        let rate = |k: usize| ratio(self.ops[k], self.window_s[k]);
        let mut ms = vec![m("latency_p99_us", l.p99_us, "us")];
        ms.extend(layer_metrics(
            e,
            self.ops[1],
            rate(0),
            rate(1),
            self.create_init_ms,
        ));
        ms.extend(share_metrics(e)?);
        Ok(ms)
    }
}

fn run_db(args: &Args, mix: Mix) -> Outcome {
    let (seed, seconds, traced) = (
        args.num("seed"),
        args.num("seconds"),
        args.num::<u8>("trace") == 1,
    );
    let (mut server, readies) = start_timed(&["server", "--dir", args.get("run-dir")]);
    let port = get(readies.last().expect("ready"), "port") as u16;
    let connect = || {
        let s = TcpStream::connect(("127.0.0.1", port)).expect("connect to the server");
        s.set_nodelay(true).expect("TCP_NODELAY");
        s.set_read_timeout(Some(Duration::from_millis(50)))
            .expect("read timeout");
        s
    };
    let (s0, s1) = (connect(), connect());
    let pid = server.pid();
    let plan = Plan::new(seconds, traced);
    let (r0, r1, (cpu_ticks, hwm_kb, threads_peak)) = {
        let mut duty = Duty::new(server.stdin.as_mut().expect("server stdin"), pid, &plan);
        let (r0, r1) = std::thread::scope(|sc| {
            let h = sc.spawn(|| drive_conn(s1, 1, &plan, mix, seed, None));
            let r0 = drive_conn(s0, 0, &plan, mix, seed, Some(&mut duty));
            (r0, h.join().expect("connection thread"))
        });
        (r0, r1, (duty.cpu_ticks, duty.hwm_kb, duty.threads_peak))
    };
    let ends: Vec<Kv> = (0..plan.edges.len() - 1)
        .map(|k| {
            let line = server.until("end").pop().expect("end line");
            println!("server window {k}: {line}");
            parse_kv(&line)
        })
        .collect();
    server.send("audit");
    let a = server.expect("audit");
    let mut correct = server.finish();

    let transfers = r0.transfers + r1.transfers;
    let (total, versions) = (get(&a, "total"), get(&a, "versions"));
    match audit(
        total as u64,
        versions as u64,
        u64::from(server::RECORDS),
        server::INITIAL_BALANCE,
        transfers,
    ) {
        Ok(()) => {
            println!("audit: total={total} versions={versions} for {transfers} transfers: ok")
        }
        Err(e) => {
            println!("{e}");
            correct = false;
        }
    }
    let attempted = r0.sent + r1.sent;
    let failed = r0.failed + r1.failed;
    println!(
        "replies: attempted={attempted} failed={failed} (lost={}) error_rate={}",
        r0.lost + r1.lost,
        ratio(failed as f64, attempted as f64)
    );
    correct &= failed == 0;
    let mut latencies = r0.latencies;
    latencies.merge(r1.latencies);
    let setup = |k: &str| readies.iter().map(|r| get(r, k)).collect::<Vec<f64>>();
    let measured = Measured {
        latency: latencies.summary(plan.seconds as usize),
        ops: [0, 1].map(|k| (r0.win_ops[k] + r1.win_ops[k]) as f64),
        window_s: [plan.seconds as f64; 2],
        cpu_ticks,
        hwm_kb,
        threads_peak,
        setup_ns: setup("setup_ns"),
        create_init_ms: median(&setup("create_init_ns")) / 1e6,
        traced: traced.then(|| ends.get(1).cloned().unwrap_or_default()),
    };
    outcome(correct, attempted, failed, measured)
}

fn run_pipeline(args: &Args) -> Outcome {
    let (seconds, traced) = (args.num("seconds"), args.num::<u8>("trace") == 1);
    let seed = args.get("seed").to_string();
    let (mut child, readies) = start_timed(&["pipeline", "--seed", &seed]);
    let pid = child.pid();
    let plan = Plan::new(seconds, traced);
    let (cpu_ticks, hwm_kb, threads_peak) = {
        let mut duty = Duty::new(child.stdin.as_mut().expect("pipeline stdin"), pid, &plan);
        while !duty.done() {
            duty.tick(Instant::now());
            std::thread::sleep(SAMPLE_EVERY);
        }
        (duty.cpu_ticks, duty.hwm_kb, duty.threads_peak)
    };
    child.send("stop");
    let lines = child.until("stop");
    let clean_exit = child.finish();
    let ends: Vec<Kv> = lines
        .iter()
        .filter(|l| l.starts_with("end"))
        .map(|l| parse_kv(l))
        .collect();
    let last = lines.last().expect("stop line");
    let stop = parse_kv(last);
    let attempted = get(&stop, "sent") as u64;
    let failed = get(&stop, "failed") as u64;
    let correct = clean_exit && get(&stop, "ok") == 1.0 && failed == 0;
    println!(
        "pipeline: sent={attempted} received={} failed={failed} error_rate={} checks={}",
        get(&stop, "received"),
        ratio(failed as f64, attempted as f64),
        if correct { "ok" } else { "FAILED" }
    );
    let measured = Measured {
        latency: Summary::parse(last),
        ops: [get(&stop, "ops0"), get(&stop, "ops1")],
        window_s: [
            get(&stop, "window0_ns") / 1e9,
            get(&stop, "window1_ns") / 1e9,
        ],
        cpu_ticks,
        hwm_kb,
        threads_peak,
        setup_ns: readies.iter().map(|r| get(r, "setup_ns")).collect(),
        create_init_ms: 0.0,
        traced: traced.then(|| ends.get(1).cloned().unwrap_or_default()),
    };
    outcome(correct, attempted, failed, measured)
}

fn outcome(mut correct: bool, attempted: u64, failed: u64, measured: Measured) -> Outcome {
    let metrics = measured.metrics().unwrap_or_else(|err| {
        println!("{err}");
        correct = false;
        Vec::new()
    });
    Outcome {
        correct,
        attempted,
        failed,
        metrics,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// `perfbench run --workload W --seed N --seconds S --trace 0|1 --run-dir D`.
pub fn main(args: &Args) -> i32 {
    let workload = args.get("workload");
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={}",
        args.get("seed"),
        args.get("seconds"),
        args.get("trace")
    );
    let out = match workload {
        "db_read" => run_db(
            args,
            Mix {
                records: server::RECORDS,
                transfer_pct: 10,
            },
        ),
        "db_hot" => run_db(
            args,
            Mix {
                records: 16,
                transfer_pct: 100,
            },
        ),
        "chan_pipeline" => run_pipeline(args),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return 2;
        }
    };
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                json_number(x.value),
                x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        0
    } else {
        1
    }
}
