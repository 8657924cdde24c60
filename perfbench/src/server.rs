//! The database server: the paper's record-locking example served over
//! loopback TCP.
//!
//! Records live in a `MAP_SHARED` file; each holds a `SHARED` mutex, a
//! balance, a version and a payload. One unbound thread per connection
//! reads requests with `sunmt_io::read` and spawns one unbound thread per
//! request; that thread does the record work under the record locks and
//! writes its reply with `sunmt_io::write_all` under the connection's
//! `DEFAULT` mutex. Replies therefore leave out of order.
//!
//! Run as `perfbench server --dir DIR`; the parent drives it over stdin
//! (`mark 0|1`, `end`, `audit`, `quit`).

use std::net::TcpStream;
use std::os::fd::{FromRawFd, IntoRawFd};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sunmt::ThreadBuilder;
use sunmt_shm::SharedFile;
use sunmt_sync::{Mutex, SyncType};

use crate::layers::{self, now, SPANS};
use crate::proto::{Reply, Req, OP_READ, OP_TRANSFER, REQ_LEN};

/// Records in the file.
pub const RECORDS: u32 = 4096;
/// Starting balance of every record.
pub const INITIAL_BALANCE: u64 = 1_000_000;
/// Bytes per record: the lock alone on the first cache line, then the
/// balance and version, then the payload on its own lines.
const RECORD_SIZE: usize = 256;
const BALANCE_OFF: usize = 64;
const VERSION_OFF: usize = 72;
const PAYLOAD_OFF: usize = 128;
const PAYLOAD_WORDS: usize = 16;
/// Passes over both payloads a transfer makes while holding both locks:
/// the fixed record work that makes hot records contend.
const WORK_ROUNDS: u64 = 64;

struct Db {
    file: SharedFile,
}

impl Db {
    fn create(path: &PathBuf) -> std::io::Result<Db> {
        let db = Db {
            file: SharedFile::create(path, RECORDS as usize * RECORD_SIZE)?,
        };
        for r in 0..RECORDS {
            db.lock(r).init(SyncType::SHARED);
            db.word(r, BALANCE_OFF)
                .store(INITIAL_BALANCE, Ordering::Relaxed);
        }
        Ok(db)
    }

    fn lock(&self, r: u32) -> &Mutex {
        // SAFETY: Record offsets are 256-byte aligned and in bounds, and
        // the file is zero-filled then initialised by `create`.
        unsafe { self.file.sync_var(r as usize * RECORD_SIZE) }
    }

    fn word(&self, r: u32, off: usize) -> &AtomicU64 {
        // SAFETY: As above; every word offset is 8-aligned and in bounds,
        // and AtomicU64 is valid for any bit pattern.
        unsafe { self.file.sync_var(r as usize * RECORD_SIZE + off) }
    }

    fn locks(&self) -> std::ops::Range<usize> {
        let base = self.file.as_ptr() as usize;
        base..base + self.file.len()
    }

    /// Enters a record lock, charging the time to `sync` when traced.
    fn enter(&self, r: u32, sync: &mut Option<u64>) {
        match sync {
            None => self.lock(r).enter(),
            Some(acc) => {
                let t0 = now();
                self.lock(r).enter();
                let d = now() - t0;
                SPANS.rec_enter.record(d);
                *acc += d;
            }
        }
    }

    fn exit(&self, r: u32, sync: &mut Option<u64>) {
        match sync {
            None => self.lock(r).exit(),
            Some(acc) => {
                let t0 = now();
                self.lock(r).exit();
                let d = now() - t0;
                SPANS.rec_exit.record(d);
                *acc += d;
            }
        }
    }

    fn read(&self, r: u32, sync: &mut Option<u64>) -> u64 {
        self.enter(r, sync);
        let v = self.word(r, BALANCE_OFF).load(Ordering::Relaxed);
        self.exit(r, sync);
        v
    }

    /// Moves `amount` from `a` to `b` if `a` holds it; returns 1 if moved.
    /// Locks are taken in record order, as any database would.
    fn transfer(&self, a: u32, b: u32, amount: u64, sync: &mut Option<u64>) -> u32 {
        let (lo, hi) = (a.min(b), a.max(b));
        self.enter(lo, sync);
        self.enter(hi, sync);
        let (fa, fb) = (self.word(a, BALANCE_OFF), self.word(b, BALANCE_OFF));
        let moved = fa.load(Ordering::Relaxed) >= amount;
        if moved {
            fa.store(fa.load(Ordering::Relaxed) - amount, Ordering::Relaxed);
            fb.store(fb.load(Ordering::Relaxed) + amount, Ordering::Relaxed);
        }
        for r in [a, b] {
            let v = self.word(r, VERSION_OFF);
            v.store(v.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        }
        for round in 0..WORK_ROUNDS {
            for r in [a, b] {
                for i in 0..PAYLOAD_WORDS {
                    let w = self.word(r, PAYLOAD_OFF + 8 * i);
                    let x = w.load(Ordering::Relaxed).rotate_left(7) ^ (amount + round + i as u64);
                    w.store(x.wrapping_mul(0x9E37_79B9_7F4A_7C15), Ordering::Relaxed);
                }
            }
        }
        self.exit(hi, sync);
        self.exit(lo, sync);
        u32::from(moved)
    }

    /// Total balance and total versions, each record read under its lock.
    fn audit(&self) -> (u64, u64) {
        let mut none = None;
        let (mut total, mut versions) = (0u64, 0u64);
        for r in 0..RECORDS {
            self.enter(r, &mut none);
            total += self.word(r, BALANCE_OFF).load(Ordering::Relaxed);
            versions += self.word(r, VERSION_OFF).load(Ordering::Relaxed);
            self.exit(r, &mut none);
        }
        (total, versions)
    }
}

/// One client connection; replies are serialised by its mutex.
struct Conn {
    fd: i32,
    lock: Mutex,
}

impl Drop for Conn {
    fn drop(&mut self) {
        let _ = sunmt_io::close(self.fd);
    }
}

/// Meeting point of the two halves of the start-delay span: the spawning
/// reader stamps `spawn` returning, the request closure stamps its start,
/// and whichever arrives second records the difference.
#[derive(Default)]
struct StartStamp {
    ret: AtomicU64,
    start: AtomicU64,
    arrivals: AtomicU32,
}

impl StartStamp {
    fn arrive(&self, slot: &AtomicU64, t: u64) {
        slot.store(t, Ordering::Release);
        if self.arrivals.fetch_add(1, Ordering::AcqRel) == 1 {
            let (r, s) = (
                self.ret.load(Ordering::Acquire),
                self.start.load(Ordering::Acquire),
            );
            SPANS.start_delay.record(s.saturating_sub(r));
        }
    }
}

fn serve_request(db: &Db, conn: &Conn, req: Req, t_call: u64, stamp: Option<Arc<StartStamp>>) {
    let t_start = now();
    if let Some(s) = &stamp {
        s.arrive(&s.start, t_start);
    }
    let mut sync = stamp.as_ref().map(|_| 0u64);
    let (status, value) = match req.op {
        OP_READ => (1, db.read(req.a % RECORDS, &mut sync)),
        OP_TRANSFER if req.a % RECORDS != req.b % RECORDS => (
            db.transfer(
                req.a % RECORDS,
                req.b % RECORDS,
                u64::from(req.amount),
                &mut sync,
            ),
            0,
        ),
        _ => (0, 0),
    };
    let reply = Reply {
        id: req.id,
        op: req.op,
        a: req.a,
        b: req.b,
        status,
        value,
    }
    .encode();
    let Some(mut sync) = sync else {
        conn.lock.enter();
        // A failed write means the generator hung up; it counts the loss.
        let _ = sunmt_io::write_all(conn.fd, &reply);
        conn.lock.exit();
        return;
    };
    let t0 = now();
    conn.lock.enter();
    let t1 = now();
    let _ = sunmt_io::write_all(conn.fd, &reply);
    let t2 = now();
    conn.lock.exit();
    let t3 = now();
    SPANS.conn_enter.record(t1 - t0);
    SPANS.io_write.record(t2 - t1);
    sync += (t1 - t0) + (t3 - t2);
    SPANS.req_total.fetch_add(t3 - t_call, Ordering::Relaxed);
    SPANS
        .req_sunmt
        .fetch_add(t_start - t_call, Ordering::Relaxed);
    SPANS.req_sync.fetch_add(sync, Ordering::Relaxed);
    SPANS.req_io.fetch_add(t2 - t1, Ordering::Relaxed);
}

/// The per-connection thread: reads request frames and spawns one
/// unbound thread per request.
fn serve_conn(db: Arc<Db>, conn: Arc<Conn>) {
    let mut buf = vec![0u8; 64 * 1024];
    let mut filled = 0;
    loop {
        let traced = SPANS.on();
        let t0 = now();
        let n = match sunmt_io::read(conn.fd, &mut buf[filled..]) {
            Ok(0) | Err(_) => return,
            Ok(n) => n,
        };
        if traced {
            SPANS.io_read.record(now() - t0);
        }
        filled += n;
        let whole = filled / REQ_LEN * REQ_LEN;
        for frame in buf[..whole].chunks_exact(REQ_LEN) {
            let req = Req::decode(frame);
            let (db, c) = (Arc::clone(&db), Arc::clone(&conn));
            let stamp = SPANS.on().then(|| Arc::new(StartStamp::default()));
            let s = stamp.clone();
            let t_call = now();
            ThreadBuilder::new()
                .spawn(move || serve_request(&db, &c, req, t_call, s))
                .expect("spawn request thread");
            if let Some(s) = stamp {
                let t_ret = now();
                SPANS.spawn.record(t_ret - t_call);
                s.arrive(&s.ret, t_ret);
            }
        }
        if traced {
            SPANS.reads.fetch_add(1, Ordering::Relaxed);
            SPANS
                .read_requests
                .fetch_add((whole / REQ_LEN) as u64, Ordering::Relaxed);
        }
        buf.copy_within(whole..filled, 0);
        filled -= whole;
    }
}

fn set_nodelay(fd: i32) {
    // SAFETY: `fd` is an open TCP socket this process owns; ownership goes
    // back to the caller through `into_raw_fd` before the stream drops.
    let s = unsafe { TcpStream::from_raw_fd(fd) };
    let _ = s.set_nodelay(true);
    let _ = s.into_raw_fd();
}

/// `perfbench server --dir DIR`.
pub fn main(args: &crate::Args) -> ! {
    let start = Instant::now();
    let dir = PathBuf::from(args.get("dir"));
    sunmt::init();
    sunmt::set_concurrency(2).expect("pin the unbound pool at 2 LWPs");

    let path = dir.join(format!("records-{}.db", std::process::id()));
    let t_shm = Instant::now();
    let db = Arc::new(Db::create(&path).expect("create the record file"));
    let create_init_ns = t_shm.elapsed().as_nanos();

    let (listener, port) = sunmt_io::listen_loopback(16).expect("listen");
    let acceptor_db = Arc::clone(&db);
    ThreadBuilder::new()
        .spawn(move || {
            while let Ok(fd) = sunmt_io::accept(listener) {
                set_nodelay(fd);
                let conn = Arc::new(Conn {
                    fd,
                    lock: Mutex::new(SyncType::DEFAULT),
                });
                let db = Arc::clone(&acceptor_db);
                ThreadBuilder::new()
                    .spawn(move || serve_conn(db, conn))
                    .expect("spawn connection thread");
            }
        })
        .expect("spawn acceptor");
    layers::ready(
        start,
        &format!("port={port} create_init_ns={create_init_ns}"),
    );
    // Calibrate the cycle clock now, outside both setup and the windows.
    sunmt_trace::clock::ns_per_cycle();

    let mut open = None;
    layers::control_loop(|cmd| match cmd {
        "mark 0" | "mark 1" => {
            open = Some(layers::mark(cmd == "mark 1"));
            Some("marked".into())
        }
        "end" => open
            .take()
            .map(|m| format!("end {}", layers::end(m, db.locks()).1)),
        "audit" => {
            let (total, versions) = db.audit();
            Some(format!("audit total={total} versions={versions}"))
        }
        _ => None,
    });
    let _ = std::fs::remove_file(&path);
    std::process::exit(0)
}
