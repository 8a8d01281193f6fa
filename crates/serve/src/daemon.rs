//! The IO shell: TCP ingest, HTTP admin surface, tick loop, signals.
//!
//! Everything stateful lives in the sans-IO [`Shard`]s; this module only
//! moves bytes. Each shard sits behind its own mutex — connection
//! readers lock it just long enough to [`Shard::offer`], the tick thread
//! just long enough to [`Shard::tick`] — so a slow client can never
//! stall the engine. Outbound frames go through **bounded** per-
//! connection channels: when a client stops reading, its channel fills
//! and further verdict frames are *dropped and counted* rather than
//! blocking the tick thread (the slow-client policy the daemon tests
//! assert).
//!
//! Hot reload (`POST /reload?path=…`) loads and fingerprint-validates
//! the replacement bundle *before* touching any shard; a corrupt or
//! stale file leaves the daemon serving the previous bundle with zero
//! dropped sessions, answering 409 with the full
//! [`ArtifactError`](cpsmon_core::ArtifactError) source chain.

use std::collections::HashMap;
use std::error::Error;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cpsmon_core::artifact::MonitorBundle;

use crate::protocol::{ErrorCode, Frame, FrameDecoder, PROTOCOL_VERSION};
use crate::shard::{IngestItem, IngestKind, OutEvent, ServingBundle, Shard, ShardConfig};

/// Global SIGTERM/SIGINT latch (see [`install_signal_handlers`]).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that latch a global flag the daemon
/// run loop polls — the graceful-shutdown path the CI smoke test drives.
/// Uses the libc `signal(2)` already linked into every std binary, so no
/// external crate is needed. No-op on non-Unix targets.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as extern "C" fn(i32) as usize;
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

/// Whether a latched SIGTERM/SIGINT is pending.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Ingest listener address (`host:port`; port 0 picks a free one).
    pub addr: String,
    /// Admin HTTP listener address, `None` to disable the admin surface.
    pub admin_addr: Option<String>,
    /// Number of shards; sessions are pinned by `patient % shards`.
    pub shards: usize,
    /// Per-shard engine tuning.
    pub shard: ShardConfig,
    /// Sleep between engine ticks when queues are idle.
    pub tick_interval: Duration,
    /// Where to write the sorted verdict log at shutdown (`None`
    /// disables logging).
    pub verdict_log: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            admin_addr: None,
            shards: 2,
            shard: ShardConfig {
                tick_budget: Some(Duration::from_millis(50)),
                ..ShardConfig::default()
            },
            tick_interval: Duration::from_millis(1),
            verdict_log: None,
        }
    }
}

/// One row of the shutdown verdict log. Only deterministic fields —
/// no latencies — so two replays of the same trace produce
/// byte-identical logs.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LogRow {
    patient: u64,
    step: u32,
    label: u8,
    proba: f64,
    health: u8,
    shed: bool,
}

/// Shared mutable state between daemon threads.
struct Inner {
    shards: Vec<Mutex<Shard>>,
    /// Outbound frame channel per live connection.
    writers: Mutex<HashMap<u64, SyncSender<Vec<u8>>>>,
    /// Verdict-log rows, kept only when a log path is configured.
    log: Option<Mutex<Vec<LogRow>>>,
    shutdown: AtomicBool,
    next_conn: AtomicU64,
    /// Verdict frames dropped because a client's outbound channel was
    /// full (slow-client policy).
    dropped_frames: AtomicU64,
    /// Ticks whose events are not dispatched yet. Raised under the shard
    /// lock, so a drain waiter that sees an empty queue also sees the
    /// tick that emptied it still delivering.
    dispatching: AtomicU64,
}

impl Inner {
    fn shard_for(&self, patient: u64) -> &Mutex<Shard> {
        &self.shards[(patient % self.shards.len() as u64) as usize]
    }

    /// Queues an encoded frame to a connection, dropping it (counted)
    /// when the client is too slow to drain its channel.
    fn send_to(&self, conn: u64, bytes: Vec<u8>) {
        let writers = self.writers.lock().expect("writers lock");
        if let Some(tx) = writers.get(&conn) {
            match tx.try_send(bytes) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    self.dropped_frames.fetch_add(1, Ordering::Relaxed);
                }
                Err(TrySendError::Disconnected(_)) => {}
            }
        }
    }

    fn dispatch(&self, events: Vec<OutEvent>) {
        for ev in events {
            match ev {
                OutEvent::Verdict {
                    conn,
                    patient,
                    step,
                    label,
                    proba,
                    health,
                    shed,
                } => {
                    if let Some(log) = &self.log {
                        log.lock().expect("log lock").push(LogRow {
                            patient,
                            step,
                            label,
                            proba,
                            health,
                            shed,
                        });
                    }
                    let frame = Frame::Verdict {
                        patient,
                        step,
                        label,
                        proba,
                        health,
                        shed,
                    };
                    self.send_to(conn, frame.encode());
                }
                OutEvent::SessionRefused {
                    conn,
                    patient,
                    sessions,
                } => {
                    let frame = Frame::Error {
                        code: ErrorCode::SessionCapacity,
                        message: format!(
                            "session table full ({sessions} live); patient {patient} refused"
                        ),
                    };
                    self.send_to(conn, frame.encode());
                }
            }
        }
    }
}

/// A running daemon: listener threads, tick thread, admin thread.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: std::net::SocketAddr,
    admin_addr: Option<std::net::SocketAddr>,
    threads: Vec<JoinHandle<()>>,
    verdict_log: Option<PathBuf>,
}

impl Daemon {
    /// Binds the listeners and starts serving `bundle` under `config`.
    pub fn start(config: ServeConfig, bundle: ServingBundle) -> io::Result<Daemon> {
        assert!(config.shards > 0, "at least one shard");
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let admin_listener = match &config.admin_addr {
            Some(a) => {
                let l = TcpListener::bind(a)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let admin_addr = admin_listener.as_ref().and_then(|l| l.local_addr().ok());

        let inner = Arc::new(Inner {
            shards: (0..config.shards)
                .map(|_| Mutex::new(Shard::new(config.shard, bundle.clone())))
                .collect(),
            writers: Mutex::new(HashMap::new()),
            log: config.verdict_log.as_ref().map(|_| Mutex::new(Vec::new())),
            shutdown: AtomicBool::new(false),
            next_conn: AtomicU64::new(1),
            dropped_frames: AtomicU64::new(0),
            dispatching: AtomicU64::new(0),
        });

        let mut threads = Vec::new();

        // Tick thread: the only thread that advances the engines.
        {
            let inner = Arc::clone(&inner);
            let interval = config.tick_interval;
            threads.push(std::thread::spawn(move || loop {
                let mut worked = false;
                for shard in &inner.shards {
                    let events = {
                        let mut s = shard.lock().expect("shard lock");
                        // An idle shard that is not Healthy still ticks:
                        // idle ticks are how its controller recovers. They
                        // are not work, so the loop keeps sleeping.
                        if !s.needs_tick() {
                            continue;
                        }
                        worked |= s.queue_len() > 0;
                        inner.dispatching.fetch_add(1, Ordering::SeqCst);
                        s.tick()
                    };
                    inner.dispatch(events);
                    inner.dispatching.fetch_sub(1, Ordering::SeqCst);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    // Drain whatever is still queued, then stop.
                    let pending: usize = inner
                        .shards
                        .iter()
                        .map(|s| s.lock().expect("shard lock").queue_len())
                        .sum();
                    if pending == 0 {
                        break;
                    }
                } else if !worked {
                    std::thread::sleep(interval);
                }
            }));
        }

        // Acceptor thread: one reader + one writer thread per connection.
        {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let inner = Arc::clone(&inner);
                        std::thread::spawn(move || serve_conn(inner, stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if inner.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }));
        }

        // Admin thread.
        if let Some(admin) = admin_listener {
            let inner = Arc::clone(&inner);
            threads.push(std::thread::spawn(move || loop {
                match admin.accept() {
                    Ok((stream, _)) => {
                        // Admin requests are tiny; serve inline.
                        let _ = serve_admin(&inner, stream);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        if inner.shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }));
        }

        Ok(Daemon {
            inner,
            addr,
            admin_addr,
            threads,
            verdict_log: config.verdict_log,
        })
    }

    /// The bound ingest address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The bound admin address, if the admin surface is enabled.
    pub fn admin_addr(&self) -> Option<std::net::SocketAddr> {
        self.admin_addr
    }

    /// Verdict frames dropped on slow-client channels so far.
    pub fn dropped_frames(&self) -> u64 {
        self.inner.dropped_frames.load(Ordering::Relaxed)
    }

    /// Blocks until a latched SIGTERM/SIGINT (see
    /// [`install_signal_handlers`]), then shuts down gracefully.
    pub fn run_until_signalled(self) -> io::Result<()> {
        while !signalled() {
            std::thread::sleep(Duration::from_millis(20));
        }
        self.shutdown()
    }

    /// Graceful shutdown: stop accepting, drain every shard queue, join
    /// all threads, and flush the verdict log sorted by
    /// `(patient, step)` so two identical replays produce byte-identical
    /// files.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // The tick thread exits with all queues drained, but a reader
        // may have offered a final item during teardown: sweep.
        for shard in &self.inner.shards {
            loop {
                let events = {
                    let mut s = shard.lock().expect("shard lock");
                    if s.queue_len() == 0 {
                        break;
                    }
                    s.tick()
                };
                self.inner.dispatch(events);
            }
        }
        if let (Some(path), Some(log)) = (&self.verdict_log, &self.inner.log) {
            let mut rows = log.lock().expect("log lock").clone();
            rows.sort_by_key(|r| (r.patient, r.step));
            let mut out = String::with_capacity(rows.len() * 32 + 64);
            out.push_str("patient,step,label,proba,health,shed\n");
            for r in rows {
                out.push_str(&format!(
                    "{},{},{},{:.6},{},{}\n",
                    r.patient, r.step, r.label, r.proba, r.health, r.shed as u8
                ));
            }
            std::fs::write(path, out)?;
        }
        Ok(())
    }
}

/// One ingest connection: handshake, then a stream of step frames.
fn serve_conn(inner: Arc<Inner>, stream: TcpStream) {
    let conn = inner.next_conn.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };

    // Bounded outbound channel + writer thread: the slow-client seam.
    let (tx, rx) = sync_channel::<Vec<u8>>(256);
    inner
        .writers
        .lock()
        .expect("writers lock")
        .insert(conn, tx.clone());
    let writer = std::thread::spawn(move || {
        let mut w = write_half;
        while let Ok(bytes) = rx.recv() {
            if w.write_all(&bytes).is_err() {
                break;
            }
        }
        let _ = w.shutdown(std::net::Shutdown::Write);
    });

    read_frames(&inner, conn, stream, &tx);

    // Teardown: unregister, close sessions, let the writer drain.
    inner.writers.lock().expect("writers lock").remove(&conn);
    drop(tx);
    for shard in &inner.shards {
        shard.lock().expect("shard lock").close_conn(conn);
    }
    let _ = writer.join();
}

/// Whether a timed socket read failed only transiently — its timeout
/// expired, or a signal (e.g. SIGSTOP/SIGCONT) interrupted it — so the
/// read is retried instead of being taken for a disconnect.
fn retry_read(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// The read loop body, split out so teardown runs on every exit path.
fn read_frames(inner: &Arc<Inner>, conn: u64, mut stream: TcpStream, tx: &SyncSender<Vec<u8>>) {
    let send = |frame: Frame| {
        // Control frames use a blocking send: they are rare and must
        // arrive (Busy/Error/Bye), unlike droppable verdict frames.
        let _ = tx.send(frame.encode());
    };
    let mut decoder = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut greeted = false;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            send(Frame::Error {
                code: ErrorCode::ShuttingDown,
                message: "daemon shutting down".to_string(),
            });
            return;
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) if retry_read(e.kind()) => continue,
            Err(_) => return,
        };
        decoder.feed(&buf[..n]);
        loop {
            match decoder.next_frame() {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    if !greeted {
                        match frame {
                            Frame::Hello { version } if version == PROTOCOL_VERSION => {
                                greeted = true;
                                continue;
                            }
                            Frame::Hello { version } => {
                                send(Frame::Error {
                                    code: ErrorCode::BadVersion,
                                    message: format!(
                                        "protocol version {version} unsupported \
                                         (want {PROTOCOL_VERSION})"
                                    ),
                                });
                                return;
                            }
                            _ => {
                                send(Frame::Error {
                                    code: ErrorCode::Malformed,
                                    message: "first frame must be Hello".to_string(),
                                });
                                return;
                            }
                        }
                    }
                    match frame {
                        Frame::Hello { .. } => {} // redundant Hello: ignore
                        Frame::Step { patient, seq, rec } => {
                            let item = IngestItem {
                                conn,
                                patient,
                                seq,
                                kind: IngestKind::Step(rec),
                            };
                            let res = inner
                                .shard_for(patient)
                                .lock()
                                .expect("shard lock")
                                .offer(item);
                            if let Err(crate::shard::OfferError::QueueFull { queue_len }) = res {
                                send(Frame::Busy {
                                    patient,
                                    queue_len: queue_len as u32,
                                });
                            }
                        }
                        Frame::EndSession { patient } => {
                            let item = IngestItem {
                                conn,
                                patient,
                                seq: 0,
                                kind: IngestKind::End,
                            };
                            let res = inner
                                .shard_for(patient)
                                .lock()
                                .expect("shard lock")
                                .offer(item);
                            if let Err(crate::shard::OfferError::QueueFull { queue_len }) = res {
                                send(Frame::Busy {
                                    patient,
                                    queue_len: queue_len as u32,
                                });
                            }
                        }
                        Frame::Goodbye => {
                            // Let queued work finish before acknowledging,
                            // so the client sees every verdict before Bye.
                            wait_for_drain(inner, Duration::from_secs(5));
                            send(Frame::Bye);
                            return;
                        }
                        // Server-to-client frames from a client are a
                        // protocol violation.
                        Frame::Verdict { .. }
                        | Frame::Busy { .. }
                        | Frame::Error { .. }
                        | Frame::Bye => {
                            send(Frame::Error {
                                code: ErrorCode::Malformed,
                                message: "client sent a server-only frame".to_string(),
                            });
                            return;
                        }
                    }
                }
                Err(e) => {
                    send(Frame::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    });
                    return;
                }
            }
        }
    }
}

/// Blocks until every shard queue is empty and the ticks that emptied
/// them have handed their verdicts to the writers (or the timeout
/// passes), so a Bye sent afterwards trails every verdict.
fn wait_for_drain(inner: &Arc<Inner>, timeout: Duration) {
    let t0 = std::time::Instant::now();
    while t0.elapsed() < timeout {
        let pending: usize = inner
            .shards
            .iter()
            .map(|s| s.lock().expect("shard lock").queue_len())
            .sum();
        if pending == 0 && inner.dispatching.load(Ordering::SeqCst) == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Serves one admin HTTP request (minimal HTTP/1.0, single request per
/// connection).
fn serve_admin(inner: &Arc<Inner>, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let (method, target) = match (parts.next(), parts.next()) {
        (Some(m), Some(t)) => (m.to_string(), t.to_string()),
        _ => return respond(stream, 400, "{\"error\":\"bad request line\"}"),
    };
    // Drain headers (ignored).
    loop {
        let mut h = String::new();
        if reader.read_line(&mut h)? == 0 || h == "\r\n" || h == "\n" {
            break;
        }
    }
    match (method.as_str(), target.as_str()) {
        ("GET", "/healthz") => {
            let worst = inner
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock").health())
                .max()
                .expect("at least one shard");
            let status = if worst == crate::ServiceHealth::Shedding {
                503
            } else {
                200
            };
            respond(
                stream,
                status,
                &format!("{{\"health\":\"{}\"}}", worst.label()),
            )
        }
        ("GET", "/stats") => {
            let mut body = String::from("{\"shards\":[");
            for (i, shard) in inner.shards.iter().enumerate() {
                let s = shard.lock().expect("shard lock");
                let st = s.stats();
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&format!(
                    "{{\"health\":\"{}\",\"epoch\":{},\"sessions\":{},\"queue\":{},\
                     \"offered\":{},\"busy\":{},\"stale\":{},\"verdicts\":{},\
                     \"shed_verdicts\":{},\"ticks\":{},\"overruns\":{},\
                     \"reloads\":{},\"reloads_rejected\":{},\"transitions\":{}}}",
                    s.health().label(),
                    s.epoch(),
                    s.sessions(),
                    s.queue_len(),
                    st.offered,
                    st.rejected_busy,
                    st.dropped_stale,
                    st.verdicts,
                    st.shed_verdicts,
                    st.ticks,
                    st.deadline_overruns,
                    st.reloads,
                    st.reloads_rejected,
                    s.controller().transitions(),
                ));
            }
            body.push_str(&format!(
                "],\"dropped_frames\":{}}}",
                inner.dropped_frames.load(Ordering::Relaxed)
            ));
            respond(stream, 200, &body)
        }
        ("POST", t) if t.starts_with("/reload") => {
            let path = t
                .split_once("path=")
                .map(|(_, p)| p.trim_end_matches(['&', ' ']))
                .unwrap_or("");
            if path.is_empty() {
                return respond(stream, 400, "{\"error\":\"missing path= query\"}");
            }
            match try_reload(inner, path) {
                Ok(epoch) => respond(
                    stream,
                    200,
                    &format!("{{\"reloaded\":true,\"epoch\":{epoch}}}"),
                ),
                Err(chain) => respond(
                    stream,
                    409,
                    &format!("{{\"reloaded\":false,\"error\":{}}}", json_string(&chain)),
                ),
            }
        }
        _ => respond(stream, 404, "{\"error\":\"unknown endpoint\"}"),
    }
}

/// Validates and installs a replacement bundle on every shard. Returns
/// the new epoch, or the full error source chain on rejection — in
/// which case **no shard was modified** and the previous bundle keeps
/// serving.
fn try_reload(inner: &Arc<Inner>, path: &str) -> Result<u64, String> {
    let expected = inner.shards[0]
        .lock()
        .expect("shard lock")
        .serving()
        .fingerprint();
    // Load + validate before touching any shard: a truncated file or a
    // stale fingerprint is rejected here, sessions untouched.
    let bundle = MonitorBundle::load_from_path(std::path::Path::new(path), expected)
        .map_err(|e| error_chain(&e))?;
    let serving = ServingBundle::new(bundle);
    let mut epoch = 0;
    for shard in &inner.shards {
        let mut s = shard.lock().expect("shard lock");
        match s.install_bundle(serving.clone()) {
            Ok(e) => epoch = e,
            Err(e) => return Err(error_chain(&e)),
        }
    }
    Ok(epoch)
}

/// Formats an error with its full `caused by` source chain.
fn error_chain(e: &dyn Error) -> String {
    let mut out = e.to_string();
    let mut src = e.source();
    while let Some(s) = src {
        out.push_str(&format!("; caused by: {s}"));
        src = s.source();
    }
    out
}

/// Minimal JSON string escaping for error bodies.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn respond(mut stream: TcpStream, status: u16, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let resp = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{replay, ReplayConfig};
    use cpsmon_core::{DatasetBuilder, MonitorKind, TrainConfig};
    use cpsmon_sim::{CampaignConfig, SimulatorKind};

    /// Rows the daemon holds for its shutdown verdict log.
    fn retained_rows(daemon: &Daemon) -> usize {
        daemon
            .inner
            .log
            .as_ref()
            .map_or(0, |log| log.lock().expect("log lock").len())
    }

    #[test]
    fn verdict_rows_are_kept_only_for_a_configured_log() {
        let traces = CampaignConfig::new(SimulatorKind::Glucosym)
            .patients(2)
            .runs_per_patient(2)
            .steps(120)
            .seed(13)
            .run();
        let ds = DatasetBuilder::new().seed(13).build(&traces).unwrap();
        let cfg = TrainConfig::quick_test();
        let monitor = MonitorKind::RuleBased.train(&ds, &cfg).unwrap();
        let bundle = ServingBundle::new(MonitorBundle::new(monitor, &ds, &cfg));
        let path = std::env::temp_dir().join(format!(
            "cpsmon-serve-unit-{}-verdict-log.csv",
            std::process::id()
        ));
        for verdict_log in [None, Some(path.clone())] {
            let logged = verdict_log.is_some();
            let config = ServeConfig {
                verdict_log,
                ..ServeConfig::default()
            };
            let daemon = Daemon::start(config, bundle.clone()).unwrap();
            let report = replay(&ReplayConfig {
                addr: daemon.addr().to_string(),
                patients: 2,
                steps: 24,
                seed: 3,
                chaos: None,
                pacing: Duration::ZERO,
            })
            .unwrap();
            assert!(report.clean_close);
            assert!(report.verdicts > 0);
            let expected = if logged { report.verdicts } else { 0 };
            assert_eq!(retained_rows(&daemon), expected, "log configured: {logged}");
            daemon.shutdown().unwrap();
        }
        let rows = std::fs::read_to_string(&path).unwrap().lines().count() - 1;
        let _ = std::fs::remove_file(&path);
        assert!(rows > 0, "the configured log is written at shutdown");
    }

    #[test]
    fn timed_out_and_interrupted_reads_are_retried() {
        for kind in [
            io::ErrorKind::WouldBlock,
            io::ErrorKind::TimedOut,
            io::ErrorKind::Interrupted,
        ] {
            assert!(retry_read(kind), "{kind:?} must be retried");
        }
        for kind in [
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(!retry_read(kind), "{kind:?} is a disconnect");
        }
    }
}
