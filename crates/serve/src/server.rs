//! The first-come-first-served scheduler: accept, read, run, respond.
//!
//! An acceptor thread blocks in `accept` and hands each new connection
//! to its own detached reader thread, which reads and decodes the
//! request off the job loop, so a client that connects and sends
//! nothing delays nobody but itself. A connection keeps its slot, one
//! of 64, until its response is written, so while the job loop is busy
//! further clients wait in the listener's backlog, not in memory. The
//! job loop answers decoded jobs in the order they were decoded. A
//! repeated netlist needs no help from the scheduler to land on a warm
//! cache: the handler's model cache serves it in any order, and a
//! handler whose cache indexes the texts it has built (the CLI's does)
//! answers an untraced repeat without parsing at all. The scheduler
//! never reads the netlist text, so the handler's parse is the only
//! one a job can pay for.
//!
//! Reading a connection's request and writing its response each get
//! one I/O timeout as a whole, not per socket call: a client that never
//! sends its request, or that sends it or drains its response a few
//! bytes at a time, is dropped once the timeout has passed, so it
//! holds up the jobs behind it for at most one timeout.
//!
//! Jobs run *sequentially* — the obs span collector and counters are
//! process-global, and interleaving two reductions would interleave
//! their traces. Parallelism lives where it always has: inside one
//! pipeline run, fanned out by `numkit::par` across shift points.
//!
//! The handler is injected (`Fn(&JobRequest) -> JobResponse`) rather
//! than imported, keeping this crate free of a dependency on the CLI's
//! method registry; the CLI wires its own registry in when it starts
//! the server.

use std::io::ErrorKind;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use crate::deadline::{Bounded, Deadline};
use crate::wire::{read_frame, write_frame, JobRequest, JobResponse, WireError};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stop after completing this many jobs (`None` ⇒ run until
    /// `shutdown`); tests and benches use it for a clean exit.
    pub max_jobs: Option<u64>,
    /// I/O timeout of every accepted connection: how long reading its
    /// whole request, and writing its whole response, may each take
    /// before the connection is dropped.
    pub io_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_jobs: None, io_timeout: Duration::from_secs(10) }
    }
}

/// What the scheduler did during one `serve` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs completed (responses written).
    pub jobs: u64,
}

/// One accepted connection with its decoded request. It holds its
/// reader slot until the response is written or the job is dropped.
struct Job {
    stream: TcpStream,
    request: JobRequest,
    _slot: Permit,
}

/// Most connections held at once, from `accept` until the response is
/// written; further connections wait in the listener's backlog until a
/// job finishes or a reader drops its client.
const MAX_READERS: usize = 64;

/// How long the idle job loop waits for a job before it looks at the
/// shutdown flag again. Jobs wake it at once; only shutdown waits.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Bound on the connection `serve` makes to its own listener, on
/// return, to wake an acceptor blocked in `accept`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Stops the acceptor when dropped, which `serve` does on return and
/// on unwinding from a panicking handler alike, so the scope can
/// always join it: sets the stop flag, then wakes an acceptor blocked
/// in `accept` with a connection to the listener.
struct StopAcceptor<'a> {
    slots: &'a Slots,
    wake: SocketAddr,
}

impl Drop for StopAcceptor<'_> {
    fn drop(&mut self) {
        self.slots.stop();
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }
}

/// The reader slots: a counting semaphore over [`MAX_READERS`], and the
/// stop flag the acceptor waits on along with them.
struct Slots {
    state: Mutex<SlotState>,
    freed: Condvar,
}

struct SlotState {
    free: usize,
    stopped: bool,
}

/// A held reader slot, given back when dropped: by the job loop once
/// the job's response is written, or by a reader that drops its client
/// or panics.
struct Permit(Arc<Slots>);

impl Drop for Permit {
    fn drop(&mut self) {
        self.0.lock().free += 1;
        self.0.freed.notify_one();
    }
}

impl Slots {
    fn new() -> Arc<Self> {
        let state = SlotState { free: MAX_READERS, stopped: false };
        Arc::new(Slots { state: Mutex::new(state), freed: Condvar::new() })
    }

    /// Every update under this lock is a single field write, so the
    /// state stays valid even if a holder panicked (poisoning it).
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes a slot, waiting while every one is held; `None` once
    /// stopped.
    fn acquire(self: &Arc<Self>) -> Option<Permit> {
        let mut state = self.lock();
        while state.free == 0 && !state.stopped {
            state = self.freed.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        if state.stopped {
            return None;
        }
        state.free -= 1;
        Some(Permit(Arc::clone(self)))
    }

    /// Stops the acceptor. The flag is set under the lock, so an
    /// acceptor about to wait for a slot cannot miss the wakeup.
    fn stop(&self) {
        self.lock().stopped = true;
        self.freed.notify_all();
    }

    fn stopped(&self) -> bool {
        self.lock().stopped
    }
}

/// Reads and decodes one request from a fresh connection. A client
/// that sends garbage or has not sent its whole request within the I/O
/// timeout is dropped, with its slot — its end sees EOF, which the
/// submit client surfaces as a protocol failure (exit 5) rather than a
/// job failure.
fn read_job(stream: TcpStream, slot: Permit, io_timeout: Duration) -> Option<Job> {
    stream.set_nodelay(true).ok()?;
    let deadline = Deadline::new(io_timeout);
    let payload = read_frame(&mut Bounded { stream: &stream, deadline }).ok()?;
    let request = JobRequest::decode(&payload).ok()?;
    Some(Job { stream, request, _slot: slot })
}

/// The acceptor: blocks in `accept` and hands each connection to a
/// detached reader, with a slot the job keeps, until stopped. A fatal
/// `accept` error is sent to the job loop in place of a job.
fn accept_loop(
    listener: &TcpListener,
    slots: &Arc<Slots>,
    jobs: Sender<std::io::Result<Job>>,
    io_timeout: Duration,
) {
    while let Some(permit) = slots.acquire() {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                let _ = jobs.send(Err(e));
                return;
            }
        };
        // After a stop this is the wakeup connection, or a client that
        // came too late; either is dropped.
        if slots.stopped() {
            return;
        }
        let jobs = jobs.clone();
        // A reader that could not start drops its connection and slot.
        let _ = std::thread::Builder::new().spawn(move || {
            if let Some(job) = read_job(stream, permit, io_timeout) {
                let _ = jobs.send(Ok(job));
            }
        });
    }
}

/// The job loop: answers decoded jobs in the order they were decoded
/// until `shutdown` is set or `max_jobs` jobs have completed.
fn run_jobs(
    jobs: &Receiver<std::io::Result<Job>>,
    handler: &(dyn Fn(&JobRequest) -> JobResponse + Sync),
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) -> Result<ServeStats, WireError> {
    let mut stats = ServeStats::default();
    while !shutdown.load(Ordering::Relaxed) {
        let job = match jobs.recv_timeout(SHUTDOWN_POLL) {
            Ok(job) => job?,
            Err(RecvTimeoutError::Timeout) => continue,
            // The acceptor is gone without an error: it panicked, and
            // the panic resurfaces when `serve` joins it.
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let response = handler(&job.request);
        // A vanished client must not take the server down, and a write
        // to one that does not read it all within the I/O timeout fails
        // then.
        let deadline = Deadline::new(opts.io_timeout);
        let _ = write_frame(&mut Bounded { stream: &job.stream, deadline }, &response.encode());
        stats.jobs += 1;
        if opts.max_jobs.is_some_and(|m| stats.jobs >= m) {
            break;
        }
    }
    Ok(stats)
}

/// Where `serve` connects to wake its own acceptor: the bound address,
/// or loopback of the same family when the listener is bound to an
/// unspecified one.
fn wake_addr(mut bound: SocketAddr) -> SocketAddr {
    if bound.ip().is_unspecified() {
        bound.set_ip(match bound {
            SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    bound
}

/// Runs the accept/run/respond loop until `shutdown` is set or
/// `max_jobs` jobs have completed.
///
/// The listener is switched to blocking mode and served by a scoped
/// acceptor thread, which hands every connection to a detached reader
/// thread; at most `MAX_READERS` connections are held at once, from
/// `accept` until the response is written. The calling thread runs the
/// jobs; it waits only on decoded jobs, and looks at `shutdown`
/// every 50 ms while idle. On return, or when a handler panics, it
/// stops the acceptor, waking it with a connection to the listener in
/// case it is blocked in `accept`, and joins it; a handler's panic then
/// reaches the caller. Readers are never joined: one still waiting on a silent
/// client finishes on its own when the I/O timeout expires. A response
/// write failing (client went away, or did not read the whole response
/// within the I/O timeout) is not fatal to the server — the job still
/// counts as completed.
///
/// # Errors
///
/// [`WireError::Io`] when the listener itself fails; per-connection
/// failures are contained.
pub fn serve(
    listener: &TcpListener,
    handler: &(dyn Fn(&JobRequest) -> JobResponse + Sync),
    opts: &ServeOptions,
    shutdown: &AtomicBool,
) -> Result<ServeStats, WireError> {
    let wake = wake_addr(listener.local_addr()?);
    listener.set_nonblocking(false)?;
    let slots = Slots::new();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let acceptor_slots = &slots;
        scope.spawn(move || accept_loop(listener, acceptor_slots, tx, opts.io_timeout));
        let _stop = StopAcceptor { slots: &slots, wake };
        run_jobs(&rx, handler, opts, shutdown)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::submit;
    use std::io::Read;
    use std::sync::atomic::AtomicU64;

    fn request(netlist: &str, method: &str) -> JobRequest {
        JobRequest {
            method: method.into(),
            netlist: netlist.into(),
            omega_max: 10.0,
            bands: vec![],
            samples: 4,
            tol: 1e-8,
            order: None,
            greedy_tol: 1e-3,
            greedy_max_shifts: None,
            budget_lu: None,
            budget_svd: None,
            budget_bytes: None,
            trace: false,
        }
    }

    const RC: &str = "R1 1 0 1\nC1 1 0 1\nPORT 1\n.END\n";

    #[test]
    fn round_trips_jobs_and_stops_at_max_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let calls = AtomicU64::new(0);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let handler = |req: &JobRequest| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    JobResponse::Err(format!("echo:{}", req.method))
                };
                let opts = ServeOptions { max_jobs: Some(3), ..ServeOptions::default() };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            for i in 0..3 {
                let resp =
                    submit(&addr, &request(RC, &format!("m{i}")), Duration::from_secs(10)).unwrap();
                assert_eq!(resp, JobResponse::Err(format!("echo:m{i}")));
            }
            let stats = server.join().unwrap();
            assert_eq!(stats.jobs, 3);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn silent_client_does_not_stall_other_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Connected before the server starts, so it is accepted first;
        // it never sends a byte.
        let _silent = TcpStream::connect(&addr).unwrap();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let handler = |req: &JobRequest| JobResponse::Err(format!("echo:{}", req.method));
                let opts = ServeOptions { max_jobs: Some(1), io_timeout: Duration::from_secs(3) };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            // The real job must finish well inside the silent client's
            // I/O timeout.
            let resp = submit(&addr, &request(RC, "real"), Duration::from_secs(1));
            assert_eq!(resp.unwrap(), JobResponse::Err("echo:real".into()));
            assert_eq!(server.join().unwrap().jobs, 1);
        });
    }

    #[test]
    fn unread_response_does_not_stall_other_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (handled, big_handled) = mpsc::channel();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                // The big response outgrows the socket buffers, so its
                // write blocks until the client reads or the write
                // timeout passes.
                let handler = |req: &JobRequest| match req.method.as_str() {
                    "big" => {
                        let _ = handled.send(());
                        JobResponse::Err("x".repeat(32 << 20))
                    }
                    m => JobResponse::Err(format!("echo:{m}")),
                };
                let opts = ServeOptions { max_jobs: Some(2), io_timeout: Duration::from_millis(500) };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            // This client sends its job and never reads the response.
            let mut hog = TcpStream::connect(&addr).unwrap();
            write_frame(&mut hog, &request(RC, "big").encode()).unwrap();
            big_handled.recv_timeout(Duration::from_secs(10)).unwrap();
            // The next job gets through once the stalled write times out
            // (one timeout: the whole response write shares one
            // deadline).
            let resp = submit(&addr, &request(RC, "small"), Duration::from_secs(5));
            assert_eq!(resp.unwrap(), JobResponse::Err("echo:small".into()));
            assert_eq!(server.join().unwrap().jobs, 2);
            drop(hog);
        });
    }

    #[test]
    fn a_slowly_drained_response_does_not_stall_other_jobs() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let (handled, big_handled) = mpsc::channel();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                let handler = |req: &JobRequest| match req.method.as_str() {
                    "big" => {
                        let _ = handled.send(());
                        JobResponse::Err("x".repeat(32 << 20))
                    }
                    m => JobResponse::Err(format!("echo:{m}")),
                };
                let opts = ServeOptions { max_jobs: Some(2), io_timeout: Duration::from_millis(500) };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            // This client reads 64 KiB of its response every 200 ms, so
            // each write call makes progress well inside the I/O timeout,
            // until the server drops it or the test is done.
            let mut slow = TcpStream::connect(&addr).unwrap();
            write_frame(&mut slow, &request(RC, "big").encode()).unwrap();
            let (done, test_done) = mpsc::channel::<()>();
            scope.spawn(move || {
                let mut buf = vec![0u8; 64 << 10];
                while test_done.recv_timeout(Duration::from_millis(200))
                    == Err(RecvTimeoutError::Timeout)
                {
                    if matches!(slow.read(&mut buf), Ok(0) | Err(_)) {
                        break;
                    }
                }
            });
            big_handled.recv_timeout(Duration::from_secs(10)).unwrap();
            let resp = submit(&addr, &request(RC, "small"), Duration::from_secs(5));
            drop(done);
            assert_eq!(resp.unwrap(), JobResponse::Err("echo:small".into()));
            assert_eq!(server.join().unwrap().jobs, 2);
        });
    }

    #[test]
    fn shutdown_with_every_reader_slot_held_returns_promptly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // One silent client per slot, and one more waiting in the
        // backlog behind them.
        let silent: Vec<TcpStream> =
            (0..=MAX_READERS).map(|_| TcpStream::connect(addr).unwrap()).collect();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let handler = |_: &JobRequest| JobResponse::Err("unused".into());
                let opts = ServeOptions { io_timeout: Duration::from_secs(60), ..Default::default() };
                serve(&listener, &handler, &opts, &shutdown).unwrap()
            });
            // Shutdown must be prompt wherever the acceptor is; the pause
            // lets it hand out every slot and block waiting for one, the
            // case this test is after.
            std::thread::sleep(Duration::from_millis(300));
            let deadline = Deadline::new(Duration::from_secs(5));
            shutdown.store(true, Ordering::Relaxed);
            assert_eq!(server.join().unwrap().jobs, 0);
            assert!(deadline.remaining().is_some(), "shutdown waited on the silent clients");
        });
        drop(silent);
    }

    #[test]
    fn a_panicking_handler_reaches_the_caller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let handler = |_: &JobRequest| -> JobResponse { panic!("handler bug") };
            serve(&listener, &handler, &ServeOptions::default(), &AtomicBool::new(false))
        });
        // The client's connection is dropped, and the panic surfaces
        // from `serve` instead of leaving it joined on its acceptor.
        assert!(submit(&addr, &request(RC, "boom"), Duration::from_secs(10)).is_err());
        assert!(server.join().is_err());
    }

    #[test]
    fn shutdown_flag_stops_an_idle_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shutdown = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| {
                let handler = |_: &JobRequest| JobResponse::Err("unused".into());
                serve(&listener, &handler, &ServeOptions::default(), &shutdown).unwrap()
            });
            std::thread::sleep(Duration::from_millis(20));
            shutdown.store(true, Ordering::Relaxed);
            let stats = server.join().unwrap();
            assert_eq!(stats.jobs, 0);
        });
    }

    #[test]
    fn queued_jobs_are_answered_in_queue_order() {
        // Jobs decoded before the job loop looks are answered in the
        // order they were queued, whatever their netlists: they are
        // queued here, each on a connection of its own.
        let other = "R1 1 2 1\nC1 2 0 1\nC2 1 0 1\nPORT 1\n.END\n";
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let slots = Slots::new();
        let (tx, rx) = mpsc::channel();
        let mut clients = Vec::new();
        let tagged = [("a", RC), ("b", other), ("c", RC), ("d", other)];
        for (tag, nl) in tagged {
            clients.push(TcpStream::connect(addr).unwrap());
            let stream = listener.accept().unwrap().0;
            let job = Job { stream, request: request(nl, tag), _slot: slots.acquire().unwrap() };
            tx.send(Ok(job)).unwrap();
        }
        let order = Mutex::new(Vec::new());
        let handler = |req: &JobRequest| {
            order.lock().unwrap().push(req.method.clone());
            JobResponse::Err(format!("echo:{}", req.method))
        };
        let opts = ServeOptions { max_jobs: Some(4), ..ServeOptions::default() };
        let stats = run_jobs(&rx, &handler, &opts, &AtomicBool::new(false)).unwrap();
        assert_eq!(stats, ServeStats { jobs: 4 });
        assert_eq!(*order.lock().unwrap(), ["a", "b", "c", "d"]);
        for (mut client, (tag, _)) in clients.into_iter().zip(tagged) {
            let resp = JobResponse::decode(&read_frame(&mut client).unwrap()).unwrap();
            assert_eq!(resp, JobResponse::Err(format!("echo:{tag}")));
        }
        // Every written job gave its slot back.
        assert_eq!(slots.lock().free, MAX_READERS);
    }

    #[test]
    fn a_full_server_reads_no_request_until_a_job_finishes() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let jobs = MAX_READERS as u64 + 1;
        let send = |method: &str, netlist: &str| {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
            write_frame(&mut stream, &request(netlist, method).encode()).unwrap();
            (method.to_string(), stream)
        };
        std::thread::scope(|scope| {
            // Made in the scope, so that a failing assertion drops
            // `release` and the blocked handler fails too, instead of
            // the scope waiting on it for ever.
            let (started, handler_started) = mpsc::channel();
            let (release, released) = mpsc::channel::<()>();
            let server = scope.spawn(move || {
                let released = Mutex::new(released);
                let handler = |req: &JobRequest| {
                    if req.method == "first" {
                        started.send(()).unwrap();
                        released.lock().unwrap().recv().unwrap();
                    }
                    JobResponse::Err(req.method.clone())
                };
                let opts = ServeOptions { max_jobs: Some(jobs), ..Default::default() };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            // The first job blocks the job loop, holding one slot, and
            // the jobs queued behind it hold the rest.
            let mut clients = vec![send("first", RC)];
            handler_started.recv_timeout(Duration::from_secs(10)).unwrap();
            clients.extend((1..MAX_READERS).map(|i| send(&format!("queued{i}"), RC)));
            // One connection more waits in the backlog, unread: a
            // request larger than the socket buffers cannot be sent
            // until the server reads it.
            let (late, late_sent) = mpsc::channel();
            scope.spawn(move || late.send(send("late", &"*".repeat(16 << 20))).unwrap());
            let early = late_sent.recv_timeout(Duration::from_millis(500));
            assert!(early.is_err(), "a request was read while every slot was held");
            release.send(()).unwrap();
            clients.push(late_sent.recv_timeout(Duration::from_secs(10)).unwrap());
            assert_eq!(server.join().unwrap().jobs, jobs);
            for (method, mut stream) in clients {
                let resp = JobResponse::decode(&read_frame(&mut stream).unwrap()).unwrap();
                assert_eq!(resp, JobResponse::Err(method));
            }
        });
    }
}
