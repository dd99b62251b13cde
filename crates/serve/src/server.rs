//! The batching scheduler: accept, read, group, run, respond.
//!
//! The accept loop hands each new connection to its own reader thread,
//! which reads and decodes the request off the loop, so a client that
//! connects and sends nothing delays nobody but itself. The decoded
//! jobs that are ready together form a *batch*; the server groups the
//! batch by the structural hash of each job's netlist and runs the
//! groups in `(pencil, arrival)` order. Same-pencil jobs therefore
//! execute back-to-back, which is what turns the pipeline's
//! content-addressed artifact cache into a service win: the first job
//! of a group pays for the sweep, the rest hit the cache.
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
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use crate::wire::{read_frame, write_frame, JobRequest, JobResponse, WireError};

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Stop after completing this many jobs (`None` ⇒ run until
    /// `shutdown`); tests and benches use it for a clean exit.
    pub max_jobs: Option<u64>,
    /// How long to wait for a connected client's request frame before
    /// dropping the connection.
    pub read_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions { max_jobs: None, read_timeout: Duration::from_secs(10) }
    }
}

/// What the scheduler did during one `serve` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs completed (responses written).
    pub jobs: u64,
    /// Batches executed (one batch = one drain of the accept queue).
    pub batches: u64,
    /// Jobs that shared a batch with an earlier same-pencil job — the
    /// ones scheduled to land on a warm cache.
    pub grouped: u64,
}

/// One accepted connection with its decoded request.
struct Job {
    stream: TcpStream,
    request: JobRequest,
    pencil: u64,
    arrival: usize,
}

/// The batching group key: the netlist's structural hash, or 0 when the
/// text does not parse (the handler will report the parse error).
fn group_key(netlist: &str) -> u64 {
    circuits::parse_netlist(netlist).map(|nl| nl.structural_hash()).unwrap_or(0)
}

/// Most connections whose requests are read at once; further
/// connections wait in the listener's backlog until a reader finishes.
const MAX_READERS: usize = 64;

/// Reads and decodes one request from a fresh connection. A client
/// that sends garbage or stalls past the read timeout is dropped —
/// its end sees EOF, which the submit client surfaces as a protocol
/// failure (exit 5) rather than a job failure.
fn read_job(stream: TcpStream, arrival: usize, read_timeout: Duration) -> Option<Job> {
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(read_timeout)).ok()?;
    stream.set_nodelay(true).ok()?;
    let mut stream = stream;
    let payload = read_frame(&mut stream).ok()?;
    let request = JobRequest::decode(&payload).ok()?;
    let pencil = group_key(&request.netlist);
    Some(Job { stream, request, pencil, arrival })
}

/// Runs the accept/batch/respond loop until `shutdown` is set or
/// `max_jobs` jobs have completed.
///
/// The listener may be blocking or not on entry; it is switched to
/// non-blocking so the loop can hand every pending connection to a
/// detached reader thread (at most `MAX_READERS` at once) and then
/// wait up to 2 ms for decoded requests. Readers are never joined: on
/// return, a reader still waiting on a silent client finishes on its
/// own when the read timeout expires. A response write failing (client
/// went away) is not fatal to the server — the job still counts as
/// completed.
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
    listener.set_nonblocking(true)?;
    let mut stats = ServeStats::default();
    let mut arrival = 0usize;
    // Every reader sends exactly one message: its job, or `None` for a
    // dropped connection.
    let (tx, rx) = mpsc::channel::<Option<Job>>();
    let mut readers = 0usize;
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(stats);
        }
        // Hand every pending connection to a reader.
        while readers < MAX_READERS {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    arrival += 1;
                    let (tx, read_timeout) = (tx.clone(), opts.read_timeout);
                    let reader = std::thread::Builder::new().spawn(move || {
                        // A reader that panics still reports, freeing its slot.
                        let read = || read_job(stream, arrival, read_timeout);
                        let _ = tx.send(catch_unwind(AssertUnwindSafe(read)).ok().flatten());
                    });
                    // A reader that could not start drops its connection.
                    readers += usize::from(reader.is_ok());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        // The requests decoded by now form one batch.
        let Ok(first) = rx.recv_timeout(Duration::from_millis(2)) else {
            continue;
        };
        let mut batch: Vec<Job> = Vec::new();
        for job in std::iter::once(first).chain(rx.try_iter()) {
            readers -= 1;
            batch.extend(job);
        }
        if batch.is_empty() {
            continue;
        }
        // Same-pencil jobs run back-to-back; arrival order breaks ties
        // deterministically.
        batch.sort_by_key(|j| (j.pencil, j.arrival));
        stats.batches += 1;
        let mut prev_pencil: Option<u64> = None;
        for mut job in batch {
            if prev_pencil == Some(job.pencil) {
                stats.grouped += 1;
            }
            prev_pencil = Some(job.pencil);
            let response = handler(&job.request);
            // A vanished client must not take the server down.
            let _ = write_frame(&mut job.stream, &response.encode());
            stats.jobs += 1;
            if opts.max_jobs.is_some_and(|m| stats.jobs >= m) {
                return Ok(stats);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::submit;
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
            assert!(stats.batches >= 1);
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
                let opts =
                    ServeOptions { max_jobs: Some(1), read_timeout: Duration::from_secs(3) };
                serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap()
            });
            // The real job must finish well inside the silent client's
            // read timeout.
            let resp = submit(&addr, &request(RC, "real"), Duration::from_secs(1));
            assert_eq!(resp.unwrap(), JobResponse::Err("echo:real".into()));
            assert_eq!(server.join().unwrap().jobs, 1);
        });
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
    fn same_pencil_jobs_group_within_a_batch() {
        // Two parseable netlists with different structural hashes plus
        // one unparseable one: grouping is by hash with arrival-order
        // tie-breaking.
        let other = "R1 1 2 1\nC1 2 0 1\nC2 1 0 1\nPORT 1\n.END\n";
        let (ka, kb, kbad) = (group_key(RC), group_key(other), group_key("not a netlist"));
        assert_ne!(ka, kb);
        assert_eq!(kbad, 0);

        // Pre-connect several clients before the server starts its
        // loop, so they all land in one drained batch. The connections
        // open one after another on this thread, which fixes their
        // arrival order; each client thread only sends and waits.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let order = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let jobs: Vec<_> = [("a", RC), ("b", other), ("c", RC), ("d", other)]
                .into_iter()
                .map(|(tag, nl)| {
                    let mut stream = TcpStream::connect(&addr).unwrap();
                    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                    let req = request(nl, tag);
                    scope.spawn(move || {
                        write_frame(&mut stream, &req.encode()).unwrap();
                        JobResponse::decode(&read_frame(&mut stream).unwrap()).unwrap()
                    })
                })
                .collect();
            let handler = |req: &JobRequest| {
                order.lock().unwrap().push(req.method.clone());
                JobResponse::Err("ok".into())
            };
            let opts = ServeOptions { max_jobs: Some(4), ..ServeOptions::default() };
            let stats = serve(&listener, &handler, &opts, &AtomicBool::new(false)).unwrap();
            for j in jobs {
                j.join().unwrap();
            }
            assert_eq!(stats.jobs, 4);
            if stats.batches == 1 {
                // All four drained in one batch: same-pencil jobs must
                // be adjacent and arrival order kept within a group.
                assert_eq!(stats.grouped, 2);
                let got = order.lock().unwrap().clone();
                let expect = if ka < kb { vec!["a", "c", "b", "d"] } else { vec!["b", "d", "a", "c"] };
                assert_eq!(got, expect);
            }
        });
    }
}
