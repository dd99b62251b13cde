//! The submission client: one request frame out, one response frame
//! back, the whole round trip bounded by a single [`Deadline`].

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::deadline::{timed_out, Bounded, Deadline};
use crate::wire::{read_frame, write_frame, JobRequest, JobResponse, WireError};

/// Submits one job to a running server and waits for its response.
///
/// `timeout` bounds the *entire* round trip — address resolution,
/// connect, request write, reduction, and response read share the one
/// deadline, which arms every socket call with the time left.
/// Server-side numerical failures come back as [`JobResponse::Err`];
/// everything else (unreachable server, malformed frames, deadline) is
/// a [`WireError`], which the CLI maps to exit code 5.
///
/// # Errors
///
/// [`WireError::Io`] on socket failure or timeout, [`WireError::Protocol`]
/// on a malformed response.
pub fn submit(addr: &str, req: &JobRequest, timeout: Duration) -> Result<JobResponse, WireError> {
    let deadline = Deadline::new(timeout);
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| WireError::Protocol(format!("`{addr}` resolves to no address")))?;
    let remaining = deadline.remaining().ok_or_else(timed_out)?;
    let stream = TcpStream::connect_timeout(&sockaddr, remaining)?;
    stream.set_nodelay(true)?;
    let mut bounded = Bounded { stream: &stream, deadline };
    write_frame(&mut bounded, &req.encode())?;
    let payload = read_frame(&mut bounded)?;
    JobResponse::decode(&payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{ErrorKind, Write};
    use std::net::TcpListener;
    use std::sync::mpsc::{self, RecvTimeoutError};

    #[test]
    fn a_trickling_server_cannot_outlast_the_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // The fake server announces a 1 KiB frame, then sends one byte
        // every 100 ms until the client hangs up or the test is done.
        let (done, test_done) = mpsc::channel::<()>();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = read_frame(&mut stream);
            let _ = stream.write_all(&1024u32.to_le_bytes());
            while test_done.recv_timeout(Duration::from_millis(100))
                == Err(RecvTimeoutError::Timeout)
            {
                if stream.write_all(b"x").is_err() {
                    break;
                }
            }
        });
        let req = JobRequest {
            method: "pmtbr".into(),
            netlist: "R1 1 0 1\nC1 1 0 1\nPORT 1\n.END\n".into(),
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
        };
        // The blocking side runs on its own thread, so a submit that
        // outlasts its deadline fails the wait below instead of hanging.
        let (result, submitted) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let _ = result.send(submit(&addr, &req, Duration::from_secs(1)));
        });
        let outcome = submitted.recv_timeout(Duration::from_secs(2));
        drop(done);
        match outcome {
            Ok(Err(WireError::Io(e))) => assert_eq!(e.kind(), ErrorKind::TimedOut),
            other => panic!("expected a timeout within 2 s, got {other:?}"),
        }
        client.join().unwrap();
        server.join().unwrap();
    }
}
