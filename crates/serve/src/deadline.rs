//! A monotonic deadline, and a socket bounded by one.
//!
//! This module is the serve crate's single sanctioned clock read. The
//! workspace's determinism rules (numlint DET02) ban `Instant` in
//! library code because timing that leaks into *results* breaks the
//! bit-identical-at-any-thread-count contract — but a client-side
//! timeout never touches results: it only decides whether to keep
//! waiting on a socket. Like `obs::WallClock`, the type is carved out
//! by name so every other use of `Instant` in this crate still trips
//! the lint.

// `Instant` is deliberately not imported at module scope: the numlint
// carve-out is structural (tokens inside `Deadline` items), so the
// clock type is named fully qualified inside those items only.
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A fixed point in monotonic time by which a socket exchange must
/// finish.
///
/// Socket operations derive their connect/read/write timeouts from
/// [`Deadline::remaining`], so one `--timeout-ms` bounds the whole
/// round trip, and one I/O timeout a whole frame, rather than each
/// syscall independently.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    end: std::time::Instant,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn new(timeout: Duration) -> Self {
        Deadline { end: std::time::Instant::now() + timeout }
    }

    /// Time left, or `None` once the deadline has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let now = std::time::Instant::now();
        if now >= self.end {
            None
        } else {
            Some(self.end - now)
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.remaining().is_none()
    }
}

/// The error of a socket exchange whose deadline has passed.
pub(crate) fn timed_out() -> io::Error {
    io::Error::new(ErrorKind::TimedOut, "deadline passed")
}

/// A socket whose every read and write finishes by one [`Deadline`].
///
/// Each syscall is armed with the time left, so a peer that sends or
/// drains a few bytes per call cannot stretch a frame past the
/// deadline. A call made after it, or cut short by the armed socket
/// timeout, fails with [`ErrorKind::TimedOut`].
pub(crate) struct Bounded<'a> {
    pub(crate) stream: &'a TcpStream,
    pub(crate) deadline: Deadline,
}

impl Bounded<'_> {
    /// Runs one socket call with the timeout `set` arms set to the time
    /// left. The armed timeout surfaces as `WouldBlock`: the deadline
    /// has passed.
    fn call<T>(
        &self,
        set: fn(&TcpStream, Option<Duration>) -> io::Result<()>,
        op: impl FnOnce(&TcpStream) -> io::Result<T>,
    ) -> io::Result<T> {
        set(self.stream, Some(self.deadline.remaining().ok_or_else(timed_out)?))?;
        op(self.stream).map_err(|e| if e.kind() == ErrorKind::WouldBlock { timed_out() } else { e })
    }
}

impl Read for Bounded<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.call(TcpStream::set_read_timeout, |mut s| s.read(buf))
    }
}

impl Write for Bounded<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.call(TcpStream::set_write_timeout, |mut s| s.write(buf))
    }

    fn flush(&mut self) -> io::Result<()> {
        let mut stream = self.stream;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_deadline_has_time_remaining() {
        let d = Deadline::new(Duration::from_secs(3600));
        assert!(!d.expired());
        let left = d.remaining().expect("not expired");
        assert!(left <= Duration::from_secs(3600));
        assert!(left > Duration::from_secs(3500));
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let d = Deadline::new(Duration::ZERO);
        assert!(d.expired());
        assert!(d.remaining().is_none());
    }
}
