//! Readiness wait for the deployable core loops.
//!
//! `routeserver` and `ris` are single-threaded poll-driven loops. This
//! module is the one place they block: [`wait`] parks the thread in
//! `poll(2)` until a session socket has bytes (or, for a transport with
//! a transmit backlog, room), another thread pokes the [`Waker`], or the
//! tick runs out — whichever comes first. Timer work keeps running off
//! the tick; frames no longer wait for it.
//!
//! `poll(2)` is declared by hand (std already links libc, and the
//! workspace builds offline); its call is the only `unsafe` in the
//! workspace. Off unix std has no readiness call, no transport reports
//! an fd, and [`wait`] sleeps the tick: the loops stay correct,
//! tick-driven.

use std::time::Duration;

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;

/// One descriptor's readiness interest — `struct pollfd`, field for
/// field. Read interest is always on; write interest is for a transport
/// holding bytes the kernel has not accepted yet.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Interest in raw descriptor `fd` becoming readable, and — when
    /// `want_write` — writable.
    pub fn new(fd: i32, want_write: bool) -> PollFd {
        PollFd {
            fd,
            events: if want_write { POLLIN | POLLOUT } else { POLLIN },
            revents: 0,
        }
    }

    /// Whether this entry also asks for writability.
    pub fn wants_write(&self) -> bool {
        self.events & POLLOUT != 0
    }
}

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the BSDs.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::ffi::c_ulong;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
type Nfds = std::ffi::c_uint;

#[cfg(unix)]
extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

/// Block until an entry of `fds` is ready (data, room, hang-up or error
/// — all mean "go look") or `timeout` has elapsed. Returns how many
/// entries are ready; 0 means the timeout elapsed. A signal (`EINTR`)
/// resumes the wait for the time that is left, and any other failure
/// sleeps it out, so a caller looping on `wait` never spins.
#[cfg(unix)]
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> usize {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        // Round up: poll(2) counts whole milliseconds, and returning
        // before the deadline would turn the caller's tick into a spin.
        let ms = i32::try_from(left.as_nanos().div_ceil(1_000_000)).unwrap_or(i32::MAX);
        // SAFETY: `fds` is an exclusively borrowed, initialised slice of
        // `#[repr(C)]` structs laid out exactly like `struct pollfd`
        // (int, short, short), and `fds.len()` is the entry count the
        // kernel may read and write: it touches nothing past the slice
        // and keeps no pointer after returning. An entry naming a closed
        // descriptor is reported in `revents` (POLLNVAL), not used.
        #[allow(unsafe_code)]
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
        if let Ok(ready) = usize::try_from(rc) {
            return ready;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            std::thread::sleep(left);
            return 0;
        }
    }
}

/// Without `poll(2)`: sleep the tick.
#[cfg(not(unix))]
pub fn wait(_fds: &mut [PollFd], timeout: Duration) -> usize {
    std::thread::sleep(timeout);
    0
}

/// Lets other threads interrupt a [`wait`]: a non-blocking socket pair
/// whose read end sits in the waiter's fd set. Share it behind an `Arc`;
/// every method takes `&self`. Off unix it is inert — the tick bounds
/// the delay instead.
#[derive(Debug)]
pub struct Waker {
    #[cfg(unix)]
    pair: (
        std::os::unix::net::UnixStream,
        std::os::unix::net::UnixStream,
    ),
}

#[cfg(unix)]
impl Waker {
    /// A fresh waker with nothing pending.
    pub fn new() -> std::io::Result<Waker> {
        let pair = std::os::unix::net::UnixStream::pair()?;
        pair.0.set_nonblocking(true)?;
        pair.1.set_nonblocking(true)?;
        Ok(Waker { pair })
    }

    /// Make the waiter's current (or next) [`wait`] return. Any number
    /// of pokes before a [`Waker::drain`] collapse into one readable
    /// event; a full socket buffer already guarantees it.
    pub fn wake(&self) {
        let _ = std::io::Write::write(&mut &self.pair.0, &[1]);
    }

    /// The entry the waiter adds to its fd set.
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(std::os::unix::io::AsRawFd::as_raw_fd(&self.pair.1), false)
    }

    /// Consume every pending poke, so the next [`wait`] blocks again.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while matches!(std::io::Read::read(&mut &self.pair.1, &mut sink), Ok(n) if n > 0) {}
    }
}

#[cfg(not(unix))]
impl Waker {
    /// An inert waker.
    pub fn new() -> std::io::Result<Waker> {
        Ok(Waker {})
    }

    /// No-op.
    pub fn wake(&self) {}

    /// An entry that names no descriptor ([`wait`] ignores it here).
    pub fn poll_fd(&self) -> PollFd {
        PollFd::new(-1, false)
    }

    /// No-op.
    pub fn drain(&self) {}
}
