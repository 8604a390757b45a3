//! Minimal libc shim for readiness polling and the data-plane syscalls.
//!
//! The vendored-dependency policy rules out the `libc`/`mio`/`socket2`
//! crates, so the event loop declares the C entry points it needs
//! directly: `poll(2)` for readiness, `writev(2)` for coalesced
//! response flushes, and (Linux-only, with a graceful fallback)
//! `SO_REUSEPORT` listeners for sharded accept. Struct layouts and flag
//! values for the POSIX calls are fixed by POSIX and identical across the
//! platforms we build on (Linux, the BSDs, macOS); `nfds_t` is an
//! unsigned long everywhere we target. This mirrors the CLI's `signal(2)` shim, the
//! only other raw libc use in the workspace.

use std::io;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch (negative → ignored by the kernel).
    pub fd: i32,
    /// Requested events (`POLLIN` | `POLLOUT`).
    pub events: i16,
    /// Returned events, filled by the kernel.
    pub revents: i16,
}

/// Data may be read without blocking.
pub const POLLIN: i16 = 0x001;
/// Writing is possible without blocking.
pub const POLLOUT: i16 = 0x004;
/// Error condition (returned only; invalid in `events`).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (returned only).
pub const POLLHUP: i16 = 0x010;
/// Invalid fd (returned only).
pub const POLLNVAL: i16 = 0x020;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Wait until any fd in `fds` is ready or `timeout_ms` elapses.
///
/// Returns the number of fds with non-zero `revents` (0 on timeout).
/// `EINTR` is reported as `Ok(0)` — callers loop anyway and re-evaluate
/// shutdown flags on every wakeup, which is exactly what a signal should
/// cause.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is a valid, exclusively-borrowed slice of `#[repr(C)]`
    // pollfd structs; the kernel writes only `revents` within it.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    Ok(rc as usize)
}

/// `struct iovec` from `<sys/uio.h>`.
#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

extern "C" {
    fn writev(fd: std::ffi::c_int, iov: *const IoVec, iovcnt: std::ffi::c_int) -> isize;
}

/// Write both slices to `fd` with a single `writev(2)` call.
///
/// The event loop's per-connection output buffer is a `VecDeque<u8>`,
/// whose contents may wrap around the ring — `as_slices()` yields two
/// runs. A vectored write flushes both with one syscall instead of one
/// `write` per run (or, before this existed, one per response). Returns
/// the number of bytes accepted, which may be short; the caller loops.
pub fn writev_fds(fd: i32, a: &[u8], b: &[u8]) -> io::Result<usize> {
    let mut iov =
        [IoVec { base: a.as_ptr(), len: a.len() }, IoVec { base: b.as_ptr(), len: b.len() }];
    let mut cnt = 0usize;
    if !a.is_empty() {
        cnt = 1;
    }
    if !b.is_empty() {
        iov[cnt] = IoVec { base: b.as_ptr(), len: b.len() };
        cnt += 1;
    }
    if cnt == 0 {
        return Ok(0);
    }
    // SAFETY: each iovec points into a live borrowed slice; the kernel
    // only reads `iov[..cnt]` and the pointed-to bytes.
    let rc = unsafe { writev(fd, iov.as_ptr(), cnt as std::ffi::c_int) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc as usize)
}

/// Bind a loopback listener with `SO_REUSEPORT` set (Linux only).
///
/// With `SO_REUSEPORT`, several listeners can bind the same port and
/// the kernel load-balances incoming connections across them — each
/// event-loop shard owns its own accept queue instead of racing its
/// siblings on one shared listener. `port == 0` asks the kernel for an
/// ephemeral port; callers read it back via `local_addr()` and bind the
/// remaining shards to the same number. On non-Linux platforms this
/// returns `Unsupported` and the event loop falls back to the shared
/// listener it used before sharded accept existed.
#[cfg(target_os = "linux")]
pub fn reuseport_listener(port: u16) -> io::Result<std::net::TcpListener> {
    use std::os::fd::FromRawFd;

    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    const SO_REUSEPORT: i32 = 15;

    /// `struct sockaddr_in` from `<netinet/in.h>` (fields big-endian).
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    // SAFETY: plain syscalls on an fd we own; on any failure the fd is
    // closed before returning, and on success `TcpListener::from_raw_fd`
    // takes ownership of a valid listening socket.
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let one: i32 = 1;
        for opt in [SO_REUSEADDR, SO_REUSEPORT] {
            if setsockopt(fd, SOL_SOCKET, opt, &one, 4) < 0 {
                let err = io::Error::last_os_error();
                close(fd);
                return Err(err);
            }
        }
        let sa = SockAddrIn {
            family: AF_INET as u16,
            port: port.to_be(),
            addr: u32::from_ne_bytes([127, 0, 0, 1]),
            zero: [0; 8],
        };
        if bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) < 0 || listen(fd, 1024) < 0 {
            let err = io::Error::last_os_error();
            close(fd);
            return Err(err);
        }
        Ok(std::net::TcpListener::from_raw_fd(fd))
    }
}

/// Non-Linux fallback: `SO_REUSEPORT` numbering differs per platform,
/// so sharded accept is simply reported unsupported.
#[cfg(not(target_os = "linux"))]
pub fn reuseport_listener(_port: u16) -> io::Result<std::net::TcpListener> {
    Err(io::Error::new(io::ErrorKind::Unsupported, "SO_REUSEPORT shim is Linux-only"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poll_times_out_on_quiet_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let mut fds = [PollFd { fd: conn.as_raw_fd(), events: POLLIN, revents: 0 }];
        let n = poll_fds(&mut fds, 20).unwrap();
        assert_eq!(n, 0, "no data was sent");
        assert_eq!(fds[0].revents, 0);
    }

    #[test]
    fn poll_reports_readable_after_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds = [PollFd { fd: conn.as_raw_fd(), events: POLLIN, revents: 0 }];
        let n = poll_fds(&mut fds, 1000).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
    }

    #[test]
    fn writev_flushes_both_slices_in_one_call() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let n = writev_fds(conn.as_raw_fd(), b"hello ", b"world").unwrap();
        assert_eq!(n, 11);
        let mut got = [0u8; 11];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"hello world");
        // Empty halves degrade gracefully.
        assert_eq!(writev_fds(conn.as_raw_fd(), b"", b"!").unwrap(), 1);
        assert_eq!(writev_fds(conn.as_raw_fd(), b"?", b"").unwrap(), 1);
        assert_eq!(writev_fds(conn.as_raw_fd(), b"", b"").unwrap(), 0);
        let mut got = [0u8; 2];
        client.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"!?");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reuseport_listeners_share_a_port() {
        let first = reuseport_listener(0).unwrap();
        let port = first.local_addr().unwrap().port();
        let second = reuseport_listener(port).unwrap();
        assert_eq!(second.local_addr().unwrap().port(), port);
        // Connections land on one of the two queues; accept with a
        // short poll on each to find it.
        let _client = TcpStream::connect(("127.0.0.1", port)).unwrap();
        first.set_nonblocking(true).unwrap();
        second.set_nonblocking(true).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        let mut accepted = false;
        while std::time::Instant::now() < deadline {
            for l in [&first, &second] {
                if l.accept().is_ok() {
                    accepted = true;
                }
            }
            if accepted {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(accepted, "connection reached neither reuseport listener");
    }

    #[test]
    fn poll_reports_writable_and_hup() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (conn, _) = listener.accept().unwrap();
        // A fresh socket with an empty send buffer is writable.
        let mut fds = [PollFd { fd: conn.as_raw_fd(), events: POLLOUT, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
        // After the peer closes, POLLIN fires (read returns EOF).
        drop(client);
        let mut fds = [PollFd { fd: conn.as_raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & (POLLIN | POLLHUP), 0);
    }
}
