//! How the load generator waits: until a socket is ready or the next
//! request falls due, whichever comes first.
//!
//! `poll(2)` takes whole milliseconds and `thread::sleep` overshoots by the
//! default 50 µs timer slack, both coarse against the 200 µs mean gap
//! between arrivals at 5k req/s. On Linux the generator blocks in `ppoll(2)` with a
//! nanosecond timeout and sets its thread's timer slack to 1 ns, so it
//! neither burns a core the server needs nor wakes late. Elsewhere it
//! yields the CPU and polls again.

use std::time::Duration;
use wdt_serve::shim::PollFd;

#[cfg(target_os = "linux")]
mod sys {
    use std::ffi::{c_int, c_long, c_ulong, c_void};
    use wdt_serve::shim::PollFd;

    /// `struct timespec`: `time_t` and `long` are both 64-bit on the
    /// 64-bit Linux targets this builds for.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: c_long,
    }

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        pub fn prctl(option: c_int, ...) -> c_int;
    }

    pub const PR_SET_TIMERSLACK: c_int = 29;
}

/// Let this thread's timed waits wake on time (1 ns timer slack).
pub fn precise_timers() {
    #[cfg(target_os = "linux")]
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; a failure leaves the
    // default slack, which costs precision, not correctness.
    unsafe {
        sys::prctl(sys::PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

/// Block until one of `fds` is ready or `timeout` passes.
pub fn wait(fds: &mut [PollFd], timeout: Duration) -> std::io::Result<()> {
    #[cfg(target_os = "linux")]
    {
        let ts = sys::Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
        };
        // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
        // pollfd structs of the given length, of which the kernel writes
        // only `revents`; `ts` lives across the call; a null signal mask
        // leaves the mask unchanged.
        let rc = unsafe {
            sys::ppoll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, &ts, std::ptr::null())
        };
        if rc < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
        Ok(())
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (fds, timeout);
        std::thread::yield_now();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wait_times_out_close_to_the_deadline() {
        precise_timers();
        let t0 = Instant::now();
        for _ in 0..20 {
            wait(&mut [], Duration::from_micros(200)).unwrap();
        }
        let each = t0.elapsed() / 20;
        assert!(each >= Duration::from_micros(200), "{each:?}");
        assert!(each < Duration::from_millis(5), "{each:?}");
    }

    #[test]
    fn wait_returns_when_a_socket_is_readable() {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        let mut fds =
            [PollFd { fd: server.as_raw_fd(), events: wdt_serve::shim::POLLIN, revents: 0 }];
        let t0 = Instant::now();
        wait(&mut fds, Duration::from_secs(5)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_ne!(fds[0].revents & wdt_serve::shim::POLLIN, 0);
    }
}
