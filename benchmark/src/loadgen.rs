//! The benchmark's HTTP load generator: one thread, nonblocking
//! keep-alive connections, responses matched in order per connection.
//!
//! `wdt_serve::run_loadgen` times each request from its send and keeps one
//! request in flight per connection, so a stalled server simply receives
//! fewer requests and the stall never shows in its latencies. Here the
//! open loop follows a seeded Poisson schedule regardless of responses,
//! and every latency is taken from the request's *due* time. The
//! generator reports its own lateness (send time − due time) so a reader
//! can tell whether the latencies are valid. Between events it blocks
//! until a socket is ready or the next request falls due (see [`wait`]).

use crate::reference::unit;
use crate::wait;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};
use wdt_serve::shim::{PollFd, POLLIN, POLLOUT};

/// Arrival offsets (ns from the phase start) of a Poisson process with
/// `rate` arrivals per second over `duration_s`, drawn from `seed`.
pub fn poisson_schedule(seed: u64, rate: f64, duration_s: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * duration_s * 1.05) as usize + 16);
    let mut t = 0.0;
    for i in 0.. {
        t += -(1.0 - unit(seed, i)).ln() / rate;
        if t >= duration_s {
            break;
        }
        out.push((t * 1e9) as u64);
    }
    out
}

/// One keep-alive connection and its in-order response matching.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    out_pos: usize,
    inbuf: Vec<u8>,
    in_pos: usize,
    /// Request numbers awaiting a response, oldest first.
    pending: VecDeque<usize>,
}

impl Conn {
    /// Connect to `addr` in nonblocking mode.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            out_pos: 0,
            inbuf: Vec::new(),
            in_pos: 0,
            pending: VecDeque::new(),
        })
    }

    /// What to wait for: responses, and room to write if output is queued.
    fn pollfd(&self) -> PollFd {
        let events = if self.out_pos < self.out.len() { POLLIN | POLLOUT } else { POLLIN };
        PollFd { fd: self.stream.as_raw_fd(), events, revents: 0 }
    }

    fn queue(&mut self, id: usize, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
        self.pending.push_back(id);
    }

    /// Write as much buffered output as the socket takes.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    /// Read what has arrived and hand each complete response's request
    /// number, status, and arrival time (taken after the read) to
    /// `on_response`.
    fn receive(&mut self, mut on_response: impl FnMut(usize, u16, Instant)) -> std::io::Result<()> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.inbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let at = Instant::now();
        while let Some((status, len)) = parse_response(&self.inbuf[self.in_pos..])? {
            self.in_pos += len;
            let id = self.pending.pop_front().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidData, "response without a request")
            })?;
            on_response(id, status, at);
        }
        if self.in_pos == self.inbuf.len() {
            self.inbuf.clear();
            self.in_pos = 0;
        }
        Ok(())
    }
}

/// Parse one HTTP/1.1 response off the front of `buf`: `(status, wire
/// length)`, or `None` until it has fully arrived.
fn parse_response(buf: &[u8]) -> std::io::Result<Option<(u16, usize)>> {
    let bad = |m: &str| std::io::Error::new(ErrorKind::InvalidData, m.to_string());
    let Some(head) = buf.windows(4).position(|w| w == b"\r\n\r\n") else { return Ok(None) };
    let text = std::str::from_utf8(&buf[..head]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = text.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let len = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse::<usize>().ok())
        .ok_or_else(|| bad("response without Content-Length"))?;
    let total = head + 4 + len;
    Ok((buf.len() >= total).then_some((status, total)))
}

/// What an open-loop phase observed.
#[derive(Debug)]
pub struct OpenResult {
    /// Per request: response time − due time, µs (NaN if never answered).
    pub latency_us: Vec<f64>,
    /// Per request: send time − due time, µs.
    pub late_us: Vec<f64>,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered with another status.
    pub not_ok: u64,
    /// Requests still unanswered when the phase gave up on them.
    pub missing: u64,
}

/// Send request `i` (bytes from `request(i)`) at `start + schedule[i]`
/// on connection `i % conns.len()`, whatever the responses are doing,
/// and time each response from the request's due time. Waits up to
/// `grace` after the last send for the remaining responses.
pub fn open_loop<'a>(
    conns: &mut [Conn],
    start: Instant,
    schedule: &[u64],
    request: impl Fn(usize) -> &'a [u8],
    grace: Duration,
) -> std::io::Result<OpenResult> {
    let n = schedule.len();
    let mut r = OpenResult {
        latency_us: vec![f64::NAN; n],
        late_us: vec![0.0; n],
        ok: 0,
        not_ok: 0,
        missing: 0,
    };
    let give_up = schedule.last().copied().unwrap_or(0) + grace.as_nanos() as u64;
    let mut next = 0;
    let mut fds = Vec::with_capacity(conns.len());
    wait::precise_timers();
    loop {
        let now = start.elapsed().as_nanos() as u64;
        while next < n && schedule[next] <= now {
            let c = next % conns.len();
            conns[c].queue(next, request(next));
            r.late_us[next] = (now - schedule[next]) as f64 * 1e-3;
            next += 1;
        }
        let mut outstanding = false;
        for conn in conns.iter_mut() {
            conn.flush()?;
            conn.receive(|id, status, at| {
                let at = at.duration_since(start).as_nanos() as u64;
                r.latency_us[id] = (at - schedule[id]) as f64 * 1e-3;
                if status == 200 {
                    r.ok += 1;
                } else {
                    r.not_ok += 1;
                }
            })?;
            outstanding |= !conn.pending.is_empty();
        }
        if next == n && !outstanding {
            break;
        }
        let now = start.elapsed().as_nanos() as u64;
        if now > give_up {
            r.missing = conns.iter().map(|c| c.pending.len() as u64).sum();
            break;
        }
        let timeout = schedule
            .get(next)
            .map_or(Duration::from_millis(1), |&due| Duration::from_nanos(due.saturating_sub(now)));
        if !timeout.is_zero() {
            fds.clear();
            fds.extend(conns.iter().map(Conn::pollfd));
            wait::wait(&mut fds, timeout)?;
        }
    }
    Ok(r)
}

/// What a closed-loop phase observed.
#[derive(Debug)]
pub struct ClosedResult {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered 200.
    pub ok: u64,
    /// Requests answered with another status.
    pub not_ok: u64,
    /// Requests unanswered when the phase gave up on them.
    pub missing: u64,
}

/// Keep `depth` requests in flight on every connection for `duration`,
/// sending request numbers `first, first + 1, …`; then drain.
pub fn closed_loop<'a>(
    conns: &mut [Conn],
    depth: usize,
    duration: Duration,
    first: usize,
    request: impl Fn(usize) -> &'a [u8],
) -> std::io::Result<ClosedResult> {
    let start = Instant::now();
    let mut next = first;
    let mut fds = Vec::with_capacity(conns.len());
    for conn in conns.iter_mut() {
        for _ in 0..depth {
            conn.queue(next, request(next));
            next += 1;
        }
    }
    let (mut ok, mut not_ok, mut missing) = (0u64, 0u64, 0u64);
    loop {
        let sending = start.elapsed() < duration;
        let mut outstanding = false;
        for conn in conns.iter_mut() {
            conn.flush()?;
            let mut answered = 0;
            conn.receive(|_, status, _| {
                answered += 1;
                if status == 200 {
                    ok += 1;
                } else {
                    not_ok += 1;
                }
            })?;
            if sending {
                for _ in 0..answered {
                    conn.queue(next, request(next));
                    next += 1;
                }
            }
            outstanding |= !conn.pending.is_empty();
        }
        if !sending && !outstanding {
            break;
        }
        if start.elapsed() > duration + Duration::from_secs(10) {
            missing = conns.iter().map(|c| c.pending.len() as u64).sum();
            break;
        }
        fds.clear();
        fds.extend(conns.iter().map(Conn::pollfd));
        wait::wait(&mut fds, Duration::from_millis(10))?;
    }
    Ok(ClosedResult { sent: (next - first) as u64, ok, not_ok, missing })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::Arc;

    #[test]
    fn schedule_is_reproducible_per_seed_at_the_requested_rate() {
        let a = poisson_schedule(7, 20_000.0, 2.0);
        assert_eq!(a, poisson_schedule(7, 20_000.0, 2.0));
        assert_ne!(a, poisson_schedule(8, 20_000.0, 2.0));
        let rate = a.len() as f64 / 2.0;
        assert!((rate / 20_000.0 - 1.0).abs() < 0.02, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential gaps: standard deviation equals the mean.
        assert!((var.sqrt() / mean - 1.0).abs() < 0.05, "cv {}", var.sqrt() / mean);
    }

    #[test]
    fn responses_parse_in_pieces() {
        let resp = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(parse_response(&resp[..20]).unwrap(), None);
        assert_eq!(parse_response(&resp[..resp.len() - 1]).unwrap(), None);
        assert_eq!(parse_response(resp).unwrap(), Some((503, resp.len())));
        assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }

    /// An HTTP server that answers every request with `200 {}` but freezes
    /// from `stall_at` after its first request for `stall`.
    fn stalling_server(
        stall_at: Duration,
        stall: Duration,
    ) -> (SocketAddr, Arc<std::sync::Mutex<Option<Instant>>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let first = Arc::new(std::sync::Mutex::new(None::<Instant>));
        let first2 = first.clone();
        std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let first = first2.clone();
                std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        let n = match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => n,
                        };
                        buf.extend_from_slice(&chunk[..n]);
                        let mut replies = Vec::new();
                        while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            buf.drain(..end + 4);
                            replies.extend_from_slice(
                                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}",
                            );
                        }
                        let t0 = *first.lock().unwrap().get_or_insert_with(Instant::now);
                        let (from, to) = (t0 + stall_at, t0 + stall_at + stall);
                        let now = Instant::now();
                        if now >= from && now < to {
                            std::thread::sleep(to - now);
                        }
                        if stream.write_all(&replies).is_err() {
                            return;
                        }
                    }
                });
            }
        });
        (addr, first)
    }

    #[test]
    fn a_stall_delays_every_request_due_during_it() {
        let stall = Duration::from_millis(10);
        let (addr, first) = stalling_server(Duration::from_millis(40), stall);
        let mut conns = vec![Conn::connect(addr).unwrap(), Conn::connect(addr).unwrap()];
        let schedule = poisson_schedule(3, 5_000.0, 0.12);
        let req = b"GET / HTTP/1.1\r\nHost: x\r\n\r\n";
        let start = Instant::now();
        let r = open_loop(&mut conns, start, &schedule, |_| req, Duration::from_secs(2)).unwrap();
        assert_eq!(r.ok as usize, schedule.len());
        assert_eq!(r.missing, 0);
        let t0 = first.lock().unwrap().expect("server saw a request");
        let stall_from = (t0 + Duration::from_millis(40)).duration_since(start).as_nanos() as u64;
        let stall_to = stall_from + stall.as_nanos() as u64;
        let during: Vec<usize> = (0..schedule.len())
            .filter(|&i| schedule[i] >= stall_from && schedule[i] < stall_to)
            .collect();
        assert!(during.len() > 20, "only {} requests fell in the stall", during.len());
        for &i in &during {
            // Sent on time despite the stall…
            assert!(r.late_us[i] < 1_000.0, "request {i} sent {} us late", r.late_us[i]);
            // …and charged every microsecond of the stall left after it
            // was due.
            let owed_us = (stall_to - schedule[i]) as f64 * 1e-3;
            assert!(r.latency_us[i] >= owed_us, "request {i}: {} < {owed_us}", r.latency_us[i]);
        }
        let worst = during.iter().map(|&i| r.latency_us[i]).fold(0.0, f64::max);
        assert!(worst >= 0.9 * stall.as_secs_f64() * 1e6, "worst {worst} us");
    }
}
