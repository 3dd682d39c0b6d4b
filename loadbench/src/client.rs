//! The benchmark's own load generator.
//!
//! One thread per connection, at most two connections.  The open loop
//! sleeps until shortly before each request is due, spins until the due
//! instant (a yield could hand the CPU to a busy server thread for a whole
//! time slice), sends, and harvests replies with nonblocking reads; while
//! replies are outstanding it naps in short steps so a reply is stamped
//! within one nap of its arrival, and tightens its thread's timer slack so
//! a nap lasts about as long as asked.  The closed loop keeps one request
//! outstanding and waits in a blocking read, which wakes on data; a
//! watchdog ends that read by shutting the socket down if the server
//! wedges.  No read ever carries a timeout.

use crate::oracle::{check, Expect, Verdict};
use crate::plan::Planned;
use rp_apps::harness::take_socket_frame;
use rp_net::protocol::{encode_request, Request};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long before a due instant the open loop stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(100);
/// The open loop's nap while replies are outstanding.
const NAP: Duration = Duration::from_micros(20);

/// Sets the calling thread's timer slack to 1 ns.  Linux lets a sleep of a
/// thread with the default 50 µs slack end up to 50 µs late, which made
/// every 20 µs nap last ~75 µs and stamped replies up to that late; with
/// 1 ns a nap lasts ~25 µs.  Only the generator's own threads call this.
fn tighten_timer_slack() {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_PRCTL: usize = 157;
        const PR_SET_TIMERSLACK: usize = 29;
        // SAFETY: prctl(PR_SET_TIMERSLACK, 1) changes only this thread's
        // timer slack and touches no memory of the process.  Its result is
        // ignored: on failure naps are merely longer.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SYS_PRCTL => _,
                in("rdi") PR_SET_TIMERSLACK,
                in("rsi") 1usize,
                in("rdx") 0usize,
                in("r10") 0usize,
                in("r8") 0usize,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
    }
}

/// What became of one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// Answered correctly within its deadline.
    Ok,
    /// Answered with the wrong content.
    Mismatch(String),
    /// Answered with an error, or after its deadline.
    Failed(String),
    /// Never answered.
    Unanswered,
}

/// One request's timeline.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Envelope request id.
    pub id: u64,
    /// The server's class tag (`RequestClass::tag`).
    pub tag: u8,
    /// When the request should have left.
    pub intended: Instant,
    /// When it was handed to the socket.
    pub sent: Instant,
    /// When its reply was read.
    pub received: Option<Instant>,
    /// The outcome.
    pub status: Status,
}

impl Sample {
    /// Intended send → reply receipt, or `deadline` for a request that
    /// did not succeed: a failure counts as missing every latency limit.
    pub fn latency(&self, deadline: Duration) -> Duration {
        match (&self.status, self.received) {
            (Status::Ok, Some(r)) => r - self.intended,
            _ => deadline,
        }
    }

    /// Actual send → reply receipt.
    pub fn rtt(&self) -> Option<Duration> {
        self.received.map(|r| r - self.sent)
    }
}

/// A client connection and its unparsed input.
#[derive(Debug)]
pub struct Conn {
    /// The socket.
    pub stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
}

impl Conn {
    /// Connects to the server.
    ///
    /// # Errors
    ///
    /// Propagates connect errors.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            next_id: 1,
        })
    }

    /// Writes one request frame, retrying while a nonblocking socket's send
    /// buffer is full.
    fn send(&mut self, id: u64, req: &Request) -> std::io::Result<()> {
        let body = encode_request(req);
        let len = u32::try_from(8 + body.len()).expect("request fits in a frame");
        let mut frame = Vec::with_capacity(12 + body.len());
        frame.extend_from_slice(&len.to_be_bytes());
        frame.extend_from_slice(&id.to_be_bytes());
        frame.extend_from_slice(&body);
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One read into the buffer: the receipt instant if data arrived,
    /// `None` if a nonblocking socket had none, `Err` when the connection
    /// is gone.
    fn fill(&mut self) -> Result<Option<Instant>, ()> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(()),
            Ok(n) => {
                let received = Instant::now();
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(Some(received))
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                Ok(None)
            }
            Err(_) => Err(()),
        }
    }

    /// The next complete reply frame in the buffer.
    fn frame(&mut self) -> Result<Option<(u64, Vec<u8>)>, ()> {
        take_socket_frame(&mut self.buf).map_err(|_| ())
    }
}

/// Records one reply against the sample it answers.  A reply with an
/// unknown id is a mismatch of the protocol: it is ignored here and shows
/// as an unanswered request plus a counter mismatch.
fn settle(
    sample: &mut Sample,
    expect: &Expect,
    body: &[u8],
    received: Instant,
    deadline: Duration,
) {
    sample.received = Some(received);
    sample.status = match check(expect, body) {
        Verdict::Ok if received - sample.intended > deadline => {
            Status::Failed("answered after its deadline".to_string())
        }
        Verdict::Ok => Status::Ok,
        Verdict::Mismatch(m) => Status::Mismatch(m),
        Verdict::Error(e) => Status::Failed(e),
    };
}

/// Runs an open-loop plan starting at `t0`; returns after the last reply,
/// or `deadline` after the last request was due.
///
/// # Errors
///
/// Propagates socket errors other than a closed connection (which leaves
/// the remaining requests unanswered).
pub fn run_open(
    conn: &mut Conn,
    plan: &[Planned],
    t0: Instant,
    deadline: Duration,
) -> std::io::Result<Vec<Sample>> {
    run_shared(conn, plan, t0, deadline, None).map(|(app, _)| app)
}

/// A closed loop riding on an open loop's connection and thread: one
/// submission outstanding at a time, the next sent as soon as the last is
/// answered.
pub struct Riding<'a> {
    /// The submissions and their expected replies.
    pub draws: &'a mut dyn Iterator<Item = (Request, Expect)>,
    /// No submission is sent from this instant on.
    pub stop: Instant,
    /// A submission unanswered this long after it was sent has failed.
    pub deadline: Duration,
}

/// Runs an open-loop plan starting at `t0` and, with `riding`, a closed
/// loop on the same connection; returns the open loop's and the closed
/// loop's samples after the last reply, or once both loops are past their
/// deadlines.
///
/// # Errors
///
/// Propagates socket errors other than a closed connection (which leaves
/// the remaining requests unanswered).
pub fn run_shared(
    conn: &mut Conn,
    plan: &[Planned],
    t0: Instant,
    deadline: Duration,
    mut riding: Option<Riding<'_>>,
) -> std::io::Result<(Vec<Sample>, Vec<Sample>)> {
    tighten_timer_slack();
    conn.stream.set_nonblocking(true)?;
    let base = conn.next_id;
    conn.next_id += plan.len() as u64;
    let mut samples: Vec<Sample> = Vec::with_capacity(plan.len());
    let mut give_up = t0 + Duration::from_nanos(plan.last().map_or(0, |p| p.due_ns)) + deadline;
    let closed_deadline = riding.as_ref().map_or(Duration::ZERO, |r| r.deadline);
    if let Some(r) = &riding {
        give_up = give_up.max(r.stop + r.deadline);
    }
    let mut closed: Vec<Sample> = Vec::new();
    // The expected reply of the closed loop's outstanding submission.
    let mut outstanding: Option<Expect> = None;
    let mut pending = 0usize;
    'run: loop {
        let now = Instant::now();
        if let Some(p) = plan.get(samples.len()) {
            let intended = t0 + Duration::from_nanos(p.due_ns);
            if intended <= now {
                let id = base + samples.len() as u64;
                let sent = Instant::now();
                conn.send(id, &p.req)?;
                samples.push(Sample {
                    id,
                    tag: p.req.class().tag(),
                    intended,
                    sent,
                    received: None,
                    status: Status::Unanswered,
                });
                pending += 1;
                continue;
            }
        }
        if outstanding.is_none() {
            if let Some(r) = riding.as_mut().filter(|r| now < r.stop) {
                let Some((req, expect)) = r.draws.next() else {
                    riding = None;
                    continue;
                };
                let id = conn.next_id;
                conn.next_id += 1;
                let sent = Instant::now();
                conn.send(id, &req)?;
                closed.push(Sample {
                    id,
                    tag: req.class().tag(),
                    intended: sent,
                    sent,
                    received: None,
                    status: Status::Unanswered,
                });
                outstanding = Some(expect);
                continue;
            }
        }
        let busy = pending > 0 || outstanding.is_some();
        if busy {
            let Ok(received) = conn.fill() else { break };
            if let Some(received) = received {
                while let Ok(Some((id, body))) = conn.frame() {
                    if closed.last().is_some_and(|s| s.id == id) {
                        if let (Some(expect), Some(s)) = (outstanding.take(), closed.last_mut()) {
                            settle(s, &expect, &body, received, closed_deadline);
                        }
                        continue;
                    }
                    let Some(i) = id.checked_sub(base).map(|i| i as usize) else {
                        continue;
                    };
                    if let Some(s) = samples.get_mut(i) {
                        if s.status == Status::Unanswered {
                            settle(s, &plan[i].expect, &body, received, deadline);
                            if let Status::Mismatch(m) = &mut s.status {
                                *m = format!("{:?}: {m}", plan[i].kind);
                            }
                            pending -= 1;
                        }
                    }
                }
                continue 'run;
            }
        }
        let now = Instant::now();
        match plan.get(samples.len()) {
            Some(p) => {
                let wait = (t0 + Duration::from_nanos(p.due_ns)).saturating_duration_since(now);
                if wait <= SPIN {
                    std::hint::spin_loop();
                } else if busy {
                    std::thread::sleep(NAP.min(wait - SPIN));
                } else {
                    std::thread::sleep(wait - SPIN);
                }
            }
            None if !busy || now >= give_up => break,
            None => std::thread::sleep(NAP),
        }
    }
    Ok((samples, closed))
}

/// Runs a closed loop with one request outstanding, drawing submissions
/// from `draws`, until `keep_going(requests_sent)` says stop.
///
/// # Errors
///
/// Propagates socket errors other than a closed connection.
pub fn run_closed(
    conn: &mut Conn,
    draws: &mut impl Iterator<Item = (Request, Expect)>,
    mut keep_going: impl FnMut(usize) -> bool,
    deadline: Duration,
) -> std::io::Result<Vec<Sample>> {
    conn.stream.set_nonblocking(false)?;
    let mut samples = Vec::new();
    while keep_going(samples.len()) {
        let Some((req, expect)) = draws.next() else {
            break;
        };
        let id = conn.next_id;
        conn.next_id += 1;
        let sent = Instant::now();
        conn.send(id, &req)?;
        let mut sample = Sample {
            id,
            tag: req.class().tag(),
            intended: sent,
            sent,
            received: None,
            status: Status::Unanswered,
        };
        let mut received = None;
        let answered = loop {
            match conn.frame() {
                Ok(Some((got, body))) if got == id => {
                    let received = received.unwrap_or_else(Instant::now);
                    settle(&mut sample, &expect, &body, received, deadline);
                    break true;
                }
                Ok(Some(_)) => {}
                Ok(None) => match conn.fill() {
                    Ok(r) => received = r.or(received),
                    Err(()) => break false,
                },
                Err(()) => break false,
            }
        };
        samples.push(sample);
        if !answered {
            break;
        }
    }
    Ok(samples)
}
