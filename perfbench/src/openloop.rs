//! An open-loop load generator over real loopback TCP.
//!
//! One generator thread (the caller) sends length-prefixed request
//! frames on a fixed schedule over two connections, whether or not
//! earlier replies have arrived; one reader thread per connection takes
//! the replies in order, checks each against its reference, and times it
//! from the moment the request was *due*, so a stall delays every
//! request queued behind it in the figures as it does for users.
//!
//! The generator waits for each due time by yielding in a loop rather
//! than sleeping: a sleeping process lets its vCPU halt, and waking a
//! halted vCPU on a shared host costs up to milliseconds. Each yield
//! hands the CPU to any server thread that is ready. While it waits it
//! runs the host-speed slices ([`crate::calib`]), when one is due and the
//! next request is not.

use crate::calib::Meter;
use crate::stats::{due_ns, Lateness};
use gridrm_serve::read_frame;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Connections the generator spreads its requests over.
pub const CONNECTIONS: usize = 2;

/// A reply's latency in ns, or `None` when the request failed, was shed
/// or was answered wrongly.
type Done = Option<u64>;

/// Decides whether reply bytes answer request `idx` correctly.
pub type Checker = Arc<dyn Fn(usize, &[u8]) -> bool + Send + Sync>;

/// What one fixed-rate phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: u64,
    /// Latencies in ns, in completion order; failures read `u64::MAX`,
    /// so they miss any latency limit.
    pub latencies_ns: Vec<u64>,
    /// Requests that failed, were shed, answered wrongly, or never
    /// answered before the drain deadline.
    pub failed: u64,
    /// Generator lateness.
    pub lateness: Lateness,
    /// Wall time from the first due time to the last reply.
    pub wall: Duration,
    /// Replies still outstanding when the drain grace ended.
    pub backlog: u64,
    /// The host's speed over the phase.
    pub speed: f64,
}

/// Time the next request must be away for a host-speed slice to run
/// before it.
const SLICE_ROOM: Duration = Duration::from_micros(250);

/// The generator: two connections, two reader threads.
pub struct OpenLoop {
    writers: Vec<TcpStream>,
    pending: Vec<Sender<(Instant, usize)>>,
    done: Receiver<Done>,
    readers: Vec<JoinHandle<()>>,
    /// Replies a previous phase gave up waiting for; they are drained
    /// before the next phase starts so they are not counted twice.
    stragglers: u64,
    meter: Meter,
}

impl OpenLoop {
    /// Connect to `addr`; `check` validates each reply.
    pub fn connect(addr: SocketAddr, check: Checker) -> std::io::Result<OpenLoop> {
        let (done_tx, done) = channel::<Done>();
        let mut writers = Vec::new();
        let mut pending = Vec::new();
        let mut readers = Vec::new();
        for c in 0..CONNECTIONS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            let mut read_half = stream.try_clone()?;
            let (tx, rx) = channel::<(Instant, usize)>();
            let done_tx = done_tx.clone();
            let check = check.clone();
            let reader = std::thread::Builder::new()
                .name(format!("perfbench-reader-{c}"))
                .spawn(move || {
                    while let Ok(Some(reply)) = read_frame(&mut read_half) {
                        let Ok((due, idx)) = rx.recv() else { break };
                        let latency = due.elapsed().as_nanos() as u64;
                        let ok = check(idx, &reply);
                        if done_tx.send(ok.then_some(latency)).is_err() {
                            break;
                        }
                    }
                })?;
            writers.push(stream);
            pending.push(tx);
            readers.push(reader);
        }
        Ok(OpenLoop {
            writers,
            pending,
            done,
            readers,
            stragglers: 0,
            meter: Meter::new(),
        })
    }

    /// Send `count` requests at `rate` per second, taking request
    /// indices from `next`, then wait up to `grace` for the last replies.
    /// `framed[i]` is request `i` with its length prefix.
    pub fn phase(
        &mut self,
        framed: &[Vec<u8>],
        next: &mut impl FnMut() -> usize,
        rate: u64,
        count: u64,
        grace: Duration,
    ) -> Phase {
        while self.stragglers > 0 && self.done.recv_timeout(grace).is_ok() {
            self.stragglers -= 1;
        }
        let mut phase = Phase::default();
        let start = Instant::now() + Duration::from_millis(1);
        for k in 0..count {
            let due = start + Duration::from_nanos(due_ns(k, rate));
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if due - now >= SLICE_ROOM {
                    self.meter.tick();
                }
                std::thread::yield_now();
            }
            phase
                .lateness
                .record(Instant::now().saturating_duration_since(due).as_nanos() as u64);
            let idx = next();
            let conn = (k as usize) % CONNECTIONS;
            phase.sent += 1;
            if self.pending[conn].send((due, idx)).is_err()
                || self.writers[conn].write_all(&framed[idx]).is_err()
            {
                phase.failed += 1;
                phase.latencies_ns.push(u64::MAX);
            }
        }
        let expected = phase.sent - phase.failed;
        let last_due = start + Duration::from_nanos(due_ns(count.saturating_sub(1), rate));
        let deadline = last_due.max(Instant::now()) + grace;
        let mut received = 0u64;
        while received < expected {
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.done.recv_timeout(wait) {
                Ok(Some(latency)) => phase.latencies_ns.push(latency),
                Ok(None) => {
                    phase.failed += 1;
                    phase.latencies_ns.push(u64::MAX);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
            received += 1;
        }
        phase.wall = start.elapsed();
        phase.speed = self.meter.take().speed;
        phase.backlog = expected - received;
        phase.failed += phase.backlog;
        self.stragglers += phase.backlog;
        phase
            .latencies_ns
            .extend(std::iter::repeat_n(u64::MAX, phase.backlog as usize));
        phase
    }

    /// Closed loop: keep `depth` requests outstanding on each connection
    /// until `count` have been sent, sending the next as soon as a reply
    /// arrives, then wait up to `grace` for the last replies. Latency is
    /// timed from each send. The phase's completions per wall second are
    /// the service's capacity over these connections.
    pub fn saturate(
        &mut self,
        framed: &[Vec<u8>],
        next: &mut impl FnMut() -> usize,
        depth: u64,
        count: u64,
        grace: Duration,
    ) -> Phase {
        while self.stragglers > 0 && self.done.recv_timeout(grace).is_ok() {
            self.stragglers -= 1;
        }
        let mut phase = Phase::default();
        let start = Instant::now();
        let mut send = |phase: &mut Phase| {
            let idx = next();
            let conn = (phase.sent as usize) % CONNECTIONS;
            phase.sent += 1;
            if self.pending[conn].send((Instant::now(), idx)).is_err()
                || self.writers[conn].write_all(&framed[idx]).is_err()
            {
                phase.failed += 1;
                phase.latencies_ns.push(u64::MAX);
                false
            } else {
                true
            }
        };
        let target = depth * CONNECTIONS as u64;
        let mut outstanding = 0u64;
        loop {
            while phase.sent < count && outstanding < target {
                outstanding += u64::from(send(&mut phase));
            }
            if outstanding == 0 {
                break;
            }
            match self.done.recv_timeout(grace) {
                Ok(Some(latency)) => phase.latencies_ns.push(latency),
                Ok(None) => {
                    phase.failed += 1;
                    phase.latencies_ns.push(u64::MAX);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
            }
            outstanding -= 1;
            self.meter.tick();
        }
        // The slices took the CPU from the server; their time is not the
        // service's.
        let reading = self.meter.take();
        phase.wall = start.elapsed().saturating_sub(reading.wall);
        phase.speed = reading.speed;
        phase.backlog = outstanding;
        phase.failed += phase.backlog;
        self.stragglers += phase.backlog;
        phase
            .latencies_ns
            .extend(std::iter::repeat_n(u64::MAX, phase.backlog as usize));
        phase
    }

    /// Close both connections and join the reader threads.
    pub fn close(self) {
        for w in &self.writers {
            let _ = w.shutdown(Shutdown::Both);
        }
        drop(self.pending);
        for r in self.readers {
            let _ = r.join();
        }
    }
}

/// Prefix `payload` with its `u32` big-endian length, as the server's
/// framing expects, so each send is one `write_all`.
pub fn framed(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridrm_serve::{SchedulerConfig, TcpServer};

    /// An echo server: every reply is the request's own payload.
    fn echo_server() -> TcpServer {
        let echo = Arc::new(|_: &str, frame: &[u8]| frame.to_vec());
        TcpServer::start("127.0.0.1:0", echo, SchedulerConfig::default()).unwrap()
    }

    #[test]
    fn a_phase_accounts_for_every_request() {
        let server = echo_server();
        let requests = vec![framed(b"a"), framed(b"bb")];
        // Request 1's reply is declared wrong: it must count as failed.
        let check: Checker = Arc::new(|idx, reply: &[u8]| idx == 0 && reply == b"a");
        let mut client = OpenLoop::connect(server.local_addr(), check).unwrap();
        let mut k = 0;
        let mut next = || {
            k += 1;
            k % 2
        };
        let phase = client.phase(&requests, &mut next, 2_000, 200, Duration::from_secs(2));
        client.close();
        server.stop();
        assert_eq!(phase.sent, 200);
        assert_eq!(phase.backlog, 0);
        assert_eq!(phase.failed, 100);
        assert_eq!(phase.latencies_ns.len(), 200);
        assert_eq!(
            phase
                .latencies_ns
                .iter()
                .filter(|&&l| l == u64::MAX)
                .count(),
            100,
            "failures read as missing any latency limit"
        );
        // 200 requests at 2,000/s are due over 99.5 ms.
        assert!(phase.wall >= Duration::from_micros(99_500));
        let (_, _, late_max) = phase.lateness.summary();
        assert!(late_max < 1_000_000_000);
    }

    #[test]
    fn saturation_keeps_the_pipeline_full_and_accounts_for_every_request() {
        let server = echo_server();
        let requests = vec![framed(b"a"), framed(b"bb")];
        let check: Checker = Arc::new(|idx, reply: &[u8]| idx == 0 && reply == b"a");
        let mut client = OpenLoop::connect(server.local_addr(), check).unwrap();
        let mut k = 0;
        let mut next = || {
            k += 1;
            k % 2
        };
        let phase = client.saturate(&requests, &mut next, 4, 301, Duration::from_secs(2));
        client.close();
        server.stop();
        assert_eq!((phase.sent, phase.backlog, phase.failed), (301, 0, 151));
        assert_eq!(phase.latencies_ns.len(), 301);
        assert!(phase.wall > Duration::ZERO);
    }
}
