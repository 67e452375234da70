//! Benchmark-owned applications: the operation log every workload reports
//! into, a timing wrapper around the stock iperf sender, a message sink,
//! and the verifying sender/sink pair for the real-payload workload.
//!
//! An *operation* is one application message delivered in full (stream
//! workloads) or one HTTP response (request/response workload). Its
//! latency runs from the instant the sending application handed the
//! message to its socket to the instant the last byte reached the
//! receiving application, in simulated time.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use ano_apps::iperf::{IperfSender, IperfStats};
use ano_sim::payload::Payload;
use ano_sim::rng::SimRng;
use ano_sim::time::SimTime;
use ano_stack::prelude::*;

/// Operations attempted/failed and their latencies, shared by every app
/// of one world (the simulation is single-threaded).
#[derive(Default)]
pub struct OpLog {
    pub attempted: u64,
    pub failed: u64,
    pub latency_us: Vec<f64>,
    /// Send instants of messages not yet delivered, per connection.
    pushed: BTreeMap<ConnId, VecDeque<SimTime>>,
}

pub type SharedLog = Rc<RefCell<OpLog>>;

impl OpLog {
    pub fn shared() -> SharedLog {
        Rc::new(RefCell::new(OpLog::default()))
    }

    /// Forgets the operations counted so far (called where the measured
    /// window starts); messages in flight keep their send instants.
    pub fn start_window(&mut self) {
        self.attempted = 0;
        self.failed = 0;
        self.latency_us.clear();
    }

    fn note_push(&mut self, conn: ConnId, n: u64, now: SimTime) {
        let q = self.pushed.entry(conn).or_default();
        for _ in 0..n {
            q.push_back(now);
        }
    }

    fn note_done(&mut self, conn: ConnId, ok: bool, now: SimTime) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        if let Some(t0) = self.pushed.get_mut(&conn).and_then(VecDeque::pop_front) {
            self.latency_us.push(now.since(t0).as_micros_f64());
        }
    }
}

/// The stock [`IperfSender`] plus a note, per message it pushes, of when
/// it pushed it. The sender's own `sends` counter says how many messages
/// an event produced; which connection they went to follows from the
/// event (`Start` primes every connection equally, `Writable` refills one).
pub struct TimedSender {
    inner: IperfSender,
    stats: Rc<RefCell<IperfStats>>,
    conns: Vec<ConnId>,
    log: SharedLog,
}

impl TimedSender {
    pub fn new(inner: IperfSender, conns: Vec<ConnId>, log: SharedLog) -> TimedSender {
        TimedSender {
            stats: inner.stats(),
            inner,
            conns,
            log,
        }
    }
}

impl HostApp for TimedSender {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        let refilled = match event {
            AppEvent::Writable { conn } => Some(conn),
            _ => None,
        };
        let before = self.stats.borrow().sends;
        self.inner.on_event(api, event);
        let pushed = self.stats.borrow().sends - before;
        if pushed == 0 {
            return;
        }
        let mut log = self.log.borrow_mut();
        match refilled {
            Some(conn) => log.note_push(conn, pushed, api.now),
            None => {
                let each = pushed / self.conns.len() as u64;
                for &c in &self.conns {
                    log.note_push(c, each, api.now);
                }
            }
        }
    }
}

/// Deterministic byte stream: the sender writes it, the sink regenerates
/// it independently and compares every byte.
#[derive(Clone)]
pub struct Pattern {
    state: u64,
    word: [u8; 8],
    used: usize,
}

impl Pattern {
    /// The stream for connection `conn` under `seed`.
    pub fn new(seed: u64, conn: ConnId) -> Pattern {
        // One world-RNG draw per (seed, conn): distinct xorshift states.
        let mixed = seed ^ (u64::from(conn.0) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Pattern {
            // xorshift must not start at zero.
            state: SimRng::seed(mixed).next_u64() | 1,
            word: [0; 8],
            used: 8,
        }
    }

    fn next(&mut self) -> u8 {
        if self.used == 8 {
            let mut x = self.state;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.state = x;
            self.word = x.to_le_bytes();
            self.used = 0;
        }
        let b = self.word[self.used];
        self.used += 1;
        b
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for b in buf {
            *b = self.next();
        }
    }

    /// Consumes `bytes.len()` pattern bytes; true when all of them match.
    pub fn matches(&mut self, bytes: &[u8]) -> bool {
        // No short-circuit: the generator must stay aligned with the stream.
        bytes.iter().fold(true, |ok, &b| (self.next() == b) & ok)
    }
}

/// Bulk sender of real, seeded bytes with the stock iperf sender's flow
/// control (prime ≥ 256 KiB per connection, refill ≥ 128 KiB per
/// `Writable`), so streams stay window-bound.
pub struct PatternSender {
    conns: Vec<(ConnId, Pattern)>,
    message: usize,
    log: SharedLog,
}

impl PatternSender {
    pub fn new(seed: u64, conns: &[ConnId], message: usize, log: SharedLog) -> PatternSender {
        PatternSender {
            conns: conns.iter().map(|&c| (c, Pattern::new(seed, c))).collect(),
            message,
            log,
        }
    }

    fn push(&mut self, api: &mut HostApi, idx: usize, n: usize) {
        let (conn, pattern) = &mut self.conns[idx];
        for _ in 0..n {
            let mut buf = vec![0u8; self.message];
            pattern.fill(&mut buf);
            api.send(*conn, Payload::real(buf));
        }
        self.log.borrow_mut().note_push(*conn, n as u64, api.now);
    }
}

impl HostApp for PatternSender {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        match event {
            AppEvent::Start => {
                let prime = (256 << 10) / self.message + 1;
                for idx in 0..self.conns.len() {
                    self.push(api, idx, prime);
                }
            }
            AppEvent::Writable { conn } => {
                if let Some(idx) = self.conns.iter().position(|(c, _)| *c == conn) {
                    self.push(api, idx, (128 << 10) / self.message + 1);
                }
            }
            _ => {}
        }
    }
}

struct SinkConn {
    /// Bytes of the current message received so far.
    got: usize,
    /// Every byte of the current message matched (vacuous when modeled).
    ok: bool,
    verify: Option<Pattern>,
}

/// Receiving side of every stream workload: counts bytes per connection,
/// closes one operation per `message` bytes, and — given a seed — checks
/// each delivered byte against the sender's [`Pattern`].
pub struct MessageSink {
    conns: BTreeMap<ConnId, SinkConn>,
    message: usize,
    log: SharedLog,
}

impl MessageSink {
    pub fn new(
        conns: &[ConnId],
        message: usize,
        verify: Option<u64>,
        log: SharedLog,
    ) -> MessageSink {
        MessageSink {
            conns: conns
                .iter()
                .map(|&c| {
                    let verify = verify.map(|seed| Pattern::new(seed, c));
                    (
                        c,
                        SinkConn {
                            got: 0,
                            ok: true,
                            verify,
                        },
                    )
                })
                .collect(),
            message,
            log,
        }
    }
}

impl HostApp for MessageSink {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        let AppEvent::Data { conn, chunks } = event else {
            return;
        };
        let Some(st) = self.conns.get_mut(&conn) else {
            return;
        };
        for chunk in chunks {
            let real = chunk.payload.as_real();
            let mut off = 0;
            let len = chunk.payload.len();
            while off < len {
                let take = (self.message - st.got).min(len - off);
                if let Some(pattern) = &mut st.verify {
                    // A synthetic chunk on a verified stream is a failure.
                    st.ok &= real.is_some_and(|b| pattern.matches(&b[off..off + take]));
                }
                st.got += take;
                off += take;
                if st.got == self.message {
                    self.log.borrow_mut().note_done(conn, st.ok, api.now);
                    st.got = 0;
                    st.ok = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_is_seeded_per_connection_and_split_independent() {
        let mut a = Pattern::new(7, ConnId(0));
        let mut whole = vec![0u8; 100];
        a.fill(&mut whole);
        // Same seed and connection, verified in ragged pieces.
        let mut b = Pattern::new(7, ConnId(0));
        assert!(b.matches(&whole[..3]) && b.matches(&whole[3..64]) && b.matches(&whole[64..]));
        // Another connection or seed gives another stream.
        let mut other = vec![0u8; 100];
        Pattern::new(7, ConnId(1)).fill(&mut other);
        assert_ne!(whole, other);
        Pattern::new(8, ConnId(0)).fill(&mut other);
        assert_ne!(whole, other);
    }

    #[test]
    fn pattern_mismatch_is_seen_and_does_not_desynchronise() {
        let mut bytes = vec![0u8; 32];
        Pattern::new(1, ConnId(2)).fill(&mut bytes);
        bytes[5] ^= 0x80;
        let mut v = Pattern::new(1, ConnId(2));
        assert!(!v.matches(&bytes[..16]));
        assert!(v.matches(&bytes[16..]), "still aligned after the bad byte");
    }

    #[test]
    fn log_pairs_pushes_with_completions_in_order() {
        let mut log = OpLog::default();
        log.note_push(ConnId(1), 2, SimTime::from_micros(10));
        log.note_done(ConnId(1), true, SimTime::from_micros(25));
        log.note_done(ConnId(1), false, SimTime::from_micros(40));
        assert_eq!((log.attempted, log.failed), (2, 1));
        assert_eq!(log.latency_us, vec![15.0, 30.0]);
        log.start_window();
        assert_eq!((log.attempted, log.failed, log.latency_us.len()), (0, 0, 0));
    }
}
