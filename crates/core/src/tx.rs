//! The transmit-side offload engine (§4.2).
//!
//! On transmit the L5P "skips" the offloaded operation and hands plaintext
//! (or dummy-CRC) messages down the stack; the NIC performs the operation as
//! packets fly by. The driver shadows the NIC context, so an out-of-sequence
//! packet (a retransmission) is detected before posting: the driver asks the
//! L5P which message contains the packet (`l5o_get_tx_msgstate`), re-reads
//! the message bytes from host memory up to the packet's offset (the
//! diagonal of Fig. 6 — accounted as PCIe traffic, Fig. 16b), replays them
//! through the operation to rebuild the dynamic state, and only then lets
//! the NIC process the packet.

// Per-packet hot path: a panic here aborts the whole simulated schedule.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use ano_tcp::segment::SkbFlags;
use ano_trace::{Event, Tracer};

use crate::flow::{L5Flow, L5TxSource};
use crate::msg::DataRef;
use crate::walker::Walker;

/// Transmit-engine counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Packets processed.
    pub pkts: u64,
    /// Packets offloaded (including after recovery).
    pub pkts_offloaded: u64,
    /// Out-of-sequence packets that required context recovery.
    pub recoveries: u64,
    /// Bytes re-read from host memory for state replay (PCIe traffic).
    pub replay_bytes: u64,
    /// Packets for which the L5P could not identify the message.
    pub unknown_msgs: u64,
    /// Framing errors while walking (should not happen on transmit).
    pub desyncs: u64,
}

/// What happened to one transmitted packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxVerdict {
    /// The NIC performed the offloaded operation on this packet.
    pub offloaded: bool,
    /// Bytes replayed over PCIe to recover the context first.
    pub replay_bytes: u64,
    /// SKB-equivalent flags (diagnostic parity with the receive side).
    pub flags: SkbFlags,
}

/// The per-flow transmit offload engine (NIC context + driver shadow).
pub struct TxEngine {
    op: Box<dyn L5Flow>,
    walker: Walker,
    /// Set when the stream desynchronized beyond repair (L5P bug).
    broken: bool,
    tracer: Tracer,
    stats: TxStats,
    /// The tx queue this context's completions are pinned to (XPS-style;
    /// 0 on a single-queue device).
    queue: u16,
}

impl std::fmt::Debug for TxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxEngine")
            .field("expected", &self.walker.expected())
            .field("broken", &self.broken)
            .field("stats", &self.stats)
            .finish()
    }
}

impl TxEngine {
    /// Creates an engine offloading from stream offset `start_off`, message
    /// index `msg_index` (the `l5o_create` moment).
    pub fn new(op: Box<dyn L5Flow>, start_off: u64, msg_index: u64) -> TxEngine {
        TxEngine {
            op,
            walker: Walker::new(start_off, msg_index),
            broken: false,
            tracer: Tracer::default(),
            stats: TxStats::default(),
            queue: 0,
        }
    }

    /// Records the tx queue this context is pinned to (set by the NIC at
    /// steer time and when the stack re-pins after a core migration).
    pub fn set_queue(&mut self, queue: u16) {
        self.queue = queue;
    }

    /// The tx queue this context is pinned to.
    pub fn queue(&self) -> u16 {
        self.queue
    }

    /// Installs a (typically flow-scoped) tracing handle. The default
    /// handle is disabled, so an unwired engine records nothing.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The next stream offset the shadow context expects.
    pub fn expected(&self) -> u64 {
        self.walker.expected()
    }

    /// Counters.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// Processes one outgoing packet starting at stream offset `seq`.
    ///
    /// `src` is the L5P's transmit-state interface, used only when the
    /// packet is out of sequence.
    pub fn on_packet(
        &mut self,
        seq: u64,
        data: &mut DataRef<'_>,
        src: &dyn L5TxSource,
    ) -> TxVerdict {
        self.stats.pkts += 1;
        if self.broken {
            return self.verdict(false, 0);
        }
        let mut replayed = 0u64;
        if seq != self.walker.expected() {
            // Out of sequence: recover the context (§4.2).
            let expected = self.walker.expected();
            self.tracer.record(|| Event::PktOoS { seq, expected });
            match src.msg_at(seq) {
                Some(m) => {
                    self.stats.recoveries += 1;
                    self.tracer.count("tx.recoveries", 1);
                    self.op.resync_to(m.msg_index);
                    self.walker = Walker::new(m.msg_start, m.msg_index);
                    if seq > m.msg_start {
                        let replay = src.stream_bytes(m.msg_start, seq);
                        replayed = replay.len() as u64;
                        self.stats.replay_bytes += replayed;
                        self.tracer.count("tx.replay_bytes", replayed);
                        self.tracer.observe("tx.replay_len", replayed);
                        let out = match replay.as_real() {
                            Some(bytes) => {
                                let mut tmp = bytes.to_vec();
                                self.walker.walk(self.op.as_mut(), &mut DataRef::Real(&mut tmp))
                            }
                            None => self
                                .walker
                                .walk(self.op.as_mut(), &mut DataRef::Modeled(replay.len())),
                        };
                        if out.desync {
                            self.stats.desyncs += 1;
                            self.broken = true;
                            return self.verdict(false, replayed);
                        }
                    }
                }
                None => {
                    self.stats.unknown_msgs += 1;
                    return self.verdict(false, 0);
                }
            }
        }
        let out = self.walker.walk(self.op.as_mut(), data);
        if out.desync {
            self.stats.desyncs += 1;
            self.broken = true;
            return self.verdict(false, replayed);
        }
        self.stats.pkts_offloaded += 1;
        self.verdict(true, replayed)
    }

    fn verdict(&mut self, offloaded: bool, replay_bytes: u64) -> TxVerdict {
        TxVerdict {
            offloaded,
            replay_bytes,
            flags: self.op.packet_flags(offloaded),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::{self, DemoFlow};
    use crate::flow::{TxMsgLog, TxMsgRef};
    use ano_sim::payload::Payload;

    /// A toy L5P transmit source over a fixed "skipped" stream.
    struct Source {
        stream: Vec<u8>,
        msgs: TxMsgLog,
    }

    impl Source {
        /// Builds `n` messages of the given plaintext bodies; the stream
        /// holds header + plaintext + dummy trailer (the "wrong bytes" the
        /// L5P passes down when skipping the operation).
        fn new(bodies: &[Vec<u8>]) -> Source {
            let mut stream = Vec::new();
            let mut msgs = TxMsgLog::default();
            for b in bodies {
                msgs.push(b.len() as u32 + 5, None);
                stream.push(demo::MAGIC0);
                stream.extend_from_slice(&(b.len() as u16).to_be_bytes());
                stream.push(demo::MAGIC1);
                stream.extend_from_slice(b);
                stream.push(0); // dummy trailer
            }
            Source { stream, msgs }
        }

        fn expected_wire(&self, bodies: &[Vec<u8>], key: u8) -> Vec<u8> {
            bodies
                .iter()
                .flat_map(|b| demo::encode_msg_keyed(b, key))
                .collect()
        }
    }

    impl L5TxSource for Source {
        fn msg_at(&self, off: u64) -> Option<TxMsgRef> {
            self.msgs.msg_at(off)
        }

        fn stream_bytes(&self, from: u64, to: u64) -> Payload {
            Payload::real(self.stream[from as usize..to as usize].to_vec())
        }
    }

    fn bodies() -> Vec<Vec<u8>> {
        vec![
            (0..200u8).collect(),
            vec![7u8; 333],
            (0..=255u8).rev().collect(),
        ]
    }

    #[test]
    fn in_sequence_transmit_produces_correct_wire() {
        let bodies = bodies();
        let src = Source::new(&bodies);
        let want = src.expected_wire(&bodies, 9);
        let mut e = TxEngine::new(Box::new(DemoFlow::tx_functional(9)), 0, 0);
        let mut wire = Vec::new();
        for chunk in src.stream.chunks(90) {
            let seq = wire.len() as u64;
            let mut buf = chunk.to_vec();
            let v = e.on_packet(seq, &mut DataRef::Real(&mut buf), &src);
            assert!(v.offloaded);
            assert_eq!(v.replay_bytes, 0);
            wire.extend_from_slice(&buf);
        }
        assert_eq!(wire, want, "NIC-transformed stream matches software encode");
    }

    #[test]
    fn retransmission_recovers_and_produces_identical_bytes() {
        let bodies = bodies();
        let src = Source::new(&bodies);
        let mut e = TxEngine::new(Box::new(DemoFlow::tx_functional(9)), 0, 0);

        // First pass: send everything, remember wire bytes per packet.
        let mut first = Vec::new();
        for (i, chunk) in src.stream.chunks(90).enumerate() {
            let seq = (i * 90) as u64;
            let mut buf = chunk.to_vec();
            e.on_packet(seq, &mut DataRef::Real(&mut buf), &src);
            first.push((seq, buf));
        }

        // Retransmit packet 3: OoS for the context (which is at the end).
        let (seq, _) = first[3];
        let mut again = src.stream[seq as usize..seq as usize + 90].to_vec();
        let v = e.on_packet(seq, &mut DataRef::Real(&mut again), &src);
        assert!(v.offloaded, "retransmission still offloaded after recovery");
        assert!(v.replay_bytes > 0, "state was replayed over PCIe");
        assert_eq!(again, first[3].1, "identical ciphertext on retransmit");
        assert_eq!(e.stats().recoveries, 1);

        // Continue with new data (also OoS w.r.t. the recovered context).
        let next = first[4].0;
        let mut buf = src.stream[next as usize..next as usize + 90].to_vec();
        let v = e.on_packet(next, &mut DataRef::Real(&mut buf), &src);
        assert!(v.offloaded);
        assert_eq!(buf, first[4].1);
    }

    #[test]
    fn replay_bytes_follow_fig6_diagonal() {
        // Recovery replays exactly [msg_start, packet_seq).
        let bodies = vec![vec![1u8; 1000]];
        let src = Source::new(&bodies);
        let mut e = TxEngine::new(Box::new(DemoFlow::tx_functional(9)), 0, 0);
        // Send everything once.
        for (i, chunk) in src.stream.chunks(100).enumerate() {
            let mut buf = chunk.to_vec();
            e.on_packet((i * 100) as u64, &mut DataRef::Real(&mut buf), &src);
        }
        // Retransmit the packet at offset 700: replay must be 700 bytes
        // (message starts at 0).
        let mut buf = src.stream[700..800].to_vec();
        let v = e.on_packet(700, &mut DataRef::Real(&mut buf), &src);
        assert_eq!(v.replay_bytes, 700);
    }

    #[test]
    fn unknown_message_passes_through_unoffloaded() {
        let src = Source::new(&bodies());
        let mut e = TxEngine::new(Box::new(DemoFlow::tx_functional(9)), 0, 0);
        struct Empty;
        impl L5TxSource for Empty {
            fn msg_at(&self, _off: u64) -> Option<TxMsgRef> {
                None
            }
            fn stream_bytes(&self, _f: u64, _t: u64) -> Payload {
                Payload::empty()
            }
        }
        let mut buf = src.stream[90..180].to_vec();
        let v = e.on_packet(90, &mut DataRef::Real(&mut buf), &Empty);
        assert!(!v.offloaded);
        assert_eq!(e.stats().unknown_msgs, 1);
        assert_eq!(buf, src.stream[90..180], "payload untouched");
    }

    #[test]
    fn modeled_mode_counts_replay_too() {
        struct ModeledSrc(TxMsgLog);
        impl L5TxSource for ModeledSrc {
            fn msg_at(&self, off: u64) -> Option<TxMsgRef> {
                self.0.msg_at(off)
            }
            fn stream_bytes(&self, f: u64, t: u64) -> Payload {
                Payload::synthetic((t - f) as usize)
            }
        }
        let mut src = ModeledSrc(TxMsgLog::default());
        src.0.push(1005, None);
        let mut e = TxEngine::new(Box::new(DemoFlow::tx_modeled(src.0.frames())), 0, 0);
        for i in 0..10 {
            let v = e.on_packet(i * 100, &mut DataRef::Modeled(100), &src);
            assert!(v.offloaded);
        }
        // Retransmit at 500.
        let v = e.on_packet(500, &mut DataRef::Modeled(100), &src);
        assert!(v.offloaded);
        assert_eq!(v.replay_bytes, 500);
    }
}
