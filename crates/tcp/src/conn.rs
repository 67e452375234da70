//! A full-duplex TCP connection endpoint (established state).
//!
//! Connection setup/teardown are not modeled — the paper's offloads attach
//! after the TLS/NVMe handshakes on established connections, so experiments
//! start there.

use ano_sim::payload::Payload;
use ano_sim::time::SimTime;

use crate::receiver::{ReceiverStats, TcpReceiver};
use crate::segment::{FlowId, RxChunk, Segment, SkbFlags};
use crate::sender::{AckOutcome, SenderStats, TcpSender};
use crate::TcpConfig;

/// One endpoint of an established TCP connection.
#[derive(Debug)]
pub struct TcpEndpoint {
    tx: TcpSender,
    rx: TcpReceiver,
    /// Set when the peer must be sent an ACK (data arrived).
    ack_pending: bool,
}

impl TcpEndpoint {
    /// Creates an endpoint whose outgoing flow is `flow`.
    pub fn new(flow: FlowId, cfg: TcpConfig) -> TcpEndpoint {
        TcpEndpoint {
            tx: TcpSender::new(flow, cfg.clone()),
            rx: TcpReceiver::with_buf(cfg.max_ooo, cfg.rcv_buf),
            ack_pending: false,
        }
    }

    /// The outgoing flow id.
    pub fn flow(&self) -> FlowId {
        self.tx.flow()
    }

    /// Installs a flow-scoped tracing handle on the send side (loss
    /// recovery is where the interesting TCP events live).
    pub fn set_tracer(&mut self, tracer: ano_trace::Tracer) {
        self.tx.set_tracer(tracer);
    }

    /// Queues application bytes for transmission.
    pub fn send(&mut self, payload: Payload) {
        self.tx.push(payload);
    }

    /// Next outgoing segment (data, retransmission, or pure ACK).
    pub fn poll_transmit(&mut self, now: SimTime) -> Option<Segment> {
        let ack = self.rx.ack_wire();
        let wnd = self.rx.window().min(u32::MAX as u64) as u32;
        if let Some(mut seg) = self.tx.poll_transmit(now, ack) {
            self.ack_pending = false; // data segments piggyback the ACK
            seg.wnd = wnd;
            seg.sack = self.rx.sack_ranges();
            return Some(seg);
        }
        if self.ack_pending {
            self.ack_pending = false;
            return Some(Segment {
                flow: self.tx.flow(),
                seq: self.tx.stream_end() as u32,
                seq64: self.tx.stream_end(),
                ack,
                wnd,
                sack: self.rx.sack_ranges(),
                is_retransmit: false,
                payload: Payload::empty(),
            });
        }
        None
    }

    /// Marks `n` delivered bytes as consumed and queues a window update.
    pub fn consume(&mut self, n: u64) {
        if n > 0 {
            self.rx.consume(n);
            self.ack_pending = true;
        }
    }

    /// Handles one received packet (already NIC-processed) whose advertised
    /// window is `wnd`: consumes its ACK and SACK blocks for our send side
    /// and its payload for our receive side.
    #[allow(clippy::too_many_arguments)]
    pub fn on_packet_wnd(
        &mut self,
        seq: u32,
        ack: u32,
        wnd: u32,
        sack: &[(u32, u32)],
        payload: Payload,
        flags: SkbFlags,
        now: SimTime,
    ) -> AckOutcome {
        self.tx.on_sack(sack);
        let outcome = self.tx.on_ack_wnd(ack, wnd, !payload.is_empty(), now);
        if !payload.is_empty() {
            self.rx.on_segment(seq, payload, flags);
            self.ack_pending = true;
        }
        outcome
    }

    /// In-order received chunks with their offload flags.
    pub fn take_ready(&mut self) -> Vec<RxChunk> {
        self.rx.take_ready()
    }

    /// Returns a drained [`take_ready`] buffer so its capacity is reused.
    ///
    /// [`take_ready`]: TcpEndpoint::take_ready
    pub fn recycle_ready(&mut self, buf: Vec<RxChunk>) {
        self.rx.recycle_ready(buf);
    }

    /// True if in-order data is waiting.
    pub fn has_ready(&self) -> bool {
        self.rx.has_ready()
    }

    /// Current retransmission deadline, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.tx.rto_deadline()
    }

    /// Fires the retransmission timeout.
    pub fn on_rto(&mut self, now: SimTime) {
        self.tx.on_rto(now);
    }

    /// Immutable access to the send half (stats, stream ranges).
    pub fn sender(&self) -> &TcpSender {
        &self.tx
    }

    /// Next expected receive offset.
    pub fn rcv_nxt(&self) -> u64 {
        self.rx.rcv_nxt()
    }

    /// Send-side counters.
    pub fn tx_stats(&self) -> SenderStats {
        self.tx.stats()
    }

    /// Receive-side counters.
    pub fn rx_stats(&self) -> ReceiverStats {
        self.rx.stats()
    }

    /// True when nothing is queued, in flight, or pending delivery.
    pub fn is_quiescent(&self) -> bool {
        self.tx.is_idle() && !self.rx.has_ready() && !self.ack_pending
    }

    /// Bytes queued but not yet transmitted for the first time.
    pub fn unsent_bytes(&self) -> u64 {
        self.tx.unsent_bytes()
    }

    /// Total bytes accepted for sending so far (stream length).
    pub fn stream_end(&self) -> u64 {
        self.tx.stream_end()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (TcpEndpoint, TcpEndpoint) {
        (
            TcpEndpoint::new(FlowId(1), TcpConfig::default()),
            TcpEndpoint::new(FlowId(2), TcpConfig::default()),
        )
    }

    /// Hands `seg` to `to` the way the stack runtime does.
    fn deliver(to: &mut TcpEndpoint, seg: Segment, now: SimTime) -> AckOutcome {
        to.on_packet_wnd(seg.seq, seg.ack, seg.wnd, &seg.sack, seg.payload, SkbFlags::default(), now)
    }

    /// Runs a lossless in-memory exchange until both sides go quiet.
    fn pump(a: &mut TcpEndpoint, b: &mut TcpEndpoint) {
        let mut t = 0u64;
        loop {
            t += 10;
            let now = SimTime::from_micros(t);
            let mut progressed = false;
            while let Some(seg) = a.poll_transmit(now) {
                deliver(b, seg, now);
                progressed = true;
            }
            while let Some(seg) = b.poll_transmit(now) {
                deliver(a, seg, now);
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
    }

    #[test]
    fn bidirectional_transfer_delivers_exact_stream() {
        let (mut a, mut b) = pair();
        let msg_ab: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let msg_ba: Vec<u8> = (0..10_000u32).map(|i| (i % 13) as u8).collect();
        a.send(Payload::real(msg_ab.clone()));
        b.send(Payload::real(msg_ba.clone()));
        pump(&mut a, &mut b);

        let got_b: Vec<u8> = b
            .take_ready()
            .iter()
            .flat_map(|c| c.payload.to_vec())
            .collect();
        let got_a: Vec<u8> = a
            .take_ready()
            .iter()
            .flat_map(|c| c.payload.to_vec())
            .collect();
        assert_eq!(got_b, msg_ab);
        assert_eq!(got_a, msg_ba);
        assert!(a.is_quiescent() && b.is_quiescent());
    }

    #[test]
    fn pure_ack_emitted_when_no_data_to_send() {
        let (mut a, mut b) = pair();
        a.send(Payload::synthetic(100));
        let seg = a.poll_transmit(SimTime::ZERO).expect("data");
        deliver(&mut b, seg, SimTime::ZERO);
        let ack = b.poll_transmit(SimTime::ZERO).expect("pure ack");
        assert!(ack.payload.is_empty());
        assert_eq!(ack.ack, 100);
    }

    /// RFC 5681 §2(b): requests sent while a response is still in flight
    /// all carry the same non-advancing ACK, but they ride on data, so
    /// none of them is a duplicate ACK and none may trigger a fast
    /// retransmit.
    #[test]
    fn piggybacked_stale_acks_do_not_fast_retransmit() {
        let (mut client, mut server) = pair();
        let now = SimTime::ZERO;
        server.send(Payload::synthetic(64 << 10));
        let response: Vec<Segment> = std::iter::from_fn(|| server.poll_transmit(now)).collect();
        assert!(response.len() > 4, "a multi-segment response is in flight");
        for _ in 0..8 {
            client.send(Payload::synthetic(100));
            let request = client.poll_transmit(now).expect("request");
            assert_eq!(request.ack, 0, "the request has seen none of the response");
            assert_eq!(deliver(&mut server, request, now), AckOutcome::Ignored);
        }
        for seg in response {
            deliver(&mut client, seg, now);
        }
        pump(&mut client, &mut server);
        assert_eq!(server.tx_stats().fast_retransmits, 0);
        assert_eq!(client.tx_stats().fast_retransmits, 0);
        let got: usize = client.take_ready().iter().map(|c| c.payload.len()).sum();
        assert_eq!(got, 64 << 10);
        assert_eq!(server.rcv_nxt(), 800);
    }

    #[test]
    fn lost_packet_recovered_by_rto() {
        let (mut a, mut b) = pair();
        a.send(Payload::synthetic(1000));
        let seg = a.poll_transmit(SimTime::ZERO).expect("data");
        drop(seg); // lost
        let deadline = a.rto_deadline().expect("armed");
        a.on_rto(deadline);
        let rtx = a.poll_transmit(deadline).expect("retransmission");
        assert!(rtx.is_retransmit);
        deliver(&mut b, rtx, deadline);
        assert_eq!(b.rcv_nxt(), 1000);
    }
}
