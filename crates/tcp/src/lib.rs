//! Software TCP stack for the *Autonomous NIC Offloads* reproduction.
//!
//! The paper's whole point is that TCP stays in software: the NIC offloads
//! only the L5P data operations and relies on this stack for segmentation,
//! loss recovery, reordering, and congestion control. This crate implements
//! that stack as pure state machines ([`sender::TcpSender`],
//! [`receiver::TcpReceiver`], combined in [`conn::TcpEndpoint`]) driven by
//! the discrete-event world in `ano-stack`.
//!
//! Behavioral coverage (what the offloads actually interact with):
//! cumulative ACKs, out-of-order reassembly, duplicate suppression, fast
//! retransmit + NewReno-style recovery, RTO with backoff, Reno congestion
//! control, MSS segmentation, and per-packet SKB offload flags that are
//! never coalesced across packets (§4.3).
//!
//! # Examples
//!
//! ```
//! use ano_tcp::conn::TcpEndpoint;
//! use ano_tcp::segment::{FlowId, SkbFlags};
//! use ano_tcp::TcpConfig;
//! use ano_sim::payload::Payload;
//! use ano_sim::time::SimTime;
//!
//! let mut a = TcpEndpoint::new(FlowId(1), TcpConfig::default());
//! let mut b = TcpEndpoint::new(FlowId(2), TcpConfig::default());
//! a.send(Payload::real(&b"hello l5p"[..]));
//! let seg = a.poll_transmit(SimTime::ZERO).expect("one segment");
//! b.on_packet_wnd(seg.seq, seg.ack, seg.wnd, &seg.sack, seg.payload, SkbFlags::default(), SimTime::ZERO);
//! let chunks = b.take_ready();
//! assert_eq!(chunks[0].payload.to_vec(), b"hello l5p");
//! ```

#![forbid(unsafe_code)]

pub mod conn;
pub mod receiver;
pub mod segment;
pub mod sender;
pub mod seq;

use ano_sim::time::SimDuration;

/// Tunables for one TCP endpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per packet).
    pub mss: usize,
    /// Initial congestion window, in segments.
    pub init_cwnd_pkts: usize,
    /// Congestion-window cap in bytes (stands in for the receive window).
    pub max_cwnd: usize,
    /// Floor for the retransmission timeout.
    pub min_rto: SimDuration,
    /// Out-of-order reassembly buffer limit in bytes.
    pub max_ooo: u64,
    /// Receive buffer (advertised-window) size in bytes: unconsumed
    /// delivered data counts against it, so a slow consumer closes the
    /// window instead of letting ACK latency blow past the RTO.
    pub rcv_buf: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: segment::DEFAULT_MSS,
            init_cwnd_pkts: 10,
            max_cwnd: 2 << 20,
            min_rto: SimDuration::from_millis(10),
            max_ooo: 4 << 20,
            rcv_buf: 256 << 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1448);
        assert!(c.init_cwnd_pkts * c.mss <= c.max_cwnd);
        assert!(c.min_rto > SimDuration::ZERO);
    }
}
