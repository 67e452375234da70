//! Wire segments and the per-packet metadata that rides with them.

use ano_sim::payload::Payload;

/// Identifies one TCP flow (one direction of one connection) end to end.
///
/// The NIC keys its per-flow offload contexts by this (the paper's "flow
/// identifier, e.g., a TCP/IP 5-tuple", §4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// Ethernet + IP + TCP header bytes accounted per packet on the wire.
pub const WIRE_HEADER_BYTES: usize = 66;

/// Default maximum segment size (1500 MTU minus IP/TCP headers w/ options).
pub const DEFAULT_MSS: usize = 1448;

/// A TCP segment on the wire.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The flow this segment belongs to (sender's outgoing flow).
    pub flow: FlowId,
    /// Wire sequence number of the first payload byte.
    pub seq: u32,
    /// Unwrapped 64-bit stream offset of the first payload byte. A real
    /// wire format carries only `seq`; drivers track the unwrapped value
    /// per flow, and the simulator carries it here for convenience.
    pub seq64: u64,
    /// Cumulative acknowledgment for the reverse direction.
    pub ack: u32,
    /// Advertised receive window, in bytes from `ack`.
    pub wnd: u32,
    /// Selective acknowledgments: wire-sequence ranges buffered out of
    /// order at the receiver.
    pub sack: Vec<(u32, u32)>,
    /// True when this segment was emitted by a retransmission path
    /// (diagnostic only — receivers must not rely on it).
    pub is_retransmit: bool,
    /// Payload bytes.
    pub payload: Payload,
}

impl Segment {
    /// Total bytes this segment occupies on the wire.
    pub fn wire_len(&self) -> usize {
        WIRE_HEADER_BYTES + self.payload.len()
    }

    /// Wire sequence one past the last payload byte.
    pub fn seq_end(&self) -> u32 {
        self.seq.wrapping_add(self.payload.len() as u32)
    }
}

/// Offload result bits the NIC driver attaches to a received packet's SKB.
///
/// This mirrors the paper's software interface exactly: the NVMe-TCP offload
/// sets a `crc_ok` bit in the SKB (§5.1), the TLS offload sets a `decrypted`
/// bit (§5.2), and the copy offload is visible as payload already placed in
/// block-layer buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SkbFlags {
    /// TLS offload: payload was decrypted + authenticated by the NIC.
    pub tls_decrypted: bool,
    /// NVMe-TCP offload: all capsule CRCs within this packet verified.
    pub nvme_crc_ok: bool,
    /// NVMe-TCP offload: capsule payload bytes were DMA-placed directly into
    /// their destination block-layer buffers (the copy can be skipped).
    pub nvme_placed: bool,
}

impl SkbFlags {
    /// Flags for a packet the NIC did not offload at all.
    pub fn not_offloaded() -> SkbFlags {
        SkbFlags::default()
    }
}

/// An in-order chunk of a byte stream, carrying the offload flags of the
/// packet(s) it came from. The one chunk type up the rx stack: TCP hands it
/// to the L5P, kTLS hands plaintext up in it and the NVMe parser consumes it
/// (as `parser::StreamChunk`, an alias).
#[derive(Clone, Debug)]
pub struct RxChunk {
    /// Absolute stream offset of the first byte.
    pub offset: u64,
    /// The bytes (possibly a partial packet after overlap trimming).
    pub payload: Payload,
    /// Offload flags inherited from the packet.
    pub flags: SkbFlags,
}

impl RxChunk {
    /// Offset one past the last byte.
    pub fn end(&self) -> u64 {
        self.offset + self.payload.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_len_includes_headers() {
        let s = Segment {
            flow: FlowId(1),
            seq: 0,
            seq64: 0,
            ack: 0,
            wnd: 1 << 20,
            sack: Vec::new(),
            is_retransmit: false,
            payload: Payload::synthetic(1448),
        };
        assert_eq!(s.wire_len(), 1448 + WIRE_HEADER_BYTES);
        assert_eq!(s.seq_end(), 1448);
    }

    #[test]
    fn seq_end_wraps() {
        let s = Segment {
            flow: FlowId(1),
            seq: u32::MAX - 9,
            seq64: u64::MAX - 9,
            ack: 0,
            wnd: 1 << 20,
            sack: Vec::new(),
            is_retransmit: false,
            payload: Payload::synthetic(20),
        };
        assert_eq!(s.seq_end(), 10);
    }

    #[test]
    fn flow_display() {
        assert_eq!(FlowId(7).to_string(), "flow#7");
    }

    #[test]
    fn chunk_end() {
        let c = RxChunk {
            offset: 100,
            payload: Payload::synthetic(50),
            flags: SkbFlags::not_offloaded(),
        };
        assert_eq!(c.end(), 150);
    }
}
