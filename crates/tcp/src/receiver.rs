//! TCP receive side: in-order reassembly with an out-of-order buffer.
//!
//! Delivered chunks preserve per-packet offload metadata ([`SkbFlags`]); the
//! receiver never coalesces bytes from packets with different offload
//! results, matching the paper's requirement that "the network stack takes
//! care not to coalesce packets with different offload results" (§4.3).

// Per-packet hot path: a panic here aborts the whole simulated schedule.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use std::collections::BTreeMap;

use ano_sim::payload::Payload;

use crate::segment::{RxChunk, SkbFlags};
use crate::seq::unwrap_seq;

/// Counters for the receive side.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Segments accepted in order.
    pub in_order: u64,
    /// Segments buffered out of order.
    pub out_of_order: u64,
    /// Segments fully below `rcv_nxt` (spurious retransmissions).
    pub duplicates: u64,
    /// Segments dropped because the reorder buffer was full.
    pub window_drops: u64,
    /// Bytes delivered to the application/L5P.
    pub bytes_delivered: u64,
}

/// TCP receiver state machine.
#[derive(Debug)]
pub struct TcpReceiver {
    /// Next expected stream offset (cumulative-ack point).
    rcv_nxt: u64,
    /// Stream offset the application has finished consuming.
    consumed: u64,
    /// Receive-buffer size (advertised window base).
    rcv_buf: u64,
    /// Out-of-order segments keyed by absolute stream offset.
    ooo: BTreeMap<u64, (Payload, SkbFlags)>,
    /// Bytes currently held in `ooo`.
    ooo_bytes: u64,
    /// Maximum bytes buffered out of order (receive window stand-in).
    max_ooo: u64,
    /// In-order chunks awaiting the application.
    ready: Vec<RxChunk>,
    stats: ReceiverStats,
}

impl TcpReceiver {
    /// Creates a receiver expecting stream offset 0, with an out-of-order
    /// buffer of `max_ooo` bytes.
    pub fn new(max_ooo: u64) -> TcpReceiver {
        TcpReceiver::with_buf(max_ooo, 256 << 10)
    }

    /// Creates a receiver with an explicit receive-buffer (window) size.
    pub fn with_buf(max_ooo: u64, rcv_buf: u64) -> TcpReceiver {
        TcpReceiver {
            rcv_nxt: 0,
            consumed: 0,
            rcv_buf,
            ooo: BTreeMap::new(),
            ooo_bytes: 0,
            max_ooo,
            ready: Vec::new(),
            stats: ReceiverStats::default(),
        }
    }

    /// Next expected stream offset (what we acknowledge).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// The cumulative ACK value to put on the wire.
    pub fn ack_wire(&self) -> u32 {
        self.rcv_nxt as u32
    }

    /// The advertised window: buffer space not yet consumed by the app.
    pub fn window(&self) -> u64 {
        self.rcv_buf
            .saturating_sub(self.rcv_nxt - self.consumed)
    }

    /// Up to three selective-acknowledgment ranges describing buffered
    /// out-of-order data, as wire sequence pairs `(start, end)`.
    pub fn sack_ranges(&self) -> Vec<(u32, u32)> {
        self.ooo
            .iter()
            .take(3)
            .map(|(&off, (p, _))| (off as u32, (off + p.len() as u64) as u32))
            .collect()
    }

    /// Marks `n` delivered bytes as consumed by the application (reopens
    /// the advertised window).
    ///
    /// # Panics
    ///
    /// Panics if consumption runs ahead of delivery.
    pub fn consume(&mut self, n: u64) {
        self.consumed += n;
        assert!(self.consumed <= self.rcv_nxt, "consumed past delivery");
    }

    /// Receive-side counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// True if in-order data is waiting to be read.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Accepts one packet's payload (`seq` is the wire sequence number).
    /// In-order data (and any newly contiguous buffered data) becomes
    /// readable via [`TcpReceiver::take_ready`].
    pub fn on_segment(&mut self, seq: u32, payload: Payload, flags: SkbFlags) {
        if payload.is_empty() {
            return; // pure ACK
        }
        let off = unwrap_seq(self.rcv_nxt, seq);
        let end = off + payload.len() as u64;
        if end <= self.rcv_nxt {
            self.stats.duplicates += 1;
            return;
        }
        if off <= self.rcv_nxt {
            // In-order (possibly with an already-received prefix to trim).
            let skip = (self.rcv_nxt - off) as usize;
            let chunk = payload.slice(skip, payload.len());
            self.deliver(chunk, flags);
            self.stats.in_order += 1;
            self.drain_contiguous();
        } else {
            // Out of order: buffer unless the window is exhausted.
            if self.ooo_bytes + payload.len() as u64 > self.max_ooo {
                self.stats.window_drops += 1;
                return;
            }
            self.stats.out_of_order += 1;
            // Keep the longest payload for a given start offset.
            match self.ooo.get(&off) {
                Some((existing, _)) if existing.len() >= payload.len() => {
                    self.stats.duplicates += 1;
                }
                _ => {
                    let len = payload.len() as u64;
                    if let Some((old, _)) = self.ooo.insert(off, (payload, flags)) {
                        self.ooo_bytes -= old.len() as u64;
                    }
                    self.ooo_bytes += len;
                }
            }
        }
    }

    fn deliver(&mut self, payload: Payload, flags: SkbFlags) {
        if payload.is_empty() {
            return;
        }
        let len = payload.len() as u64;
        self.ready.push(RxChunk {
            offset: self.rcv_nxt,
            payload,
            flags,
        });
        self.rcv_nxt += len;
        self.stats.bytes_delivered += len;
    }

    fn drain_contiguous(&mut self) {
        while let Some((off, (payload, flags))) = self.ooo.pop_first() {
            if off > self.rcv_nxt {
                // Still a hole before this segment: put it back and stop.
                self.ooo.insert(off, (payload, flags));
                break;
            }
            self.ooo_bytes -= payload.len() as u64;
            let end = off + payload.len() as u64;
            if end <= self.rcv_nxt {
                self.stats.duplicates += 1;
                continue;
            }
            let skip = (self.rcv_nxt - off) as usize;
            let chunk = payload.slice(skip, payload.len());
            self.deliver(chunk, flags);
        }
    }

    /// Takes all in-order chunks accumulated so far.
    pub fn take_ready(&mut self) -> Vec<RxChunk> {
        std::mem::take(&mut self.ready)
    }

    /// Hands back a buffer previously obtained from [`take_ready`] so the
    /// next delivery reuses its capacity instead of re-growing from zero.
    /// Any chunks that arrived in the meantime are preserved.
    ///
    /// [`take_ready`]: TcpReceiver::take_ready
    pub fn recycle_ready(&mut self, mut buf: Vec<RxChunk>) {
        if buf.capacity() > self.ready.capacity() {
            buf.clear();
            buf.append(&mut self.ready);
            self.ready = buf;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rx() -> TcpReceiver {
        TcpReceiver::new(4 << 20)
    }

    fn seg(n: u8, len: usize) -> Payload {
        Payload::real(vec![n; len])
    }

    #[test]
    fn in_order_delivery() {
        let mut r = rx();
        r.on_segment(0, seg(1, 100), SkbFlags::default());
        r.on_segment(100, seg(2, 50), SkbFlags::default());
        let chunks = r.take_ready();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].offset, 0);
        assert_eq!(chunks[1].offset, 100);
        assert_eq!(r.rcv_nxt(), 150);
        assert_eq!(r.stats().in_order, 2);
    }

    #[test]
    fn reorder_then_fill_hole() {
        let mut r = rx();
        r.on_segment(100, seg(2, 50), SkbFlags::default());
        assert!(!r.has_ready());
        assert_eq!(r.ack_wire(), 0);
        r.on_segment(0, seg(1, 100), SkbFlags::default());
        let chunks = r.take_ready();
        assert_eq!(chunks.len(), 2);
        assert_eq!(r.rcv_nxt(), 150);
        assert_eq!(r.stats().out_of_order, 1);
    }

    #[test]
    fn duplicate_is_counted_not_delivered() {
        let mut r = rx();
        r.on_segment(0, seg(1, 100), SkbFlags::default());
        r.take_ready();
        r.on_segment(0, seg(1, 100), SkbFlags::default());
        assert!(!r.has_ready());
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn overlapping_retransmit_trims_prefix() {
        let mut r = rx();
        r.on_segment(0, seg(1, 100), SkbFlags::default());
        // Go-back-N resend covering [50, 200): only [100, 200) is new.
        let mut p = vec![1u8; 50];
        p.extend(vec![3u8; 100]);
        r.on_segment(50, Payload::real(p), SkbFlags::default());
        let chunks = r.take_ready();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].offset, 100);
        assert_eq!(chunks[1].payload.len(), 100);
        assert_eq!(chunks[1].payload.to_vec(), vec![3u8; 100]);
        assert_eq!(r.rcv_nxt(), 200);
    }

    #[test]
    fn flags_ride_with_chunks() {
        let mut r = rx();
        let f = SkbFlags {
            tls_decrypted: true,
            ..Default::default()
        };
        r.on_segment(0, seg(1, 10), f);
        r.on_segment(10, seg(2, 10), SkbFlags::default());
        let chunks = r.take_ready();
        assert!(chunks[0].flags.tls_decrypted);
        assert!(!chunks[1].flags.tls_decrypted, "flags never coalesce across packets");
    }

    #[test]
    fn window_limit_drops() {
        let mut r = TcpReceiver::new(100);
        r.on_segment(1000, seg(1, 80), SkbFlags::default());
        r.on_segment(2000, seg(2, 80), SkbFlags::default());
        assert_eq!(r.stats().window_drops, 1);
    }

    #[test]
    fn ooo_keeps_longest_at_same_offset() {
        let mut r = rx();
        r.on_segment(100, seg(2, 20), SkbFlags::default());
        r.on_segment(100, seg(2, 50), SkbFlags::default());
        r.on_segment(0, seg(1, 100), SkbFlags::default());
        assert_eq!(r.rcv_nxt(), 150);
    }

    #[test]
    fn pure_ack_ignored() {
        let mut r = rx();
        r.on_segment(0, Payload::empty(), SkbFlags::default());
        assert_eq!(r.stats().in_order, 0);
        assert_eq!(r.rcv_nxt(), 0);
    }

    #[test]
    fn synthetic_payloads_work_too() {
        let mut r = rx();
        r.on_segment(0, Payload::synthetic(500), SkbFlags::default());
        let c = r.take_ready();
        assert_eq!(c[0].payload.len(), 500);
        assert!(!c[0].payload.is_real());
    }
}
