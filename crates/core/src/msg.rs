//! Message framing abstractions shared by the offload engines: the parsed
//! [`MsgHeader`], the byte views an engine hands an L5P, and the modeled
//! shortcut — a [`FrameIndex`] the sender fills, selected by [`FlowMode`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::flow::TxMsgRef;

/// A parsed L5P message header, as seen by the NIC.
///
/// `total_len` covers the *entire* on-wire message: generic header, any
/// protocol-specific header extension, body, and trailer (digest/tag). The
/// NIC uses it to find the next message boundary (§4.3: "the NIC computes
/// the TCP sequence number of the next L5P message by using the length of
/// the current message").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHeader {
    /// Total message length on the wire, in bytes.
    pub total_len: u32,
}

/// The longest generic header any [`L5Flow`](crate::flow::L5Flow) declares:
/// NVMe-TCP's 8-byte common header (a TLS record header is 5 bytes, the
/// demo's 4). The NIC context assembles headers and keeps its search carry
/// in buffers of this fixed size; a longer header would never assemble, so
/// a functional flow declaring one would desynchronize on every message.
pub const MAX_HDR_LEN: usize = 8;

/// A fixed-capacity byte buffer — part of a constant-size NIC context,
/// never a heap allocation. Bytes appended past the capacity are dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FixedBytes<const N: usize> {
    buf: [u8; N],
    len: usize,
}

impl<const N: usize> FixedBytes<N> {
    /// Appends as much of `bytes` as fits.
    pub fn extend(&mut self, bytes: &[u8]) {
        let n = bytes.len().min(N - self.len);
        if let (Some(dst), Some(src)) = (self.buf.get_mut(self.len..self.len + n), bytes.get(..n)) {
            dst.copy_from_slice(src);
            self.len += n;
        }
    }

    /// The bytes held.
    pub fn as_slice(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or_default()
    }

    /// Number of bytes held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no bytes are held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the buffer.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<const N: usize> Default for FixedBytes<N> {
    /// An empty buffer.
    fn default() -> Self {
        FixedBytes { buf: [0; N], len: 0 }
    }
}

/// One contiguous range of packet data handed to an offload operation:
/// real mutable bytes in functional mode, a length in modeled mode.
#[derive(Debug)]
pub enum DataRef<'a> {
    /// Functional mode: the NIC transforms these bytes in place.
    Real(&'a mut [u8]),
    /// Modeled mode: only the length is simulated.
    Modeled(usize),
}

impl DataRef<'_> {
    /// Length of the range.
    pub fn len(&self) -> usize {
        match self {
            DataRef::Real(b) => b.len(),
            DataRef::Modeled(n) => *n,
        }
    }

    /// True when the range is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the real bytes, or `None` in modeled mode.
    pub fn as_real(&self) -> Option<&[u8]> {
        match self {
            DataRef::Real(b) => Some(b),
            DataRef::Modeled(_) => None,
        }
    }

    /// The whole range as the read-only view speculative search scans.
    pub(crate) fn window(&self) -> SearchWindow<'_> {
        match self {
            DataRef::Real(b) => SearchWindow::Real(b),
            DataRef::Modeled(n) => SearchWindow::Modeled(*n),
        }
    }

    /// Reborrows a sub-range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&mut self, start: usize, end: usize) -> DataRef<'_> {
        match self {
            DataRef::Real(b) => DataRef::Real(&mut b[start..end]),
            DataRef::Modeled(n) => {
                assert!(start <= end && end <= *n, "slice out of range");
                DataRef::Modeled(end - start)
            }
        }
    }
}

/// A read-only view of packet bytes used by speculative search.
#[derive(Clone, Copy, Debug)]
pub enum SearchWindow<'a> {
    /// Functional mode: scan these bytes for the magic pattern.
    Real(&'a [u8]),
    /// Modeled mode: a window of this many bytes (the flow's
    /// [`FrameIndex`] answers).
    Modeled(usize),
}

impl SearchWindow<'_> {
    /// Window length in bytes.
    pub fn len(&self) -> usize {
        match self {
            SearchWindow::Real(b) => b.len(),
            SearchWindow::Modeled(n) => *n,
        }
    }

    /// True when the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Events an offload engine emits for the NIC driver to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineEvent {
    /// The NIC speculatively identified a message header at this stream
    /// offset and asks the L5P to confirm (`l5o_resync_rx_req`, §4.3).
    ResyncRequest {
        /// Protocol layer that asked: 0 is the outermost engine; a composed
        /// NVMe-TLS offload reports its inner NVMe engine as layer 1 (§5.3:
        /// recovery is "performed independently for each protocol").
        layer: u8,
        /// Absolute stream offset (unwrapped `tcpsn`) of the candidate
        /// header, in that layer's own byte-stream space.
        tcpsn: u64,
    },
}

/// Where a flow's message framing comes from — the one switch between the
/// simulator's two payload fidelities, shared by every L5P's NIC flows and
/// software parsers.
#[derive(Clone, Debug)]
pub enum FlowMode {
    /// Real bytes: framing is parsed from the headers on the wire.
    Functional,
    /// Synthetic bytes: framing comes from the sender's [`FrameIndex`].
    Modeled(FrameIndex),
}

impl FlowMode {
    /// `Modeled` over `frames` when `modeled`, else `Functional`.
    pub fn new(modeled: bool, frames: &FrameIndex) -> FlowMode {
        if modeled {
            FlowMode::Modeled(frames.clone())
        } else {
            FlowMode::Functional
        }
    }

    /// Which message starts at stream offset `off`? `decode` reads its
    /// header bytes: `wire` in functional mode; in modeled mode the encoded
    /// header the sender registered with the frame, so both modes decode it
    /// with the same code. A modeled frame registered without a header
    /// (a TLS record: its length is all its receivers need) goes to
    /// `len_only` instead.
    pub fn msg_at<T>(
        &self,
        off: u64,
        wire: Option<&[u8]>,
        decode: impl FnOnce(&[u8]) -> Option<T>,
        len_only: impl FnOnce(MsgHeader) -> Option<T>,
    ) -> Option<T> {
        match (self, wire) {
            (FlowMode::Functional, Some(h)) => decode(h),
            (FlowMode::Functional, None) => None,
            (FlowMode::Modeled(frames), _) => frames
                .with_frame_at(off, |f| match &f.header {
                    Some(h) => decode(h),
                    None => len_only(MsgHeader { total_len: f.len }),
                })
                .flatten(),
        }
    }
}

#[derive(Debug)]
struct Frame {
    off: u64,
    len: u32,
    idx: u64,
    header: Option<Box<[u8]>>,
}

#[derive(Debug, Default)]
struct FrameIndexInner {
    /// Every unacknowledged message, in stream order. A deque so that
    /// pruning acked entries off the front (once per ACK on the transmit
    /// path) advances the head instead of memmoving every in-flight frame.
    frames: std::collections::VecDeque<Frame>,
    /// Frames pushed so far: the next frame's index, even after a prune
    /// emptied the deque.
    pushed: u64,
}

/// Ground-truth message framing for one flow, in *modeled* mode.
///
/// In functional mode the NIC discovers framing by parsing real bytes; in
/// modeled mode payloads are synthetic, so the sending L5P registers each
/// message's position here and the NIC-side engines consult it instead of
/// scanning bytes. This preserves behaviour exactly (the magic patterns of
/// TLS/NVMe-TCP make false positives negligible — §5.1/§5.2 list 5–10 byte
/// patterns) while keeping gigabyte-scale sweeps tractable.
#[derive(Clone, Debug, Default)]
pub struct FrameIndex(Rc<RefCell<FrameIndexInner>>);

impl FrameIndex {
    /// Creates an empty index.
    pub fn new() -> FrameIndex {
        FrameIndex::default()
    }

    /// Records a message of `total_len` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if messages are not appended in order.
    pub fn push(&self, offset: u64, total_len: u32) -> u64 {
        self.push_full(offset, total_len, None)
    }

    /// Like [`FrameIndex::push`], registering the message's encoded header
    /// for receivers that decode more than its length (see
    /// [`FlowMode::msg_at`]). Returns the message's index.
    ///
    /// # Panics
    ///
    /// Panics if messages are not appended in order.
    pub fn push_full(&self, offset: u64, total_len: u32, header: Option<Box<[u8]>>) -> u64 {
        let mut inner = self.0.borrow_mut();
        if let Some(f) = inner.frames.back() {
            assert!(offset >= f.off + f.len as u64, "frames must be appended in stream order");
        }
        let idx = inner.pushed;
        inner.pushed += 1;
        inner.frames.push_back(Frame {
            off: offset,
            len: total_len,
            idx,
            header,
        });
        idx
    }

    /// Frames pushed so far (the next frame's index).
    pub(crate) fn pushed(&self) -> u64 {
        self.0.borrow().pushed
    }

    /// The message containing stream offset `offset` (§4.2's
    /// `l5o_get_tx_msgstate`), if it is still indexed.
    pub fn containing(&self, offset: u64) -> Option<TxMsgRef> {
        let inner = self.0.borrow();
        let i = inner.frames.partition_point(|f| f.off <= offset).checked_sub(1)?;
        let f = inner.frames.get(i)?;
        (offset < f.off + f.len as u64).then_some(TxMsgRef {
            msg_start: f.off,
            msg_index: f.idx,
        })
    }

    fn with_frame_at<R>(&self, offset: u64, read: impl FnOnce(&Frame) -> R) -> Option<R> {
        let inner = self.0.borrow();
        let i = inner.frames.binary_search_by_key(&offset, |f| f.off).ok()?;
        inner.frames.get(i).map(read)
    }

    /// The message starting exactly at `offset`, if any.
    pub fn at(&self, offset: u64) -> Option<(MsgHeader, u64)> {
        self.with_frame_at(offset, |f| (MsgHeader { total_len: f.len }, f.idx))
    }

    /// The first message boundary at or after `offset`.
    pub fn next_at_or_after(&self, offset: u64) -> Option<(u64, MsgHeader, u64)> {
        let inner = self.0.borrow();
        let i = inner.frames.partition_point(|f| f.off < offset);
        inner
            .frames
            .get(i)
            .map(|f| (f.off, MsgHeader { total_len: f.len }, f.idx))
    }

    /// Drops index entries fully below `offset` (acked long ago). Returns
    /// at once when the front frame still ends above `offset`, which is
    /// the common case of an ACK landing inside the oldest message.
    pub fn prune_below(&self, offset: u64) {
        let mut inner = self.0.borrow_mut();
        if inner.frames.front().is_none_or(|f| f.off + f.len as u64 > offset) {
            return;
        }
        let keep_from = inner
            .frames
            .partition_point(|f| f.off + f.len as u64 <= offset);
        inner.frames.drain(..keep_from);
    }

    /// Number of indexed frames (diagnostics).
    pub fn len(&self) -> usize {
        self.0.borrow().frames.len()
    }

    /// True when no frames are indexed.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().frames.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataref_len_and_slice() {
        let mut buf = [1u8, 2, 3, 4, 5];
        let mut r = DataRef::Real(&mut buf);
        assert_eq!(r.len(), 5);
        let sub = r.slice(1, 3);
        assert_eq!(sub.len(), 2);
        let mut m = DataRef::Modeled(10);
        assert_eq!(m.slice(2, 9).len(), 7);
        assert!(!m.is_empty());
    }

    #[test]
    fn fixed_bytes_drop_what_does_not_fit() {
        let mut b = FixedBytes::<4>::default();
        assert!(b.is_empty());
        b.extend(&[1, 2, 3]);
        b.extend(&[4, 5, 6]);
        assert_eq!((b.as_slice(), b.len()), (&[1u8, 2, 3, 4][..], 4));
        b.clear();
        b.extend(&[9]);
        assert_eq!(b.as_slice(), &[9]);
    }

    #[test]
    fn frame_index_ordered_lookup() {
        let fi = FrameIndex::new();
        assert_eq!(fi.push(0, 100), 0);
        assert_eq!(fi.push(100, 50), 1);
        assert_eq!(fi.push(150, 200), 2);
        assert_eq!(fi.at(100), Some((MsgHeader { total_len: 50 }, 1)));
        assert_eq!(fi.at(101), None);
        assert_eq!(fi.next_at_or_after(101).map(|x| x.0), Some(150));
        assert_eq!(fi.next_at_or_after(350), None);
    }

    #[test]
    #[should_panic]
    fn frame_index_rejects_out_of_order() {
        let fi = FrameIndex::new();
        fi.push(100, 50);
        fi.push(0, 10);
    }

    #[test]
    fn prune_drops_only_fully_acked() {
        let fi = FrameIndex::new();
        fi.push(0, 100);
        fi.push(100, 100);
        fi.prune_below(150);
        assert_eq!(fi.len(), 1);
        assert!(fi.at(100).is_some());
        fi.prune_below(200);
        assert!(fi.is_empty());
        assert_eq!(fi.push(200, 10), 2, "indices keep counting after a full prune");
    }

    #[test]
    fn modeled_msg_at_decodes_registered_headers() {
        let fi = FrameIndex::new();
        fi.push(0, 30);
        fi.push_full(30, 40, Some(Box::new([40u8, 0xEE])));
        let mode = FlowMode::new(true, &fi);
        let at = |mode: &FlowMode, off, wire| mode.msg_at(off, wire, |h| Some(h[0]), |_| Some(0));
        assert_eq!(at(&mode, 0, None), Some(0), "registered without a header");
        assert_eq!(at(&mode, 30, None), Some(40), "decoded from the registered header");
        assert_eq!(at(&mode, 31, None), None, "not a boundary");
        let functional = FlowMode::new(false, &fi);
        assert_eq!(at(&functional, 0, Some(&[7])), Some(7), "decoded off the wire");
        assert_eq!(at(&functional, 0, None), None);
        assert_eq!(fi.containing(45).map(|m| (m.msg_start, m.msg_index)), Some((30, 1)));
        assert_eq!(fi.containing(70), None, "past the last frame");
    }
}
