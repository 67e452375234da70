//! Packet payload representation with two fidelity modes.
//!
//! The paper's macro-experiments move gigabytes per second; simulating them
//! byte-for-byte with real crypto would dominate wall-clock time without
//! changing any measured quantity. Payloads therefore come in two flavours:
//!
//! * [`Payload::Real`] — actual bytes, used by tests, examples and
//!   functional-mode runs to prove end-to-end correctness (the NIC really
//!   encrypts, the peer really decrypts).
//! * [`Payload::Synthetic`] — a length-only descriptor. When a synthetic
//!   payload must be materialized it is filled with [`MAGIC_BYTE`], mirroring
//!   the paper's own NVMe-TCP offload-emulation methodology (§6.2: "magic
//!   capsules" of repeated `0xCC`).
//!
//! Cycle accounting is identical for both flavours.

use crate::bytes::Bytes;

/// Filler byte for synthetic payloads, matching the paper's `0xCC...CC`
/// magic-word emulation content (§6.2).
pub const MAGIC_BYTE: u8 = 0xCC;

/// The data carried by a packet or stored in a buffer.
#[derive(Clone, PartialEq, Eq)]
pub enum Payload {
    /// Actual bytes (functional mode).
    Real(Bytes),
    /// Length-only placeholder (modeled mode).
    Synthetic {
        /// Number of bytes this payload stands for.
        len: usize,
    },
}

impl Payload {
    /// An empty real payload.
    pub fn empty() -> Payload {
        Payload::Real(Bytes::new())
    }

    /// Wraps real bytes.
    pub fn real(bytes: impl Into<Bytes>) -> Payload {
        Payload::Real(bytes.into())
    }

    /// Creates a synthetic payload of `len` bytes.
    pub fn synthetic(len: usize) -> Payload {
        Payload::Synthetic { len }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Real(b) => b.len(),
            Payload::Synthetic { len } => *len,
        }
    }

    /// True if the payload holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for [`Payload::Real`].
    pub fn is_real(&self) -> bool {
        matches!(self, Payload::Real(_))
    }

    /// A zero-copy sub-range `[start, end)` of this payload.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn slice(&self, start: usize, end: usize) -> Payload {
        assert!(start <= end && end <= self.len(), "slice out of range");
        match self {
            Payload::Real(b) => Payload::Real(b.slice(start..end)),
            Payload::Synthetic { .. } => Payload::Synthetic { len: end - start },
        }
    }

    /// Materializes the payload as owned bytes; synthetic payloads are filled
    /// with [`MAGIC_BYTE`].
    pub fn to_vec(&self) -> Vec<u8> {
        match self {
            Payload::Real(b) => b.to_vec(),
            Payload::Synthetic { len } => vec![MAGIC_BYTE; *len],
        }
    }

    /// Borrows the real bytes, or `None` for synthetic payloads.
    pub fn as_real(&self) -> Option<&[u8]> {
        match self {
            Payload::Real(b) => Some(b),
            Payload::Synthetic { .. } => None,
        }
    }

    /// Concatenates a list of payloads. The result is synthetic if any input
    /// chunk is synthetic (fidelity can only be lowered, never invented).
    pub fn concat<'a>(chunks: impl IntoIterator<Item = &'a Payload>) -> Payload {
        let chunks: Vec<&Payload> = chunks.into_iter().collect();
        if chunks.iter().all(|c| c.is_real()) {
            let mut out = Vec::with_capacity(chunks.iter().map(|c| c.len()).sum());
            for c in &chunks {
                out.extend_from_slice(c.as_real().expect("checked real"));
            }
            Payload::Real(out.into())
        } else {
            Payload::Synthetic {
                len: chunks.iter().map(|c| c.len()).sum(),
            }
        }
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Payload::Real(b) => write!(f, "Real({}B)", b.len()),
            Payload::Synthetic { len } => write!(f, "Synthetic({len}B)"),
        }
    }
}

/// Which payload fidelity an experiment runs at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum DataMode {
    /// Real bytes end-to-end; offloads perform the actual transformation.
    Functional,
    /// Synthetic descriptors; offloads account cycles without touching bytes.
    #[default]
    Modeled,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_preserves_kind_and_len() {
        let r = Payload::real(vec![1, 2, 3, 4, 5]);
        assert_eq!(r.slice(1, 4).to_vec(), vec![2, 3, 4]);
        let s = Payload::synthetic(100);
        let sub = s.slice(10, 30);
        assert_eq!(sub.len(), 20);
        assert!(!sub.is_real());
    }

    #[test]
    #[should_panic]
    fn slice_bounds_checked() {
        Payload::synthetic(5).slice(2, 9);
    }

    #[test]
    fn synthetic_materializes_magic() {
        let v = Payload::synthetic(4).to_vec();
        assert_eq!(v, vec![MAGIC_BYTE; 4]);
    }

    #[test]
    fn concat_real_keeps_bytes() {
        let a = Payload::real(vec![1, 2]);
        let b = Payload::real(vec![3]);
        assert_eq!(Payload::concat([&a, &b]).to_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn concat_demotes_to_synthetic() {
        let a = Payload::real(vec![1, 2]);
        let b = Payload::synthetic(3);
        let c = Payload::concat([&a, &b]);
        assert_eq!(c.len(), 5);
        assert!(!c.is_real());
    }

    #[test]
    fn empty_is_empty() {
        assert!(Payload::empty().is_empty());
        assert!(Payload::synthetic(0).is_empty());
        assert!(!Payload::synthetic(1).is_empty());
    }
}
