//! A cheap-to-clone, sliceable byte buffer.
//!
//! In-repo stand-in for the `bytes` crate's `Bytes`: an `Arc<[u8]>` plus a
//! `[start, end)` view. Cloning and slicing are O(1) and never copy payload
//! bytes, which is what makes dual-fidelity packet payloads affordable — a
//! retransmitted TCP segment is a view into the same allocation as the
//! original send buffer.

use std::ops::{Deref, RangeBounds};
use std::sync::Arc;

/// An immutable, reference-counted byte buffer view.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer. All empties share one static backing allocation —
    /// pure ACKs construct an empty payload per packet, so this must not
    /// hit the allocator.
    pub fn new() -> Bytes {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Bytes {
            data: Arc::clone(EMPTY.get_or_init(|| Arc::from(&[][..]))),
            start: 0,
            end: 0,
        }
    }

    /// Number of visible bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view. Accepts any range kind (`a..b`, `..b`, `a..`,
    /// `..`), interpreted relative to this view.
    ///
    /// # Panics
    ///
    /// Panics if the range falls outside `0..=self.len()` or is inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&e) => e + 1,
            Bound::Excluded(&e) => e,
            Bound::Unbounded => self.len(),
        };
        assert!(start <= end && end <= self.len(), "slice out of range");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + start,
            end: self.start + end,
        }
    }

    /// Copies the visible bytes into an owned `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// The visible bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// The visible bytes, writable (copy-on-write). They are written in
    /// place when this view is the only handle on its buffer and covers
    /// all of it; otherwise they are first copied, once, into a fresh
    /// buffer that only this view holds. Other views never see the writes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        if self.is_empty() {
            return &mut [];
        }
        let whole = self.start == 0 && self.end == self.data.len();
        if !whole || Arc::get_mut(&mut self.data).is_none() {
            *self = Bytes::from(self.as_slice());
        }
        Arc::get_mut(&mut self.data).expect("a fresh or unique buffer has one owner")
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let data: Arc<[u8]> = Arc::from(v);
        let end = data.len();
        Bytes { data, start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        let data: Arc<[u8]> = Arc::from(s);
        let end = data.len();
        Bytes { data, start: 0, end }
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::from(&s[..])
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::from(s.as_bytes())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({}B)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrips() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn empty_is_empty() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(Bytes::default().to_vec(), Vec::<u8>::new());
    }

    #[test]
    fn slice_is_zero_copy_view() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(s.to_vec(), vec![2, 3, 4]);
        // Slicing a slice composes offsets.
        let ss = s.slice(1..2);
        assert_eq!(ss.to_vec(), vec![3]);
        // Unbounded forms.
        assert_eq!(b.slice(..2).to_vec(), vec![0, 1]);
        assert_eq!(b.slice(4..).to_vec(), vec![4, 5]);
        assert_eq!(b.slice(..).len(), 6);
    }

    #[test]
    #[should_panic]
    fn slice_bounds_checked() {
        Bytes::from(vec![1u8, 2]).slice(1..4);
    }

    #[test]
    fn clones_share_storage() {
        let b = Bytes::from(vec![9u8; 1024]);
        let c = b.clone();
        assert_eq!(
            b.as_slice().as_ptr(),
            c.as_slice().as_ptr(),
            "clone points at the same allocation"
        );
    }

    #[test]
    fn equality_ignores_provenance() {
        let a = Bytes::from(vec![1u8, 2, 3]).slice(1..3);
        let b = Bytes::from(vec![2u8, 3]);
        assert_eq!(a, b);
        assert_eq!(a, vec![2u8, 3]);
    }

    #[test]
    fn make_mut_writes_in_place_only_when_unique_and_whole() {
        let mut b = Bytes::from(vec![1u8, 2, 3]);
        let at = b.as_slice().as_ptr();
        b.make_mut()[0] = 9;
        assert_eq!(
            (b.as_slice().as_ptr(), b.to_vec()),
            (at, vec![9, 2, 3]),
            "unique: in place"
        );

        let shared = b.clone();
        b.make_mut()[1] = 8;
        assert_ne!(b.as_slice().as_ptr(), at, "shared: copied");
        assert_eq!(
            (b.to_vec(), shared.to_vec()),
            (vec![9, 8, 3], vec![9, 2, 3])
        );

        let mut part = Bytes::from(vec![1u8, 2, 3]).slice(1..);
        part.make_mut()[0] = 7;
        assert_eq!(
            part.to_vec(),
            vec![7, 3],
            "a partial view is copied out whole"
        );
        assert!(Bytes::new().make_mut().is_empty());
    }

    #[test]
    fn from_str_and_array() {
        assert_eq!(Bytes::from("hi").to_vec(), b"hi".to_vec());
        assert_eq!(Bytes::from(b"hey").to_vec(), b"hey".to_vec());
    }
}
