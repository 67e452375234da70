//! TLS 1.3 record framing (RFC 8446 §5), as used on the wire by the offload.
//!
//! A protected record is `header(5) || ciphertext || tag(16)`, where the
//! header is `content_type(1) legacy_version(2) length(2)` and `length`
//! covers ciphertext plus tag. The header is the offload's magic pattern
//! (§5.2): type must be a known value, the version is pinned to 0x0303
//! after the handshake, and the length is bounded by the record limit.
//!
//! Deviation from RFC 8446 noted for reviewers: real TLS 1.3 appends an
//! inner content-type byte to the plaintext before encryption; we omit it
//! (all traffic is application data here), which shifts lengths by one byte
//! and changes nothing the paper measures.

/// TLS record header length.
pub const HEADER_LEN: usize = 5;
/// AEAD tag length.
pub const TAG_LEN: usize = 16;
/// Maximum plaintext bytes per record (RFC 8446: 2^14).
pub const MAX_PLAINTEXT: usize = 16 * 1024;
/// Per-record wire overhead.
pub const OVERHEAD: usize = HEADER_LEN + TAG_LEN;
/// The legacy_version field value after the handshake.
pub const LEGACY_VERSION: [u8; 2] = [0x03, 0x03];

/// TLS content types valid on the wire (the offload's extensible match
/// list; §5.2 footnote: "HW can store an extensible list of these values").
pub const VALID_CONTENT_TYPES: [u8; 5] = [20, 21, 22, 23, 24];

/// Application data content type.
pub const CONTENT_APPDATA: u8 = 23;

/// A parsed record header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecordHeader {
    /// Content type byte.
    pub content_type: u8,
    /// Ciphertext + tag length.
    pub length: u16,
}

impl RecordHeader {
    /// Header for an application-data record carrying `plaintext_len` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `plaintext_len` exceeds [`MAX_PLAINTEXT`].
    pub fn for_plaintext(plaintext_len: usize) -> RecordHeader {
        assert!(plaintext_len <= MAX_PLAINTEXT, "record too large");
        RecordHeader {
            content_type: CONTENT_APPDATA,
            length: (plaintext_len + TAG_LEN) as u16,
        }
    }

    /// Serializes the 5 header bytes.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let l = self.length.to_be_bytes();
        [self.content_type, LEGACY_VERSION[0], LEGACY_VERSION[1], l[0], l[1]]
    }

    /// Parses and validates a header — the §5.2 magic pattern: known
    /// content type, pinned version, sane length.
    pub fn parse(bytes: &[u8]) -> Option<RecordHeader> {
        if bytes.len() < HEADER_LEN {
            return None;
        }
        let content_type = bytes[0];
        if !VALID_CONTENT_TYPES.contains(&content_type) {
            return None;
        }
        if bytes[1..3] != LEGACY_VERSION {
            return None;
        }
        let length = u16::from_be_bytes([bytes[3], bytes[4]]);
        if (length as usize) < TAG_LEN || (length as usize) > MAX_PLAINTEXT + TAG_LEN {
            return None;
        }
        Some(RecordHeader {
            content_type,
            length,
        })
    }

    /// Total on-wire record size (header + ciphertext + tag).
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.length as usize
    }

    /// Plaintext bytes carried.
    pub fn plaintext_len(&self) -> usize {
        self.length as usize - TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let h = RecordHeader::for_plaintext(1000);
        let parsed = RecordHeader::parse(&h.encode()).expect("valid");
        assert_eq!(parsed, h);
        assert_eq!(parsed.plaintext_len(), 1000);
        assert_eq!(parsed.total_len(), 1000 + OVERHEAD);
    }

    #[test]
    fn magic_pattern_rejections() {
        let good = RecordHeader::for_plaintext(100).encode();
        // Bad content type.
        let mut b = good;
        b[0] = 0x99;
        assert!(RecordHeader::parse(&b).is_none());
        // Bad version.
        let mut b = good;
        b[1] = 0x02;
        assert!(RecordHeader::parse(&b).is_none());
        // Length below a bare tag.
        let mut b = good;
        b[3] = 0;
        b[4] = 8;
        assert!(RecordHeader::parse(&b).is_none());
        // Length above the record limit.
        let mut b = good;
        b[3] = 0xFF;
        b[4] = 0xFF;
        assert!(RecordHeader::parse(&b).is_none());
        // Too short a slice.
        assert!(RecordHeader::parse(&good[..4]).is_none());
    }

    #[test]
    fn all_valid_types_accepted() {
        for t in VALID_CONTENT_TYPES {
            let mut b = RecordHeader::for_plaintext(50).encode();
            b[0] = t;
            assert!(RecordHeader::parse(&b).is_some(), "type {t}");
        }
    }

    #[test]
    #[should_panic]
    fn oversized_record_rejected() {
        RecordHeader::for_plaintext(MAX_PLAINTEXT + 1);
    }

    #[test]
    fn empty_record_is_just_tag() {
        let h = RecordHeader::for_plaintext(0);
        assert_eq!(h.length as usize, TAG_LEN);
        assert!(RecordHeader::parse(&h.encode()).is_some());
    }
}
