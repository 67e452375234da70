//! TLS session keys and one-shot record protection (the software path).
//!
//! A [`TlsSession`] holds one direction's traffic key material after the
//! handshake (we skip the handshake itself — OpenSSL's handshake is
//! unmodified in the paper, §5.2) and encrypts/decrypts whole records with
//! AES-128-GCM, deriving each record's nonce from the record sequence
//! number exactly as RFC 8446 §5.3 does: `nonce = static_iv XOR seq64`.

use std::sync::Arc;

use ano_crypto::aes::Aes;
use ano_crypto::gcm::{Direction, GcmKey, GcmStream};
use ano_crypto::AuthError;
use ano_sim::rng::SimRng;

use crate::record::{RecordHeader, HEADER_LEN, TAG_LEN};

/// One direction's record-protection state. Cloning shares the key: the
/// expanded AES key, `H` and the GHASH table are built once per session.
#[derive(Clone)]
pub struct TlsSession {
    key: Arc<GcmKey>,
    static_iv: [u8; 12],
}

impl std::fmt::Debug for TlsSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TlsSession").finish()
    }
}

impl TlsSession {
    /// Builds a session from explicit key material.
    pub fn new(key: [u8; 16], static_iv: [u8; 12]) -> TlsSession {
        TlsSession {
            key: Arc::new(GcmKey::new(Aes::new_128(&key))),
            static_iv,
        }
    }

    /// Derives deterministic key material from a seed (stands in for the
    /// handshake's key schedule in tests and simulations).
    pub fn from_seed(seed: u64) -> TlsSession {
        let mut rng = SimRng::seed(seed ^ 0x7151_5EED);
        let mut key = [0u8; 16];
        let mut iv = [0u8; 12];
        rng.fill_bytes(&mut key);
        rng.fill_bytes(&mut iv);
        TlsSession::new(key, iv)
    }

    /// The per-record nonce for record number `seq` (RFC 8446 §5.3).
    pub fn nonce(&self, seq: u64) -> [u8; 12] {
        let mut n = self.static_iv;
        for (i, b) in seq.to_be_bytes().iter().enumerate() {
            n[4 + i] ^= b;
        }
        n
    }

    /// Encrypts `plaintext` as record number `seq`; returns the full wire
    /// record (header, ciphertext, tag).
    ///
    /// # Panics
    ///
    /// Panics if `plaintext` exceeds the record size limit.
    pub fn seal_record(&self, seq: u64, plaintext: &[u8]) -> Vec<u8> {
        let hdr = RecordHeader::for_plaintext(plaintext.len());
        let mut out = Vec::with_capacity(hdr.total_len());
        out.extend_from_slice(&hdr.encode());
        out.extend_from_slice(plaintext);
        let nonce = self.nonce(seq);
        let (head, body) = out.split_at_mut(HEADER_LEN);
        let tag = self.key.seal(&nonce, head, body);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts a full wire record numbered `seq`, returning the plaintext.
    ///
    /// # Errors
    ///
    /// Returns [`AuthError`] on framing or authentication failure.
    pub fn open_record(&self, seq: u64, wire: &[u8]) -> Result<Vec<u8>, AuthError> {
        let hdr = RecordHeader::parse(wire).ok_or(AuthError)?;
        if wire.len() != hdr.total_len() {
            return Err(AuthError);
        }
        let body_end = wire.len() - TAG_LEN;
        let mut body = wire[HEADER_LEN..body_end].to_vec();
        let tag: [u8; TAG_LEN] = wire[body_end..].try_into().expect("tag length");
        let nonce = self.nonce(seq);
        self.key.open(&nonce, &wire[..HEADER_LEN], &mut body, &tag)?;
        Ok(body)
    }

    /// Starts an incremental stream for record `seq` (what the NIC context
    /// holds), with the record header as AAD. The stream shares the
    /// session's key: no key expansion and no AES block, and no allocation
    /// once the session's first stream has built its GHASH table.
    pub fn stream(&self, seq: u64, hdr: &[u8; HEADER_LEN], dir: Direction) -> GcmStream {
        GcmStream::new(Arc::clone(&self.key), &self.nonce(seq), hdr, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrip() {
        let s = TlsSession::from_seed(1);
        let plain = b"autonomy".to_vec();
        let wire = s.seal_record(3, &plain);
        assert_eq!(wire.len(), plain.len() + HEADER_LEN + TAG_LEN);
        assert_eq!(s.open_record(3, &wire).expect("auth"), plain);
    }

    #[test]
    fn wrong_sequence_number_fails_auth() {
        let s = TlsSession::from_seed(2);
        let wire = s.seal_record(5, b"data");
        assert!(s.open_record(6, &wire).is_err(), "nonce mismatch");
    }

    #[test]
    fn tampered_record_fails() {
        let s = TlsSession::from_seed(3);
        let mut wire = s.seal_record(0, b"payload bytes");
        wire[HEADER_LEN + 2] ^= 1;
        assert!(s.open_record(0, &wire).is_err());
    }

    #[test]
    fn nonce_xors_sequence() {
        let s = TlsSession::new([0; 16], [0xAA; 12]);
        let n0 = s.nonce(0);
        let n1 = s.nonce(1);
        assert_eq!(n0, [0xAA; 12]);
        assert_eq!(n1[11], 0xAA ^ 1);
        assert_eq!(n0[..4], n1[..4], "first four bytes untouched");
    }

    #[test]
    fn deterministic_seeding() {
        let a = TlsSession::from_seed(42).seal_record(0, b"x");
        let b = TlsSession::from_seed(42).seal_record(0, b"x");
        assert_eq!(a, b);
        let c = TlsSession::from_seed(43).seal_record(0, b"x");
        assert_ne!(a, c);
    }

    #[test]
    fn incremental_stream_matches_oneshot() {
        let s = TlsSession::from_seed(9);
        let plain = vec![0x42u8; 5000];
        let wire = s.seal_record(7, &plain);
        // Re-encrypt incrementally and compare.
        let hdr: [u8; HEADER_LEN] = wire[..HEADER_LEN].try_into().unwrap();
        let mut st = s.stream(7, &hdr, Direction::Encrypt);
        let mut body = plain.clone();
        let (a, b) = body.split_at_mut(1234);
        st.process(a);
        st.process(b);
        assert_eq!(&wire[HEADER_LEN..HEADER_LEN + 5000], &body[..]);
        assert_eq!(&wire[HEADER_LEN + 5000..], &st.tag());
    }
}
