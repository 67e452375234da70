//! From-scratch cryptographic kernels for the *Autonomous NIC Offloads*
//! reproduction.
//!
//! Every data-intensive operation the paper offloads (or discusses as
//! offloadable) is implemented here, with the streaming/incremental shape
//! that autonomous offloading requires (§3.2: computable over any byte range
//! of a message given constant-size state):
//!
//! * [`gcm`] — AES-GCM with exportable mid-message state (the TLS offload);
//! * [`crc32c`] — incremental + combinable CRC32C (the NVMe-TCP offload);
//! * [`aes`] — the block cipher underneath GCM (T-table rounds);
//! * [`ghash`] — GCM's universal hash (8-bit-table multiply by `H`).
//!
//! These run for real in functional-mode simulations and tests; the
//! experiments' cycle accounting separately models AES-NI-class speeds.
//!
//! # Examples
//!
//! ```
//! use ano_crypto::aes::Aes;
//! use ano_crypto::gcm::{seal, open};
//!
//! let aes = Aes::new_128(&[0x42; 16]);
//! let mut data = *b"layer-5 message";
//! let tag = seal(&aes, &[1; 12], b"header", &mut data);
//! open(&aes, &[1; 12], b"header", &mut data, &tag)?;
//! assert_eq!(&data, b"layer-5 message");
//! # Ok::<(), ano_crypto::AuthError>(())
//! ```

pub mod aes;
pub mod crc32c;
pub mod gcm;
pub mod ghash;
pub mod hex;

/// Authentication failure: a tag or digest did not verify.
///
/// Deliberately carries no detail (that would be an oracle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuthError;

impl std::fmt::Display for AuthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "authentication failed")
    }
}

impl std::error::Error for AuthError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auth_error_displays() {
        assert_eq!(AuthError.to_string(), "authentication failed");
    }

    #[test]
    fn error_traits_present() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<AuthError>();
    }
}
