//! TLS 1.3 record layer with autonomous NIC offload (paper §5.2).
//!
//! * [`record`] — wire framing and the offload's magic pattern;
//! * [`session`] — traffic keys, per-record nonces, one-shot protection;
//! * [`ktls`] — the kernel-TLS-style software data path with offload hooks,
//!   zero-copy sendfile, and the partial-record fallback;
//! * [`offload`] — the NIC-side [`ano_core::flow::L5Flow`] implementations
//!   for receive and transmit, composable with an inner NVMe engine for
//!   the combined NVMe-TLS offload (§5.3).
//!
//! # Examples
//!
//! ```
//! use ano_tls::session::TlsSession;
//! let s = TlsSession::from_seed(1);
//! let wire = s.seal_record(0, b"browser bytes");
//! assert_eq!(s.open_record(0, &wire).unwrap(), b"browser bytes");
//! ```

pub mod ktls;
pub mod offload;
pub mod record;
pub mod session;
