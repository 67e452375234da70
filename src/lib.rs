//! # Autonomous NIC Offloads — a behavioral reproduction in Rust
//!
//! This crate is the facade over a workspace that reproduces *Autonomous
//! NIC Offloads* (Pismenny et al., ASPLOS 2021): NIC acceleration of
//! layer-5 protocols (TLS 1.3, NVMe-over-TCP) **without** offloading the
//! TCP/IP stack, including the paper's out-of-sequence resynchronization
//! machinery, transmit-side context recovery, the bounded NIC context
//! cache, and the full evaluation harness.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! # Examples
//!
//! ```
//! use autonomous_nic_offloads::core::demo::{self, DemoFlow};
//! use autonomous_nic_offloads::core::msg::DataRef;
//! use autonomous_nic_offloads::core::rx::RxEngine;
//!
//! // A NIC receive engine offloads one in-sequence demo message.
//! let mut engine = RxEngine::new(
//!     Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0);
//! let mut wire = demo::encode_msg(b"hello");
//! let flags = engine.on_packet(0, &mut DataRef::Real(&mut wire));
//! assert!(flags.tls_decrypted);
//! ```

pub use ano_accel as accel;
pub use ano_apps as apps;
pub use ano_core as core;
pub use ano_crypto as crypto;
pub use ano_nvme as nvme;
pub use ano_sim as sim;
pub use ano_stack as stack;
pub use ano_tcp as tcp;
pub use ano_tls as tls;
