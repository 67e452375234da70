//! The paper's contribution: **autonomous NIC offloads** — a software/NIC
//! architecture that accelerates layer-5 protocols over TCP without
//! offloading TCP itself.
//!
//! The crate is protocol-agnostic. A concrete L5P (TLS in `ano-tls`,
//! NVMe-TCP in `ano-nvme`, or the tiny [`demo`] protocol) implements
//! [`flow::L5Flow`], and this crate supplies everything else:
//!
//! * [`walker`] — in-sequence traversal of L5P messages across packets;
//! * [`rx`] — the receive engine with the §4.3 resync state machine
//!   (offloading → searching → tracking, Fig. 7);
//! * [`tx`] — the transmit engine with driver-shadowed context recovery
//!   (§4.2, Fig. 6);
//! * [`nic`] — the NIC model: per-flow engines, the bounded context cache
//!   of §6.5, PCIe accounting for Fig. 16b, and multi-queue rx/tx;
//! * [`rss`] — receive-side scaling: the deterministic Toeplitz hash and
//!   the bucket→queue indirection table steering flows to queues;
//! * [`cache`] — the LRU context cache itself;
//! * [`fault`] — scripted device-fault injection (install failures,
//!   context loss/corruption, full resets) driving the degradation policy;
//! * [`msg`] / [`flow`] — framing and operation interfaces (Table 3's
//!   preconditions as a trait).
//!
//! # Examples
//!
//! ```
//! use ano_core::demo::{self, DemoFlow};
//! use ano_core::msg::DataRef;
//! use ano_core::rx::RxEngine;
//!
//! // "NIC" receives one in-sequence demo message and offloads it.
//! let mut engine = RxEngine::new(
//!     Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0);
//! let mut wire = demo::encode_msg(b"hello");
//! let flags = engine.on_packet(0, &mut DataRef::Real(&mut wire));
//! assert!(flags.tls_decrypted);
//! assert_eq!(&wire[demo::HDR_LEN..demo::HDR_LEN + 5], b"hello");
//! ```

pub mod cache;
pub mod demo;
pub mod fault;
pub mod flow;
pub mod msg;
pub mod nic;
pub mod rss;
pub mod rx;
pub mod tx;
pub mod walker;
