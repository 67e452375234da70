//! NVMe-over-TCP with autonomous NIC offloads (paper §5.1).
//!
//! * [`pdu`] — wire framing (capsules, data PDUs, digests) and the §5.1
//!   magic pattern;
//! * [`block`] — the remote-SSD model (Optane-class latency, 2.67 GB/s);
//! * [`offload`] — NIC-side flows: CRC32C verification/fill and zero-copy
//!   placement into pre-registered block-layer buffers (Fig. 9), plus the
//!   `l5o_add_rr_state` CID map;
//! * [`parser`] — software PDU reassembly with offload-aware flags;
//! * [`host`] / [`target`] — the initiator and controller endpoints.
//!
//! # Examples
//!
//! ```
//! use ano_nvme::pdu::{encode_capsule_cmd, CommonHeader, IoOpcode};
//! let wire = encode_capsule_cmd(1, IoOpcode::Read, 0, 4096, None);
//! let ch = CommonHeader::parse(&wire).expect("valid magic pattern");
//! assert_eq!(ch.plen as usize, wire.len());
//! ```

pub mod block;
pub mod host;
pub mod offload;
pub mod parser;
pub mod pdu;
pub mod target;
