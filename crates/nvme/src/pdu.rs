//! NVMe/TCP PDU framing (NVMe-oF TCP transport binding).
//!
//! Every PDU starts with an 8-byte common header `type(1) flags(1) hlen(1)
//! pdo(1) plen(4, LE)`; `plen` covers the whole PDU including digests. The
//! common header is the offload's magic pattern (§5.1): the type byte has
//! only a handful of valid values, `hlen` is a per-type constant, and `plen`
//! must be consistent with both.
//!
//! Simplifications relative to the full binding, documented for reviewers:
//! writes carry their data inline in the command capsule (no R2T round
//! trip — R2T is implemented but unused by default), `pdo` padding is not
//! used, and the header digest is disabled (the data digest — the offloaded
//! computation — is always on for data-bearing PDUs).

// ano-lint: allow-file(transitive-panic): fixed-offset PDU codec: every index is a compile-time header offset behind the length guards at each parse entry
use ano_crypto::crc32c::crc32c;

/// Common-header length.
pub const CH_LEN: usize = 8;
/// Data-digest (CRC32C) length.
pub const DDGST_LEN: usize = 4;
/// Submission-queue-entry length inside a command capsule.
pub const SQE_LEN: usize = 64;
/// Completion-queue-entry length inside a response capsule.
pub const CQE_LEN: usize = 16;
/// Extended header length of data/R2T PDUs (after the common header).
pub const DATA_EXT_LEN: usize = 16;
/// Largest data payload we accept in one data PDU.
pub const MAX_DATA: usize = 1 << 20;

/// PDU type byte values (NVMe/TCP §3.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PduType {
    /// Initialize Connection Request.
    ICReq = 0x00,
    /// Initialize Connection Response.
    ICResp = 0x01,
    /// Command capsule (SQE + optional inline data).
    CapsuleCmd = 0x04,
    /// Response capsule (CQE).
    CapsuleResp = 0x05,
    /// Host-to-controller data.
    H2CData = 0x06,
    /// Controller-to-host data.
    C2HData = 0x07,
    /// Ready-to-transfer.
    R2T = 0x09,
}

impl PduType {
    /// Parses a type byte.
    pub fn from_byte(b: u8) -> Option<PduType> {
        Some(match b {
            0x00 => PduType::ICReq,
            0x01 => PduType::ICResp,
            0x04 => PduType::CapsuleCmd,
            0x05 => PduType::CapsuleResp,
            0x06 => PduType::H2CData,
            0x07 => PduType::C2HData,
            0x09 => PduType::R2T,
            _ => return None,
        })
    }

    /// The per-type header length (`hlen`), a well-known constant (§5.1).
    pub fn hlen(self) -> usize {
        match self {
            PduType::ICReq | PduType::ICResp => 128,
            PduType::CapsuleCmd => CH_LEN + SQE_LEN,
            PduType::CapsuleResp => CH_LEN + CQE_LEN,
            PduType::H2CData | PduType::C2HData | PduType::R2T => CH_LEN + DATA_EXT_LEN,
        }
    }

    /// Whether this type carries a data section (and thus a data digest).
    pub fn has_data(self) -> bool {
        matches!(self, PduType::CapsuleCmd | PduType::H2CData | PduType::C2HData)
    }
}

/// Flags byte: data digest present.
pub const FLAG_DDGST: u8 = 0x02;

/// A parsed common header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommonHeader {
    /// PDU type.
    pub kind: PduType,
    /// Flags byte.
    pub flags: u8,
    /// Header length.
    pub hlen: u8,
    /// Total PDU length on the wire.
    pub plen: u32,
}

impl CommonHeader {
    /// Encodes the 8 bytes.
    pub fn encode(&self) -> [u8; CH_LEN] {
        let mut b = [0u8; CH_LEN];
        b[0] = self.kind as u8;
        b[1] = self.flags;
        b[2] = self.hlen;
        b[3] = 0; // pdo unused
        b[4..8].copy_from_slice(&self.plen.to_le_bytes());
        b
    }

    /// Parses and validates — the §5.1 magic pattern.
    pub fn parse(bytes: &[u8]) -> Option<CommonHeader> {
        if bytes.len() < CH_LEN {
            return None;
        }
        let kind = PduType::from_byte(bytes[0])?;
        let flags = bytes[1];
        let hlen = bytes[2];
        if hlen as usize != kind.hlen() {
            return None;
        }
        let plen = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        let min = kind.hlen() as u32;
        let ddgst = if flags & FLAG_DDGST != 0 { DDGST_LEN } else { 0 } as u32;
        let max = min + MAX_DATA as u32 + ddgst;
        if plen < min || plen > max {
            return None;
        }
        if !kind.has_data() && plen != min {
            return None;
        }
        if kind.has_data() && flags & FLAG_DDGST != 0 && plen < min + ddgst {
            return None;
        }
        Some(CommonHeader {
            kind,
            flags,
            hlen,
            plen,
        })
    }

    /// Data-section length (excluding headers and digest).
    pub fn data_len(&self) -> usize {
        let ddgst = if self.flags & FLAG_DDGST != 0 { DDGST_LEN } else { 0 };
        self.plen as usize - self.hlen as usize - ddgst
    }

    /// True when a data digest trails the PDU.
    pub fn has_ddgst(&self) -> bool {
        self.flags & FLAG_DDGST != 0
    }
}

/// NVMe I/O opcodes used in command capsules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum IoOpcode {
    /// Write (data inline in our binding).
    Write = 0x01,
    /// Read.
    Read = 0x02,
}

/// Encodes an `N`-byte PDU header (`hlen` = `N`): the common header for
/// `kind`, then `psh` fills the PDU-specific bytes after it.
fn header<const N: usize>(kind: PduType, flags: u8, plen: u32, psh: impl FnOnce(&mut [u8])) -> [u8; N] {
    let mut h = [0u8; N];
    h[..CH_LEN].copy_from_slice(&CommonHeader { kind, flags, hlen: N as u8, plen }.encode());
    psh(&mut h[CH_LEN..]);
    h
}

/// Total length of the PDU whose encoded header is `header` (its `plen`).
pub fn pdu_len(header: &[u8]) -> usize {
    u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")) as usize
}

/// The header (common header + SQE) of a command capsule carrying `inline`
/// bytes of write data.
pub fn capsule_cmd_header(cid: u16, op: IoOpcode, offset: u64, len: u32, inline: u32) -> [u8; CH_LEN + SQE_LEN] {
    let (flags, ddgst) = if inline > 0 { (FLAG_DDGST, DDGST_LEN as u32) } else { (0, 0) };
    let plen = (CH_LEN + SQE_LEN) as u32 + inline + ddgst;
    header(PduType::CapsuleCmd, flags, plen, |sqe| {
        sqe[0] = op as u8;
        sqe[2..4].copy_from_slice(&cid.to_le_bytes());
        sqe[8..16].copy_from_slice(&offset.to_le_bytes());
        sqe[16..20].copy_from_slice(&len.to_le_bytes());
    })
}

/// Builds a command capsule: read (no data) or write (inline data + digest).
pub fn encode_capsule_cmd(cid: u16, op: IoOpcode, offset: u64, len: u32, data: Option<&[u8]>) -> Vec<u8> {
    let data = data.unwrap_or_default();
    let header = capsule_cmd_header(cid, op, offset, len, data.len() as u32);
    // ano-lint: allow(hot-alloc): per-PDU encode buffer, inventoried for arena round 2 (ROADMAP item 1)
    let mut out = Vec::with_capacity(pdu_len(&header));
    out.extend_from_slice(&header);
    if !data.is_empty() {
        out.extend_from_slice(data);
        out.extend_from_slice(&crc32c(data).to_le_bytes());
    }
    out
}

/// Fields of a parsed command capsule SQE.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SqeFields {
    /// Command identifier.
    pub cid: u16,
    /// Opcode.
    pub op: IoOpcode,
    /// Byte offset on the device.
    pub offset: u64,
    /// Transfer length in bytes.
    pub len: u32,
}

/// Parses the 64-byte SQE.
pub fn parse_sqe(sqe: &[u8]) -> Option<SqeFields> {
    if sqe.len() < SQE_LEN {
        return None;
    }
    let op = match sqe[0] {
        0x01 => IoOpcode::Write,
        0x02 => IoOpcode::Read,
        _ => return None,
    };
    Some(SqeFields {
        cid: u16::from_le_bytes([sqe[2], sqe[3]]),
        op,
        offset: u64::from_le_bytes(sqe[8..16].try_into().expect("8 bytes")),
        len: u32::from_le_bytes(sqe[16..20].try_into().expect("4 bytes")),
    })
}

/// The header (common header + CQE) of a response capsule — all of it.
pub fn capsule_resp_header(cid: u16, status: u16) -> [u8; CH_LEN + CQE_LEN] {
    header(PduType::CapsuleResp, 0, (CH_LEN + CQE_LEN) as u32, |cqe| {
        cqe[12..14].copy_from_slice(&cid.to_le_bytes());
        cqe[14..16].copy_from_slice(&status.to_le_bytes());
    })
}

/// Builds a response capsule.
pub fn encode_capsule_resp(cid: u16, status: u16) -> Vec<u8> {
    capsule_resp_header(cid, status).to_vec()
}

/// Parses a CQE: `(cid, status)`.
pub fn parse_cqe(cqe: &[u8]) -> Option<(u16, u16)> {
    if cqe.len() < CQE_LEN {
        return None;
    }
    Some((
        u16::from_le_bytes([cqe[12], cqe[13]]),
        u16::from_le_bytes([cqe[14], cqe[15]]),
    ))
}

/// The header (common header + data extended header) of a C2H/H2C data
/// PDU carrying `datal` bytes at buffer offset `datao`.
///
/// # Panics
///
/// Panics if `kind` is not a data PDU type.
pub fn data_pdu_header(kind: PduType, cid: u16, datao: u32, datal: u32) -> [u8; CH_LEN + DATA_EXT_LEN] {
    assert!(kind.has_data() && kind != PduType::CapsuleCmd, "data PDU type");
    let plen = (CH_LEN + DATA_EXT_LEN + DDGST_LEN) as u32 + datal;
    header(kind, FLAG_DDGST, plen, |ext| {
        ext[0..2].copy_from_slice(&cid.to_le_bytes());
        ext[4..8].copy_from_slice(&datao.to_le_bytes());
        ext[8..12].copy_from_slice(&datal.to_le_bytes());
    })
}

/// Builds a C2H/H2C data PDU. The digest is real over `data` unless
/// `dummy_digest` is set (transmit offload: the NIC fills it, §5.1).
pub fn encode_data_pdu(
    kind: PduType,
    cid: u16,
    datao: u32,
    data: &[u8],
    dummy_digest: bool,
) -> Vec<u8> {
    assert!(data.len() <= MAX_DATA, "data PDU too large");
    let header = data_pdu_header(kind, cid, datao, data.len() as u32);
    let mut out = Vec::with_capacity(pdu_len(&header));
    out.extend_from_slice(&header);
    out.extend_from_slice(data);
    let digest = if dummy_digest { 0 } else { crc32c(data) };
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Fields of a data PDU's extended header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataExt {
    /// Command identifier the data belongs to.
    pub cid: u16,
    /// Offset of this data within the command's buffer.
    pub datao: u32,
    /// Data length in this PDU.
    pub datal: u32,
}

/// Parses the 16-byte data extended header.
pub fn parse_data_ext(ext: &[u8]) -> Option<DataExt> {
    if ext.len() < DATA_EXT_LEN {
        return None;
    }
    Some(DataExt {
        cid: u16::from_le_bytes([ext[0], ext[1]]),
        datao: u32::from_le_bytes(ext[4..8].try_into().expect("4 bytes")),
        datal: u32::from_le_bytes(ext[8..12].try_into().expect("4 bytes")),
    })
}

/// Builds an R2T PDU (implemented for completeness; unused by the default
/// inline-write binding).
pub fn encode_r2t(cid: u16, ttag: u16, r2to: u32, r2tl: u32) -> Vec<u8> {
    let h: [u8; CH_LEN + DATA_EXT_LEN] =
        header(PduType::R2T, 0, (CH_LEN + DATA_EXT_LEN) as u32, |ext| {
            ext[0..2].copy_from_slice(&cid.to_le_bytes());
            ext[2..4].copy_from_slice(&ttag.to_le_bytes());
            ext[4..8].copy_from_slice(&r2to.to_le_bytes());
            ext[8..12].copy_from_slice(&r2tl.to_le_bytes());
        });
    h.to_vec()
}

/// The PDU-specific header fields a receiver reads, by PDU type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Psh {
    /// The SQE of a command capsule.
    pub sqe: Option<SqeFields>,
    /// The extended header of a data or R2T PDU.
    pub ext: Option<DataExt>,
    /// The CQE `(cid, status)` of a response capsule.
    pub cqe: Option<(u16, u16)>,
}

impl Psh {
    /// Decodes the PSH bytes (everything after the common header) of a
    /// `kind` PDU.
    pub fn parse(kind: PduType, psh: &[u8]) -> Psh {
        match kind {
            PduType::CapsuleCmd => Psh { sqe: parse_sqe(psh), ..Psh::default() },
            PduType::C2HData | PduType::H2CData | PduType::R2T => Psh {
                ext: parse_data_ext(psh),
                ..Psh::default()
            },
            PduType::CapsuleResp => Psh { cqe: parse_cqe(psh), ..Psh::default() },
            PduType::ICReq | PduType::ICResp => Psh::default(),
        }
    }

    /// The command id the PDU refers to.
    pub fn cid(&self) -> Option<u16> {
        (self.sqe.map(|s| s.cid))
            .or(self.ext.map(|e| e.cid))
            .or(self.cqe.map(|(cid, _)| cid))
    }
}

/// Decodes PDU header bytes: the common header (the §5.1 magic pattern),
/// and the PSH too when `h` holds all `hlen` bytes — a header registered
/// with a modeled frame. Off the wire, `h` is the common header alone and
/// the PSH follows through the data path.
pub fn parse_header(h: &[u8]) -> Option<(CommonHeader, Option<Psh>)> {
    let ch = CommonHeader::parse(h)?;
    let psh = h.get(CH_LEN..ch.hlen as usize).map(|p| Psh::parse(ch.kind, p));
    Some((ch, psh))
}

/// Builds an ICReq/ICResp PDU (connection setup; offloads attach after it).
pub fn encode_ic(kind: PduType) -> Vec<u8> {
    assert!(matches!(kind, PduType::ICReq | PduType::ICResp));
    let ch = CommonHeader {
        kind,
        flags: 0,
        hlen: 128,
        plen: 128,
    };
    let mut out = vec![0u8; 128];
    out[..CH_LEN].copy_from_slice(&ch.encode());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_header_roundtrip() {
        let ch = CommonHeader {
            kind: PduType::C2HData,
            flags: FLAG_DDGST,
            hlen: 24,
            plen: 24 + 4096 + 4,
        };
        let parsed = CommonHeader::parse(&ch.encode()).expect("valid");
        assert_eq!(parsed, ch);
        assert_eq!(parsed.data_len(), 4096);
        assert!(parsed.has_ddgst());
    }

    #[test]
    fn magic_pattern_rejects_bad_headers() {
        let ch = CommonHeader {
            kind: PduType::CapsuleResp,
            flags: 0,
            hlen: 24,
            plen: 24,
        };
        let good = ch.encode();
        // Invalid type byte.
        let mut b = good;
        b[0] = 0x42;
        assert!(CommonHeader::parse(&b).is_none());
        // hlen inconsistent with type.
        let mut b = good;
        b[2] = 25;
        assert!(CommonHeader::parse(&b).is_none());
        // plen too small.
        let mut b = good;
        b[4] = 8;
        assert!(CommonHeader::parse(&b).is_none());
        // Non-data PDU with trailing bytes.
        let mut b = good;
        b[4] = 30;
        assert!(CommonHeader::parse(&b).is_none());
    }

    #[test]
    fn capsule_cmd_read_roundtrip() {
        let wire = encode_capsule_cmd(7, IoOpcode::Read, 4096, 65536, None);
        let ch = CommonHeader::parse(&wire).expect("valid");
        assert_eq!(ch.kind, PduType::CapsuleCmd);
        assert_eq!(ch.plen as usize, wire.len());
        assert_eq!(ch.data_len(), 0);
        let sqe = parse_sqe(&wire[CH_LEN..]).expect("sqe");
        assert_eq!(sqe, SqeFields {
            cid: 7,
            op: IoOpcode::Read,
            offset: 4096,
            len: 65536,
        });
    }

    #[test]
    fn capsule_cmd_write_has_digest() {
        let data = vec![0xABu8; 1000];
        let wire = encode_capsule_cmd(3, IoOpcode::Write, 0, 1000, Some(&data));
        let ch = CommonHeader::parse(&wire).expect("valid");
        assert!(ch.has_ddgst());
        assert_eq!(ch.data_len(), 1000);
        let dg = u32::from_le_bytes(wire[wire.len() - 4..].try_into().unwrap());
        assert_eq!(dg, crc32c(&data));
    }

    #[test]
    fn data_pdu_roundtrip() {
        let data: Vec<u8> = (0..255).cycle().take(10_000).collect();
        let wire = encode_data_pdu(PduType::C2HData, 11, 4096, &data, false);
        let ch = CommonHeader::parse(&wire).expect("valid");
        assert_eq!(ch.data_len(), 10_000);
        let ext = parse_data_ext(&wire[CH_LEN..]).expect("ext");
        assert_eq!(ext, DataExt {
            cid: 11,
            datao: 4096,
            datal: 10_000,
        });
        let dg = u32::from_le_bytes(wire[wire.len() - 4..].try_into().unwrap());
        assert_eq!(dg, crc32c(&data));
    }

    #[test]
    fn dummy_digest_is_zero() {
        let wire = encode_data_pdu(PduType::C2HData, 1, 0, &[1, 2, 3], true);
        assert_eq!(&wire[wire.len() - 4..], &[0, 0, 0, 0]);
    }

    #[test]
    fn resp_and_r2t_and_ic() {
        let resp = encode_capsule_resp(9, 0);
        assert_eq!(parse_cqe(&resp[CH_LEN..]), Some((9, 0)));
        let r2t = encode_r2t(1, 2, 3, 4);
        assert_eq!(CommonHeader::parse(&r2t).unwrap().kind, PduType::R2T);
        let ic = encode_ic(PduType::ICReq);
        assert_eq!(CommonHeader::parse(&ic).unwrap().plen, 128);
    }
}
