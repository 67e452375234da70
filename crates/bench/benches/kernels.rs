//! Micro-benches for the real data-path kernels — the "on-CPU
//! acceleration" measurements that feed the cost-model calibration.
//!
//! Runs under `cargo bench` via the hermetic harness in `ano_bench::micro`
//! (no criterion). Pass a substring argument to filter, e.g.
//! `cargo bench --bench kernels -- crc32c`.

use ano_bench::micro::Harness;

use ano_core::demo::{self, DemoFlow};
use ano_core::msg::DataRef;
use ano_core::rx::RxEngine;
use ano_crypto::aes::Aes;
use ano_crypto::crc32c::crc32c;
use ano_crypto::gcm;
use ano_crypto::sha::{Digest, Sha256};
use ano_tls::record::HEADER_LEN;
use ano_tls::session::TlsSession;

fn crypto_kernels(h: &mut Harness) {
    let mut g = h.group("crypto");
    for size in [1448usize, 16 * 1024] {
        let data = vec![0xA5u8; size];
        g.throughput_bytes(size as u64);
        let aes = Aes::new_128(&[7; 16]);
        g.bench(&format!("aes128-gcm-seal/{size}"), || {
            let mut buf = data.clone();
            gcm::seal(&aes, &[1; 12], b"aad", &mut buf)
        });
        g.bench(&format!("crc32c/{size}"), || crc32c(&data));
        g.bench(&format!("sha256/{size}"), || Sha256::digest(&data));
    }
    g.finish();
}

fn record_paths(h: &mut Harness) {
    let mut g = h.group("tls-records");
    let session = TlsSession::from_seed(5);
    let plain = vec![0x42u8; 16 * 1024];
    g.throughput_bytes(plain.len() as u64);
    g.bench("seal-record-16k", || session.seal_record(0, &plain));
    let wire = session.seal_record(0, &plain);
    g.bench("open-record-16k", || {
        session.open_record(0, &wire).expect("auth")
    });
    g.finish();
}

fn engine_paths(h: &mut Harness) {
    let mut g = h.group("offload-engine");
    // In-sequence walking of demo messages (the NIC fast path).
    let stream: Vec<u8> = (0..64)
        .flat_map(|i| demo::encode_msg(&vec![i as u8; 1000]))
        .collect();
    g.throughput_bytes(stream.len() as u64);
    g.bench("rx-walk-insequence", || {
        let mut e = RxEngine::new(Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0);
        for (i, chunk) in stream.chunks(1448).enumerate() {
            let mut buf = chunk.to_vec();
            e.on_packet((i * 1448) as u64, &mut DataRef::Real(&mut buf));
        }
    });
    // Speculative magic-pattern search over a packet that has no match
    // (worst case for the searching state).
    let noise = vec![0x11u8; 1448];
    g.throughput_bytes(noise.len() as u64);
    g.bench("rx-speculative-search", || {
        let mut e = RxEngine::new(Box::new(DemoFlow::rx_functional(demo::DEFAULT_KEY)), 0, 0);
        // A far-ahead packet forces search; scanning happens inline.
        let mut buf = noise.clone();
        e.on_packet(1 << 20, &mut DataRef::Real(&mut buf));
    });
    // TLS header parse (the per-record control cost).
    let hdr = ano_tls::record::RecordHeader::for_plaintext(16 * 1024).encode();
    g.bench("tls-header-parse", || ano_tls::record::RecordHeader::parse(&hdr));
    let _ = HEADER_LEN;
    g.finish();
}

fn main() {
    let mut h = Harness::from_args();
    crypto_kernels(&mut h);
    record_paths(&mut h);
    engine_paths(&mut h);
}
