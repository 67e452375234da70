//! On-CPU vs off-CPU accelerator models (paper §2.2/§2.3, Table 1).
//!
//! Table 1 contrasts Intel QAT (an off-CPU PCIe accelerator) with AES-NI
//! (on-CPU instructions) for a single core encrypting 16 KiB blocks:
//! synchronous QAT pays an invocation round trip per block and loses badly;
//! 128 threads overlap the latency and expose the device's full bandwidth,
//! which beats AES-NI only for the cipher suite AES-NI cannot fully
//! accelerate (CBC-HMAC-SHA1, whose SHA-1 half runs in scalar code).
//!
//! The models here reproduce that mechanism: a device with fixed invocation
//! latency and internal bandwidth, versus in-core ciphers with calibrated
//! cycles/byte on the paper's 2.4 GHz Xeon E5-2620 v3.

/// Cipher suites from Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cipher {
    /// AES-128-CBC authenticated with HMAC-SHA1 (SHA-1 not AES-NI-able).
    Aes128CbcHmacSha1,
    /// AES-128-GCM (fully accelerated by AES-NI + PCLMUL).
    Aes128Gcm,
}

/// On-CPU accelerator (AES-NI-class) model.
#[derive(Clone, Copy, Debug)]
pub struct OnCpuModel {
    /// Core frequency, Hz.
    pub freq_hz: f64,
    /// Cycles/byte for AES-128-GCM with AES-NI + PCLMULQDQ.
    pub gcm_cpb: f64,
    /// Cycles/byte for AES-128-CBC-HMAC-SHA1 (CBC serial + scalar SHA-1).
    pub cbc_hmac_cpb: f64,
}

impl Default for OnCpuModel {
    fn default() -> Self {
        // Calibrated to Table 1's AES-NI column on the 2.4 GHz E5-2620 v3:
        // 3150 MB/s GCM → 0.76 cpb; 695 MB/s CBC-HMAC → 3.45 cpb.
        OnCpuModel {
            freq_hz: 2.4e9,
            gcm_cpb: 0.762,
            cbc_hmac_cpb: 3.453,
        }
    }
}

impl OnCpuModel {
    /// Single-core throughput in MB/s for `cipher` (block size is
    /// irrelevant on-CPU — no invocation overhead worth modeling).
    pub fn throughput_mbps(&self, cipher: Cipher) -> f64 {
        let cpb = match cipher {
            Cipher::Aes128CbcHmacSha1 => self.cbc_hmac_cpb,
            Cipher::Aes128Gcm => self.gcm_cpb,
        };
        self.freq_hz / cpb / 1e6
    }
}

/// Off-CPU accelerator (QAT-class) model.
#[derive(Clone, Copy, Debug)]
pub struct OffCpuModel {
    /// Core frequency, Hz (submission work burns core cycles).
    pub freq_hz: f64,
    /// CPU cycles to submit one request and reap its completion.
    pub submit_cycles: f64,
    /// Device round-trip latency per request, seconds (DMA + queueing).
    pub device_latency_s: f64,
    /// Device internal bandwidth, bytes/second.
    pub device_bw: f64,
}

impl Default for OffCpuModel {
    fn default() -> Self {
        // Calibrated to Table 1's QAT columns: 249 MB/s synchronous at
        // 16 KiB blocks → ~66 µs per round trip; ~3.1 GB/s device ceiling.
        OffCpuModel {
            freq_hz: 2.4e9,
            submit_cycles: 6_000.0,
            device_latency_s: 58e-6,
            device_bw: 3.2e9,
        }
    }
}

impl OffCpuModel {
    /// Seconds of CPU work per request (submission + completion reaping).
    fn submit_s(&self) -> f64 {
        self.submit_cycles / self.freq_hz
    }

    /// Throughput in MB/s for `threads` requesters sharing one core,
    /// encrypting `block`-byte blocks. The cipher does not matter — the
    /// device runs both suites at wire speed.
    ///
    /// One request occupies the core for `submit_s` and the device pipeline
    /// for `block/device_bw`, and completes after an extra
    /// `device_latency_s`. A single synchronous thread serializes all
    /// three; enough threads hide the latency until either the core's
    /// submission rate or the device bandwidth saturates.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `block == 0`.
    pub fn throughput_mbps(&self, block: usize, threads: usize) -> f64 {
        assert!(threads > 0 && block > 0, "need work to measure");
        let b = block as f64;
        let per_req_serial = self.submit_s() + self.device_latency_s + b / self.device_bw;
        // Each thread sustains one request per `per_req_serial`; the core
        // caps total submissions at 1/submit_s; the device caps bytes.
        let rate_threads = threads as f64 / per_req_serial;
        let rate_core = 1.0 / self.submit_s();
        let rate_device = self.device_bw / b;
        let rate = rate_threads.min(rate_core).min(rate_device);
        rate * b / 1e6
    }
}

/// One Table 1 row: `(qat_1, qat_128, aesni_1)` in MB/s.
pub fn table1_row(cipher: Cipher, block: usize) -> (f64, f64, f64) {
    let on = OnCpuModel::default();
    let off = OffCpuModel::default();
    (
        off.throughput_mbps(block, 1),
        off.throughput_mbps(block, 128),
        on.throughput_mbps(cipher),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOCK: usize = 16 * 1024;

    #[test]
    fn sync_qat_matches_paper_magnitude() {
        let (qat1, _, _) = table1_row(Cipher::Aes128Gcm, BLOCK);
        assert!((200.0..320.0).contains(&qat1), "QAT sync ~249 MB/s, got {qat1:.0}");
    }

    #[test]
    fn threaded_qat_reaches_device_bandwidth() {
        let (_, qat128, _) = table1_row(Cipher::Aes128Gcm, BLOCK);
        assert!((2800.0..3400.0).contains(&qat128), "QAT 128t ~3.1 GB/s, got {qat128:.0}");
    }

    #[test]
    fn cbc_hmac_row_shape() {
        // Paper: QAT1 2.7x *lower* than AES-NI; QAT128 4.5x higher.
        let (qat1, qat128, aesni) = table1_row(Cipher::Aes128CbcHmacSha1, BLOCK);
        let slow = aesni / qat1;
        let fast = qat128 / aesni;
        assert!((2.0..3.5).contains(&slow), "sync penalty {slow:.1}x");
        assert!((3.5..5.5).contains(&fast), "async win {fast:.1}x");
    }

    #[test]
    fn gcm_row_shape() {
        // Paper: QAT1 12.5x lower than AES-NI; QAT128 merely comparable.
        let (qat1, qat128, aesni) = table1_row(Cipher::Aes128Gcm, BLOCK);
        let slow = aesni / qat1;
        let comparable = qat128 / aesni;
        assert!((10.0..15.0).contains(&slow), "sync penalty {slow:.1}x");
        assert!((0.8..1.2).contains(&comparable), "async parity {comparable:.2}x");
    }

    #[test]
    fn small_blocks_hurt_offload_more() {
        let off = OffCpuModel::default();
        let t16k = off.throughput_mbps(16 * 1024, 1);
        let t1k = off.throughput_mbps(1024, 1);
        assert!(t1k < t16k / 8.0, "per-request overhead dominates small blocks");
    }

    #[test]
    fn threads_beyond_saturation_do_not_help() {
        let off = OffCpuModel::default();
        let a = off.throughput_mbps(16 * 1024, 512);
        let b = off.throughput_mbps(16 * 1024, 4096);
        assert!((a - b).abs() < 1.0, "device-bound: {a:.0} vs {b:.0}");
    }

    #[test]
    #[should_panic]
    fn zero_threads_rejected() {
        OffCpuModel::default().throughput_mbps(16 * 1024, 0);
    }
}
