//! Remote block-device model.
//!
//! Stands in for the paper's Optane DC P4800X that backs the NVMe-TCP
//! target: a fixed per-I/O access latency plus a device bandwidth cap
//! (2.67 GB/s of reads in the paper's C1 configuration, which bounds
//! Figs. 12/14/15 at ≈21.38 Gbps). Functionally it is a sparse byte store
//! whose untouched regions read as a deterministic pattern, so end-to-end
//! tests can verify content placement.

use std::collections::BTreeMap;

use ano_sim::payload::{DataMode, Payload, MAGIC_BYTE};
use ano_sim::time::{SimDuration, SimTime};

/// Device timing and capacity parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockDeviceConfig {
    /// Fixed access latency per I/O.
    pub access_latency: SimDuration,
    /// Sustained device bandwidth, bytes/second.
    pub bandwidth_bps: u64,
    /// Payload fidelity of reads.
    pub mode: DataMode,
}

impl Default for BlockDeviceConfig {
    fn default() -> Self {
        BlockDeviceConfig {
            // Optane-class read latency and the paper's measured 2.67 GB/s.
            access_latency: SimDuration::from_micros(10),
            bandwidth_bps: 2_670_000_000,
            mode: DataMode::Modeled,
        }
    }
}

/// Counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockDeviceStats {
    /// Read operations served.
    pub reads: u64,
    /// Write operations served.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

/// The device: timing model + sparse content store.
#[derive(Debug)]
pub struct BlockDevice {
    cfg: BlockDeviceConfig,
    /// 4 KiB-granular sparse store (functional mode only).
    store: BTreeMap<u64, Vec<u8>>,
    /// When the device's internal channel is next free (bandwidth model).
    busy_until: SimTime,
    stats: BlockDeviceStats,
}

const CHUNK: u64 = 4096;

/// The deterministic background pattern of unwritten device bytes.
pub fn pattern_byte(offset: u64) -> u8 {
    // The paper's emulation fills storage with a repeated magic word
    // (§6.2); we do the same but keyed by position so placement bugs show.
    MAGIC_BYTE ^ ((offset / CHUNK) as u8)
}

impl BlockDevice {
    /// Creates a device.
    pub fn new(cfg: BlockDeviceConfig) -> BlockDevice {
        BlockDevice {
            cfg,
            store: BTreeMap::new(),
            busy_until: SimTime::ZERO,
            stats: BlockDeviceStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> BlockDeviceStats {
        self.stats
    }

    /// Device service time for `len` bytes starting now: queueing behind
    /// earlier I/O, plus access latency, plus transfer at device bandwidth.
    fn schedule(&mut self, now: SimTime, len: usize) -> SimTime {
        let start = now.max(self.busy_until);
        let transfer =
            SimDuration::from_nanos((len as u64).saturating_mul(1_000_000_000) / self.cfg.bandwidth_bps);
        let done = start + self.cfg.access_latency + transfer;
        // The channel is occupied for the transfer (latency overlaps).
        self.busy_until = start + transfer;
        done
    }

    /// Reads `len` bytes at `offset`; returns the payload and completion
    /// time.
    pub fn read(&mut self, now: SimTime, offset: u64, len: usize) -> (Payload, SimTime) {
        self.stats.reads += 1;
        self.stats.read_bytes += len as u64;
        let done = self.schedule(now, len);
        let payload = match self.cfg.mode {
            DataMode::Modeled => Payload::synthetic(len),
            DataMode::Functional => {
                let mut out = vec![0u8; len];
                for (i, b) in out.iter_mut().enumerate() {
                    let pos = offset + i as u64;
                    let base = pos / CHUNK * CHUNK;
                    *b = match self.store.get(&base) {
                        Some(chunk) => chunk[(pos - base) as usize],
                        None => pattern_byte(pos),
                    };
                }
                Payload::real(out)
            }
        };
        (payload, done)
    }

    /// Writes bytes at `offset`; returns the completion time.
    pub fn write(&mut self, now: SimTime, offset: u64, data: &Payload) -> SimTime {
        self.stats.writes += 1;
        self.stats.write_bytes += data.len() as u64;
        let done = self.schedule(now, data.len());
        if let Some(bytes) = data.as_real() {
            for (i, &b) in bytes.iter().enumerate() {
                let pos = offset + i as u64;
                let base = pos / CHUNK * CHUNK;
                let chunk = self.store.entry(base).or_insert_with(|| {
                    (0..CHUNK).map(|j| pattern_byte(base + j)).collect()
                });
                chunk[(pos - base) as usize] = b;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn functional() -> BlockDevice {
        BlockDevice::new(BlockDeviceConfig {
            mode: DataMode::Functional,
            ..Default::default()
        })
    }

    #[test]
    fn unwritten_reads_return_pattern() {
        let mut d = functional();
        let (p, _) = d.read(SimTime::ZERO, 8192, 16);
        let bytes = p.to_vec();
        assert!(bytes.iter().enumerate().all(|(i, &b)| b == pattern_byte(8192 + i as u64)));
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut d = functional();
        let data: Vec<u8> = (0..100).collect();
        // Unaligned write crossing a chunk boundary.
        d.write(SimTime::ZERO, 4090, &Payload::real(data.clone()));
        let (p, _) = d.read(SimTime::ZERO, 4090, 100);
        assert_eq!(p.to_vec(), data);
        // Neighbouring bytes keep the pattern.
        let (p, _) = d.read(SimTime::ZERO, 4089, 1);
        assert_eq!(p.to_vec()[0], pattern_byte(4089));
    }

    #[test]
    fn bandwidth_bounds_throughput() {
        let cfg = BlockDeviceConfig {
            access_latency: SimDuration::ZERO,
            bandwidth_bps: 1_000_000_000, // 1 GB/s
            mode: DataMode::Modeled,
        };
        let mut d = BlockDevice::new(cfg);
        // Ten 1 MB reads take ~10 ms back to back.
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let (_, done) = d.read(SimTime::ZERO, 0, 1_000_000);
            last = done;
        }
        assert_eq!(last, SimTime::from_millis(10));
    }

    #[test]
    fn latency_applies_per_io() {
        let mut d = BlockDevice::new(BlockDeviceConfig::default());
        let (_, done) = d.read(SimTime::ZERO, 0, 4096);
        assert!(done >= SimTime::from_micros(10));
        let s = d.stats();
        assert_eq!((s.reads, s.read_bytes), (1, 4096));
    }
}
