//! CPU cycle accounting.
//!
//! The paper reports CPU consumption as "busy cores" and per-message cycle
//! budgets. [`CpuSet`] models a socket of cores at a fixed frequency: work is
//! expressed in cycles, occupies a core for `cycles / freq` of simulated
//! time, and is accumulated for utilization reporting.

use crate::time::{SimDuration, SimTime};

/// One core's accounting state.
#[derive(Clone, Copy, Debug, Default)]
struct Core {
    busy_until: SimTime,
    busy_cycles: u64,
    /// Sub-nanosecond occupancy carried between [`CpuSet::run`] calls, so
    /// per-call truncation cannot leak fractional cycles. Unit depends on
    /// the frequency path: remainder *cycles* (`< ghz`) on the whole-GHz
    /// fast path, remainder *cycle-nanosecond units* (`< freq_hz`) on the
    /// general path. A `CpuSet`'s frequency never changes, so the unit is
    /// fixed per instance.
    carry: u64,
}

/// A set of identical cores at a fixed clock frequency.
///
/// # Examples
///
/// ```
/// use ano_sim::cpu::CpuSet;
/// use ano_sim::time::SimTime;
///
/// let mut cpu = CpuSet::new(1, 2_000_000_000); // one 2 GHz core
/// let done = cpu.run(0, SimTime::ZERO, 2_000);  // 2000 cycles = 1 us
/// assert_eq!(done, SimTime::from_micros(1));
/// ```
#[derive(Clone, Debug)]
pub struct CpuSet {
    freq_hz: u64,
    /// `freq_hz / 1 GHz` when the frequency is a whole number of GHz —
    /// lets the cycles→time conversion divide by a small constant the
    /// compiler strength-reduces, instead of a 64-bit `div` on every
    /// [`CpuSet::run`] call (several per simulated packet).
    ghz: Option<u64>,
    cores: Vec<Core>,
}

impl CpuSet {
    /// Creates `n` cores running at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `freq_hz == 0`.
    pub fn new(n: usize, freq_hz: u64) -> CpuSet {
        assert!(n > 0, "need at least one core");
        assert!(freq_hz > 0, "frequency must be positive");
        let ghz = (freq_hz % 1_000_000_000 == 0).then(|| freq_hz / 1_000_000_000);
        CpuSet {
            freq_hz,
            ghz,
            cores: vec![Core::default(); n],
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Core clock in Hz.
    pub fn freq_hz(&self) -> u64 {
        self.freq_hz
    }

    /// Converts a cycle count to wall (simulated) time on this CPU.
    ///
    /// For whole-GHz frequencies this divides by a small constant (which
    /// the compiler turns into a multiply); the general path is the exact
    /// same `cycles * 1e9 / freq` arithmetic, so the result is identical.
    #[inline]
    pub fn cycles_to_time(&self, cycles: u64) -> SimDuration {
        let ns = match self.ghz {
            Some(1) => cycles,
            Some(2) => cycles / 2,
            Some(3) => cycles / 3,
            Some(4) => cycles / 4,
            _ => cycles.saturating_mul(1_000_000_000) / self.freq_hz,
        };
        SimDuration::from_nanos(ns)
    }

    /// Converts a simulated duration to cycles on this CPU.
    pub fn time_to_cycles(&self, d: SimDuration) -> u64 {
        ((d.as_nanos() as u128 * self.freq_hz as u128) / 1_000_000_000) as u64
    }

    /// Runs `cycles` of work on `core`, starting no earlier than `now` and no
    /// earlier than the core's previous work finishing. Returns completion time.
    ///
    /// Occupancy accumulates in *cycles*: each call converts whole
    /// nanoseconds out and carries the sub-nanosecond remainder to the
    /// core's next call, so a stream of small per-packet charges occupies
    /// exactly as much time as one aggregate charge would. (A per-call
    /// `cycles_to_time` truncation here systematically under-reported
    /// busy time on the hot path — up to 1 ns per call.)
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn run(&mut self, core: usize, now: SimTime, cycles: u64) -> SimTime {
        let ghz = self.ghz;
        let freq = self.freq_hz;
        let c = &mut self.cores[core];
        let ns = match ghz {
            Some(1) => cycles,
            Some(g) => {
                let total = c.carry + cycles;
                c.carry = total % g;
                total / g
            }
            None => {
                let units = c.carry as u128 + cycles as u128 * 1_000_000_000;
                c.carry = (units % freq as u128) as u64;
                (units / freq as u128) as u64
            }
        };
        let start = now.max(c.busy_until);
        let done = start + SimDuration::from_nanos(ns);
        c.busy_until = done;
        c.busy_cycles += cycles;
        done
    }

    /// When `core` will next be free.
    pub fn free_at(&self, core: usize) -> SimTime {
        self.cores[core].busy_until
    }

    /// The core that frees up earliest (ties go to the lowest index).
    pub fn least_busy(&self) -> usize {
        self.cores
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (c.busy_until, *i))
            .map(|(i, _)| i)
            .expect("at least one core")
    }

    /// Total cycles consumed across all cores.
    pub fn total_busy_cycles(&self) -> u64 {
        self.cores.iter().map(|c| c.busy_cycles).sum()
    }

    /// Cycles consumed by one core (exact: fractional-cycle carry is
    /// time-domain bookkeeping, the cycle counter never truncates).
    pub fn busy_cycles_of(&self, core: usize) -> u64 {
        self.cores[core].busy_cycles
    }

    /// Per-core cycle counters (for windowed utilization: snapshot, run, diff).
    pub fn snapshot(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.busy_cycles).collect()
    }

    /// Max-over-mean ratio of per-core cycle deltas since `start_snapshot`:
    /// 1.0 means perfectly even work, `n` means all work on one of `n`
    /// cores. An idle window reports 1.0 (nothing to be imbalanced about).
    ///
    /// # Panics
    ///
    /// Panics if the snapshot shape does not match.
    pub fn busy_spread_since(&self, start_snapshot: &[u64]) -> f64 {
        assert_eq!(start_snapshot.len(), self.cores.len(), "snapshot mismatch");
        let mut max = 0u64;
        let mut total = 0u64;
        for (c, s) in self.cores.iter().zip(start_snapshot) {
            let d = c.busy_cycles - s;
            max = max.max(d);
            total += d;
        }
        if total == 0 {
            return 1.0;
        }
        max as f64 * self.cores.len() as f64 / total as f64
    }

    /// Average number of busy cores over a window, given a [`CpuSet::snapshot`]
    /// taken at the window start and the window length.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot shape does not match or the window is empty.
    pub fn busy_cores_since(&self, start_snapshot: &[u64], window: SimDuration) -> f64 {
        assert_eq!(start_snapshot.len(), self.cores.len(), "snapshot mismatch");
        assert!(window > SimDuration::ZERO, "empty window");
        let cycles: u64 = self
            .cores
            .iter()
            .zip(start_snapshot)
            .map(|(c, s)| c.busy_cycles - s)
            .sum();
        let busy_secs = cycles as f64 / self.freq_hz as f64;
        busy_secs / window.as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_queues_on_a_core() {
        let mut cpu = CpuSet::new(1, 1_000_000_000);
        let a = cpu.run(0, SimTime::ZERO, 1_000);
        let b = cpu.run(0, SimTime::ZERO, 1_000);
        assert_eq!(a, SimTime::from_micros(1));
        assert_eq!(b, SimTime::from_micros(2));
    }

    #[test]
    fn least_busy_balances() {
        let mut cpu = CpuSet::new(2, 1_000_000_000);
        cpu.run(0, SimTime::ZERO, 5_000);
        assert_eq!(cpu.least_busy(), 1);
        cpu.run(1, SimTime::ZERO, 10_000);
        assert_eq!(cpu.least_busy(), 0);
    }

    #[test]
    fn busy_cores_measures_utilization() {
        let mut cpu = CpuSet::new(4, 2_000_000_000);
        let snap = cpu.snapshot();
        // Two cores fully busy for 1 ms each: 2e6 cycles apiece.
        cpu.run(0, SimTime::ZERO, 2_000_000);
        cpu.run(1, SimTime::ZERO, 2_000_000);
        let busy = cpu.busy_cores_since(&snap, SimDuration::from_millis(1));
        assert!((busy - 2.0).abs() < 1e-9, "busy={busy}");
    }

    #[test]
    fn conversions_roundtrip() {
        let cpu = CpuSet::new(1, 2_000_000_000);
        assert_eq!(cpu.cycles_to_time(2_000), SimDuration::from_micros(1));
        assert_eq!(cpu.time_to_cycles(SimDuration::from_micros(1)), 2_000);
    }

    #[test]
    #[should_panic]
    fn zero_cores_rejected() {
        let _ = CpuSet::new(0, 1);
    }

    /// The rounding regression: charging work one cycle at a time must
    /// occupy exactly as much time as one aggregate charge. The old
    /// per-call `cycles_to_time` truncation reported *zero* busy time for
    /// sub-nanosecond charges (1 cycle at 3 GHz) no matter how many.
    #[test]
    fn fractional_cycles_carry_across_calls() {
        // Whole-GHz fast path: 3000 x 1 cycle at 3 GHz = 1 us exactly.
        let mut chunked = CpuSet::new(1, 3_000_000_000);
        let mut done = SimTime::ZERO;
        for _ in 0..3_000 {
            done = chunked.run(0, SimTime::ZERO, 1);
        }
        let mut single = CpuSet::new(1, 3_000_000_000);
        assert_eq!(done, single.run(0, SimTime::ZERO, 3_000));
        assert_eq!(done, SimTime::from_micros(1));
        assert_eq!(chunked.busy_cycles_of(0), 3_000);

        // General path (non-whole-GHz): 1000 x 1 cycle at 2.5 GHz = 400 ns.
        let mut chunked = CpuSet::new(1, 2_500_000_000);
        let mut done = SimTime::ZERO;
        for _ in 0..1_000 {
            done = chunked.run(0, SimTime::ZERO, 1);
        }
        let mut single = CpuSet::new(1, 2_500_000_000);
        assert_eq!(done, single.run(0, SimTime::ZERO, 1_000));
        assert_eq!(done, SimTime::from_nanos(400));
    }

    /// Regression against the published ~2.2x rx offload figure (see
    /// `cost::tests::tls_offload_speedup_matches_paper`): measure the
    /// same record budgets through per-packet `CpuSet` occupancy — many
    /// small `run` calls, the way the stack runtime charges them — and
    /// the time-domain speedup must still land in the paper's window.
    /// Truncating occupancy per call would bias both arms low and is
    /// exactly the bug the carry fixes.
    #[test]
    fn occupancy_speedup_matches_cost_model() {
        use crate::cost::CostModel;

        let m = CostModel::calibrated();
        let record = 16 * 1024usize;
        let pkts = 12u64;
        let records = 64u64;

        // Baseline arm: software decrypt per record, charged per packet
        // then per record, on one core.
        let mut base = CpuSet::new(1, m.freq_hz);
        let mut base_done = SimTime::ZERO;
        for _ in 0..records {
            for _ in 0..pkts {
                base.run(0, SimTime::ZERO, m.per_pkt_rx);
            }
            let rec = m.decrypt_cycles(record)
                + m.per_record_rx
                + CostModel::bytes_cycles(m.stack_cpb, record);
            base_done = base.run(0, SimTime::ZERO, rec);
        }

        // Offload arm: per-packet offload tax instead of the decrypt.
        let mut off = CpuSet::new(1, m.freq_hz);
        let mut off_done = SimTime::ZERO;
        for _ in 0..records {
            for _ in 0..pkts {
                off.run(0, SimTime::ZERO, m.per_pkt_rx + m.per_pkt_rx_offload_extra);
            }
            let rec = m.per_record_rx + CostModel::bytes_cycles(m.stack_cpb, record);
            off_done = off.run(0, SimTime::ZERO, rec);
        }

        let s = base_done.as_nanos() as f64 / off_done.as_nanos() as f64;
        assert!((1.9..2.7).contains(&s), "occupancy-domain rx speedup {s}");

        // And the time-domain totals must agree with the cycle-domain
        // totals to within one ns (the final unconverted carry).
        let base_ns = base.total_busy_cycles() * 1_000_000_000 / m.freq_hz;
        assert!(base_done.as_nanos().abs_diff(base_ns) <= 1, "chunked occupancy drifted");
    }

    #[test]
    fn busy_spread_measures_imbalance() {
        let mut cpu = CpuSet::new(4, 1_000_000_000);
        let snap = cpu.snapshot();
        assert!((cpu.busy_spread_since(&snap) - 1.0).abs() < 1e-9, "idle window");
        // All work on one of four cores: spread 4.0.
        cpu.run(0, SimTime::ZERO, 8_000);
        assert!((cpu.busy_spread_since(&snap) - 4.0).abs() < 1e-9);
        // Even work: spread 1.0.
        for c in 1..4 {
            cpu.run(c, SimTime::ZERO, 8_000);
        }
        assert!((cpu.busy_spread_since(&snap) - 1.0).abs() < 1e-9);
    }
}
