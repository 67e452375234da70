//! Scripted device-fault model for the NIC.
//!
//! The link layer stress-tests the resync machinery against *network*
//! faults (`ano_sim::link::Script`); this module is its device-side twin.
//! Real NICs fail in ways the paper's degradation argument (§4.3, §5) must
//! survive: context installs are rejected under memory pressure, firmware
//! invalidates or corrupts a flow's context, driver mailbox traffic
//! (resync requests/responses) is dropped or delayed, and a full device
//! reset wipes every context at once.
//!
//! [`DeviceFaults`] scripts all of those deterministically. It has two
//! halves:
//!
//! * **operation rules** — [`Match`]-based rules (the same matcher type the
//!   link script uses) over a per-operation-kind attempt counter, deciding
//!   whether one `install_rx`/`install_tx`/resync mailbox operation fails,
//!   is dropped, or is delayed;
//! * **scheduled faults** — a time-ordered list of one-shot events (device
//!   reset, single-flow context invalidation/corruption) that the host
//!   runtime turns into simulation events when the plan is installed.
//!
//! With no rules and no scheduled faults (the default), every query is a
//! counter bump plus an empty-slice scan — the fault layer is inert when
//! unused, which `empty_fault_plan_is_inert` in `ano-stack`'s
//! `tests/faults.rs` checks.

// Per-packet hot path: a panic here aborts the whole simulated schedule.
#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

use ano_sim::link::Match;
use ano_sim::time::{SimDuration, SimTime};
use ano_tcp::segment::FlowId;

/// A driver↔device operation the fault script can intercept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceOp {
    /// Installing a receive offload context (`l5o_create`, rx half).
    InstallRx,
    /// Installing a transmit offload context (`l5o_create`, tx half).
    InstallTx,
    /// A NIC→driver resync request (`l5o_resync_rx_req`).
    ResyncReq,
    /// A driver→NIC resync response (`l5o_resync_rx_resp`).
    ResyncResp,
}

impl DeviceOp {
    /// Stable label for traces and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            DeviceOp::InstallRx => "install_rx",
            DeviceOp::InstallTx => "install_tx",
            DeviceOp::ResyncReq => "resync_req",
            DeviceOp::ResyncResp => "resync_resp",
        }
    }
}

/// What happens to an intercepted operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// The operation fails outright (install returns an error; a mailbox
    /// message is lost with an error visible to the caller).
    Fail,
    /// The operation silently vanishes (mailbox message lost in transit).
    Drop,
    /// The operation completes after an extra delay.
    Delay(SimDuration),
}

/// One operation-interception rule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Which operation kind the rule intercepts.
    pub op: DeviceOp,
    /// Which attempts of that kind it hits (per-kind 0-based counter).
    pub when: Match,
    /// What happens to them.
    pub action: FaultAction,
}

/// A one-shot fault fired at a scheduled simulation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScheduledFault {
    /// Full device reset: every context (rx, tx, cache) is wiped and the
    /// device epoch advances.
    Reset,
    /// One flow's receive context is invalidated (lost; the driver must
    /// reinstall it).
    InvalidateRx(FlowId),
    /// One flow's receive context is corrupted in place. The model assumes
    /// context integrity checking: the engine detects the damage on next
    /// use and falls back to the §4.3 resync ladder instead of processing
    /// with a bad cursor.
    CorruptRx(FlowId),
}

impl ScheduledFault {
    /// Stable label for traces and diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            ScheduledFault::Reset => "reset",
            ScheduledFault::InvalidateRx(_) => "invalidate_rx",
            ScheduledFault::CorruptRx(_) => "corrupt_rx",
        }
    }
}

/// One attempt counter per [`DeviceOp`], as named fields so access is a
/// match rather than a slice index (this sits on the per-op hot path).
#[derive(Clone, Debug, Default, PartialEq)]
struct OpCounters {
    install_rx: u64,
    install_tx: u64,
    resync_req: u64,
    resync_resp: u64,
}

impl OpCounters {
    fn counter(&mut self, op: DeviceOp) -> &mut u64 {
        match op {
            DeviceOp::InstallRx => &mut self.install_rx,
            DeviceOp::InstallTx => &mut self.install_tx,
            DeviceOp::ResyncReq => &mut self.resync_req,
            DeviceOp::ResyncResp => &mut self.resync_resp,
        }
    }
}

/// A deterministic device-fault schedule. See the module docs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceFaults {
    rules: Vec<FaultRule>,
    scheduled: Vec<(SimTime, ScheduledFault)>,
    /// Per-[`DeviceOp`] attempt counters (how many operations of each kind
    /// have been offered to the script), indexed via [`Self::counter`] so
    /// the per-op hot path never touches a slice index.
    attempts: OpCounters,
    /// Operations a rule acted on.
    injected: u64,
}

impl DeviceFaults {
    /// The empty schedule: no faults, free on every path.
    pub fn none() -> DeviceFaults {
        DeviceFaults::default()
    }

    /// True when the schedule has no rules and no scheduled faults.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.scheduled.is_empty()
    }

    /// Adds an operation rule (builder-style).
    pub fn with(mut self, op: DeviceOp, when: Match, action: FaultAction) -> DeviceFaults {
        self.rules.push(FaultRule { op, when, action });
        self
    }

    /// Adds a scheduled one-shot fault (builder-style). Faults fire in the
    /// order given for equal times; the host runtime schedules them when
    /// the plan is installed.
    pub fn at(mut self, when: SimTime, fault: ScheduledFault) -> DeviceFaults {
        self.scheduled.push((when, fault));
        self
    }

    /// Fails the first `n` attempts of `op`.
    pub fn fail_first(op: DeviceOp, n: u64) -> DeviceFaults {
        DeviceFaults::none().with(op, Match::Range(0, n), FaultAction::Fail)
    }

    /// Fails every attempt of `op`, forever (a persistent fault that must
    /// end with the circuit breaker open).
    pub fn fail_all(op: DeviceOp) -> DeviceFaults {
        DeviceFaults::none().with(op, Match::Range(0, u64::MAX), FaultAction::Fail)
    }

    /// Drops attempts `[start, end)` of `op`.
    pub fn drop_range(op: DeviceOp, start: u64, end: u64) -> DeviceFaults {
        DeviceFaults::none().with(op, Match::Range(start, end), FaultAction::Drop)
    }

    /// Schedules a full device reset at `when`.
    pub fn reset_at(when: SimTime) -> DeviceFaults {
        DeviceFaults::none().at(when, ScheduledFault::Reset)
    }

    /// The scheduled one-shot faults, in insertion order.
    pub fn scheduled(&self) -> &[(SimTime, ScheduledFault)] {
        &self.scheduled
    }

    /// Offers one operation of kind `op` happening at `now` to the script.
    /// Bumps the per-kind attempt counter and returns the action of the
    /// first matching rule, if any. `Fail`/`Drop` win over `Delay` when
    /// several rules match (mirroring the link script's drop-wins rule).
    pub fn on_op(&mut self, op: DeviceOp, now: SimTime) -> Option<FaultAction> {
        let ctr = self.attempts.counter(op);
        let idx = *ctr;
        *ctr += 1;
        if self.rules.is_empty() {
            return None;
        }
        let mut hit: Option<FaultAction> = None;
        for r in &self.rules {
            if r.op == op && r.when.hits(idx, now) {
                match (hit, r.action) {
                    (None, a) => hit = Some(a),
                    (Some(FaultAction::Delay(_)), a @ (FaultAction::Fail | FaultAction::Drop)) => {
                        hit = Some(a)
                    }
                    _ => {}
                }
            }
        }
        if hit.is_some() {
            self.injected += 1;
        }
        hit
    }

    /// How many operations of kind `op` have been offered so far.
    pub fn attempts(&self, op: DeviceOp) -> u64 {
        match op {
            DeviceOp::InstallRx => self.attempts.install_rx,
            DeviceOp::InstallTx => self.attempts.install_tx,
            DeviceOp::ResyncReq => self.attempts.resync_req,
            DeviceOp::ResyncResp => self.attempts.resync_resp,
        }
    }

    /// Records a scheduled one-shot actually firing, so [`Self::injected`]
    /// stays a complete oracle (rule hits *and* delivered one-shots).
    pub fn note_scheduled_fired(&mut self) {
        self.injected += 1;
    }

    /// How many faults the plan delivered: operations a rule acted on
    /// plus scheduled one-shots that fired (the injection oracle: tests
    /// assert the script actually did something).
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_never_fires() {
        let mut f = DeviceFaults::none();
        assert!(f.is_empty());
        for _ in 0..100 {
            assert_eq!(f.on_op(DeviceOp::InstallRx, SimTime::ZERO), None);
        }
        assert_eq!(f.injected(), 0);
        assert_eq!(f.attempts(DeviceOp::InstallRx), 100);
    }

    #[test]
    fn fail_first_counts_per_op_kind() {
        let mut f = DeviceFaults::fail_first(DeviceOp::InstallRx, 2);
        assert_eq!(f.on_op(DeviceOp::InstallRx, SimTime::ZERO), Some(FaultAction::Fail));
        // Tx attempts do not advance the rx counter.
        assert_eq!(f.on_op(DeviceOp::InstallTx, SimTime::ZERO), None);
        assert_eq!(f.on_op(DeviceOp::InstallRx, SimTime::ZERO), Some(FaultAction::Fail));
        assert_eq!(f.on_op(DeviceOp::InstallRx, SimTime::ZERO), None);
        assert_eq!(f.injected(), 2);
    }

    #[test]
    fn fail_all_is_persistent() {
        let mut f = DeviceFaults::fail_all(DeviceOp::InstallTx);
        for _ in 0..10 {
            assert_eq!(f.on_op(DeviceOp::InstallTx, SimTime::ZERO), Some(FaultAction::Fail));
        }
    }

    #[test]
    fn drop_and_delay_windows() {
        let extra = SimDuration::from_micros(50);
        let mut f = DeviceFaults::drop_range(DeviceOp::ResyncReq, 1, 3)
            .with(DeviceOp::ResyncResp, Match::Range(0, 2), FaultAction::Delay(extra));
        assert_eq!(f.on_op(DeviceOp::ResyncReq, SimTime::ZERO), None);
        assert_eq!(f.on_op(DeviceOp::ResyncReq, SimTime::ZERO), Some(FaultAction::Drop));
        assert_eq!(f.on_op(DeviceOp::ResyncResp, SimTime::ZERO), Some(FaultAction::Delay(extra)));
    }

    #[test]
    fn fail_wins_over_delay_on_same_attempt() {
        let mut f = DeviceFaults::none()
            .with(
                DeviceOp::InstallRx,
                Match::Nth(0),
                FaultAction::Delay(SimDuration::from_micros(1)),
            )
            .with(DeviceOp::InstallRx, Match::Nth(0), FaultAction::Fail);
        assert_eq!(f.on_op(DeviceOp::InstallRx, SimTime::ZERO), Some(FaultAction::Fail));
    }

    #[test]
    fn scheduled_faults_keep_insertion_order() {
        let t = SimTime::from_micros(100);
        let f = DeviceFaults::reset_at(t)
            .at(t, ScheduledFault::InvalidateRx(FlowId(4)))
            .at(SimTime::from_micros(50), ScheduledFault::CorruptRx(FlowId(2)));
        assert_eq!(f.scheduled().len(), 3);
        assert_eq!(f.scheduled()[0], (t, ScheduledFault::Reset));
        assert_eq!(
            f.scheduled()[2],
            (SimTime::from_micros(50), ScheduledFault::CorruptRx(FlowId(2)))
        );
        assert!(!f.is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(DeviceOp::InstallRx.label(), "install_rx");
        assert_eq!(DeviceOp::ResyncResp.label(), "resync_resp");
        assert_eq!(ScheduledFault::Reset.label(), "reset");
        assert_eq!(ScheduledFault::CorruptRx(FlowId(0)).label(), "corrupt_rx");
    }
}
