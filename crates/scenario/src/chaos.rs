//! The device-fault pattern catalogue: scripted NIC misbehavior
//! ([`ano_core::fault::DeviceFaults`]) with the degradation policy and
//! expectation each pattern is held to.
//!
//! Link adversity stresses the *wire*; these stress the *device*: installs
//! that fail or hang, resync mailbox messages that vanish or arrive late,
//! contexts invalidated or corrupted behind the driver's back, and full
//! NIC resets mid-transfer. A pattern becomes spec data through
//! [`crate::scenario::Scenario::with_chaos`], which aims its plan at one
//! flow's data receiver and records the [`Degradation`] the run must show:
//!
//! * **transient faults** ([`Degradation::ReOffloaded`]) — the driver must
//!   retry/resync its way back to hardware offload;
//! * **persistent faults** ([`Degradation::BreakerOpen`]) — the per-flow
//!   circuit breaker must open with the expected reason and the flow must
//!   finish in software.
//!
//! Either way the application sees a byte stream identical to the
//! fault-free software twin.

use ano_core::fault::{DeviceFaults, DeviceOp, FaultAction, ScheduledFault};
use ano_sim::link::Match;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::DegradeConfig;
use ano_tcp::segment::FlowId;

/// What the degradation policy must have done, by the end of the run, to
/// every flow whose data receiver's NIC was faulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Degradation {
    /// The fault was transient: the flow must end re-offloaded (packets
    /// offloaded, breaker closed).
    ReOffloaded,
    /// The fault was persistent: the breaker must be open with this
    /// reason and the engine gone for good.
    BreakerOpen(&'static str),
}

/// One scripted device-fault pattern.
#[derive(Clone, Debug)]
pub enum DeviceChaos {
    /// The first `n` rx-install attempts fail; the retry ladder recovers.
    FailInstalls {
        /// Failed attempts before the device behaves.
        n: u64,
    },
    /// Every rx-install attempt fails; the ladder exhausts and the
    /// breaker opens (`install_failures`).
    FailAllInstalls,
    /// A mid-stream context invalidation whose first resync request is
    /// lost in the mailbox; the engine re-requests and recovers.
    DropResyncReq {
        /// When the context is invalidated.
        invalidate_at: SimTime,
    },
    /// A mid-stream invalidation with every resync response arriving
    /// late; recovery is slow but happens.
    DelayResyncResps {
        /// When the context is invalidated.
        invalidate_at: SimTime,
        /// Extra mailbox latency per response.
        extra: SimDuration,
    },
    /// Full device reset mid-transfer; the driver reinstalls every flow
    /// mid-stream and the engine reconverges via resync.
    ResetAt(SimTime),
    /// One flow's rx context is lost mid-transfer.
    InvalidateRxAt(SimTime),
    /// One flow's rx context is corrupted in place; the integrity check
    /// catches it on next use.
    CorruptRxAt(SimTime),
    /// Repeated invalidations within the storm window; the windowed
    /// breaker opens (`resync_storm`).
    ResyncStorm {
        /// Invalidation times.
        at: Vec<SimTime>,
    },
}

impl DeviceChaos {
    /// Stable scenario-name component.
    pub fn label(&self) -> &'static str {
        match self {
            DeviceChaos::FailInstalls { .. } => "fail-installs",
            DeviceChaos::FailAllInstalls => "fail-all-installs",
            DeviceChaos::DropResyncReq { .. } => "drop-resync-req",
            DeviceChaos::DelayResyncResps { .. } => "delay-resync-resp",
            DeviceChaos::ResetAt(_) => "reset",
            DeviceChaos::InvalidateRxAt(_) => "invalidate",
            DeviceChaos::CorruptRxAt(_) => "corrupt",
            DeviceChaos::ResyncStorm { .. } => "resync-storm",
        }
    }

    /// The concrete fault schedule, with flow-targeted one-shots aimed at
    /// rx flow `flow`.
    pub fn plan(&self, flow: FlowId) -> DeviceFaults {
        match self {
            DeviceChaos::FailInstalls { n } => DeviceFaults::fail_first(DeviceOp::InstallRx, *n),
            DeviceChaos::FailAllInstalls => DeviceFaults::fail_all(DeviceOp::InstallRx),
            DeviceChaos::DropResyncReq { invalidate_at } => {
                DeviceFaults::drop_range(DeviceOp::ResyncReq, 0, 1)
                    .at(*invalidate_at, ScheduledFault::InvalidateRx(flow))
            }
            DeviceChaos::DelayResyncResps { invalidate_at, extra } => DeviceFaults::none()
                .with(
                    DeviceOp::ResyncResp,
                    Match::Range(0, u64::MAX),
                    FaultAction::Delay(*extra),
                )
                .at(*invalidate_at, ScheduledFault::InvalidateRx(flow)),
            DeviceChaos::ResetAt(t) => DeviceFaults::reset_at(*t),
            DeviceChaos::InvalidateRxAt(t) => {
                DeviceFaults::none().at(*t, ScheduledFault::InvalidateRx(flow))
            }
            DeviceChaos::CorruptRxAt(t) => {
                DeviceFaults::none().at(*t, ScheduledFault::CorruptRx(flow))
            }
            DeviceChaos::ResyncStorm { at } => at.iter().fold(DeviceFaults::none(), |f, t| {
                f.at(*t, ScheduledFault::InvalidateRx(flow))
            }),
        }
    }

    /// Degradation-policy knobs for this pattern. Persistent-fault
    /// patterns tighten the ladder/threshold so the breaker opens while
    /// the stream is still flowing; `DropResyncReq` arms the request
    /// re-emission timer the pattern exists to exercise.
    pub fn degrade(&self) -> DegradeConfig {
        let mut d = DegradeConfig::default();
        match self {
            DeviceChaos::FailAllInstalls => {
                d.install_retry_base = SimDuration::from_micros(2);
                d.install_retry_cap = SimDuration::from_micros(8);
                d.install_max_attempts = 3;
            }
            DeviceChaos::DropResyncReq { .. } => {
                d.rerequest_pkts = Some(8);
            }
            DeviceChaos::ResyncStorm { .. } => {
                d.breaker_resync_storm = 3;
                d.storm_window = SimDuration::from_micros(100_000);
            }
            _ => {}
        }
        d
    }

    /// The degradation expectation this pattern is held to.
    pub fn expect(&self) -> Degradation {
        match self {
            DeviceChaos::FailAllInstalls => Degradation::BreakerOpen("install_failures"),
            DeviceChaos::ResyncStorm { .. } => Degradation::BreakerOpen("resync_storm"),
            _ => Degradation::ReOffloaded,
        }
    }
}
