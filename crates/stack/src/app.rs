//! Application interface: per-host event-driven apps over stack connections.
//!
//! Applications (httpd, iperf, fio, a KV store…) are state machines driven
//! by stack events. They never touch the world directly; they queue
//! [`Action`]s on the [`HostApi`], which the world executes after the
//! handler returns — sends, NVMe I/O, CPU charges, and timers.

use ano_sim::payload::Payload;
use ano_sim::time::SimTime;
use ano_tcp::segment::RxChunk;

use crate::world::ConnId;

/// What happened.
#[derive(Debug)]
pub enum AppEvent<'a> {
    /// The simulation started (set up initial requests).
    Start,
    /// In-order application bytes arrived on a connection (after any TLS
    /// processing). Chunks carry offload flags for layered consumers.
    Data {
        /// The connection.
        conn: ConnId,
        /// Plaintext runs.
        chunks: &'a [RxChunk],
    },
    /// An NVMe I/O submitted via [`Action::NvmeRead`]/[`Action::NvmeWrite`]
    /// finished.
    NvmeDone {
        /// The connection the I/O ran on.
        conn: ConnId,
        /// Completion details.
        completion: &'a ano_nvme::host::Completion,
    },
    /// A timer set via [`Action::Timer`] fired.
    Timer {
        /// The caller's token.
        token: u64,
    },
    /// A connection's send queue drained below the watermark (flow control
    /// for streaming apps like iperf).
    Writable {
        /// The connection.
        conn: ConnId,
    },
}

/// What the app wants done.
#[derive(Debug)]
pub enum Action {
    /// Send application bytes on a connection.
    Send {
        /// The connection.
        conn: ConnId,
        /// The bytes (must be Real in functional mode).
        data: Payload,
    },
    /// Submit an NVMe read on an NVMe-host connection.
    NvmeRead {
        /// The connection.
        conn: ConnId,
        /// Request id returned in [`AppEvent::NvmeDone`].
        id: u64,
        /// Device byte offset.
        offset: u64,
        /// Length in bytes.
        len: u32,
    },
    /// Submit an NVMe write on an NVMe-host connection.
    NvmeWrite {
        /// The connection.
        conn: ConnId,
        /// Request id.
        id: u64,
        /// Device byte offset.
        offset: u64,
        /// The data.
        data: Payload,
    },
    /// Charge CPU cycles (application work) to this host.
    Charge {
        /// Cycles to add.
        cycles: u64,
    },
    /// Fire [`AppEvent::Timer`] at the given time.
    Timer {
        /// Caller's token.
        token: u64,
        /// Absolute deadline.
        at: SimTime,
    },
}

/// The app's window into the world during an event.
#[derive(Debug)]
pub struct HostApi {
    /// Current simulated time.
    pub now: SimTime,
    pub(crate) actions: Vec<Action>,
}

impl HostApi {
    pub(crate) fn new(now: SimTime) -> HostApi {
        HostApi {
            now,
            actions: Vec::new(),
        }
    }

    /// Queues an action.
    pub fn push(&mut self, action: Action) {
        self.actions.push(action);
    }

    /// Convenience: send bytes.
    pub fn send(&mut self, conn: ConnId, data: Payload) {
        self.push(Action::Send { conn, data });
    }

    /// Convenience: NVMe read.
    pub fn nvme_read(&mut self, conn: ConnId, id: u64, offset: u64, len: u32) {
        self.push(Action::NvmeRead {
            conn,
            id,
            offset,
            len,
        });
    }

    /// Convenience: NVMe write.
    pub fn nvme_write(&mut self, conn: ConnId, id: u64, offset: u64, data: Payload) {
        self.push(Action::NvmeWrite {
            conn,
            id,
            offset,
            data,
        });
    }

    /// Convenience: charge app cycles.
    pub fn charge(&mut self, cycles: u64) {
        self.push(Action::Charge { cycles });
    }

    /// Convenience: set a timer.
    pub fn timer(&mut self, token: u64, at: SimTime) {
        self.push(Action::Timer { token, at });
    }
}

/// A per-host application.
pub trait HostApp {
    /// Handles one event; queue follow-up work on `api`.
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>);
}

/// A no-op app (pure sink).
#[derive(Debug, Default)]
pub struct NullApp;

impl HostApp for NullApp {
    fn on_event(&mut self, _api: &mut HostApi, _event: AppEvent<'_>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn api_queues_actions() {
        let mut api = HostApi::new(SimTime::ZERO);
        api.send(ConnId(1), Payload::synthetic(10));
        api.charge(100);
        api.timer(7, SimTime::from_micros(5));
        api.nvme_read(ConnId(2), 1, 0, 4096);
        assert_eq!(api.actions.len(), 4);
    }

    #[test]
    fn null_app_ignores_everything() {
        let mut app = NullApp;
        let mut api = HostApi::new(SimTime::ZERO);
        app.on_event(&mut api, AppEvent::Start);
        app.on_event(&mut api, AppEvent::Timer { token: 0 });
        assert!(api.actions.is_empty());
    }
}
