//! Host wiring for the *Autonomous NIC Offloads* reproduction: a two-host
//! discrete-event world with CPUs, NICs (offload engines + context cache),
//! the software TCP stack, kTLS and NVMe-TCP layers, and applications.
//!
//! * [`world`] — construction, connection specs, accessors;
//! * [`runtime`] — event dispatch (packets, timers, resync, target I/O);
//! * [`topology`] — N×M fleet builder on top of the host registry;
//! * [`app`] — the application interface.
//!
//! # Examples
//!
//! ```
//! use ano_stack::prelude::*;
//!
//! let mut w = World::new(WorldConfig::default());
//! let _conn = w.connect(ConnSpec::Tls(TlsSpec::offloaded_zc()),
//!                       ConnSpec::Tls(TlsSpec::offloaded_zc()));
//! w.start();
//! assert!(w.is_idle(), "nothing scheduled without an app");
//! ```

pub mod app;
pub mod runtime;
pub mod topology;
pub mod world;

/// Commonly used items.
pub mod prelude {
    pub use crate::app::{Action, AppEvent, HostApi, HostApp, NullApp};
    pub use crate::topology::{Fleet, FleetSpec};
    pub use crate::world::{
        ConnId, ConnSpec, DegradeConfig, HostSpec, NvmeHostSpec, NvmeTargetSpec, RebalanceConfig,
        TlsSpec, World, WorldConfig,
    };
}
