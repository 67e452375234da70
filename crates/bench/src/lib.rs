//! Benchmark harnesses for the *Autonomous NIC Offloads* reproduction.
//!
//! * [`runners`] — reusable experiment engines over `ano-stack` worlds;
//! * [`figures`] — one function per paper table/figure, printing the same
//!   rows/series the paper reports (driven by the `figures` binary);
//! * [`data`] — embedded datasets behind the motivation figures.

pub mod data;
pub mod figures;
pub mod runners;
