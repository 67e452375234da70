//! Workload applications for the *Autonomous NIC Offloads* reproduction.
//!
//! * [`iperf`] — bulk streaming sender/sink (§6.1, §6.4 sweeps);
//! * [`httpd`] — nginx-like server + wrk-like client, reusable as the
//!   Redis-on-Flash server + memtier driver (§6.2/§6.3): configuration C1
//!   backs responses with NVMe-TCP reads, C2 serves from the page cache;
//! * [`fio`] — random-read generator at fixed I/O depth (Fig. 10).

pub mod fio;
pub mod httpd;
pub mod iperf;
