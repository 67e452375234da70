//! The instrumented application the scenario runner installs on every
//! host: it starts each flow this host originates and records *what*
//! arrived and *where it claimed to belong*, so the invariant checkers can
//! compare against the transmitted stream.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use ano_sim::payload::Payload;
use ano_stack::app::{AppEvent, HostApi, HostApp};
use ano_stack::prelude::ConnId;

/// Everything one flow's receiving application saw.
#[derive(Clone, Debug, Default)]
pub struct Delivered {
    /// TLS plaintext in arrival order (it is in-order by construction).
    pub plain: Vec<u8>,
    /// `(claimed stream offset, length)` of each delivered chunk of
    /// `plain`, in arrival order.
    pub chunks: Vec<(u64, usize)>,
    /// NVMe completions: `(request id, ok, buffer bytes)`.
    pub completions: Vec<(u64, bool, Vec<u8>)>,
}

impl Delivered {
    /// Total payload bytes recorded so far (watchdog progress metric).
    pub fn bytes(&self) -> u64 {
        let comp_bytes: u64 = self.completions.iter().map(|(_, _, b)| b.len() as u64).sum();
        self.plain.len() as u64 + comp_bytes
    }

    /// The delivered byte stream in canonical order: TLS plaintext as it
    /// arrived, then NVMe read buffers by request id. This is what the
    /// differential runner compares between arms.
    pub fn stream(&self) -> Vec<u8> {
        let mut out = self.plain.clone();
        let mut comps: Vec<_> = self.completions.iter().collect();
        comps.sort_by_key(|(id, _, _)| *id);
        for (_, _, buf) in comps {
            out.extend_from_slice(buf);
        }
        out
    }
}

/// The per-connection delivery log every host's app shares.
pub type DeliveryLog = Rc<RefCell<BTreeMap<ConnId, Delivered>>>;

/// What a host does on one of its connections at start.
#[derive(Clone, Debug)]
pub enum Job {
    /// Stream these plaintext bytes (TLS sender side).
    Send(Vec<u8>),
    /// Issue these `(device_offset, len)` reads, ids in list order (NVMe
    /// initiator side).
    Read(Vec<(u64, u32)>),
}

/// One host's application: runs this host's [`Job`]s at start, in flow
/// order, and records every delivered plaintext chunk and NVMe completion
/// into the shared log. A host that only receives has no jobs; a host may
/// own any mix of connections.
pub struct FlowApp {
    jobs: Vec<(ConnId, Job)>,
    log: DeliveryLog,
}

impl FlowApp {
    /// Creates the app over this host's jobs and the shared log.
    pub fn new(jobs: Vec<(ConnId, Job)>, log: DeliveryLog) -> FlowApp {
        FlowApp { jobs, log }
    }
}

impl HostApp for FlowApp {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        match event {
            AppEvent::Start => {
                for (conn, job) in std::mem::take(&mut self.jobs) {
                    match job {
                        Job::Send(data) => api.send(conn, Payload::real(data)),
                        Job::Read(reads) => {
                            for (i, (off, len)) in reads.into_iter().enumerate() {
                                api.nvme_read(conn, i as u64, off, len);
                            }
                        }
                    }
                }
            }
            AppEvent::Data { conn, chunks } => {
                let mut log = self.log.borrow_mut();
                let d = log.entry(conn).or_default();
                // Scenario worlds are functional-mode: every chunk is real.
                for c in chunks {
                    let bytes = c.payload.as_real().unwrap_or_default();
                    d.plain.extend_from_slice(bytes);
                    d.chunks.push((c.offset, bytes.len()));
                }
            }
            AppEvent::NvmeDone { conn, completion } => {
                let buf = completion
                    .buffer
                    .as_ref()
                    .map(|b| b.borrow().clone())
                    .unwrap_or_default();
                self.log
                    .borrow_mut()
                    .entry(conn)
                    .or_default()
                    .completions
                    .push((completion.id, completion.ok, buf));
            }
            _ => {}
        }
    }
}
