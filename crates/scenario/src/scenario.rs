//! The one declarative scenario spec: topology shape × per-flow workload ×
//! per-link adversity × network plan × device faults × RSS shape × churn
//! waves × budgets × expectations. Everything a run does differently from
//! another run is a field here; [`crate::runner::run`] is the one machine
//! that executes it.

use std::collections::BTreeSet;

use ano_core::fault::DeviceFaults;
use ano_sim::link::{Impairments, Script};
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::{DegradeConfig, RebalanceConfig};
use ano_stack::world::{NetOp, NetPlan};
use ano_tcp::segment::FlowId;

use crate::chaos::{Degradation, DeviceChaos};

/// Deterministic payload for a TLS stream salted `salt`. The period (251,
/// prime, > packet-boundary strides) lets stream-integrity checks recover
/// the offset a chunk claims from its content; distinct salts make
/// cross-flow delivery mixups byte-visible.
pub fn flow_pattern(salt: u64, len: usize) -> Vec<u8> {
    (0..len as u64).map(|j| (salt.wrapping_add(j) % 251) as u8).collect()
}

/// What one flow carries.
#[derive(Clone, Debug)]
pub enum Workload {
    /// The client streams `bytes` of [`flow_pattern`] plaintext to the
    /// server over (k)TLS (data client → server).
    Tls {
        /// Application bytes to send.
        bytes: usize,
        /// Pattern salt (churn wave `w` streams salt `+ w`).
        salt: u64,
    },
    /// The client issues NVMe/TCP reads against the server's target (data
    /// server → client; the receive offloads live on the client NIC).
    Nvme {
        /// `(device_offset, len)` per read.
        reads: Vec<(u64, u32)>,
    },
    /// NVMe/TCP reads inside TLS (combined NVMe-TLS, §5.3): the nested
    /// offload stack on both endpoints.
    NvmeTls {
        /// `(device_offset, len)` per read.
        reads: Vec<(u64, u32)>,
    },
}

impl Workload {
    /// An unsalted TLS stream of `bytes`.
    pub fn tls(bytes: usize) -> Workload {
        Workload::Tls { bytes, salt: 0 }
    }

    /// The byte stream churn wave `wave` must deliver: TLS plaintext, or
    /// the concatenated read buffers in request order.
    pub fn expected(&self, wave: usize) -> Vec<u8> {
        match self {
            Workload::Tls { bytes, salt } => flow_pattern(salt.wrapping_add(wave as u64), *bytes),
            Workload::Nvme { reads } | Workload::NvmeTls { reads } => reads
                .iter()
                .flat_map(|&(off, len)| {
                    (0..len as u64).map(move |j| ano_nvme::block::pattern_byte(off + j))
                })
                .collect(),
        }
    }

    /// The reads an NVMe flow issues (`None` for TLS).
    pub fn reads(&self) -> Option<&[(u64, u32)]> {
        match self {
            Workload::Tls { .. } => None,
            Workload::Nvme { reads } | Workload::NvmeTls { reads } => Some(reads),
        }
    }
}

/// One connection: which client talks to which server, carrying what.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Client index (`0..clients`).
    pub client: usize,
    /// Server index (`0..servers`).
    pub server: usize,
    /// What the flow carries.
    pub workload: Workload,
}

/// Which NIC offloads the endpoints request. For TLS the flags select
/// tx/rx crypto; for NVMe the client rx flag selects copy + CRC-verify,
/// the tx flags CRC-fill, and the server rx flag the NVMe-TLS target's
/// nested rx engine (plain NVMe reads send the target nothing to verify).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Offload {
    /// Client transmit offload.
    pub client_tx: bool,
    /// Client receive offload.
    pub client_rx: bool,
    /// Server transmit offload.
    pub server_tx: bool,
    /// Server receive offload.
    pub server_rx: bool,
}

impl Offload {
    /// Software only — what [`Scenario::twin`] runs.
    pub const NONE: Offload = Offload {
        client_tx: false,
        client_rx: false,
        server_tx: false,
        server_rx: false,
    };
    /// Everything on both ends (the two-host matrix and NVMe fleets).
    pub const FULL: Offload = Offload {
        client_tx: true,
        client_rx: true,
        server_tx: true,
        server_rx: true,
    };
    /// Server receive only (TLS fleets: the NIC under test is the
    /// server's; clients run software TLS).
    pub const SERVER_RX: Offload = Offload {
        server_rx: true,
        ..Offload::NONE
    };
}

/// One scenario. Hosts are world-indexed clients `0..clients` then servers
/// `clients..clients+servers`, fully meshed client↔server; the two-host
/// scenarios are the 1×1 case.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (replay key).
    pub name: String,
    /// World seed.
    pub seed: u64,
    /// Client hosts.
    pub clients: usize,
    /// Server hosts.
    pub servers: usize,
    /// Cores per client host.
    pub client_cores: usize,
    /// Cores per server host (few cores make software fallback hurt).
    pub server_cores: usize,
    /// Link rate for every link.
    pub link_rate_bps: u64,
    /// Server NIC context-cache capacity (clients keep the default large
    /// cache and never contend).
    pub server_cache: usize,
    /// Server NIC rx queues (the twin always runs one).
    pub rx_queues: u16,
    /// Server RSS indirection-table size.
    pub rss_buckets: usize,
    /// RSS indirection table installed on every server *before* any flow
    /// connects — the imbalance-induction knob (all-zeros pins every flow
    /// to queue 0, overloading its core).
    pub rss_table: Option<Vec<u16>>,
    /// Flow→core rebalancing policy (`None` keeps placements static).
    pub rebalance: Option<RebalanceConfig>,
    /// The connections, in connect order.
    pub flows: Vec<Flow>,
    /// Churn waves: each wave connects every flow, runs it to completion
    /// and disconnects (1 is the ordinary long-lived case).
    pub waves: usize,
    /// Which offloads the offload arm requests.
    pub offload: Offload,
    /// Static per-directed-pair impairments (knobs + script) in world host
    /// indices; unlisted pairs stay pristine.
    pub links: Vec<((u16, u16), Impairments)>,
    /// Scheduled partition/repair/hold/impair steps over host subsets.
    pub net_plan: NetPlan,
    /// Extra declared outage windows `(from, to)` for adversity scripted on
    /// `links`: the watchdog suspends inside each and re-arms (with a full
    /// fresh budget) when it closes. Deliberately *not* derived from link
    /// scripts — an outage is only excusable when the author declared it,
    /// so an undeclared blackhole (`tls/blackhole`) still trips the
    /// watchdog. `net_plan` outages are declared by construction.
    pub outages: Vec<(SimTime, SimTime)>,
    /// Device-fault plans per world host, installed before any connection
    /// exists so install-time rules see the first `InstallRx`.
    pub faults: Vec<(usize, DeviceFaults)>,
    /// Degradation policy (install ladder, breakers).
    pub degrade: DegradeConfig,
    /// Watchdog: every incomplete flow must deliver some byte this often
    /// outside declared outages.
    pub progress_budget: SimDuration,
    /// Hard cap on simulated time, per wave.
    pub sim_budget: SimDuration,
    /// Every flow must complete (false for unrecoverable adversity such as
    /// payload corruption, where the damaged record is lost for good).
    pub expect_complete: bool,
    /// Every offloaded flow whose breaker stayed closed must end in
    /// `Offloading`. Probabilistic loss may let a transfer *finish*
    /// mid-resync with no later traffic to reconverge on, so such specs
    /// relax this — the ladder-legality check still applies.
    pub expect_reconverge: bool,
    /// What the degradation policy must have done to flows whose data
    /// receiver's NIC carries a fault plan.
    pub expect_degrade: Option<Degradation>,
    /// Differential bound: max completion-time ratio between the arms.
    pub max_divergence: f64,
}

impl Scenario {
    /// A clean many-host skeleton with no flows yet (populate with
    /// [`Scenario::tls_flows`] or a literal `flows`).
    pub fn fleet(name: &str) -> Scenario {
        Scenario {
            name: name.to_string(),
            seed: 7,
            clients: 2,
            servers: 1,
            client_cores: 4,
            server_cores: 4,
            link_rate_bps: 100_000_000_000,
            server_cache: 1024,
            rx_queues: 1,
            rss_buckets: 128,
            rss_table: None,
            rebalance: None,
            flows: Vec::new(),
            waves: 1,
            offload: Offload::SERVER_RX,
            links: Vec::new(),
            net_plan: NetPlan::new(),
            outages: Vec::new(),
            faults: Vec::new(),
            degrade: DegradeConfig::default(),
            progress_budget: SimDuration::from_millis(200),
            sim_budget: SimDuration::from_millis(50),
            expect_complete: true,
            expect_reconverge: true,
            expect_degrade: None,
            max_divergence: 50.0,
        }
    }

    /// A clean two-host skeleton: one client, one server, one `workload`
    /// flow, every offload on.
    pub fn two_host(name: &str, workload: Workload) -> Scenario {
        Scenario {
            seed: 0xAD5E_0001,
            clients: 1,
            client_cores: 8,
            server_cores: 8,
            server_cache: 20_000,
            flows: vec![Flow {
                client: 0,
                server: 0,
                workload,
            }],
            offload: Offload::FULL,
            sim_budget: SimDuration::from_secs(10),
            max_divergence: 8.0,
            ..Scenario::fleet(name)
        }
    }

    /// Replaces the flow population with `n` flows placed round-robin over
    /// clients × servers, flow `k` carrying `workload(k)` (builder-style).
    pub fn round_robin(mut self, n: usize, workload: impl Fn(usize) -> Workload) -> Scenario {
        self.flows = (0..n)
            .map(|k| Flow {
                client: k % self.clients,
                server: k % self.servers,
                workload: workload(k),
            })
            .collect();
        self
    }

    /// [`Scenario::round_robin`] with TLS streams of `bytes` each, every
    /// flow salted so no other flow shares its pattern.
    pub fn tls_flows(self, n: usize, bytes: usize) -> Scenario {
        let seed = self.seed;
        self.round_robin(n, |k| Workload::Tls {
            bytes,
            salt: (k as u64).wrapping_mul(7).wrapping_add(seed),
        })
    }

    /// The software twin every run is differentially checked against:
    /// offload off, device faults stripped, one rx queue, no rebalancer.
    /// Links and the network plan are kept — the twin suffers the same
    /// network.
    pub fn twin(&self) -> Scenario {
        Scenario {
            offload: Offload::NONE,
            faults: Vec::new(),
            rx_queues: 1,
            rss_table: None,
            rebalance: None,
            ..self.clone()
        }
    }

    /// World host index of server `j`.
    pub fn server_host(&self, j: usize) -> u16 {
        (self.clients + j) as u16
    }

    /// Flow `k`'s payload-bearing directed pair `(src, dst)`: client →
    /// server for TLS, server → client for NVMe read data.
    pub fn data_pair(&self, k: usize) -> (u16, u16) {
        let f = &self.flows[k];
        let (c, s) = (f.client as u16, self.server_host(f.server));
        match f.workload {
            Workload::Tls { .. } => (c, s),
            Workload::Nvme { .. } | Workload::NvmeTls { .. } => (s, c),
        }
    }

    /// The label of flow `k`'s payload direction in wave 0 — the rx flow
    /// at its data receiver, which flow-targeted device faults name.
    /// (Connection `k` labels client → server `2k`, the reverse `2k+1`.)
    pub fn rx_flow(&self, k: usize) -> FlowId {
        let from_client = matches!(self.flows[k].workload, Workload::Tls { .. });
        FlowId(2 * k as u64 + u64::from(!from_client))
    }

    /// Whether flow `k`'s data receiver requests a receive offload (the
    /// engine whose resync ladder and reconvergence the run checks).
    pub fn rx_offload(&self, k: usize) -> bool {
        match self.flows[k].workload {
            Workload::Tls { .. } => self.offload.server_rx,
            Workload::Nvme { .. } | Workload::NvmeTls { .. } => self.offload.client_rx,
        }
    }

    /// The concatenated expected streams of every flow, in flow order.
    pub fn expected(&self) -> Vec<u8> {
        self.flows.iter().flat_map(|f| f.workload.expected(0)).collect()
    }

    /// The watchdog's declared outage windows: `outages` plus every
    /// partition→repair / hold→release span of the plan.
    pub fn outage_windows(&self, horizon: SimTime) -> Vec<(SimTime, SimTime)> {
        let mut w = self.outages.clone();
        w.extend(self.net_plan.outage_windows(horizon));
        w
    }

    /// The directed pairs the plan's `Partition` steps cut (both
    /// directions of every group crossing). Only these swallow frames
    /// into `LinkStats::partitioned`.
    pub fn cut_pairs(&self) -> BTreeSet<(u16, u16)> {
        let mut out = BTreeSet::new();
        for (_, op) in self.net_plan.steps() {
            if let NetOp::Partition(a, b) = op {
                for &x in a {
                    for &y in b {
                        out.insert((x, y));
                        out.insert((y, x));
                    }
                }
            }
        }
        out
    }

    /// Every directed pair the plan darkens at some point: [`cut_pairs`]
    /// plus every `Hold` pair (which parks deliveries and counts nothing).
    ///
    /// [`cut_pairs`]: Scenario::cut_pairs
    pub fn dark_pairs(&self) -> BTreeSet<(u16, u16)> {
        let mut out = self.cut_pairs();
        for (_, op) in self.net_plan.steps() {
            if let NetOp::Hold(src, dst) = op {
                out.insert((*src, *dst));
            }
        }
        out
    }

    /// True when nothing in the spec may drop a frame into
    /// `LinkStats::lost`: every link pristine and a plan of pure
    /// partition/hold steps. A partition is not packet loss and must not
    /// masquerade as it.
    pub fn lossless(&self) -> bool {
        self.links.iter().all(|(_, imp)| *imp == Impairments::none())
            && !self
                .net_plan
                .steps()
                .iter()
                .any(|(_, op)| matches!(op, NetOp::Impair(..) | NetOp::SetScript(..)))
    }

    /// Whether nothing in the spec ever touches flow `k`'s links: both
    /// directions pristine (no impairment knob, no script), no net-plan
    /// step naming the pair, and no declared outage. Device faults do not
    /// count: they act on a NIC, never on a link.
    pub fn clean_links(&self, k: usize) -> bool {
        let (a, b) = self.data_pair(k);
        let is_pair = |x: u16, y: u16| (x, y) == (a, b) || (x, y) == (b, a);
        let crosses = |g: &[u16], h: &[u16]| {
            g.iter().any(|&x| h.iter().any(|&y| is_pair(x, y)))
        };
        self.outages.is_empty()
            && self
                .links
                .iter()
                .all(|(p, imp)| !is_pair(p.0, p.1) || *imp == Impairments::none())
            && !self.net_plan.steps().iter().any(|(_, op)| match op {
                NetOp::Partition(g, h) | NetOp::Repair(g, h) | NetOp::Impair(g, h, _) => {
                    crosses(g, h)
                }
                NetOp::Hold(x, y) | NetOp::Release(x, y) | NetOp::SetScript(x, y, _) => {
                    is_pair(*x, *y)
                }
            })
    }

    /// Whether `host`'s NIC carries a device-fault plan.
    pub fn faulted(&self, host: usize) -> bool {
        self.faults.iter().any(|(h, _)| *h == host)
    }

    fn link_mut(&mut self, pair: (u16, u16)) -> &mut Impairments {
        let at = match self.links.iter().position(|(p, _)| *p == pair) {
            Some(at) => at,
            None => {
                self.links.push((pair, Impairments::none()));
                self.links.len() - 1
            }
        };
        &mut self.links[at].1
    }

    /// Scripts flow 0's payload direction (builder-style).
    pub fn data_script(mut self, script: Script) -> Scenario {
        let pair = self.data_pair(0);
        self.link_mut(pair).script = script;
        self
    }

    /// Scripts flow 0's reverse (ACK) direction (builder-style).
    pub fn ack_script(mut self, script: Script) -> Scenario {
        let (src, dst) = self.data_pair(0);
        self.link_mut((dst, src)).script = script;
        self
    }

    /// Marks the scenario as not expected to complete (unrecoverable
    /// adversity); also disables the reconvergence check, since the stream
    /// may end while the engine is still searching.
    pub fn unrecoverable(mut self) -> Scenario {
        self.expect_complete = false;
        self.expect_reconverge = false;
        self
    }

    /// Aims `chaos` at flow 0: its plan goes on the flow's data receiver
    /// NIC, its policy knobs replace `degrade`, and its expectation is
    /// recorded (builder-style).
    pub fn with_chaos(mut self, chaos: &DeviceChaos) -> Scenario {
        let receiver = self.data_pair(0).1 as usize;
        self.faults.push((receiver, chaos.plan(self.rx_flow(0))));
        self.degrade = chaos.degrade();
        self.expect_degrade = Some(chaos.expect());
        self
    }
}
