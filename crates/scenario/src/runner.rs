//! Scenario execution: the one stepping loop, the one outcome, and the one
//! differential contract.

use std::collections::BTreeMap;
use std::rc::Rc;

use ano_core::nic::{NicConfig, NicCounters};
use ano_core::rx::RxStateKind;
use ano_sim::link::{LinkMode, LinkStats};
use ano_sim::payload::DataMode;
use ano_sim::time::{SimDuration, SimTime};
use ano_stack::prelude::{
    ConnId, ConnSpec, Fleet, FleetSpec, HostSpec, NvmeHostSpec, NvmeTargetSpec, TlsSpec,
    WorldConfig,
};
use ano_trace::{export, Event as TraceEvent, Record, ResyncPhase};

use crate::apps::{Delivered, DeliveryLog, FlowApp, Job};
use crate::chaos::Degradation;
use crate::invariant::{check_clean_link_quiescence, FlowChecker, ProgressWatchdog, Violation};
use crate::scenario::{Offload, Scenario, Workload};

/// Invariant-checking granularity: the world runs in slices of this length,
/// with every flow's checker evaluated between slices.
const STEP: SimDuration = SimDuration::from_micros(500);

/// Which side of the differential a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arm {
    /// The scenario as specified.
    Offload,
    /// Its [`Scenario::twin`].
    Software,
}

/// One connection of one wave, as the run left it. Engine-side fields are
/// read at the flow's data receiver.
#[derive(Debug)]
pub struct FlowRecord {
    /// Index into [`Scenario::flows`] (each wave repeats the list).
    pub flow: usize,
    /// The connection.
    pub conn: ConnId,
    /// Client world host.
    pub client: u16,
    /// Server world host.
    pub server: u16,
    /// Everything the receiving application recorded.
    pub delivered: Delivered,
    /// What the flow was supposed to deliver.
    pub expected: Vec<u8>,
    /// The payload direction's flow label (filters `trace` down to the
    /// offloaded direction).
    pub rx_flow: u64,
    /// kTLS alert count (0 for plain NVMe).
    pub alerts: u64,
    /// Why the circuit breaker opened, if it did.
    pub breaker: Option<&'static str>,
    /// Final rx-engine state, if an engine is installed.
    pub rx_state: Option<RxStateKind>,
    /// The rx engine's ordered `(from, to)` resync transitions.
    pub resync: Vec<(ResyncPhase, ResyncPhase)>,
    /// Packets the rx engine fully offloaded (0 when the engine is gone —
    /// breaker open or never installed).
    pub rx_offloaded_pkts: u64,
    /// Payload packets served with the breaker open.
    pub degraded_pkts: u64,
    /// The NIC rx queue the flow last landed on.
    pub rx_queue: u16,
    /// The core the connection ended on.
    pub core: usize,
    /// Segments re-sent (fast, SACK or RTO retransmissions), summed over
    /// the connection's two directions.
    pub retransmits: u64,
    /// RTO expirations, summed over the connection's two directions.
    pub timeouts: u64,
}

/// One host at run end.
#[derive(Debug)]
pub struct HostRecord {
    /// NIC counters (context cache, queue crossings).
    pub nic: NicCounters,
    /// Per-queue received-packet counters.
    pub queue_rx_pkts: Vec<u64>,
    /// Max-over-mean packet load across the rx queues.
    pub queue_imbalance: f64,
    /// Cumulative per-core busy cycles.
    pub core_cycles: Vec<u64>,
    /// Flow→core migrations the rebalancer performed.
    pub migrations: u64,
    /// Device faults the host's plan actually delivered (rule hits plus
    /// scheduled one-shots) — the injection oracle.
    pub faults_injected: u64,
}

impl HostRecord {
    /// Max-over-mean busy cycles across the cores: 1.0 is a perfectly even
    /// spread, `num_cores` is everything on one core.
    pub fn busy_spread(&self) -> f64 {
        let total: u64 = self.core_cycles.iter().sum();
        let max = self.core_cycles.iter().copied().max().unwrap_or(0);
        if total == 0 || self.core_cycles.len() <= 1 {
            return 1.0;
        }
        max as f64 * self.core_cycles.len() as f64 / total as f64
    }
}

/// Result of one run (one world, one arm).
#[derive(Debug)]
pub struct Outcome {
    /// Scenario name.
    pub name: String,
    /// Which arm ran.
    pub arm: Arm,
    /// Client host count: `hosts[..clients]` are clients, the rest servers.
    pub clients: usize,
    /// Every flow of every wave delivered every byte.
    pub complete: bool,
    /// Step time at which the last expected byte arrived.
    pub finish: Option<SimTime>,
    /// Step time at which the run stopped (quiescence or sim budget).
    pub end: SimTime,
    /// Per-flow records, waves concatenated in connect order.
    pub flows: Vec<FlowRecord>,
    /// Per-host records, by world host index.
    pub hosts: Vec<HostRecord>,
    /// Link statistics per directed pair.
    pub links: BTreeMap<(u16, u16), LinkStats>,
    /// Invariant violations, in detection order.
    pub violations: Vec<Violation>,
    /// Full trace of the run, oldest first (every run is traced — the
    /// event stream is deterministic, so it costs nothing in fidelity).
    pub trace: Vec<Record>,
    /// Trace records the ring overwrote.
    pub trace_dropped: u64,
}

impl Outcome {
    /// Every flow's delivered stream, concatenated in flow order.
    pub fn stream(&self) -> Vec<u8> {
        self.flows.iter().flat_map(|f| f.delivered.stream()).collect()
    }

    /// The run's canonical golden-trace rendering (Tcp + Resync + Net).
    pub fn canonical_trace(&self) -> String {
        export::canonical(&self.trace, export::GOLDEN_CATEGORIES)
    }

    /// Open breaker reasons, in flow order.
    pub fn breakers(&self) -> Vec<&'static str> {
        self.flows.iter().filter_map(|f| f.breaker).collect()
    }

    /// Payload packets served in degraded (software-fallback) mode.
    pub fn degraded_pkts(&self) -> u64 {
        self.flows.iter().map(|f| f.degraded_pkts).sum()
    }

    /// Packets fully offloaded by surviving rx engines.
    pub fn rx_offloaded_pkts(&self) -> u64 {
        self.flows.iter().map(|f| f.rx_offloaded_pkts).sum()
    }

    /// Server `j`'s host record.
    pub fn server(&self, j: usize) -> &HostRecord {
        &self.hosts[self.clients + j]
    }

    /// Context-cache `(hits, misses)` summed over the server NICs.
    pub fn server_cache(&self) -> (u64, u64) {
        self.hosts[self.clients..].iter().fold((0, 0), |(h, m), r| {
            (h + r.nic.cache_hits, m + r.nic.cache_misses)
        })
    }

    /// Panics with every violation if any invariant failed, appending the
    /// trailing trace window so the failure report shows what the stack was
    /// doing right before things went wrong.
    pub fn assert_clean(&self) {
        report(&self.name, &format!("{:?} arm", self.arm), &self.violations, &self.trace);
    }
}

/// Result of a differential run: the same scenario executed on both arms.
#[derive(Debug)]
pub struct Diff {
    /// The offload arm.
    pub offload: Outcome,
    /// The software twin.
    pub software: Outcome,
    /// All violations: both runs' own, plus the differential ones
    /// (`differential-stream`, `differential-divergence`).
    pub violations: Vec<Violation>,
}

impl Diff {
    /// Panics with every violation if the pair diverged or either run
    /// failed an invariant. The offload run's trailing trace window rides
    /// along — divergences are almost always an offload-side story.
    pub fn assert_clean(&self) {
        report(&self.offload.name, "differential", &self.violations, &self.offload.trace);
    }
}

fn report(name: &str, what: &str, violations: &[Violation], trace: &[Record]) {
    if violations.is_empty() {
        return;
    }
    let skip = trace.len().saturating_sub(40);
    let lines: Vec<String> = violations.iter().map(|v| format!("  {v}")).collect();
    panic!(
        "scenario '{name}' ({what}): {} violation(s):\n{}\nlast {} trace records:\n{}",
        violations.len(),
        lines.join("\n"),
        trace.len() - skip,
        export::timeline(&trace[skip..]),
    );
}

/// The endpoint specs `(client, server)` a workload connects with under
/// `o`.
fn conn_specs(workload: &Workload, o: Offload) -> (ConnSpec, ConnSpec) {
    let tls = |tx_offload, rx_offload| TlsSpec {
        tx_offload,
        rx_offload,
        zerocopy: false,
    };
    let host = NvmeHostSpec {
        copy_offload: o.client_rx,
        crc_offload: o.client_rx,
        crc_tx_offload: o.client_tx,
    };
    let target = |crc_rx_offload| NvmeTargetSpec {
        crc_tx_offload: o.server_tx,
        crc_rx_offload,
        ..Default::default()
    };
    match workload {
        Workload::Tls { .. } => (
            ConnSpec::Tls(tls(o.client_tx, o.client_rx)),
            ConnSpec::Tls(tls(o.server_tx, o.server_rx)),
        ),
        Workload::Nvme { .. } => (ConnSpec::NvmeHost(host), ConnSpec::NvmeTarget(target(false))),
        Workload::NvmeTls { .. } => (
            ConnSpec::NvmeTlsHost(host, tls(o.client_tx, o.client_rx)),
            ConnSpec::NvmeTlsTarget(target(o.server_rx), tls(o.server_tx, o.server_rx)),
        ),
    }
}

/// Every engine's ordered `(from, to)` resync transitions, pulled out of
/// the shared trace and keyed by flow label.
fn resync_edges(trace: &[Record]) -> BTreeMap<u64, Vec<(ResyncPhase, ResyncPhase)>> {
    let mut out: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    for r in trace {
        if let TraceEvent::Resync { from, to, .. } = r.event {
            out.entry(r.flow).or_default().push((from, to));
        }
    }
    out
}

/// Runs one arm of `sc` in one world, checking every flow's invariants at
/// every step and the run-level contract at the end.
pub fn run(sc: &Scenario, arm: Arm) -> Outcome {
    let twin;
    let sc = match arm {
        Arm::Offload => sc,
        Arm::Software => {
            twin = sc.twin();
            &twin
        }
    };
    let mut fleet = Fleet::build(FleetSpec {
        clients: sc.clients,
        servers: sc.servers,
        client: HostSpec {
            cores: sc.client_cores,
            nic: NicConfig::default(),
        },
        server: HostSpec {
            cores: sc.server_cores,
            nic: NicConfig {
                ctx_cache_capacity: sc.server_cache,
                rx_queues: sc.rx_queues,
                rss_buckets: sc.rss_buckets,
                ..NicConfig::default()
            },
        },
        cfg: WorldConfig {
            seed: sc.seed,
            mode: DataMode::Functional,
            link_rate_bps: sc.link_rate_bps,
            degrade: sc.degrade.clone(),
            rebalance: sc.rebalance,
            ..WorldConfig::default()
        },
        impair: sc.links.clone(),
        scripts: Vec::new(),
    });
    // Every run records: the trace feeds the ordered-transition invariant,
    // failure diagnostics, and the golden-trace tests.
    fleet.tracer().set_enabled(true);
    if let Some(table) = &sc.rss_table {
        for j in 0..sc.servers {
            fleet.set_rss_table(sc.server_host(j) as usize, table.clone());
        }
    }
    for (host, plan) in &sc.faults {
        fleet.set_device_faults(*host, plan.clone());
    }
    fleet.set_net_plan(sc.net_plan.clone());

    let log = DeliveryLog::default();
    let nothing = Delivered::default();
    let mut violations = Vec::new();
    let mut flows = Vec::with_capacity(sc.flows.len() * sc.waves);
    let mut trace = Vec::new();
    let mut finish = None;
    let mut end = fleet.now();
    for wave in 0..sc.waves {
        // Connect the wave's flow population and hand every host its jobs.
        let start = fleet.now();
        let deadline = start + sc.sim_budget;
        let windows = sc.outage_windows(deadline);
        let mut jobs = vec![Vec::new(); sc.clients + sc.servers];
        let mut checkers = Vec::with_capacity(sc.flows.len());
        for f in &sc.flows {
            let (client_spec, server_spec) = conn_specs(&f.workload, sc.offload);
            let conn = fleet.connect(f.client, f.server, client_spec, server_spec);
            let who = format!("conn {} ({}<->{})", conn.0, f.client, sc.server_host(f.server));
            let watchdog = ProgressWatchdog::new(sc.progress_budget, windows.clone(), start);
            let checker = FlowChecker::new(who, &f.workload, wave, watchdog);
            jobs[f.client].push((
                conn,
                match f.workload.reads() {
                    None => Job::Send(checker.expected().to_vec()),
                    Some(reads) => Job::Read(reads.to_vec()),
                },
            ));
            checkers.push((conn, checker));
        }
        for (host, jobs) in jobs.into_iter().enumerate() {
            fleet.set_app(host, Box::new(FlowApp::new(jobs, Rc::clone(&log))));
        }
        fleet.start();

        // Step until the world quiesces (trailing ACKs and timers drained;
        // if a transfer is incomplete the finish checks flag it) or the
        // sim budget runs out.
        let mut t = start;
        finish = None;
        loop {
            t += STEP;
            fleet.run_until(t);
            let log = log.borrow();
            let mut done = true;
            for (conn, checker) in &mut checkers {
                let delivered = log.get(conn).unwrap_or(&nothing);
                done &= checker.step(t, delivered, sc.expect_complete, &mut violations);
            }
            if done && finish.is_none() {
                finish = Some(t);
            }
            if fleet.is_idle() || t >= deadline {
                break;
            }
        }
        end = t;

        // Collect the wave's per-flow records and run the per-flow finish
        // checks. A wrapped trace ring cannot vouch for any ladder.
        trace = fleet.tracer().records();
        let trusted = fleet.tracer().dropped() == 0;
        let mut ladders = resync_edges(&trace);
        for (k, (conn, checker)) in checkers.into_iter().enumerate() {
            let (client, server) = (sc.flows[k].client as u16, sc.server_host(sc.flows[k].server));
            let recv = sc.data_pair(k).1 as usize;
            let rx_flow = fleet.flow_ids(recv, conn).map(|(_, f)| f).unwrap_or(0);
            let breaker = fleet.breaker_reason(recv, conn);
            let rx_state = fleet.rx_engine_state(recv, conn);
            let resync = ladders.remove(&rx_flow).unwrap_or_default();
            let tcp = [client, server]
                .map(|h| fleet.tcp_tx_stats(h as usize, conn).unwrap_or_default());
            checker.finish(
                end,
                sc.expect_complete,
                sc.expect_reconverge && sc.rx_offload(k) && breaker.is_none(),
                rx_state,
                trusted.then_some(&resync[..]),
                &mut violations,
            );
            flows.push(FlowRecord {
                flow: k,
                conn,
                client,
                server,
                delivered: log.borrow_mut().remove(&conn).unwrap_or_default(),
                expected: checker.into_expected(),
                rx_flow,
                alerts: fleet.ktls_rx_stats(recv, conn).map(|s| s.alerts).unwrap_or(0),
                breaker,
                rx_state,
                resync,
                rx_offloaded_pkts: fleet
                    .rx_engine_stats(recv, conn)
                    .map(|s| s.pkts_offloaded)
                    .unwrap_or(0),
                degraded_pkts: fleet.degraded_pkts(recv, conn),
                rx_queue: fleet.rx_queue_of(recv, conn).unwrap_or(0),
                core: fleet.conn_core(recv, conn).unwrap_or(0),
                retransmits: tcp.iter().map(|t| t.retransmits).sum(),
                timeouts: tcp.iter().map(|t| t.timeouts).sum(),
            });
        }
        if finish.is_none() {
            break;
        }
        // Teardown only after full delivery, and never after the last
        // wave: the records above and the trace describe live connections.
        if wave + 1 < sc.waves {
            for f in &flows[flows.len() - sc.flows.len()..] {
                fleet.disconnect(f.conn);
            }
        }
    }

    let hosts = (0..sc.clients + sc.servers)
        .map(|h| HostRecord {
            nic: fleet.nic_counters(h),
            queue_rx_pkts: fleet.queue_rx_pkts(h).to_vec(),
            queue_imbalance: fleet.queue_imbalance(h),
            core_cycles: fleet.cpu_snapshot(h),
            migrations: fleet.migrations(h),
            faults_injected: fleet.device_faults_injected(h),
        })
        .collect();
    let mut links = BTreeMap::new();
    for c in 0..sc.clients as u16 {
        for j in 0..sc.servers {
            let s = sc.server_host(j);
            for (src, dst) in [(c, s), (s, c)] {
                links.insert((src, dst), fleet.link_stats_between(src, dst));
                // Every plan heals what it breaks: by run end no link may
                // still be dark and no delivery may still be parked.
                let mode = fleet.link_mode_between(src, dst);
                let held = fleet.held_between(src, dst);
                if mode != LinkMode::Normal || held > 0 {
                    violations.push(Violation {
                        invariant: "net-heal",
                        at: end,
                        detail: format!("link {src}->{dst} ended {mode:?} with {held} parked deliveries"),
                    });
                }
            }
        }
    }

    let mut out = Outcome {
        name: sc.name.clone(),
        arm,
        clients: sc.clients,
        complete: finish.is_some(),
        finish,
        end,
        flows,
        hosts,
        links,
        violations,
        trace_dropped: fleet.tracer().dropped(),
        trace,
    };
    let found = check_run(sc, &out);
    out.violations.extend(found);
    out
}

/// The run-level contract, checked on every arm of every scenario; each
/// clause keys off what the spec declares.
fn check_run(sc: &Scenario, out: &Outcome) -> Vec<Violation> {
    let mut found = Vec::new();
    let mut flag = |invariant, detail: String| {
        found.push(Violation {
            invariant,
            at: out.end,
            detail,
        })
    };

    // Auth integrity: alerts appear exactly when a link corrupted
    // something. A corrupted record that produced no alert was either
    // dropped silently (masking) or — worse — authenticated.
    let alerts: u64 = out.flows.iter().map(|f| f.alerts).sum();
    let corrupted: u64 = out.links.values().map(|l| l.corrupted).sum();
    if corrupted == 0 && alerts > 0 {
        flag("auth-integrity", format!("{alerts} TLS alerts on uncorrupted links"));
    }
    let all_tls = sc.flows.iter().all(|f| matches!(f.workload, Workload::Tls { .. }));
    if corrupted > 0 && alerts == 0 && all_tls {
        flag(
            "auth-integrity",
            format!("links corrupted {corrupted} frame(s) but TLS raised no alert"),
        );
    }

    // The partitioned/lost split: cut pairs swallow frames into
    // `partitioned`; no other pair may count one, and a lossless spec
    // counts no `lost` frame anywhere.
    let (dark, cut, lossless) = (sc.dark_pairs(), sc.cut_pairs(), sc.lossless());
    for (&(src, dst), l) in &out.links {
        if !dark.contains(&(src, dst)) && l.partitioned > 0 {
            flag(
                "partition-accounting",
                format!("link {src}->{dst} was never darkened but counted {} partitioned frames", l.partitioned),
            );
        }
        if lossless && l.lost > 0 {
            flag(
                "partition-accounting",
                format!("lossless spec counted {} lost frames on {src}->{dst}", l.lost),
            );
        }
    }
    if !cut.is_empty() && cut.iter().filter_map(|p| out.links.get(p)).all(|l| l.partitioned == 0) {
        flag("partition-accounting", format!("plan partitioned {cut:?} but nothing was swallowed"));
    }

    // What the spec's own shape rules out.
    if sc.offload == Offload::NONE && out.rx_offloaded_pkts() > 0 {
        flag("software-arm", "a run with no offload flag touched an rx engine".to_string());
    }
    let crossings: u64 = out.hosts.iter().map(|h| h.nic.queue_crossings).sum();
    if sc.rx_queues == 1 && crossings > 0 {
        flag("software-arm", format!("single-queue NICs crossed queues {crossings} times"));
    }

    for detail in check_clean_link_quiescence(sc, &out.flows) {
        flag("clean-link-quiescence", detail);
    }

    // A fault plan that injected nothing tested a healthy device.
    for (host, _) in &sc.faults {
        if out.hosts[*host].faults_injected == 0 {
            flag("chaos-injection", format!("host {host}'s fault plan injected nothing"));
        }
    }

    // Degradation. Chaos on one subset must not open breakers on another:
    // only a flow whose pair went dark, whose receiver NIC is faulted, or
    // whose thrash breaker is armed may degrade. Flows under a fault plan
    // are additionally held to the declared expectation.
    for f in &out.flows {
        let (src, dst) = sc.data_pair(f.flow);
        let faulted = sc.faulted(dst as usize);
        let touched = faulted
            || dark.contains(&(src, dst))
            || dark.contains(&(dst, src))
            || sc.degrade.breaker_cache_thrash.is_some();
        if let (false, Some(reason)) = (touched, f.breaker) {
            flag(
                "degradation-leak",
                format!("breaker '{reason}' tripped on untouched conn {} ({src}->{dst})", f.conn.0),
            );
        }
        match sc.expect_degrade {
            Some(Degradation::ReOffloaded) if faulted => {
                if let Some(reason) = f.breaker {
                    flag("chaos-degradation", format!("transient fault opened the breaker ({reason})"));
                }
                if f.rx_offloaded_pkts == 0 {
                    flag(
                        "chaos-degradation",
                        format!("conn {} never (re-)offloaded a packet after the fault", f.conn.0),
                    );
                }
            }
            Some(Degradation::BreakerOpen(reason)) if faulted => {
                if f.breaker != Some(reason) {
                    flag(
                        "chaos-degradation",
                        format!("expected breaker open ({reason}), got {:?}", f.breaker),
                    );
                }
                if f.rx_state.is_some() {
                    flag("chaos-degradation", "rx engine still installed with the breaker open".to_string());
                }
            }
            _ => {}
        }
    }
    found
}

/// Runs `sc` on both arms and checks that the offload is invisible at the
/// application layer: byte-identical per-flow streams, matching
/// completion, bounded completion-time divergence.
pub fn run_differential(sc: &Scenario) -> Diff {
    let offload = run(sc, Arm::Offload);
    let software = run(sc, Arm::Software);

    let mut violations = offload.violations.clone();
    violations.extend(software.violations.iter().cloned());
    let mut flag = |invariant, detail| {
        violations.push(Violation {
            invariant,
            at: offload.end,
            detail,
        })
    };

    for (on, off) in offload.flows.iter().zip(&software.flows) {
        let (a, b) = (on.delivered.stream(), off.delivered.stream());
        if a != b {
            let at = a
                .iter()
                .zip(&b)
                .position(|(x, y)| x != y)
                .unwrap_or_else(|| a.len().min(b.len()));
            flag(
                "differential-stream",
                format!(
                    "conn {}: offload delivered {} bytes, software {}; first divergence at offset {at}",
                    on.conn.0,
                    a.len(),
                    b.len()
                ),
            );
        }
    }
    if offload.complete != software.complete || offload.flows.len() != software.flows.len() {
        flag(
            "differential-stream",
            format!(
                "completion mismatch: offload {} ({} flows), software {} ({} flows)",
                offload.complete,
                offload.flows.len(),
                software.complete,
                software.flows.len()
            ),
        );
    }
    if let (Some(f_off), Some(f_sw)) = (offload.finish, software.finish) {
        let (a, b) = (f_off.as_nanos().max(1), f_sw.as_nanos().max(1));
        let ratio = a.max(b) as f64 / a.min(b) as f64;
        if ratio > sc.max_divergence {
            flag(
                "differential-divergence",
                format!(
                    "completion times diverge {ratio:.1}x (offload {f_off:?}, software {f_sw:?}), bound {:.1}x",
                    sc.max_divergence
                ),
            );
        }
    }

    Diff {
        offload,
        software,
        violations,
    }
}

/// One point of the context-cache sensitivity curve. All fields are exact
/// integers so the committed expected file is byte-stable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SensitivityPoint {
    /// Concurrent flows at this point.
    pub flows: usize,
    /// Server cache hits / misses over the whole run.
    pub cache_hits: u64,
    /// See [`SensitivityPoint::cache_hits`].
    pub cache_misses: u64,
    /// Connections the cache-thrash breaker pushed to software.
    pub breakers: usize,
    /// Packets served in degraded mode after a breaker opened.
    pub degraded_pkts: u64,
    /// Packets fully offloaded by surviving rx engines.
    pub rx_offloaded_pkts: u64,
    /// Offload-run completion time.
    pub finish_ns: u64,
}

impl SensitivityPoint {
    /// Hit-rate at this point.
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            return 1.0;
        }
        self.cache_hits as f64 / total as f64
    }

    /// Stable one-line rendering (the committed-curve format).
    pub fn render(&self) -> String {
        format!(
            "flows={} hits={} misses={} breakers={} degraded_pkts={} offloaded_pkts={} finish_ns={}",
            self.flows,
            self.cache_hits,
            self.cache_misses,
            self.breakers,
            self.degraded_pkts,
            self.rx_offloaded_pkts,
            self.finish_ns
        )
    }
}

/// Sweeps `base` across `flow_counts` TLS flows of `bytes_per_flow` each,
/// running the full differential at every point (the twin check is part of
/// the sweep: thrash must never become application-visible corruption).
pub fn sensitivity_curve(
    base: &Scenario,
    flow_counts: &[usize],
    bytes_per_flow: usize,
) -> Vec<SensitivityPoint> {
    flow_counts
        .iter()
        .map(|&flows| {
            let mut sc = base.clone().tls_flows(flows, bytes_per_flow);
            sc.name = format!("{}/flows={flows}", base.name);
            let d = run_differential(&sc);
            d.assert_clean();
            let (cache_hits, cache_misses) = d.offload.server_cache();
            SensitivityPoint {
                flows,
                cache_hits,
                cache_misses,
                breakers: d.offload.breakers().len(),
                degraded_pkts: d.offload.degraded_pkts(),
                rx_offloaded_pkts: d.offload.rx_offloaded_pkts(),
                finish_ns: d.offload.finish.map(|t| t.as_nanos()).unwrap_or(0),
            }
        })
        .collect()
}

/// Renders a curve in the committed expected-data format.
pub fn render_curve(points: &[SensitivityPoint]) -> String {
    points.iter().map(|p| p.render() + "\n").collect()
}
