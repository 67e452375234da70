//! Event dispatch: the world's packet, timer, resync and application paths.
//!
//! The L5P work of every path is a pipeline over the connection's layer
//! stack (`Proto`), written once for all six [`crate::world::ConnSpec`]
//! shapes: receive (`proto_rx`: TLS decrypts, then NVMe parses or the
//! application reads), transmit (`send_l5`: NVMe capsule or
//! application bytes → TLS records → TCP), release on ACK
//! (`release_proto`) and the §4.3 resync mailbox (`poll_resyncs`,
//! `mailbox_deliver_at`).

use ano_core::fault::{DeviceOp, FaultAction, ScheduledFault};
use ano_core::flow::{L5TxSource, TxMsgRef};
use ano_core::msg::EngineEvent;
use ano_sim::payload::Payload;
use ano_sim::time::SimTime;
use ano_tcp::segment::{RxChunk, WIRE_HEADER_BYTES};
use ano_tls::ktls::PlainChunk;
use ano_tls::record::OVERHEAD as TLS_OVERHEAD;

use crate::app::{Action, AppEvent, HostApi};
use crate::world::{ConnId, ConnState, Event, HostState, NvmeLayer, Proto, World};

/// Send-queue low watermark: a `Writable` notification fires when a
/// connection that sent data drains below this.
const LOW_WATER: u64 = 512 << 10;

/// Upper bound on events drained per scheduler burst. Purely a memory bound
/// on the reusable batch buffer: a same-instant group larger than this is
/// delivered across successive bursts in unchanged FIFO order.
const MAX_BURST: usize = 64;

/// Deferred application notifications collected while host state is borrowed.
pub(crate) enum AppCall {
    Data { conn: ConnId, plains: Vec<PlainChunk> },
    NvmeDone {
        conn: ConnId,
        completions: Vec<ano_nvme::host::Completion>,
    },
    Writable { conn: ConnId },
}

/// Transmit-side recovery adapter: `l5o_get_tx_msgstate` resolves through
/// the outermost L5P layer's message log (the one framing the TCP stream),
/// byte replay through TCP's retransmit buffer.
struct TxAdapter<'a> {
    proto: &'a Proto,
    tcp: &'a ano_tcp::sender::TcpSender,
}

impl L5TxSource for TxAdapter<'_> {
    fn msg_at(&self, off: u64) -> Option<TxMsgRef> {
        match (&self.proto.tls, &self.proto.nvme) {
            (Some(tls), _) => tls.tx.record_at(off),
            (None, Some(nvme)) => nvme.record_at(off),
            (None, None) => None,
        }
    }

    fn stream_bytes(&self, from: u64, to: u64) -> Payload {
        self.tcp.stream_range(from, to)
    }
}

impl World {
    /// Kicks off every host's application. Safe to call again after
    /// installing fresh apps mid-run (churn workloads start each wave of
    /// short-lived connections this way); hosts without an app are skipped.
    pub fn start(&mut self) {
        for h in 0..self.apps.len() {
            self.fire_app(h, |app, api| app.on_event(api, AppEvent::Start));
        }
    }

    /// Runs until the queue drains or `until` is reached.
    ///
    /// The loop is burst-processed: every pending event sharing the earliest
    /// timestamp (up to `MAX_BURST`, 64) is drained from the scheduler in one
    /// call and dispatched as a vector. Dispatch order is identical to
    /// popping one event at a time — the batch only ever contains events
    /// that were already queued, and anything scheduled *while the batch is
    /// processed* sorts after it (higher insertion sequence, time clamped to
    /// ≥ now) — so batching changes wall-clock speed, never simulated
    /// behavior. [`World::run_until_single`] keeps the unbatched loop as the
    /// equivalence oracle.
    pub fn run_until(&mut self, until: SimTime) {
        let mut batch = std::mem::take(&mut self.batch);
        while let Some(t) = self.sched.pop_batch_until(until, MAX_BURST, &mut batch) {
            // One clock store per burst: the whole batch shares the
            // timestamp, so every record between two dispatches stays on the
            // same timestamp, ordered by record number — exactly as with
            // per-event stores.
            self.tracer.set_now(t.as_nanos());
            for ev in batch.drain(..) {
                self.dispatch(ev);
            }
        }
        self.batch = batch;
        self.note_clamps();
    }

    /// The unbatched reference loop: pops and dispatches one event at a
    /// time. Kept as the test oracle that burst processing preserves
    /// behavior — any divergence between this and [`World::run_until`] on
    /// the same seed is a determinism bug.
    pub fn run_until_single(&mut self, until: SimTime) {
        while let Some(t) = self.sched.peek_time() {
            if t > until {
                break;
            }
            let (_, ev) = self.sched.pop().expect("peeked");
            self.tracer.set_now(t.as_nanos());
            self.dispatch(ev);
        }
        self.note_clamps();
    }

    /// Surfaces scheduler clamps accumulated since the last call into the
    /// trace/metrics stream: a past-time event silently pulled to "now"
    /// should be visible, not invisible. Emitted once per `run_until` so
    /// batched and single-pop loops produce identical records.
    fn note_clamps(&mut self) {
        let clamped = self.sched.clamped();
        if clamped > self.clamps_traced {
            let count = clamped - self.clamps_traced;
            self.clamps_traced = clamped;
            self.tracer.count("sched.clamped", count);
            self.tracer.record(|| ano_trace::Event::SchedClamped { count });
        }
    }

    /// True when no events remain.
    pub fn is_idle(&self) -> bool {
        self.sched.is_empty()
    }

    /// Events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.sched.dispatched()
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::Packet {
                host,
                conn,
                seq,
                seq64,
                ack,
                wnd,
                sack,
                payload,
            } => {
                self.handle_packet(host as usize, conn, seq, seq64, ack, wnd, sack, payload)
            }
            Event::Consume { host, conn, bytes } => {
                let h = host as usize;
                if let Some(c) = self.hosts[h].conns.get_mut(&conn) {
                    c.tcp.consume(bytes);
                }
                self.pump_conn(h, conn); // emits the window-update ACK
            }
            Event::Rto { host, conn, gen } => self.handle_rto(host as usize, conn, gen),
            Event::ResyncReq {
                host,
                conn,
                layer,
                tcpsn,
            } => self.handle_resync_req(host as usize, conn, layer, tcpsn),
            Event::ResyncResp {
                host,
                conn,
                layer,
                tcpsn,
                ok,
                idx,
                epoch,
            } => {
                let h = &mut self.hosts[host as usize];
                if let Some(c) = h.conns.get(&conn) {
                    h.nic.resync_response(c.in_flow, layer, tcpsn, ok, idx, epoch);
                }
            }
            Event::InstallRetry {
                host,
                conn,
                rx,
                attempt,
            } => self.try_install(host as usize, conn, rx, attempt),
            Event::DeviceFault { host, idx } => self.handle_device_fault(host as usize, idx),
            Event::NetStep { idx } => self.handle_net_step(idx),
            Event::TargetReply { host, conn, token } => {
                self.handle_target_reply(host as usize, conn, token)
            }
            Event::AppTimer { host, token } => {
                self.fire_app(host as usize, |app, api| {
                    app.on_event(api, AppEvent::Timer { token })
                });
            }
            Event::Rebalance { host } => self.handle_rebalance(host as usize),
        }
    }

    // ------------------------------------------------------------------
    // Flow→core rebalancing (oRSS).

    /// One rebalance-window tick on host `h`: compare per-core cycles
    /// consumed since the window opened; if the hottest core exceeds
    /// `trigger ×` the mean (and the noise floor), migrate its busiest
    /// connection to the idlest core. Migration alone keeps the NIC
    /// context alive — same device, same queue; with `steer_queues` the
    /// flow's RSS bucket is reprogrammed toward the destination core's
    /// queue, which evicts the rx context on the next packet (the miss
    /// then feeds the `cache_thrash` breaker accounting like any other).
    /// Re-arms for another window while traffic flowed; disarms otherwise
    /// so a drained world still reports idle.
    fn handle_rebalance(&mut self, h: usize) {
        let World {
            cfg,
            hosts,
            sched,
            tracer,
            ..
        } = &mut *self;
        let Some(rb) = cfg.rebalance.as_ref() else {
            return;
        };
        let host = &mut hosts[h];
        let now = sched.now();
        let n = host.cpu.num_cores();
        let deltas: Vec<u64> = (0..n)
            .map(|core| {
                let prev = host.rebalance_snapshot.get(core).copied().unwrap_or(0);
                host.cpu.busy_cycles_of(core).saturating_sub(prev)
            })
            .collect();
        let total: u64 = deltas.iter().sum();
        let had_traffic = host.conns.values().any(|c| c.pkts_in_window > 0);

        if n > 1 && total > 0 {
            // Deterministic argmax/argmin: ties go to the lowest index, so
            // a uniformly-loaded host picks hot == cold and does nothing.
            let hot = (0..n)
                .max_by_key(|&i| (deltas[i], std::cmp::Reverse(i)))
                .expect("n > 1");
            let cold = (0..n).min_by_key(|&i| (deltas[i], i)).expect("n > 1");
            let mean = total as f64 / n as f64;
            if hot != cold && deltas[hot] as f64 > rb.trigger * mean && deltas[hot] >= rb.min_cycles
            {
                for _ in 0..rb.max_moves {
                    // Hottest connection on the hot core by window packets
                    // (ties → lowest id). Moving the *only* active
                    // connection would shift the load, not spread it, so
                    // a one-flow core is left alone.
                    let mut active = 0usize;
                    let mut pick: Option<(ConnId, u64)> = None;
                    for (&cid, c) in host.conns.iter() {
                        if c.core == hot && c.pkts_in_window > 0 {
                            active += 1;
                            if pick.is_none_or(|(_, best)| c.pkts_in_window > best) {
                                pick = Some((cid, c.pkts_in_window));
                            }
                        }
                    }
                    let Some((cid, _)) = pick else { break };
                    if active < 2 {
                        break;
                    }
                    let c = host.conns.get_mut(&cid).expect("picked above");
                    c.core = cold;
                    c.pkts_in_window = 0;
                    // The destination core starts a fresh batch; the hot
                    // core's affinity slot is stale either way.
                    for slot in host.last_conn.iter_mut() {
                        if *slot == Some(cid) {
                            *slot = None;
                        }
                    }
                    host.migrations += 1;
                    tracer.count("stack.core_migrations", 1);
                    tracer.scoped(c.in_flow.0).record(|| ano_trace::Event::CoreMigrate {
                        from: hot as u64,
                        to: cold as u64,
                    });
                    if rb.steer_queues && host.nic.rx_queues() > 1 {
                        // Make interrupts follow the flow: remap its RSS
                        // bucket to a queue the destination core services.
                        // The queue crossing evicts the rx context (this
                        // is the expensive half of the trade).
                        let bucket = host.nic.rx_bucket_of(c.in_flow);
                        let dest_q = host.queue_core.iter().position(|&qc| qc == cold);
                        if let (Some(bucket), Some(q)) = (bucket, dest_q) {
                            host.nic.set_rss_bucket(bucket, q as u16);
                            host.nic.steer_tx(c.out_flow, q as u16);
                        }
                    }
                }
            }
        }

        for c in host.conns.values_mut() {
            c.pkts_in_window = 0;
        }
        if had_traffic {
            host.rebalance_snapshot = host.cpu.snapshot();
            sched.schedule(now + rb.interval, Event::Rebalance { host: h as u16 });
        } else {
            host.rebalance_armed = false;
        }
    }

    // ------------------------------------------------------------------
    // Packet receive path.

    fn handle_packet(
        &mut self,
        h: usize,
        conn: ConnId,
        seq: u32,
        seq64: u64,
        ack: u32,
        wnd: u32,
        sack: Vec<(u32, u32)>,
        mut payload: Payload,
    ) {
        // Reusable buffers live on the World so the steady state allocates
        // nothing per packet.
        let mut app_calls = std::mem::take(&mut self.app_calls);
        let mut plains_pool = std::mem::take(&mut self.plains_pool);
        // Split-borrow: the hot config (`cost`, `degrade`) is a read-only
        // borrow alongside the mutable host/scheduler/tracer state — no
        // per-event clone (enforced by the hot-config-clone lint rule).
        let World {
            cfg,
            hosts,
            links,
            sched,
            tracer,
            ..
        } = &mut *self;
        let now = sched.now();
        let cost = &cfg.cost;
        let degrade = &cfg.degrade;
        let mut resync_reqs: Vec<(u8, u64)> = Vec::new();
        let mut resync_resps: Vec<(u8, u64, bool, u64)> = Vec::new();
        let mut target_replies: Vec<(u64, SimTime)> = Vec::new();
        let mut open_reason: Option<&'static str> = None;

        let in_flow = {
            let host = &mut hosts[h];
            let Some(c) = host.conns.get_mut(&conn) else {
                return;
            };
            // Chaos-aware breaker guard: while this connection's peer sits
            // behind a declared partition (group cuts sever both
            // directions, so the outgoing link's mode is authoritative),
            // stalls and resync noise are the chaos plan's doing, not the
            // device's — the breaker must not trip on them. Evaluated
            // lazily: only the rare would-open branches pay for it.
            let peer_dark = || links.by_id(c.link_out).is_partitioned();

            // Degraded-mode metering: payload packets on a breaker-open
            // connection run entirely in software.
            if c.health.breaker_open.is_some() && !payload.is_empty() {
                c.health.degraded_pkts += 1;
                tracer.count("stack.degraded_pkts", 1);
            }

            // Rebalancer bookkeeping: payload packets elect the hot flow,
            // and the first one of a window lazily arms the host's tick
            // (nothing is ever scheduled on an idle or rebalance-off host).
            if !payload.is_empty() {
                if let Some(rb) = cfg.rebalance.as_ref() {
                    c.pkts_in_window += 1;
                    if !host.rebalance_armed {
                        host.rebalance_armed = true;
                        host.rebalance_snapshot = host.cpu.snapshot();
                        sched.schedule(now + rb.interval, Event::Rebalance { host: h as u16 });
                    }
                }
            }

            // 1. NIC receive processing (offload engines).
            let rxp = host.nic.rx_process(c.in_flow, seq64, &mut payload);
            for ev in rxp.events {
                let EngineEvent::ResyncRequest { layer, tcpsn } = ev;
                resync_reqs.push((layer, tcpsn));
                // A flow that storms resync requests gains nothing from
                // offload: its context never stabilizes.
                if c.health.note_resync(now, degrade) && !peer_dark() {
                    open_reason = Some("resync_storm");
                }
            }
            if rxp.cache_miss && c.health.note_miss(now, degrade) && !peer_dark() {
                open_reason = open_reason.or(Some("cache_thrash"));
            }

            // 2. TCP + per-packet stack cost, plus the per-batch wakeup
            // cost when this core switches connections (batching model).
            // Pure ACKs ride the cheap path.
            let cycles = if payload.is_empty() {
                cost.per_ack
            } else {
                let mut cyc = per_pkt_rx_cost(&c.proto, cost);
                if rxp.flags != Default::default() {
                    cyc += cost.per_pkt_rx_offload_extra;
                }
                if host.last_conn[c.core] != Some(conn) {
                    host.last_conn[c.core] = Some(conn);
                    cyc += cost.per_wakeup;
                }
                cyc
            };
            host.cpu.run(c.core, now, cycles);
            c.tcp.on_packet_wnd(seq, ack, wnd, &sack, payload, rxp.flags, now);

            // 3. Release transmit-side L5P state below the cumulative ack.
            let acked = c.tcp.sender().snd_una();
            release_proto(&mut c.proto, acked);

            // 4. Deliver in-order chunks to the L5P layers. The drained
            // buffer goes back to the receiver afterwards so the steady
            // state reuses one allocation per connection.
            if c.tcp.has_ready() {
                let mut chunks = c.tcp.take_ready();
                let consumed: u64 = chunks.iter().map(|ch| ch.payload.len() as u64).sum();
                let proto_cycles = proto_rx(
                    c,
                    &mut chunks,
                    cost,
                    now,
                    conn,
                    &mut resync_resps,
                    &mut target_replies,
                    &mut app_calls,
                    &mut plains_pool,
                );
                c.tcp.recycle_ready(chunks);
                let done = host.cpu.run(c.core, now, proto_cycles);
                // The window reopens when the CPU actually finishes the
                // protocol work for these bytes.
                sched.schedule(
                    done,
                    Event::Consume {
                        host: h as u16,
                        conn,
                        bytes: consumed,
                    },
                );
            } else {
                // Still poll resync responses (requests may have matured).
                poll_resyncs(&mut c.proto, &mut resync_resps);
            }

            // 5. Writable notification.
            if c.blocked && c.tcp.unsent_bytes() < LOW_WATER {
                c.blocked = false;
                app_calls.push(AppCall::Writable { conn });
            }
            c.in_flow.0
        };

        if let Some(reason) = open_reason {
            // The breaker uninstalls the engines; their in-flight resync
            // requests die with them.
            self.open_breaker(h, conn, reason);
            resync_reqs.clear();
        }
        for (layer, tcpsn) in resync_reqs {
            if let Some(at) = self.mailbox_deliver_at(h, DeviceOp::ResyncReq, in_flow) {
                let host = h as u16;
                self.sched.schedule(at, Event::ResyncReq { host, conn, layer, tcpsn });
            }
        }
        self.send_resync_resps(h, conn, in_flow, resync_resps);
        for (token, ready) in target_replies {
            self.sched.schedule(
                ready,
                Event::TargetReply {
                    host: h as u16,
                    conn,
                    token,
                },
            );
        }
        // Restore the pool before draining calls: `run_app_calls` recycles
        // each delivered plaintext buffer back into it.
        self.plains_pool = plains_pool;
        self.run_app_calls(h, &mut app_calls);
        self.app_calls = app_calls;
        self.pump_conn(h, conn);
    }

    /// One crossing of the driver↔NIC resync mailbox on host `h`, which the
    /// host's fault script can lose or slow down: the delivery time, or
    /// `None` (traced as a device fault) when the message is lost.
    fn mailbox_deliver_at(&mut self, h: usize, op: DeviceOp, in_flow: u64) -> Option<SimTime> {
        let now = self.sched.now();
        let extra = match self.hosts[h].faults.on_op(op, now) {
            Some(FaultAction::Fail | FaultAction::Drop) => {
                self.tracer
                    .scoped(in_flow)
                    .record(|| ano_trace::Event::DeviceFault { kind: op.label() });
                return None;
            }
            Some(FaultAction::Delay(d)) => d,
            None => ano_sim::time::SimDuration::from_nanos(0),
        };
        Some(now + self.cfg.resync_delay + extra)
    }

    /// Sends the L5P's resync answers back to the NIC. Responses carry the
    /// epoch they were issued under so answers that race a reset are
    /// discarded rather than resurrecting dead contexts.
    fn send_resync_resps(
        &mut self,
        h: usize,
        conn: ConnId,
        in_flow: u64,
        resps: Vec<(u8, u64, bool, u64)>,
    ) {
        let epoch = self.hosts[h].nic.epoch();
        for (layer, tcpsn, ok, idx) in resps {
            if let Some(at) = self.mailbox_deliver_at(h, DeviceOp::ResyncResp, in_flow) {
                let host = h as u16;
                let ev = Event::ResyncResp { host, conn, layer, tcpsn, ok, idx, epoch };
                self.sched.schedule(at, ev);
            }
        }
    }

    fn handle_rto(&mut self, h: usize, conn: ConnId, gen: u64) {
        let now = self.sched.now();
        let resched = {
            let host = &mut self.hosts[h];
            let Some(c) = host.conns.get_mut(&conn) else {
                return;
            };
            match c.rto_event {
                Some((t, g)) if g == gen && t == now => {}
                _ => return, // superseded timer chain
            }
            c.rto_event = None;
            match c.armed_rto {
                Some(d) if d <= now => {
                    // The deadline really passed: fire the timeout.
                    c.armed_rto = None;
                    c.tcp.on_rto(now);
                    None
                }
                // Deadline extended since this event was queued (ACKs kept
                // arriving): hop the single live event to the new deadline.
                Some(d) => {
                    c.rto_event = Some((d, gen));
                    Some(d)
                }
                None => return, // disarmed (everything acked)
            }
        };
        match resched {
            Some(d) => self.sched.schedule(
                d,
                Event::Rto {
                    host: h as u16,
                    conn,
                    gen,
                },
            ),
            None => self.pump_conn(h, conn),
        }
    }

    fn handle_resync_req(&mut self, h: usize, conn: ConnId, layer: u8, tcpsn: u64) {
        let now = self.sched.now();
        let resync_cpu = self.cfg.cost.resync_confirm_cpu;
        let mut resps = Vec::new();
        let in_flow = {
            let host = &mut self.hosts[h];
            let Some(c) = host.conns.get_mut(&conn) else {
                return;
            };
            host.cpu.run(c.core, now, resync_cpu);
            // A request for a layer this endpoint does not run is ignored.
            if let Some(responder) = c.proto.responders().nth(layer as usize) {
                responder.request(tcpsn);
            }
            poll_resyncs(&mut c.proto, &mut resps);
            c.in_flow.0
        };
        self.send_resync_resps(h, conn, in_flow, resps);
    }

    /// Materializes one scheduled device fault ([`ScheduledFault`]).
    fn handle_device_fault(&mut self, h: usize, idx: usize) {
        let Some(&(_, fault)) = self.hosts[h].faults.scheduled().get(idx) else {
            return;
        };
        self.hosts[h].faults.note_scheduled_fired();
        match fault {
            ScheduledFault::Reset => {
                // Quiesce-to-software is implicit: with every context wiped,
                // packets fall through `rx_process`/`tx_process` untouched
                // and the L5P layers do the work. The driver then walks its
                // connections and re-offloads each through the normal
                // install ladder — engines restart mid-stream in Searching
                // and reconverge via the §4.3 resync path. Breaker-open
                // connections stay in software.
                self.hosts[h].nic.reset();
                let conns: Vec<ConnId> = self.hosts[h].conns.keys().copied().collect();
                for conn in conns {
                    self.try_install(h, conn, true, 0);
                    self.try_install(h, conn, false, 0);
                }
            }
            ScheduledFault::InvalidateRx(flow) => {
                if self.hosts[h].nic.invalidate_rx(flow) {
                    let owner = self.hosts[h]
                        .conns
                        .iter()
                        .find(|(_, c)| c.in_flow == flow)
                        .map(|(id, _)| *id);
                    if let Some(conn) = owner {
                        self.try_install(h, conn, true, 0);
                    }
                }
            }
            ScheduledFault::CorruptRx(flow) => {
                // Latent: the engine's integrity check trips on the next
                // packet and it re-derives state via the resync ladder.
                self.hosts[h].nic.corrupt_rx(flow);
            }
        }
    }

    /// A target's device I/O finished: emit the reply PDUs.
    fn handle_target_reply(&mut self, h: usize, conn: ConnId, token: u64) {
        self.send_l5(h, conn, |c, cost| {
            let Some(NvmeLayer::Target { target, pending, .. }) = &mut c.proto.nvme else {
                return None;
            };
            Some(target.emit(pending.remove(&token)?, cost))
        });
    }

    // ------------------------------------------------------------------
    // Transmit pump.

    /// Drains TCP's transmit queue through the NIC onto the link.
    pub(crate) fn pump_conn(&mut self, h: usize, conn: ConnId) {
        // Split-borrow the world once: hot config stays a shared borrow,
        // link deliveries land in the world-owned reusable burst buffer —
        // the steady-state transmit path allocates nothing per packet.
        let World {
            cfg,
            hosts,
            links,
            rng,
            sched,
            burst,
            held,
            ..
        } = &mut *self;
        let now = sched.now();
        let cost = &cfg.cost;
        // One connection lookup for the whole pump: nothing inside the loop
        // can remove the connection, and the host split-borrow keeps `cpu`
        // and `nic` usable alongside the `ConnState` borrow.
        let HostState { cpu, nic, conns, .. } = &mut hosts[h];
        let Some(c) = conns.get_mut(&conn) else {
            return;
        };
        // Topology routing is per connection: the peer host and the
        // outgoing link were resolved once at `connect_pair` time, so the
        // per-packet path stays O(1) regardless of fleet size.
        let peer = c.peer;
        let link_out = c.link_out;
        let link = links.by_id_mut(link_out);
        // Hold-mode is sampled once per pump: a chaos plan flips modes from
        // its own dispatch slot, never mid-pump.
        let link_held = link.is_held();
        loop {
            // Transmission is paced by the core: a packet effectively
            // leaves when the core's queued work drains. Using that time
            // for TCP keeps RTT samples and RTO arming consistent with the
            // actual send time (otherwise a backlogged core causes spurious
            // RTOs for packets that have not reached the wire yet).
            let eff_now = cpu.free_at(c.core).max(now);
            let Some(mut seg) = c.tcp.poll_transmit(eff_now) else {
                break;
            };
            // Pure ACKs leave from softirq context promptly: they pay their
            // (small) CPU cost but do not queue behind heavy L5P work.
            let tx_cost = if seg.payload.is_empty() {
                cost.per_ack
            } else {
                cost.per_pkt_tx
            };
            let tx_done = cpu.run(c.core, now, tx_cost);
            let mut payload = seg.payload;
            let mut send_at = if payload.is_empty() {
                now + ano_sim::time::SimDuration::from_nanos(500)
            } else {
                tx_done
            };
            if nic.has_tx(c.out_flow) && !payload.is_empty() {
                let adapter = TxAdapter {
                    proto: &c.proto,
                    tcp: c.tcp.sender(),
                };
                let res = nic.tx_process(c.out_flow, seg.seq64, &mut payload, &adapter);
                if res.replay_bytes > 0 {
                    // Context recovery: replayed bytes cross PCIe; the
                    // driver also burns a few cycles setting it up.
                    send_at = send_at + cost.pcie_transfer(res.replay_bytes);
                    cpu.run(c.core, now, cost.ctx_recovery_cpu);
                }
                if res.cache_miss {
                    send_at = send_at + cost.nic_cache_miss_latency;
                }
            }
            let wire_len = payload.len() + WIRE_HEADER_BYTES;
            burst.clear();
            link.transmit_into(send_at, wire_len, rng, burst);
            let fanout = burst.len();
            for (i, delivery) in burst.drain(..).enumerate() {
                let deliver = if delivery.corrupt {
                    corrupt_copy(&payload)
                } else {
                    Some(payload.clone())
                };
                // A corrupt frame with no bytes to flip (synthetic payload or
                // pure ACK) is discarded, as if the receiver's FCS caught it.
                let Some(deliver) = deliver else { continue };
                // The event takes the segment's SACK vector; only the rare
                // duplicate fan-out (fanout > 1) pays for a clone.
                let sack = if i + 1 == fanout {
                    std::mem::take(&mut seg.sack)
                } else {
                    seg.sack.clone()
                };
                let at = delivery.at + cost.nic_latency;
                let ev = Event::Packet {
                    host: peer,
                    conn,
                    seq: seg.seq,
                    seq64: seg.seq64,
                    ack: seg.ack,
                    wnd: seg.wnd,
                    sack,
                    payload: deliver,
                };
                if link_held {
                    // A held link stalls without dropping: the delivery is
                    // parked (in computed-arrival order) until the chaos
                    // plan releases the direction.
                    held.entry(link_out).or_default().push((at, ev));
                } else {
                    sched.schedule(at, ev);
                }
            }
        }
        // Arm/refresh the retransmission timer. One live `Event::Rto` per
        // connection: when the deadline merely extends (the common per-ACK
        // case) the already-queued event re-schedules itself on dispatch,
        // so the heap never accumulates stale timers.
        match c.tcp.rto_deadline() {
            Some(d) => {
                c.armed_rto = Some(d);
                let need_new = match c.rto_event {
                    // The live event fires after the new deadline: it
                    // would be late, so supersede it.
                    Some((t, _)) => t > d,
                    None => true,
                };
                if need_new {
                    c.rto_gen += 1;
                    c.rto_event = Some((d, c.rto_gen));
                    sched.schedule(
                        d,
                        Event::Rto {
                            host: h as u16,
                            conn,
                            gen: c.rto_gen,
                        },
                    );
                }
            }
            None => c.armed_rto = None,
        }
    }

    // ------------------------------------------------------------------
    // Application plumbing.

    fn fire_app(&mut self, h: usize, f: impl FnOnce(&mut dyn crate::app::HostApp, &mut HostApi)) {
        let Some(mut app) = self.apps[h].take() else {
            return;
        };
        let mut api = HostApi::new(self.sched.now());
        f(app.as_mut(), &mut api);
        self.apps[h] = Some(app);
        let actions = std::mem::take(&mut api.actions);
        self.run_actions(h, actions);
    }

    fn run_app_calls(&mut self, h: usize, calls: &mut Vec<AppCall>) {
        for call in calls.drain(..) {
            match call {
                AppCall::Data { conn, plains } => {
                    self.fire_app(h, |app, api| {
                        app.on_event(
                            api,
                            AppEvent::Data {
                                conn,
                                chunks: &plains,
                            },
                        )
                    });
                    self.recycle_plains(plains);
                }
                AppCall::NvmeDone { conn, completions } => {
                    for completion in &completions {
                        self.fire_app(h, |app, api| {
                            app.on_event(
                                api,
                                AppEvent::NvmeDone {
                                    conn,
                                    completion,
                                },
                            )
                        });
                    }
                }
                AppCall::Writable { conn } => self.fire_app(h, |app, api| {
                    app.on_event(api, AppEvent::Writable { conn })
                }),
            }
        }
    }

    /// Returns an emptied plaintext buffer to the pool (bounded so a burst
    /// of large records cannot pin memory forever).
    fn recycle_plains(&mut self, mut plains: Vec<PlainChunk>) {
        if self.plains_pool.len() < 8 {
            plains.clear();
            self.plains_pool.push(plains);
        }
    }

    fn run_actions(&mut self, h: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { conn, data } => self.proto_send(h, conn, data),
                Action::NvmeRead {
                    conn,
                    id,
                    offset,
                    len,
                } => self.nvme_submit(h, conn, id, offset, len, None),
                Action::NvmeWrite {
                    conn,
                    id,
                    offset,
                    data,
                } => self.nvme_submit(h, conn, id, offset, data.len() as u32, Some(data)),
                Action::Charge { cycles } => {
                    let now = self.sched.now();
                    let host = &mut self.hosts[h];
                    let core = host.cpu.least_busy();
                    host.cpu.run(core, now, cycles);
                }
                Action::Timer { token, at } => {
                    self.sched.schedule(
                        at,
                        Event::AppTimer {
                            host: h as u16,
                            token,
                        },
                    );
                }
            }
        }
    }

    /// Application bytes into a Raw or TLS connection.
    fn proto_send(&mut self, h: usize, conn: ConnId, data: Payload) {
        self.send_l5(h, conn, |c, cost| {
            assert!(c.proto.nvme.is_none(), "Send is only valid on Raw/Tls connections");
            c.blocked = true; // notify (once) when the queue drains
            let mut cycles = cost.syscall;
            if c.proto.tls.is_none() {
                cycles += ano_sim::cost::CostModel::bytes_cycles(cost.stack_cpb, data.len());
            }
            Some(([data], cycles))
        });
    }

    /// NVMe submission on an initiator connection.
    fn nvme_submit(
        &mut self,
        h: usize,
        conn: ConnId,
        id: u64,
        offset: u64,
        len: u32,
        write_data: Option<Payload>,
    ) {
        self.send_l5(h, conn, |c, cost| {
            let Some(NvmeLayer::Host(nh)) = &mut c.proto.nvme else {
                panic!("NVMe I/O is only valid on initiator connections");
            };
            let (capsule, cycles) = match &write_data {
                None => nh.submit_read(id, offset, len, cost),
                Some(d) => nh.submit_write(id, offset, d, cost),
            };
            Some(([capsule], cycles))
        });
    }

    /// The one transmit path. `produce` turns the request into L5 messages
    /// — NVMe capsules, or application bytes on a connection without an
    /// NVMe layer — and the CPU cycles spent making them (`None`: nothing
    /// to send). Each message goes down the layer stack: logged for the
    /// nested engine's recovery (NVMe-TLS), framed into TLS records when
    /// the TLS layer is present, queued on TCP. The connection's core is
    /// charged and the transmit queue pumped.
    fn send_l5<I: IntoIterator<Item = Payload>>(
        &mut self,
        h: usize,
        conn: ConnId,
        produce: impl FnOnce(&mut ConnState, &ano_sim::cost::CostModel) -> Option<(I, u64)>,
    ) {
        let now = self.sched.now();
        let World { cfg, hosts, .. } = &mut *self;
        let cost = &cfg.cost;
        let host = &mut hosts[h];
        let Some(c) = host.conns.get_mut(&conn) else {
            return;
        };
        let Some((msgs, mut cycles)) = produce(c, cost) else {
            return;
        };
        for msg in msgs {
            if let Some(inner) = &c.proto.inner {
                inner.borrow_mut().push_capsule(&msg);
            }
            match &mut c.proto.tls {
                Some(tls) => {
                    let (records, cyc) = tls.tx.send(&msg, cost);
                    cycles += cyc;
                    for record in records {
                        c.tcp.send(record);
                    }
                }
                None => c.tcp.send(msg),
            }
        }
        host.cpu.run(c.core, now, cycles);
        self.pump_conn(h, conn);
    }
}

/// The receiver's copy of a corrupted frame: one payload byte flipped, at a
/// deterministic position (mid-payload, so it lands in a record body rather
/// than a header for all but tiny packets). Returns `None` when there are no
/// bytes to flip — synthetic payloads and pure ACKs — in which case the frame
/// is dropped as if the FCS caught it; TCP retransmits it cleanly.
fn corrupt_copy(payload: &Payload) -> Option<Payload> {
    match payload.as_real() {
        Some(bytes) if !bytes.is_empty() => {
            let mut copy = bytes.to_vec();
            let mid = copy.len() / 2;
            copy[mid] ^= 0xA5;
            Some(Payload::real(copy))
        }
        _ => None,
    }
}

/// Per-packet receive cost of the stack for this connection's protocol.
fn per_pkt_rx_cost(proto: &Proto, cost: &ano_sim::cost::CostModel) -> u64 {
    match proto.nvme {
        Some(NvmeLayer::Host(_)) => cost.per_pkt_nvme_rx,
        _ => cost.per_pkt_rx,
    }
}

/// Releases transmit-side L5P state below the cumulative ack. Layers under
/// TLS count plaintext-stream bytes: the ack less the record overhead.
fn release_proto(proto: &mut Proto, acked: u64) {
    let mut acked = acked;
    if let Some(tls) = &mut proto.tls {
        tls.tx.release_below(acked);
        acked = acked.saturating_sub(TLS_OVERHEAD as u64 * tls.tx.stats().records);
    }
    if let Some(nvme) = &mut proto.nvme {
        nvme.release_below(acked);
    }
    if let Some(inner) = &proto.inner {
        inner.borrow_mut().prune(acked);
    }
}

/// Drains pending resync responses from all layers of a proto:
/// `(layer, tcpsn, ok, msg_index)`.
fn poll_resyncs(proto: &mut Proto, out: &mut Vec<(u8, u64, bool, u64)>) {
    for (layer, responder) in proto.responders().enumerate() {
        out.extend(responder.take().map(|(t, ok, i)| (layer as u8, t, ok, i)));
    }
}

/// Delivers in-order chunks up the connection's layer stack: TLS (when
/// present) turns wire chunks into plaintext chunks, which the NVMe layer
/// (when present) parses into completions or pending replies and which
/// otherwise go to the application. Drains `chunks`, appends deferred
/// notifications to `calls` (plaintext buffers come from — and return to —
/// `pool`), and returns the CPU cycles spent.
fn proto_rx(
    c: &mut ConnState,
    chunks: &mut Vec<RxChunk>,
    cost: &ano_sim::cost::CostModel,
    now: SimTime,
    conn: ConnId,
    resync_resps: &mut Vec<(u8, u64, bool, u64)>,
    target_replies: &mut Vec<(u64, SimTime)>,
    calls: &mut Vec<AppCall>,
    pool: &mut Vec<Vec<PlainChunk>>,
) -> u64 {
    let mut cycles = 0u64;
    let mut plains = pool.pop().unwrap_or_default();
    match &mut c.proto.tls {
        Some(tls) => cycles += tls.rx.on_chunks_into(chunks.drain(..), cost, &mut plains),
        None => plains.append(chunks),
    }
    match &mut c.proto.nvme {
        None => {
            let bytes: u64 = plains.iter().map(|p| p.payload.len() as u64).sum();
            if c.proto.tls.is_none() {
                cycles += ano_sim::cost::CostModel::bytes_cycles(cost.stack_cpb, bytes as usize);
            }
            c.delivered += bytes;
            if plains.is_empty() {
                pool.push(plains);
            } else {
                calls.push(AppCall::Data { conn, plains });
            }
        }
        Some(nvme) => {
            let stream = plains.drain(..);
            match nvme {
                NvmeLayer::Host(host) => {
                    cycles += host.on_chunks(stream, cost);
                    let completions = host.take_completions();
                    c.delivered += completions
                        .iter()
                        .map(|x| x.placed_bytes + x.copied_bytes)
                        .sum::<u64>();
                    if !completions.is_empty() {
                        calls.push(AppCall::NvmeDone { conn, completions });
                    }
                }
                NvmeLayer::Target {
                    target,
                    pending,
                    next_token,
                } => {
                    let (replies, cyc) = target.on_chunks(stream, now, cost);
                    cycles += cyc;
                    for r in replies {
                        pending.insert(*next_token, r.reply);
                        target_replies.push((*next_token, r.ready));
                        *next_token += 1;
                    }
                }
            }
            pool.push(plains);
        }
    }
    poll_resyncs(&mut c.proto, resync_resps);
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::HostApp;
    use crate::world::{ConnSpec, NvmeHostSpec, NvmeTargetSpec, TlsSpec, WorldConfig};
    use ano_nvme::pdu::{CH_LEN, DATA_EXT_LEN, DDGST_LEN, SQE_LEN};

    /// Two NVMe reads on one connection, one TLS send on another.
    struct Traffic {
        nvme: ConnId,
        tls: ConnId,
    }

    impl HostApp for Traffic {
        fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
            if let AppEvent::Start = event {
                api.nvme_read(self.nvme, 0, 0, 4096);
                api.nvme_read(self.nvme, 1, 4096, 4096);
                api.send(self.tls, Payload::synthetic(10_000));
            }
        }
    }

    /// Delivers one `ResyncReq` and returns the `ResyncResp` it produced, as
    /// `(layer, tcpsn, ok, idx)`.
    fn ask(w: &mut World, h: usize, conn: ConnId, layer: u8, tcpsn: u64) -> Option<(u8, u64, bool, u64)> {
        assert!(w.is_idle());
        w.handle_resync_req(h, conn, layer, tcpsn);
        match w.sched.pop() {
            Some((_, Event::ResyncResp { layer, tcpsn, ok, idx, .. })) => Some((layer, tcpsn, ok, idx)),
            Some(_) => panic!("only a resync response may be scheduled"),
            None => None,
        }
    }

    #[test]
    fn resync_requests_reach_the_kth_present_layer() {
        let mut w = World::new(WorldConfig::default());
        let nvme = w.connect(
            ConnSpec::NvmeTlsHost(NvmeHostSpec::default(), TlsSpec::default()),
            ConnSpec::NvmeTlsTarget(NvmeTargetSpec::default(), TlsSpec::default()),
        );
        let tls = w.connect(ConnSpec::Tls(TlsSpec::default()), ConnSpec::Tls(TlsSpec::default()));
        w.set_app(0, Box::new(Traffic { nvme, tls }));
        w.start();
        w.run_until(SimTime::from_secs(1));
        assert_eq!(w.nvme_host_stats(0, nvme).expect("initiator").completions, 2);
        assert_eq!(w.delivered_bytes(1, tls), 10_000);

        // Layer 1 of an NVMe-TLS connection is the NVMe parser, on both
        // roles: it confirms the second PDU's start in *plaintext-stream*
        // offsets (no TLS record starts there), with the PDU's index.
        let second_cmd = (CH_LEN + SQE_LEN) as u64;
        assert_eq!(ask(&mut w, 1, nvme, 1, second_cmd), Some((1, second_cmd, true, 1)));
        let second_reply = (CH_LEN + DATA_EXT_LEN + 4096 + DDGST_LEN) as u64;
        assert_eq!(ask(&mut w, 0, nvme, 1, second_reply), Some((1, second_reply, true, 1)));
        // Layer 0 is TLS, which refuses the same offsets.
        assert_eq!(ask(&mut w, 1, nvme, 0, second_cmd), Some((0, second_cmd, false, 0)));

        // A plain TLS connection has no layer 1: the request is ignored.
        assert_eq!(ask(&mut w, 1, tls, 1, 0), None);
        assert_eq!(ask(&mut w, 1, tls, 0, 0), Some((0, 0, true, 0)));
    }
}
