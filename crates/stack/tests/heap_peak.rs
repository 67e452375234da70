//! The scheduler's heap stays shallow: link deliveries and CPU completions
//! ride FIFO lanes, so the heap holds lane heads, timers and late frames,
//! never the in-flight window. A count gate, not a wall-clock one: a change
//! that sends packets or completions back to the heap fails here.

use ano_sim::payload::Payload;
use ano_sim::time::SimTime;
use ano_stack::prelude::*;

/// Sends `bytes` of modeled payload on each of its connections at start.
struct Bulk {
    conns: Vec<ConnId>,
    bytes: usize,
}

impl HostApp for Bulk {
    fn on_event(&mut self, api: &mut HostApi, event: AppEvent<'_>) {
        if let AppEvent::Start = event {
            for &conn in &self.conns {
                api.send(conn, Payload::synthetic(self.bytes));
            }
        }
    }
}

#[test]
fn clean_offloaded_tls_stream_keeps_the_heap_shallow() {
    let mut w = World::new(WorldConfig::default());
    let conn = w.connect(
        ConnSpec::Tls(TlsSpec::offloaded_zc()),
        ConnSpec::Tls(TlsSpec::offloaded_zc()),
    );
    w.set_app(0, Box::new(Bulk { conns: vec![conn], bytes: 16 << 20 }));
    w.start();
    w.run_until(SimTime::from_secs(1));
    assert!(w.is_idle(), "the stream completes");
    assert_eq!(w.delivered_bytes(1, conn), 16 << 20);
    let peak = w.sched_heap_peak();
    assert!(peak <= 8, "heap peak {peak} > 8 on one clean stream");
}

#[test]
fn fleet_heap_is_bounded_by_flows_links_and_cores() {
    let (clients, servers, flows) = (4, 2, 32);
    let mut fleet = Fleet::build(FleetSpec {
        clients,
        servers,
        ..FleetSpec::default()
    });
    let mut per_client = vec![Vec::new(); clients];
    for i in 0..flows {
        let (c, s) = (i % clients, i / clients % servers);
        let rx = TlsSpec {
            rx_offload: true,
            ..TlsSpec::default()
        };
        per_client[c].push(fleet.connect(c, s, ConnSpec::Tls(TlsSpec::default()), ConnSpec::Tls(rx)));
    }
    for (c, conns) in per_client.into_iter().enumerate() {
        fleet.set_app(c, Box::new(Bulk { conns, bytes: 1 << 20 }));
    }
    fleet.start();
    fleet.run_until(SimTime::from_secs(1));
    assert!(fleet.is_idle(), "every flow completes");
    let links = 2 * clients * servers;
    let cores = (clients + servers) * HostSpec::default().cores;
    let bound = 2 * (flows + links + cores);
    let peak = fleet.sched_heap_peak();
    assert!(peak <= bound, "heap peak {peak} > 2 x (flows + links + cores) = {bound}");
}
