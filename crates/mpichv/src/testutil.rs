//! Test scaffolding: stand-alone [`Facilities`] for unit-testing
//! individual components without a full cluster.

#![cfg(test)]

use failmpi_net::{ConnId, NetConfig, NetEvent, Network, Port, ProcId};
use failmpi_sim::{SimRng, SimTime};

use crate::config::VclConfig;
use crate::ctx::{Addrs, Facilities};

/// Facilities over `hosts` machines under the default configuration; hand
/// them to a component with [`Facilities::at`].
pub(crate) fn world(hosts: usize) -> Facilities {
    let mut net = Network::new(NetConfig::default());
    let all = net.add_hosts(hosts.max(4));
    let addrs = Addrs {
        dispatcher_host: all[0],
        scheduler_host: all[1],
        server_hosts: vec![all[2]],
        compute_hosts: all[3..].to_vec(),
    };
    Facilities::new(VclConfig::default(), addrs, net, SimRng::new(1))
}

/// Establishes a real stream between two fresh processes on distinct
/// hosts; returns (server proc, client proc, conn).
pub(crate) fn connect_pair(w: &mut Facilities) -> (ProcId, ProcId, ConnId) {
    let hs = &w.addrs.compute_hosts;
    let server = w.net.spawn_process(hs[0]);
    let client = w.net.spawn_process(hs[1]);
    w.net.listen(server, Port(9999));
    w.net.connect(SimTime::ZERO, client, hs[0], Port(9999), 0);
    let conn = w
        .net
        .take_events()
        .into_iter()
        .find_map(|(_, e)| match e {
            NetEvent::Accepted { conn, .. } => Some(conn),
            _ => None,
        })
        .expect("handshake");
    (server, client, conn)
}
