//! # failmpi-net — simulated cluster network
//!
//! Models the Grid-Explorer-like substrate of the paper: a set of hosts with
//! GigE NICs connected by a switch, processes on hosts, and TCP-like streams
//! between processes (listen / connect / accept / send / close). The model is
//! a *pure state machine*: every mutating method records output events into an
//! internal buffer which the embedding world drains into its discrete-event
//! scheduler ([`Network::take_events`]).
//!
//! ## Fidelity choices
//!
//! * **Reliable, in-order streams** — per connection, like TCP.
//! * **Cut-through bandwidth model** — a message occupies the sender NIC
//!   for `bytes / bandwidth`, crosses the switch in `latency`, and occupies
//!   the receiver NIC for the same span, with the two occupations pipelined
//!   (the receiver drains while the sender still pushes). This captures
//!   both sender serialisation and receiver contention; the latter is what
//!   makes a checkpoint server shared by N clients a bottleneck, the effect
//!   behind the paper's Fig. 6 discussion of checkpoint-image sizes.
//! * **Immediate failure detection** — the paper emulates failures by
//!   killing the task (not the OS), so the TCP connection breaks as soon as
//!   the task dies and peers observe the closure one latency later. The
//!   keep-alive path (9 × 75 s probes) exists in [`NetConfig`] for
//!   completeness but is unused by the default kill model.
//! * **Suspension** — a SIGSTOPped process (FAIL's `stop` action) keeps its
//!   sockets alive; inbound events are buffered by the network and flushed on
//!   `resume`, exactly like kernel socket buffers under a stopped process.
//!
//! ```
//! use failmpi_net::{NetConfig, NetEvent, Network, Port};
//! use failmpi_sim::SimTime;
//!
//! let mut net: Network<&str> = Network::new(NetConfig::default());
//! let hosts = net.add_hosts(2);
//! let server = net.spawn_process(hosts[0]);
//! let client = net.spawn_process(hosts[1]);
//! net.listen(server, Port(80));
//! net.connect(SimTime::ZERO, client, hosts[0], Port(80), 42);
//! // The embedding world schedules these events and routes them back.
//! let events = net.take_events();
//! assert!(matches!(events[0].1, NetEvent::Accepted { .. }));
//! assert!(matches!(events[1].1, NetEvent::ConnEstablished { token: 42, .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod network;
mod stats;
mod types;

pub use config::NetConfig;
pub use network::{Gated, Network};
pub use stats::NetStats;
pub use types::{CloseReason, ConnId, HostId, NetEvent, Port, ProcId, MAX_HOSTS};
