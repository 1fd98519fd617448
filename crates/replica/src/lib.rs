//! # failmpi-replica — a replication-failover runtime
//!
//! Fault tolerance in the **FTHP-MPI / PartRePer-MPI** spirit: spare
//! compute hosts carry *replica* processes that shadow the state of their
//! primary rank op by op. When a primary dies, the runtime **promotes**
//! its replica — the shadow process takes over the rank mid-stream, with
//! no rollback and no lost work. The failure texture is again dual to
//! both other backends:
//!
//! * a single fault on a protected rank is *masked*: one promotion
//!   handshake, no global stop, no recomputation — the cheapest recovery
//!   of the three protocols;
//! * protection is a consumable: a promoted rank has spent its replica,
//!   and a fleet has only `n_hosts − n_ranks` replicas to begin with.
//!   Killing a primary+replica pair — or any unprotected primary — loses
//!   the rank permanently and freezes the job, *without* any protocol
//!   bug involved (contrast Fig. 10, where Vcl freezes by defect);
//! * the steady-state cost is the per-op state-shadowing traffic from
//!   each protected primary to its replica, visible in the
//!   `ckpt_bytes` ledger that is zero under ULFM.
//!
//! The runtime is the shared [`failmpi_backend::light::LightRuntime`]
//! skeleton under the [`Failover`] recovery policy — this crate holds only
//! the policy and its abstract twin; run any FAIL scenario against it with
//! `--backend replica`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abstractmodel;
mod policy;

pub use abstractmodel::AbstractReplica;
pub use policy::{Failover, PromoteDone};
