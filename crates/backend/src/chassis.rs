//! The chassis: the state behind the FAIL-daemon interface, owned once by
//! every runtime.
//!
//! Paper Sec. 4 drives a self-deploying runtime through one narrow
//! surface — lifecycle hooks out, breakpoints in, follow-up events back to
//! the engine, a lifecycle trace for the classifier. A [`Chassis`] is the
//! state that surface needs; [`crate::ProtocolBackend`] implements the
//! surface itself over it as provided methods, so a runtime only says
//! where its chassis lives.

use std::collections::{HashMap, HashSet};

use failmpi_net::ProcId;
use failmpi_sim::{SimTime, TraceLog};

use crate::{Hook, InstrumentedFn, TrafficStats, VclEvent};

/// Outbox, hooks, lifecycle trace, breakpoint table and traffic ledger of
/// one runtime whose event alphabet is `E`.
pub struct Chassis<E> {
    /// Follow-up events produced since the harness last drained them.
    pub out: Vec<(SimTime, E)>,
    /// Lifecycle/breakpoint hooks produced since the harness last took them.
    pub hooks: Vec<Hook>,
    /// The lifecycle trace the classifier reads (it also carries the
    /// causal anchor of the event being handled).
    pub trace: TraceLog<VclEvent>,
    /// Byte counters by traffic class.
    pub traffic: TrafficStats,
    /// Debugger breakpoints armed by the injection layer.
    breakpoints: HashMap<ProcId, HashSet<InstrumentedFn>>,
}

impl<E> Default for Chassis<E> {
    /// An empty chassis.
    fn default() -> Self {
        Chassis {
            out: Vec::new(),
            hooks: Vec::new(),
            trace: TraceLog::new(),
            traffic: TrafficStats::default(),
            breakpoints: HashMap::new(),
        }
    }
}

impl<E> Chassis<E> {
    /// Schedules `ev` for delivery at `at`.
    pub fn emit(&mut self, at: SimTime, ev: E) {
        self.out.push((at, ev));
    }

    /// Arms a debugger breakpoint on `func` for `proc`.
    pub fn arm(&mut self, proc: ProcId, func: InstrumentedFn) {
        self.breakpoints.entry(proc).or_default().insert(func);
    }

    /// Whether the injection layer armed a breakpoint on `func` for `proc`.
    pub fn armed(&self, proc: ProcId, func: InstrumentedFn) -> bool {
        self.breakpoints
            .get(&proc)
            .is_some_and(|set| set.contains(&func))
    }

    /// Forgets every breakpoint of `proc` (cleared by the injection layer,
    /// or the process is gone).
    pub fn disarm(&mut self, proc: ProcId) {
        self.breakpoints.remove(&proc);
    }
}
