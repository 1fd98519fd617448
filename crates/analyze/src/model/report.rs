//! FC001–FC007 reporting: everything here reads the finished exploration
//! graph ([`Explorer::finish`] consumes the explorer) and nothing else.

use std::collections::HashSet;
use std::hash::Hasher;

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::lang::compile::Action;

use crate::diag::{Diagnostic, Severity};

use super::search::Explorer;
use super::world::AbstractWorld;
use super::{Fnv1a, ModelCheckResult, ModelSummary, StaticVerdict};

impl Explorer<'_> {
    pub(crate) fn finish(self) -> ModelCheckResult {
        let mut diagnostics = Vec::new();
        let frontier_ids: HashSet<u32> = self
            .buckets
            .values()
            .flatten()
            .copied()
            .filter(|&id| !self.expanded[id as usize])
            .collect();
        let frontier = frontier_ids.len();
        let backend = self.ctx.cfg.backend.name();

        let mut witness = None;
        let verdict = if let Some((id, why)) = &self.freeze {
            // The blocked-ranks diagnosis is phrased in the concrete frame
            // the witness ends in, not the orbit representative's.
            let (w, end) = self.witness(*id);
            diagnostics.push(Diagnostic::new(
                Severity::Error,
                "FC003",
                0,
                format!(
                    "reachable freeze state ({why}) under the {backend} backend \
                     after {} fault(s) in {} step(s){}",
                    w.faults,
                    w.steps.len(),
                    self.blocked_ranks_of(&end)
                ),
                "the scenario can wedge the dispatcher's recovery \
                 bookkeeping; run the witness schedule through the dynamic \
                 simulator (or pass --expect-freeze to sweep it anyway)",
            ));
            witness = Some(w);
            StaticVerdict::Freezes
        } else if self.budget_hit {
            diagnostics.push(Diagnostic::new(
                Severity::Warning,
                "FC006",
                0,
                format!(
                    "exploration budget exceeded: {} state(s) expanded, \
                     {frontier} frontier state(s) unexplored — verdict unknown{}",
                    self.n_expanded,
                    self.stall_summary()
                ),
                "raise --budget to finish the exploration, or simplify the \
                 scenario's unbounded counters",
            ));
            StaticVerdict::Unknown
        } else {
            StaticVerdict::Survives
        };

        let class_name = |class: usize| &self.ctx.sc.classes[class].name;
        if verdict == StaticVerdict::Survives {
            // FC001 — halts that no explored path ever executed.
            for site in self.sites.iter().filter(|s| !s.executed) {
                diagnostics.push(Diagnostic::new(
                    Severity::Warning,
                    "FC001",
                    site.line,
                    format!(
                        "`halt` in daemon {} is never executed on any \
                         reachable schedule",
                        class_name(site.class)
                    ),
                    "the fault injection is statically unreachable; the \
                     scenario strains nothing",
                ));
            }
            // FC004 — fault/relaunch cycles that never pass all-running.
            diagnostics.extend(self.livelock());
        }
        // FC005 — halts observed with no controlled process.
        for site in self.sites.iter().filter(|s| s.stale) {
            diagnostics.push(Diagnostic::new(
                Severity::Warning,
                "FC005",
                site.line,
                format!(
                    "`halt` in daemon {} can execute with no controlled \
                     process (the target incarnation is already dead)",
                    class_name(site.class)
                ),
                "guard the halt behind an onload-reached node or answer \
                 the order with `no` when the machine is empty",
            ));
        }
        // FC002 — every fault provably lands before the first commit.
        diagnostics.extend(self.fc002());
        // FC007 — reduction statistics (info): how much work the orbit
        // and ample reductions saved, and whether symmetry applied at all.
        if self.ctx.cfg.reduce {
            let on_off = |on| if on { "on" } else { "off" };
            diagnostics.push(Diagnostic::new(
                Severity::Info,
                "FC007",
                0,
                format!(
                    "reduction ({backend} backend): {} canonical state(s) interned, \
                     {} orbit merge(s), {} commuting step(s) pruned; machine \
                     symmetry {}, rank symmetry {}",
                    self.states.len(),
                    self.orbit_hits,
                    self.por_pruned,
                    on_off(self.ctx.profile.host_sym),
                    on_off(self.ctx.profile.rank_sym),
                ),
                "informational — compare against an unreduced run to gauge \
                 the reduction factor",
            ));
        }

        let mut digest = Fnv1a::new();
        let vals = self.ctx.table.vals(&[]);
        for st in &self.states {
            st.hash_values(vals, &mut digest);
        }

        ModelCheckResult {
            summary: ModelSummary {
                verdict,
                explored: self.n_expanded,
                frontier,
                reduced: self.ctx.cfg.reduce,
                interned: self.states.len(),
                orbit_hits: self.orbit_hits,
                por_pruned: self.por_pruned,
                state_digest: digest.finish(),
                witness,
            },
            diagnostics,
        }
    }

    /// FC006 detail: where a budget-exhausted exploration stalled — the
    /// cheapest pending cost layers and their pending-state counts.
    fn stall_summary(&self) -> String {
        let mut layers: Vec<((u32, u32), usize)> = Vec::new();
        for (&cost, bucket) in &self.buckets {
            let pending = bucket.iter().filter(|&&id| !self.expanded[id as usize]).count();
            if pending > 0 {
                layers.push((cost, pending));
            }
        }
        if layers.is_empty() {
            return String::new();
        }
        let shown: Vec<String> = layers
            .iter()
            .take(3)
            .map(|((fa, st), n)| format!("{n} at ({fa} fault(s), {st} step(s))"))
            .collect();
        let more = if layers.len() > 3 {
            format!(" and {} deeper layer(s)", layers.len() - 3)
        } else {
            String::new()
        };
        format!(
            "; stalled with {} pending across cost layers: {}{more}",
            layers.iter().map(|(_, n)| n).sum::<usize>(),
            shown.join(", ")
        )
    }

    /// For the FC003 message: which surviving ranks the op-program
    /// communication skeleton says will block on the lost rank.
    fn blocked_ranks_of(&self, proto: &AbstractWorld) -> String {
        let Some(lost) = proto.lost_rank() else {
            return String::new();
        };
        let peers_by_rank = self.ctx.comm_peers.iter().take(self.ctx.cfg.n_ranks).enumerate();
        let blocked: Vec<String> = peers_by_rank
            .filter(|(r, peers)| *r != lost as usize && peers.contains(&(lost as u32)))
            .map(|(r, _)| r.to_string())
            .collect();
        if blocked.is_empty() {
            format!("; rank {lost} is permanently lost")
        } else {
            format!(
                "; rank {lost} is permanently lost and rank(s) {} block on \
                 it through the op-program communication graph",
                blocked.join(", ")
            )
        }
    }

    /// FC002: the purely timing-based argument — a scenario whose every
    /// timer is a compile-time constant shorter than the checkpoint period
    /// injects all of its (timer-driven) faults before any wave can
    /// commit, so every restart replays from scratch.
    fn fc002(&self) -> Option<Diagnostic> {
        let mut has_halt = false;
        let mut max_delay: Option<(i64, u32)> = None;
        for class in &self.ctx.sc.classes {
            if !class.probes.is_empty() {
                return None; // probe-driven scenarios time off live state
            }
            for node in &class.nodes {
                for tr in &node.transitions {
                    if tr.actions.iter().any(|a| matches!(a, Action::Halt)) {
                        has_halt = true;
                    }
                }
                for (_, e) in &node.timers {
                    let (_, hi) = e.const_range(&self.ctx.params)?;
                    if max_delay.is_none_or(|(m, _)| hi > m) {
                        max_delay = Some((hi, node.line));
                    }
                }
            }
        }
        let (delay, line) = max_delay?;
        if !has_halt || delay >= self.ctx.cfg.wave_period_secs {
            return None;
        }
        Some(Diagnostic::new(
            Severity::Warning,
            "FC002",
            line,
            format!(
                "every timer delay is at most {delay} s — shorter than the \
                 {} s checkpoint period, so all timer-driven faults land \
                 before the first wave can commit",
                self.ctx.cfg.wave_period_secs
            ),
            "the scenario never exercises restart-from-checkpoint; lengthen \
             the timer past the checkpoint period",
        ))
    }

    /// FC004: a strongly connected component of the explored graph that
    /// contains a fault edge but no all-running state — the system keeps
    /// faulting and relaunching without ever restarting the computation.
    /// One finding describes the pathology.
    fn livelock(&self) -> Option<Diagnostic> {
        let n = self.states.len();
        // Iterative Tarjan. The components are kept back to back in
        // `members`, in the order they complete, with their ends in
        // `ends`; `comp` is each state's component.
        let mut index_of = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut members: Vec<u32> = Vec::with_capacity(n);
        let mut ends: Vec<usize> = Vec::new();
        let mut comp = vec![0u32; n];
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index_of[root as usize] != u32::MAX {
                continue;
            }
            call.push((root, 0));
            index_of[root as usize] = next_index;
            low[root as usize] = next_index;
            next_index += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            while let Some((v, ei)) = call.pop() {
                if let Some(&(w, _)) = self.edges(v).get(ei) {
                    call.push((v, ei + 1));
                    if index_of[w as usize] == u32::MAX {
                        index_of[w as usize] = next_index;
                        low[w as usize] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index_of[w as usize]);
                    }
                } else {
                    if low[v as usize] == index_of[v as usize] {
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w as usize] = false;
                            comp[w as usize] = ends.len() as u32;
                            members.push(w);
                            if w == v {
                                break;
                            }
                        }
                        ends.push(members.len());
                    }
                    if let Some((u, _)) = call.last() {
                        let lu = low[*u as usize].min(low[v as usize]);
                        low[*u as usize] = lu;
                    }
                }
            }
        }
        let starts = std::iter::once(0).chain(ends.iter().copied());
        let livelocked = starts.zip(&ends).map(|(a, &b)| &members[a..b]).find(|scc| {
            let cyclic = scc.len() > 1 || self.edges(scc[0]).iter().any(|(w, _)| *w == scc[0]);
            if !cyclic {
                return false;
            }
            let k = comp[scc[0] as usize];
            let has_fault = (scc.iter())
                .any(|&v| self.edges(v).iter().any(|&(w, fault)| fault && comp[w as usize] == k));
            has_fault && !scc.iter().any(|&v| self.all_running[v as usize])
        })?;
        Some(Diagnostic::new(
            Severity::Warning,
            "FC004",
            0,
            format!(
                "fault/relaunch livelock: a cycle of {} state(s) \
                 keeps killing and relaunching daemons without ever \
                 reaching the all-running state",
                livelocked.len()
            ),
            "the scenario can starve the run of progress without \
             freezing it; bound the fault rate or add a terminal \
             node",
        ))
    }
}
