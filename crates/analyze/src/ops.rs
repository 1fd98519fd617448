//! Static verification of MPI op-programs.
//!
//! The checks mirror the reference lockstep executor's matching rules
//! (`failmpi_mpi::lockstep`): sends are eager and never block, a `Recv`
//! blocks until a `(from, tag)`-matching send has been issued. A symbolic
//! walk advances every rank as far as matching allows; whatever is still
//! blocked at the fixpoint is a guaranteed fault-free deadlock, classified
//! as:
//!
//! | code  | severity | finding |
//! |-------|----------|---------|
//! | FB000 | error    | the workload does not deploy on its cluster (raised by the experiment harness) |
//! | FB001 | error    | blocking receive no remaining send can ever match |
//! | FB002 | error    | cyclic blocking wait (classic MPI deadlock) |
//! | FB003 | error    | send to self or to a nonexistent rank |
//! | FB004 | warning  | program does not end with a single `Finalize` |
//! | FB005 | warning  | per-channel send/recv count mismatch |
//!
//! Op-programs have no source text, so `Diagnostic::line` holds the
//! **1-based op index** inside the flagged rank's program.

use std::collections::HashMap;
use std::sync::Arc;

use failmpi_mpi::{Op, Program, Rank, Tag};

use crate::diag::{Diagnostic, Severity};

/// A directed matching channel: messages from `from` to `to` under `tag`.
type Channel = (Rank, Rank, Tag);

/// Runs every op-program pass over one program set (`programs[i]` is rank
/// `i`'s instruction stream) and returns the (unsorted) findings.
pub fn analyze_programs(programs: &[Arc<Program>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    check_shape(programs, &mut out);
    check_channel_counts(programs, &mut out);
    symbolic_walk(programs, &mut out);
    out
}

/// Wraps the reason a workload does not fit the cluster it is to run on — an
/// inconsistent cluster configuration, a rank count the workload cannot be
/// generated for, a program set of another length than the rank count — as
/// the `FB000` diagnostic. Like FA011, no pass here raises it; the
/// experiment harness does, before it builds anything.
pub fn workload_error_diag(why: &str) -> Diagnostic {
    Diagnostic::new(
        Severity::Error,
        "FB000",
        0,
        format!("workload does not deploy: {why}"),
        "give the workload a rank count and a cluster it fits",
    )
}

/// Whether a send is deliverable at all (drops FB003 sends from matching).
fn deliverable(n: usize, me: Rank, to: Rank) -> bool {
    to != me && (to.0 as usize) < n
}

/// FB003 and FB004: per-program shape checks.
fn check_shape(programs: &[Arc<Program>], out: &mut Vec<Diagnostic>) {
    let n = programs.len();
    for (rank, p) in programs.iter().enumerate() {
        let me = Rank(rank as u32);
        for (i, op) in p.comm_ops() {
            if let Op::Send { to, .. } = op {
                if !deliverable(n, me, *to) {
                    let what = if *to == me {
                        "itself".to_string()
                    } else {
                        format!("nonexistent rank {} (world size {n})", to.0)
                    };
                    out.push(
                        Diagnostic::new(
                            Severity::Error,
                            "FB003",
                            (i + 1) as u32,
                            format!("rank {rank}: send to {what}"),
                            "the message can never be delivered; fix the \
                             destination rank",
                        )
                        .with_span(rank as u32, (i + 1) as u32),
                    );
                }
            }
        }
        if !p.is_well_formed() {
            out.push(
                Diagnostic::new(
                    Severity::Warning,
                    "FB004",
                    p.len() as u32,
                    format!(
                        "rank {rank}: program does not end with a single \
                         trailing `Finalize`"
                    ),
                    "append `Finalize` so the process is known to have \
                     completed",
                )
                .with_span(rank as u32, p.len() as u32),
            );
        }
    }
}

/// FB005: per-channel send/recv count comparison. A mismatch is not
/// necessarily a deadlock (the walk decides that), but it always means a
/// lost message or an unmatched wait.
fn check_channel_counts(programs: &[Arc<Program>], out: &mut Vec<Diagnostic>) {
    let n = programs.len();
    let mut sends: HashMap<Channel, usize> = HashMap::new();
    let mut recvs: HashMap<Channel, usize> = HashMap::new();
    // First op touching the channel on each side, for span anchoring:
    // (rank, 1-based op index).
    let mut first_send: HashMap<Channel, (u32, u32)> = HashMap::new();
    let mut first_recv: HashMap<Channel, (u32, u32)> = HashMap::new();
    for (rank, p) in programs.iter().enumerate() {
        let me = Rank(rank as u32);
        for (i, op) in p.comm_ops() {
            match op {
                Op::Send { to, tag, .. } if deliverable(n, me, *to) => {
                    let ch = (me, *to, *tag);
                    *sends.entry(ch).or_default() += 1;
                    first_send.entry(ch).or_insert((me.0, (i + 1) as u32));
                }
                Op::Recv { from, tag } => {
                    let ch = (*from, me, *tag);
                    *recvs.entry(ch).or_default() += 1;
                    first_recv.entry(ch).or_insert((me.0, (i + 1) as u32));
                }
                _ => {}
            }
        }
    }
    let mut channels: Vec<Channel> = sends.keys().chain(recvs.keys()).copied().collect();
    channels.sort();
    channels.dedup();
    for ch in channels {
        let (s, r) = (
            sends.get(&ch).copied().unwrap_or(0),
            recvs.get(&ch).copied().unwrap_or(0),
        );
        if s != r {
            let (from, to, tag) = ch;
            // Anchor on the surplus side: the first op of the kind there
            // is too many of (that is where a fix removes or adds ops).
            let anchor = if s > r {
                first_send.get(&ch).copied()
            } else {
                first_recv.get(&ch).copied()
            };
            let mut d = Diagnostic::new(
                Severity::Warning,
                "FB005",
                anchor.map_or(0, |(_, op)| op),
                format!(
                    "channel {}→{} tag {}: {s} send(s) but {r} recv(s)",
                    from.0, to.0, tag.0
                ),
                "unbalanced channels either lose messages or leave a rank \
                 waiting; make the counts match",
            );
            if let Some((rank, op)) = anchor {
                d = d.with_span(rank, op);
            }
            out.push(d);
        }
    }
}

/// The symbolic walk behind FB001/FB002: advance every rank past local
/// ops and eager sends, match receives against issued sends, and classify
/// whatever is blocked once no rank can move.
fn symbolic_walk(programs: &[Arc<Program>], out: &mut Vec<Diagnostic>) {
    let n = programs.len();
    let mut pc: Vec<usize> = vec![0; n];
    let mut queued: HashMap<Channel, usize> = HashMap::new();

    loop {
        let mut progressed = false;
        for rank in 0..n {
            let me = Rank(rank as u32);
            for op in programs[rank].iter_from(pc[rank]) {
                match op {
                    Op::Recv { from, tag } => {
                        let ch = (from, me, tag);
                        match queued.get_mut(&ch) {
                            Some(c) if *c > 0 => *c -= 1,
                            _ => break, // blocked
                        }
                    }
                    Op::Send { to, tag, .. } => {
                        if deliverable(n, me, to) {
                            *queued.entry((me, to, tag)).or_default() += 1;
                        }
                    }
                    Op::Compute(_) | Op::Progress(_) | Op::Finalize => {}
                }
                pc[rank] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    // Classify the stalled ranks. `waiting_on[r] = Some(sender)` when rank
    // r is blocked on a receive the sender could still satisfy later.
    let mut waiting_on: Vec<Option<usize>> = vec![None; n];
    for rank in 0..n {
        let Some(Op::Recv { from, tag }) = programs[rank].op_at(pc[rank]) else {
            continue;
        };
        let sender = from.0 as usize;
        let future_send = sender < n
            && programs[sender].iter_from(pc[sender]).any(|op| {
                matches!(op, Op::Send { to, tag: t, .. }
                         if to == Rank(rank as u32) && t == tag)
            });
        if future_send {
            waiting_on[rank] = Some(sender);
        } else {
            out.push(
                Diagnostic::new(
                    Severity::Error,
                    "FB001",
                    (pc[rank] + 1) as u32,
                    format!(
                        "rank {rank}: blocking receive from rank {} tag {} \
                         can never be matched — the sender has no such send \
                         left",
                        from.0, tag.0
                    ),
                    "the rank deadlocks even without faults; add the \
                     matching send or drop the receive",
                )
                .with_span(rank as u32, (pc[rank] + 1) as u32),
            );
        }
    }

    // FB002: cycles in the waiting-on graph. Each stalled rank waits on at
    // most one other rank, so every cycle is a simple rho-free loop found
    // by pointer chasing.
    let mut reported: Vec<bool> = vec![false; n];
    for start in 0..n {
        if reported[start] || waiting_on[start].is_none() {
            continue;
        }
        // Walk until we revisit something or fall off the graph.
        let mut seen_at: HashMap<usize, usize> = HashMap::new();
        let mut path: Vec<usize> = Vec::new();
        let mut cur = start;
        while let Some(next) = waiting_on[cur] {
            if let Some(&pos) = seen_at.get(&cur) {
                let cycle = &path[pos..];
                if cycle.iter().any(|&r| reported[r]) {
                    break;
                }
                let members: Vec<String> =
                    cycle.iter().map(|r| r.to_string()).collect();
                let head = cycle[0];
                out.push(
                    Diagnostic::new(
                        Severity::Error,
                        "FB002",
                        (pc[head] + 1) as u32,
                        format!(
                            "cyclic blocking wait among ranks {}: each \
                             rank's receive waits on a send its partner \
                             only issues after its own blocked receive",
                            members.join(" → ")
                        ),
                        "break the cycle by reordering one rank's send \
                         before its receive (or use a sendrecv exchange)",
                    )
                    .with_span(head as u32, (pc[head] + 1) as u32),
                );
                for &r in cycle {
                    reported[r] = true;
                }
                break;
            }
            seen_at.insert(cur, path.len());
            path.push(cur);
            cur = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_mpi::ProgramBuilder;

    fn codes(d: &[Diagnostic]) -> Vec<&'static str> {
        d.iter().map(|x| x.code).collect()
    }

    #[test]
    fn matched_exchange_is_clean() {
        // 0 sends to 1 before receiving; 1 receives then replies.
        let p0 = ProgramBuilder::new(0)
            .send(Rank(1), Tag(1), 8)
            .recv(Rank(1), Tag(2))
            .finalize();
        let p1 = ProgramBuilder::new(0)
            .recv(Rank(0), Tag(1))
            .send(Rank(0), Tag(2), 8)
            .finalize();
        assert!(analyze_programs(&[p0, p1]).is_empty());
    }

    #[test]
    fn head_to_head_recvs_deadlock() {
        let p0 = ProgramBuilder::new(0)
            .recv(Rank(1), Tag(1))
            .send(Rank(1), Tag(2), 8)
            .finalize();
        let p1 = ProgramBuilder::new(0)
            .recv(Rank(0), Tag(2))
            .send(Rank(0), Tag(1), 8)
            .finalize();
        let d = analyze_programs(&[p0, p1]);
        assert!(codes(&d).contains(&"FB002"), "got {d:?}");
        let cyc = d.iter().find(|x| x.code == "FB002").unwrap();
        assert_eq!(cyc.line, 1); // both ranks block on their first op
    }

    #[test]
    fn missing_send_is_unmatched_not_cyclic() {
        let p0 = ProgramBuilder::new(0).recv(Rank(1), Tag(9)).finalize();
        let p1 = ProgramBuilder::new(0).finalize();
        let d = analyze_programs(&[p0, p1]);
        assert!(codes(&d).contains(&"FB001"), "got {d:?}");
        assert!(codes(&d).contains(&"FB005"));
        assert!(!codes(&d).contains(&"FB002"));
    }

    #[test]
    fn self_send_and_bad_rank_flagged() {
        let p0 = ProgramBuilder::new(0)
            .send(Rank(0), Tag(1), 8)
            .send(Rank(7), Tag(1), 8)
            .finalize();
        let p1 = ProgramBuilder::new(0).finalize();
        let d = analyze_programs(&[p0, p1]);
        assert_eq!(
            codes(&d).iter().filter(|c| **c == "FB003").count(),
            2,
            "got {d:?}"
        );
    }

    #[test]
    fn missing_finalize_warns() {
        let p0 = Program::new(vec![Op::Progress(1)], 0);
        let d = analyze_programs(&[p0]);
        assert_eq!(codes(&d), vec!["FB004"]);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn fb_diagnostics_carry_spans() {
        use crate::diag::Span;
        // Self-send (FB003) plus an unreceived deliverable send (FB005).
        let p0 = ProgramBuilder::new(0)
            .send(Rank(0), Tag(1), 8)
            .send(Rank(1), Tag(2), 8)
            .finalize();
        let p1 = ProgramBuilder::new(0).finalize();
        let d = analyze_programs(&[p0, p1]);
        for x in &d {
            assert!(x.span.is_some(), "{x:?} missing span");
        }
        let fb3 = d.iter().find(|x| x.code == "FB003").unwrap();
        assert_eq!(fb3.span, Some(Span { rank: 0, op: 1 }));
        let fb5 = d.iter().find(|x| x.code == "FB005").unwrap();
        assert_eq!(fb5.span, Some(Span { rank: 0, op: 2 }));
        assert_eq!(fb5.line, 2, "line mirrors the anchoring op index");
    }

    #[test]
    fn three_rank_cycle_reported_once() {
        let ring = |to: u32, from: u32| {
            ProgramBuilder::new(0)
                .recv(Rank(from), Tag(1))
                .send(Rank(to), Tag(1), 8)
                .finalize()
        };
        // 0 waits on 2, 1 waits on 0, 2 waits on 1 — one 3-cycle.
        let d = analyze_programs(&[ring(1, 2), ring(2, 0), ring(0, 1)]);
        assert_eq!(codes(&d), vec!["FB002"], "got {d:?}");
    }
}
