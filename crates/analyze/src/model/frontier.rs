//! Deterministic parallel frontier expansion.
//!
//! The worklist is bucketed by (faults, steps) cost; every successor of a
//! layer costs strictly more than the layer itself, so the set of states a
//! layer will expand is fixed the moment the layer starts. That makes the
//! layer an embarrassingly parallel unit: [`Ctx::expand`] is pure (the
//! halt-site log is threaded out as data), workers share the context and
//! state table read-only, each works in a [`Scratch`] of its own that the
//! explorer keeps across layers, and results are merged back **in the layer's
//! insertion order** — so verdicts, witnesses, diagnostics, and the JSON
//! rendering are byte-identical for any `--threads` value, including 1.

use super::engine::Ctx;
use super::moves::Scratch;
use super::state::{Expansion, ProdState};

/// Expands every state in `todo`, in order, on one worker per scratch:
/// with several, the work is chunked across scoped std threads, each
/// expanding in its own [`Scratch`]; the output order is the input order
/// either way.
pub(crate) fn expand_layer(
    ctx: &Ctx,
    states: &[ProdState],
    todo: &[u32],
    scratch: &mut [Scratch],
) -> Vec<Expansion> {
    if scratch.len() <= 1 || todo.len() < 2 {
        let scr = &mut scratch[0];
        return todo.iter().map(|&id| ctx.expand(&states[id as usize], scr)).collect();
    }
    let chunk = todo.len().div_ceil(scratch.len());
    let mut out: Vec<Expansion> = Vec::with_capacity(todo.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = todo
            .chunks(chunk)
            .zip(scratch.iter_mut())
            .map(|(ids, scr)| {
                scope.spawn(move || {
                    ids.iter()
                        .map(|&id| ctx.expand(&states[id as usize], scr))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            out.extend(h.join().expect("frontier worker"));
        }
    });
    out
}
