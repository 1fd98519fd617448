//! The search: deployment binding ([`Explorer::new`]), hashed interning,
//! and the deterministic lowest-(faults, steps, insertion) worklist. What
//! it leaves behind — the interned graph, one parent table of structural
//! moves, the halt-site flags — is what [`super::witness`] and
//! [`super::report`] read.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use failmpi_backend::vocab::AbstractModel;
use failmpi_core::lang::compile::{Action, Scenario};
use failmpi_core::Deployment;
use failmpi_mpi::{Op, Program};

use super::canon::{self, Perm};
use super::engine::Ctx;
use super::frontier;
use super::moves::Scratch;
use super::state::{
    Expansion, HaltSite, Inst, MoveKind, PassThrough, ProdState, SiteLog, StateHasher,
};
use super::world::AbstractWorld;
use super::ModelCheckConfig;

/// "No state": ends a [`Explorer::same_hash`] chain.
const NO_ID: u32 = u32::MAX;

/// The tree edge a state was reached by at its best cost. Labels are
/// rendered from these on read, by [`Explorer::witness`].
pub(super) struct TreeEdge {
    pub(super) parent: u32,
    /// The structural move, in the parent's frame.
    pub(super) kind: MoveKind,
    /// Faults the branch injected.
    pub(super) faults: u32,
    /// Where the successor's raw→canonical permutation starts in
    /// [`Explorer::perms`]; `None` is the identity.
    pub(super) perm: Option<u32>,
}

pub(crate) struct Explorer<'a> {
    pub(crate) ctx: Ctx<'a>,
    pub(super) sites: Vec<HaltSite>,

    // Exploration graph.
    pub(super) states: Vec<ProdState>,
    /// Interning index: a state's 64-bit [`StateHasher`] value → the
    /// newest id carrying it. A state is hashed once, never copied into a
    /// key, and growing the map moves `(u64, u32)` pairs.
    index: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
    /// The next-older id with the same hash value (`NO_ID` ends the
    /// chain). A hash match is only a candidate: [`Self::intern`] confirms
    /// every one with full state equality.
    same_hash: Vec<u32>,
    /// ANDed onto every hash value; all ones outside the collision test.
    hash_mask: u64,
    pub(super) dist: Vec<(u32, u32)>,
    /// The one parent table, for both modes (`None` at the root).
    pub(super) parent: Vec<Option<TreeEdge>>,
    /// The tree edges' non-identity permutations, back to back, each as
    /// [`Perm::write_flat`] writes it. A row a cheaper edge supersedes
    /// stays, unreferenced.
    perms: Vec<u8>,
    /// Every distinct instance value an interned state holds, once: an
    /// interned state's instances are these allocations, so states that
    /// agree on an instance share it and compare it by pointer.
    inst_table: HashSet<Inst, BuildHasherDefault<StateHasher>>,
    /// Whether [`Self::intern`] shares instances through `inst_table`;
    /// off only in the test that checks sharing changes nothing.
    share_insts: bool,
    /// Every expanded state's out-edges `(successor, faulty)`, back to
    /// back: a state is expanded once, so its edges are one run.
    edge_list: Vec<(u32, bool)>,
    /// Each state's run of `edge_list` (empty until expanded).
    edge_run: Vec<(u32, u32)>,
    pub(super) expanded: Vec<bool>,
    pub(super) all_running: Vec<bool>,
    /// Cost-layered worklist: `(faults, steps)` → state ids in insertion
    /// order, popped exactly like a (faults, steps, insertion) heap —
    /// every successor lands strictly deeper than the layer being
    /// processed, so a layer is closed the moment it starts.
    pub(super) buckets: BTreeMap<(u32, u32), Vec<u32>>,
    pub(super) n_expanded: usize,
    pub(super) freeze: Option<(u32, String)>,
    pub(super) budget_hit: bool,

    /// The initial state before canonicalization and the permutation that
    /// canonicalizes it: where witness replay starts.
    pub(super) init_raw: ProdState,
    pub(super) init_perm: Perm,
    pub(super) orbit_hits: usize,
    pub(super) por_pruned: usize,
    /// One expansion scratch per frontier worker, kept across layers.
    scratch: Vec<Scratch>,
}

fn note_sites(sites: &mut [HaltSite], log: SiteLog) {
    for (site, stale) in log {
        sites[site].executed = true;
        sites[site].stale |= stale;
    }
}

impl<'a> Explorer<'a> {
    pub(crate) fn new(sc: &'a Scenario, cfg: &'a ModelCheckConfig, programs: &[Arc<Program>]) -> Self {
        // Resolve parameters: defaults, then overrides; `N` tracks the
        // model's machine count unless the caller pinned it.
        let mut params = sc.param_defaults.clone();
        for (i, name) in sc.param_names.iter().enumerate() {
            if name == "N" && !cfg.params.iter().any(|(n, _)| n == "N") {
                params[i] = cfg.n_hosts as i64 - 1;
            }
        }
        for (name, v) in &cfg.params {
            if let Some(i) = sc.param_names.iter().position(|n| n == name) {
                params[i] = *v;
            }
        }

        // Suggested instances, then one member per machine for every
        // group (member `h` of group `g` is instance `n_suggested + g *
        // n_hosts + h`): the harness's deployment shape. The declared
        // group size is paper scale and is overridden here.
        let (n_hosts, groups) = (cfg.n_hosts, &sc.suggested.groups);
        let n_suggested = sc.suggested.instances.len();
        let suggested = sc.suggested.instances.iter().map(|(name, c)| (name.clone(), *c));
        let members = (groups.iter())
            .flat_map(|(g, _, c)| (0..n_hosts).map(move |h| (format!("{g}[{h}]"), *c)));
        let mut deployment = Deployment::new();
        let mut inst_class = Vec::new();
        let unique = "compile rejects duplicate instances and groups";
        for (name, class) in suggested.chain(members) {
            deployment.add_instance(&name, &sc.classes[class].name).expect(unique);
            inst_class.push(class);
        }
        let member = |g: usize, h: usize| n_suggested + g * n_hosts + h;
        for (g, (name, ..)) in groups.iter().enumerate() {
            let members = (0..n_hosts).map(|h| member(g, h)).collect();
            deployment.add_group(name, members).expect(unique);
        }
        let inst_host = (0..inst_class.len())
            .map(|i| i.checked_sub(n_suggested).map(|k| (k % n_hosts) as u8))
            .collect();
        let controllers =
            (0..n_hosts).map(|h| (0..groups.len()).map(|g| member(g, h)).collect()).collect();

        let mut sites = Vec::new();
        let mut halt_sites = HashMap::new();
        for (c, class) in sc.classes.iter().enumerate() {
            for (n, node) in class.nodes.iter().enumerate() {
                for (t, tr) in node.transitions.iter().enumerate() {
                    if tr.actions.iter().any(|a| matches!(a, Action::Halt)) {
                        halt_sites.insert((c, n, t), sites.len());
                        sites.push(HaltSite {
                            class: c,
                            line: tr.line,
                            executed: false,
                            stale: false,
                        });
                    }
                }
            }
        }

        let comm_peers = comm_closure(programs, cfg.n_ranks);
        let profile = canon::profile_of(sc, &params, cfg, &comm_peers);

        let ctx = Ctx {
            sc,
            cfg,
            params,
            deployment,
            inst_class,
            inst_host,
            controllers,
            comm_peers,
            halt_sites,
            n_suggested,
            n_groups: sc.suggested.groups.len(),
            profile,
        };
        let init_raw = initial(&ctx);
        Explorer {
            ctx,
            sites,
            states: Vec::new(),
            index: HashMap::default(),
            same_hash: Vec::new(),
            hash_mask: u64::MAX,
            dist: Vec::new(),
            parent: Vec::new(),
            perms: Vec::new(),
            inst_table: HashSet::default(),
            share_insts: true,
            edge_list: Vec::new(),
            edge_run: Vec::new(),
            expanded: Vec::new(),
            all_running: Vec::new(),
            buckets: BTreeMap::new(),
            n_expanded: 0,
            freeze: None,
            budget_hit: false,
            init_raw,
            init_perm: Perm::identity(cfg.n_hosts, cfg.n_units()),
            orbit_hits: 0,
            por_pruned: 0,
            scratch: (0..cfg.threads.max(1)).map(|_| Scratch::default()).collect(),
        }
    }

    /// Test hook: an explorer whose interning hash is constant, so every
    /// lookup walks one chain holding every state and only the equality
    /// confirmation tells them apart.
    #[cfg(test)]
    pub(crate) fn with_colliding_hash(
        sc: &'a Scenario,
        cfg: &'a ModelCheckConfig,
        programs: &[Arc<Program>],
    ) -> Self {
        Explorer { hash_mask: 0, ..Explorer::new(sc, cfg, programs) }
    }

    /// Test hook: every interned state, in discovery order.
    #[cfg(test)]
    pub(crate) fn states(&self) -> &[ProdState] {
        &self.states
    }

    /// The raw→canonical permutation of a tree edge; `None` is the
    /// identity.
    pub(super) fn edge_perm(&self, edge: &TreeEdge) -> Option<Perm> {
        let (n_hosts, n_units) = (self.ctx.cfg.n_hosts, self.ctx.cfg.n_units());
        edge.perm.map(|at| Perm::from_flat(&self.perms[at as usize..], n_hosts, n_units))
    }

    /// The out-edges `(successor, faulty)` of state `id`, in successor
    /// order; none until it is expanded.
    pub(super) fn edges(&self, id: u32) -> &[(u32, bool)] {
        let (start, end) = self.edge_run[id as usize];
        &self.edge_list[start as usize..end as usize]
    }

    fn intern(&mut self, mut s: ProdState) -> u32 {
        let mut h = StateHasher::default();
        s.hash(&mut h);
        let hash = h.finish() & self.hash_mask;
        let head = self.index.get(&hash).copied().unwrap_or(NO_ID);
        let mut at = head;
        while at != NO_ID {
            if self.states[at as usize] == s {
                return at;
            }
            at = self.same_hash[at as usize];
        }
        if self.share_insts {
            for inst in &mut s.insts {
                match self.inst_table.get(inst) {
                    Some(shared) => *inst = shared.clone(),
                    None => {
                        self.inst_table.insert(inst.clone());
                    }
                }
            }
        }
        let id = self.states.len() as u32;
        self.all_running.push(s.proto.all_running());
        self.index.insert(hash, id);
        self.same_hash.push(head);
        self.states.push(s);
        self.dist.push((u32::MAX, u32::MAX));
        self.parent.push(None);
        self.edge_run.push((0, 0));
        self.expanded.push(false);
        id
    }

    pub(crate) fn run(&mut self) {
        let root = if self.ctx.cfg.reduce {
            let (root, p0) = canon::canonicalize(&self.ctx, &self.init_raw);
            self.init_perm = p0;
            root
        } else {
            self.init_raw.clone()
        };
        let id = self.intern(root);
        self.dist[id as usize] = (0, 0);
        self.buckets.insert((0, 0), vec![id]);

        while let Some((cost, layer)) = self.buckets.pop_first() {
            // Every successor of this layer costs strictly more (steps+1),
            // so expansion can neither add to the layer nor change which
            // of its entries are stale: the valid set is fixed the moment
            // the layer starts and is safe to expand in parallel. The
            // stale ones (already expanded via an equal-cost duplicate
            // push) are skipped below exactly like heap pop-skips.
            let fresh = |ex: &Self, id: u32| {
                !ex.expanded[id as usize] && cost <= ex.dist[id as usize]
            };
            let todo: Vec<u32> = layer.iter().copied().filter(|&id| fresh(self, id)).collect();
            let exps = frontier::expand_layer(&self.ctx, &self.states, &todo, &mut self.scratch);
            let mut exp_it = exps.into_iter();
            for (k, &id) in layer.iter().enumerate() {
                if !fresh(self, id) {
                    continue; // heap pop-skip: does not count as expansion
                }
                let exp = exp_it.next().expect("expansion for fresh entry");
                let tail = &layer[k + 1..];
                if self.absorb(id, cost, exp, tail) {
                    // Put the unprocessed tail of the interrupted layer
                    // back — stale entries included — so frontier
                    // accounting sees exactly what a heap would still
                    // hold at the same stop point. No new entry can have
                    // landed at `cost` meanwhile.
                    if !tail.is_empty() {
                        self.buckets.insert(cost, tail.to_vec());
                    }
                    return;
                }
            }
        }
    }

    /// Merges the expansion of `id` (popped at `cost`) into the graph.
    /// Returns whether the exploration stops here: a freeze was found, or
    /// the budget ran out with work (`tail`, or any bucket entry, stale or
    /// not — the heap kept superseded entries until popped) still pending.
    fn absorb(&mut self, id: u32, cost: (u32, u32), mut exp: Expansion, tail: &[u32]) -> bool {
        self.expanded[id as usize] = true;
        self.n_expanded += 1;
        let proto = &self.states[id as usize].proto;
        if proto.lost_rank().is_some() {
            // Stop before applying this state's halt log — its
            // (speculative) successors are never taken.
            self.freeze = Some((id, proto.freeze_reason().to_string()));
            return true;
        }
        note_sites(&mut self.sites, std::mem::take(&mut exp.log));
        self.orbit_hits += exp.orbit_hits;
        self.por_pruned += exp.por_pruned;
        if exp.succs.is_empty() && !self.all_running[id as usize] {
            let why = "no enabled step short of the all-running state";
            self.freeze = Some((id, why.to_string()));
            return true;
        }
        let row = self.ctx.cfg.n_hosts + self.ctx.cfg.n_units();
        let start = self.edge_list.len() as u32;
        for succ in std::mem::take(&mut exp.succs) {
            let nid = self.intern(succ.micro.st);
            self.edge_list.push((nid, succ.micro.faults > 0));
            let cand = (cost.0 + succ.micro.faults, cost.1 + 1);
            if cand < self.dist[nid as usize] {
                self.dist[nid as usize] = cand;
                let (kind, faults) = (succ.kind, succ.micro.faults);
                let perm = succ.perm.map(|at| {
                    let at = at as usize;
                    self.perms.extend_from_slice(&exp.perms[at..at + row]);
                    (self.perms.len() - row) as u32
                });
                self.parent[nid as usize] = Some(TreeEdge { parent: id, kind, faults, perm });
                self.buckets.entry(cand).or_default().push(nid);
            }
        }
        self.edge_run[id as usize] = (start, self.edge_list.len() as u32);
        self.budget_hit = self.n_expanded >= self.ctx.cfg.budget
            && (!tail.is_empty() || self.buckets.values().any(|b| !b.is_empty()));
        self.budget_hit
    }
}

/// The initial product state: every automaton started, the protocol
/// model at launch.
fn initial(ctx: &Ctx) -> ProdState {
    let insts = (0..ctx.inst_class.len()).map(|i| Inst::new(ctx.start(i))).collect();
    let s = ProdState { insts, msgs: Vec::new(), proto: AbstractWorld::new(ctx.cfg) };
    // Test hook: start from a seeded point of the initial state's machine
    // orbit. Canonicalization must erase the difference.
    match ctx.cfg.permute_seed {
        Some(seed) => canon::seeded_perm(ctx, seed).apply_state(ctx, &s),
        None => s,
    }
}

/// Transitive closure of "exchanges messages with" over the op-programs —
/// the communication skeleton leg of the product.
fn comm_closure(programs: &[Arc<Program>], n_ranks: usize) -> Vec<Vec<u32>> {
    if programs.is_empty() {
        return Vec::new();
    }
    let n = programs.len().min(n_ranks.max(programs.len()));
    let mut adj = vec![HashSet::new(); n];
    for (rank, p) in programs.iter().enumerate() {
        for op in p.described_ops() {
            let peer = match op {
                Op::Send { to, .. } => Some(to.0 as usize),
                Op::Recv { from, .. } => Some(from.0 as usize),
                _ => None,
            };
            if let Some(peer) = peer {
                if peer < n && peer != rank {
                    adj[rank].insert(peer as u32);
                    adj[peer].insert(rank as u32);
                }
            }
        }
    }
    // Floyd-Warshall style closure (n is tiny).
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..n {
            let via: Vec<u32> = adj[a].iter().copied().collect();
            for &b in &via {
                let more: Vec<u32> = adj[b as usize]
                    .iter()
                    .copied()
                    .filter(|&c| c as usize != a && !adj[a].contains(&c))
                    .collect();
                if !more.is_empty() {
                    changed = true;
                    adj[a].extend(more);
                }
            }
        }
    }
    adj.into_iter()
        .map(|s| {
            let mut v: Vec<u32> = s.into_iter().collect();
            v.sort_unstable();
            v
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use failmpi_core::compile;

    use super::super::state::InstState;
    use super::*;

    /// With every state hashing to the same value the index degenerates
    /// to one chain, and interning is exact only because a hash match is
    /// confirmed by comparing the states. Reduced and unreduced, the
    /// result must be the normal run's in every field.
    #[test]
    fn interning_is_exact_when_every_hash_collides() {
        let sc = compile(include_str!("../../../core/scenarios/fig10_state_sync.fail"))
            .expect("builtin compiles");
        for reduce in [false, true] {
            let cfg = ModelCheckConfig { reduce, ..ModelCheckConfig::default() };
            let mut normal = Explorer::new(&sc, &cfg, &[]);
            let mut colliding = Explorer::with_colliding_hash(&sc, &cfg, &[]);
            normal.run();
            colliding.run();
            assert!(normal.index.len() > 100, "distinct hashes in the normal run");
            assert_eq!(colliding.index.len(), 1, "one bucket in the colliding run");
            let (normal, colliding) = (normal.finish(), colliding.finish());
            assert_eq!(colliding.summary, normal.summary, "reduce={reduce}");
            assert_eq!(
                format!("{:?}", colliding.diagnostics),
                format!("{:?}", normal.diagnostics)
            );
        }
    }

    /// Interning shares instances: after a run, any two interned
    /// instances with equal content are one allocation, the run holds
    /// far fewer allocations than one that bypasses the instance table,
    /// and the two agree on every state, the summary and the diagnostics.
    #[test]
    fn interned_instances_with_equal_content_share_one_allocation() {
        let sc = compile(include_str!("../../../core/scenarios/fig10_state_sync.fail"))
            .expect("builtin compiles");
        let allocations = |ex: &Explorer| {
            let insts = ex.states.iter().flat_map(|s| &s.insts);
            insts.map(|i| &**i as *const InstState).collect::<HashSet<_>>().len()
        };
        let values = |ex: &Explorer| {
            let insts = ex.states.iter().flat_map(|s| &s.insts);
            insts.collect::<HashSet<_, BuildHasherDefault<StateHasher>>>().len()
        };
        for reduce in [false, true] {
            let cfg = ModelCheckConfig { reduce, ..ModelCheckConfig::default() };
            let mut shared = Explorer::new(&sc, &cfg, &[]);
            let mut bypassed = Explorer { share_insts: false, ..Explorer::new(&sc, &cfg, &[]) };
            shared.run();
            bypassed.run();
            let n = values(&shared);
            assert_eq!(allocations(&shared), n, "reduce={reduce}: one Arc per value");
            assert_eq!(shared.inst_table.len(), n, "reduce={reduce}");
            assert!(allocations(&bypassed) > 4 * n, "reduce={reduce}");
            assert!(bypassed.inst_table.is_empty());
            assert!(shared.states == bypassed.states, "reduce={reduce}");
            let (shared, bypassed) = (shared.finish(), bypassed.finish());
            assert_eq!(shared.summary, bypassed.summary, "reduce={reduce}");
            assert_eq!(format!("{:?}", shared.diagnostics), format!("{:?}", bypassed.diagnostics));
        }
    }
}
