//! The FAIL-MPI ↔ MPICH-Vcl binding: one simulation world running the
//! cluster under a FAIL scenario, exactly as Fig. 3 of the paper deploys
//! one FAIL-MPI daemon per machine plus a coordinator (`P1`).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;
use std::sync::{Mutex, OnceLock};

use failmpi_analyze::{Diagnostic, ModelCheckConfig, Report, StaticVerdict};
use failmpi_backend::light::LightRuntime;
use failmpi_backend::{BackendConfig, BackendKind, ProtocolBackend, Signal};
use failmpi_core::{compile, Deployment, FailAction, FailInput, FailRuntime, Scenario};
use failmpi_replica::Failover;
use failmpi_ulfm::Shrink;
use failmpi_net::{HostId, ProcId};
use failmpi_obs::{MetricsSnapshot, RunProfile, WallProfile};
use failmpi_sim::{
    CausalLog, Engine, EventDesc, Fingerprint, FingerprintEvent, Label, Model, Scheduler,
    SimDuration, SimRng, SimTime, TieBreak, TraceEntry,
};
use failmpi_mpi::Program;
use failmpi_mpichv::{Cluster, Hook, InstrumentedFn, TrafficStats, VclConfig, VclEvent};
use failmpi_workloads::{bt_programs_noisy, BtClass};

/// What the cluster computes. FAIL-MPI is application-agnostic (its whole
/// point is decoupling the injector from the system under test), and so is
/// this harness: any per-rank op-program set can go under fire.
#[derive(Clone, Debug)]
pub enum Workload {
    /// The paper's NAS BT pattern, with per-run compute noise.
    Bt(BtClass),
    /// Caller-supplied per-rank programs (length must equal `n_ranks`).
    Fixed(Vec<Arc<Program>>),
}

use crate::classify::{classify_entries, Outcome};
use crate::tracesink::TraceExport;

/// How the harness treats static-analysis findings on a spec's scenario
/// (see `failmpi-analyze`): ignore them, print them once per distinct
/// source, or refuse to run scenarios with `Error`-level findings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LintMode {
    /// Skip the pre-run lint entirely.
    Off,
    /// Print findings to stderr (once per distinct scenario source) and
    /// run anyway — the default.
    #[default]
    Warn,
    /// Refuse to run a scenario with `Error`-level findings.
    Strict,
}

impl LintMode {
    /// Parses the `--lint` CLI value.
    pub fn parse(s: &str) -> Option<LintMode> {
        match s {
            "off" => Some(LintMode::Off),
            "warn" => Some(LintMode::Warn),
            "strict" => Some(LintMode::Strict),
            _ => None,
        }
    }
}

/// How a FAIL scenario is attached to the cluster.
#[derive(Clone, Debug)]
pub struct InjectionSpec {
    /// FAIL source text (see `failmpi-core/scenarios/*.fail`).
    pub scenario_src: String,
    /// Daemon class of the central coordinator instance `P1`.
    pub adversary_class: String,
    /// Daemon class controlling each compute machine (`G1` members).
    pub machine_class: String,
    /// Parameter overrides (the paper's `X`, `N`, `T`).
    pub params: Vec<(String, i64)>,
    /// Pre-run static-analysis gating for this scenario.
    pub lint: LintMode,
    /// Whether a statically-predicted freeze is the *point* of this sweep
    /// (Fig. 10/11 reproductions). Under [`LintMode::Strict`] the gate
    /// refuses scenarios the model checker classifies as freezing unless
    /// this is set — a sweep that can only ever time out burns its whole
    /// budget confirming the prediction.
    pub expect_freeze: bool,
    /// Protocol backend the scenario's pre-run model check runs against
    /// (the runtime backend is [`ExperimentSpec::backend`];
    /// [`ExperimentSpec::with_backend`] sets both).
    pub backend: BackendKind,
}

impl InjectionSpec {
    /// Standard transport parameters for a scenario with the given classes,
    /// linted in [`LintMode::Warn`] against the Vcl model, no freeze expected.
    pub fn new(src: &str, adversary: &str, machine: &str) -> Self {
        InjectionSpec {
            scenario_src: src.to_string(),
            adversary_class: adversary.to_string(),
            machine_class: machine.to_string(),
            params: Vec::new(),
            lint: LintMode::Warn,
            expect_freeze: false,
            backend: BackendKind::Vcl,
        }
    }

    /// Adds a parameter override.
    pub fn with_param(mut self, name: &str, value: i64) -> Self {
        self.params.push((name.to_string(), value));
        self
    }

    /// Overrides the lint mode for this spec.
    pub fn with_lint(mut self, lint: LintMode) -> Self {
        self.lint = lint;
        self
    }

    /// Marks the spec as deliberately freeze-hunting (see
    /// [`InjectionSpec::expect_freeze`]).
    pub fn with_expect_freeze(mut self, expect: bool) -> Self {
        self.expect_freeze = expect;
        self
    }
}

/// Lints `inj`'s scenario per its [`LintMode`]. `Err` carries the report
/// when strict mode forbids the run; warn mode prints findings to stderr
/// once per distinct scenario source and lets the run proceed.
pub fn lint_injection(inj: &InjectionSpec) -> Result<(), Report> {
    if inj.lint == LintMode::Off {
        return Ok(());
    }
    match compile(&inj.scenario_src) {
        Ok(sc) => lint_scenario(inj, Some(&sc), failmpi_analyze::analyze_scenario(&sc)),
        Err(e) => lint_scenario(inj, None, vec![failmpi_analyze::compile_error_diag(&e)]),
    }
}

/// [`lint_injection`]'s gate over findings already made: the scenario
/// passes' over `sc`, or the compile error when there is no `sc`.
fn lint_scenario(
    inj: &InjectionSpec,
    sc: Option<&Scenario>,
    mut diags: Vec<Diagnostic>,
) -> Result<(), Report> {
    if inj.lint == LintMode::Off {
        return Ok(());
    }
    // Strict mode additionally model-checks the scenario: a sweep whose
    // every run is statically known to freeze can only burn its timeout
    // budget, so the gate refuses it unless the spec opts in with
    // `expect_freeze` (the Fig. 10/11 reproductions do).
    if let Some(sc) = sc.filter(|_| inj.lint == LintMode::Strict && !inj.expect_freeze) {
        let r = cached_model_check(inj, sc);
        if r.summary.verdict == StaticVerdict::Freezes {
            // FC003 is Error-level: folding it in makes the strict check
            // below refuse the run.
            diags.extend(r.diagnostics);
        }
    }
    if diags.is_empty() {
        return Ok(());
    }
    let report = Report::new("injection scenario", diags);
    if inj.lint == LintMode::Strict && report.has_errors() {
        return Err(report);
    }
    warn_once(&report, &inj.scenario_src);
    Ok(())
}

/// Model-checks a spec's compiled scenario, memoized per (source,
/// params, backend) — sweeps rerun the same spec thousands of times and
/// the exploration, while fast, is not free.
fn cached_model_check(inj: &InjectionSpec, sc: &Scenario) -> failmpi_analyze::ModelCheckResult {
    static CACHE: OnceLock<Mutex<HashMap<u64, failmpi_analyze::ModelCheckResult>>> =
        OnceLock::new();
    let mut h = DefaultHasher::new();
    inj.scenario_src.hash(&mut h);
    inj.params.hash(&mut h);
    inj.backend.name().hash(&mut h);
    let key = h.finish();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let guard = cache.lock().expect("model-check cache lock");
        if let Some(r) = guard.get(&key) {
            return r.clone();
        }
    }
    // Compute outside the lock: explorations can take tens of ms.
    let cfg = ModelCheckConfig {
        params: inj.params.clone(),
        backend: inj.backend,
        ..ModelCheckConfig::default()
    };
    let r = failmpi_analyze::model_check_scenario(sc, &cfg);
    let mut guard = cache.lock().expect("model-check cache lock");
    guard.entry(key).or_insert(r).clone()
}

/// Prints the report to stderr the first time this scenario source shows
/// up in the process (sweeps rerun the same spec thousands of times).
fn warn_once(report: &Report, src: &str) {
    static SEEN: OnceLock<Mutex<HashSet<u64>>> = OnceLock::new();
    let mut h = DefaultHasher::new();
    src.hash(&mut h);
    let key = h.finish();
    let seen = SEEN.get_or_init(|| Mutex::new(HashSet::new()));
    if seen.lock().expect("lint dedup lock").insert(key) {
        eprint!(
            "warning: scenario has static-analysis findings \
             (run `failck` for details, `--lint off` to silence):\n{}",
            report.render_human()
        );
    }
}

/// One experiment: a cluster, a workload, an optional scenario, a seed.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Cluster configuration.
    pub cluster: VclConfig,
    /// The application under test (ranks come from `cluster.n_ranks`).
    pub workload: Workload,
    /// Fault scenario, if any.
    pub injection: Option<InjectionSpec>,
    /// The paper's experiment timeout (1500 s).
    pub timeout: SimTime,
    /// Silence threshold for the frozen-vs-stalled classification
    /// ([`crate::classify::FREEZE_WINDOW`] at paper scale; scale it down
    /// with the timeout for miniatures).
    pub freeze_window: SimDuration,
    /// Experiment seed.
    pub seed: u64,
    /// How the engine orders same-instant events. [`TieBreak::Fifo`] is
    /// the canonical schedule; [`TieBreak::Seeded`] perturbs it for the
    /// schedule-robustness sweeps (see `failmpi-testkit`).
    pub tie_break: TieBreak,
    /// Which protocol backend executes the workload. [`BackendKind::Vcl`]
    /// is the paper's MPICH-V runtime; the others run the same workload,
    /// scenario, timeout and classification against the ULFM
    /// shrink-and-continue or replication-failover runtimes.
    pub backend: BackendKind,
}

impl ExperimentSpec {
    /// A fault-free paper-scale run.
    pub fn fault_free(n_ranks: u32, class: BtClass, seed: u64) -> Self {
        let cluster = VclConfig {
            n_ranks,
            n_compute_hosts: n_ranks as usize + 4,
            ..VclConfig::default()
        };
        ExperimentSpec {
            cluster,
            workload: Workload::Bt(class),
            injection: None,
            timeout: SimTime::from_secs(1500),
            freeze_window: crate::classify::FREEZE_WINDOW,
            seed,
            tie_break: TieBreak::Fifo,
            backend: BackendKind::Vcl,
        }
    }

    /// The same experiment under a perturbed same-instant event order.
    pub fn with_tie_break(mut self, tie_break: TieBreak) -> Self {
        self.tie_break = tie_break;
        self
    }

    /// The same experiment on a different protocol backend (also re-tags
    /// the injection spec so its pre-run model check matches).
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        if let Some(inj) = self.injection.as_mut() {
            inj.backend = backend;
        }
        self
    }
}

/// What happened in one run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Classified outcome.
    pub outcome: Outcome,
    /// Virtual instant the run ended (completion or timeout).
    pub end: SimTime,
    /// Faults actually injected (FAIL `halt` actions applied).
    pub faults_injected: u32,
    /// Recoveries the dispatcher started.
    pub recoveries: usize,
    /// Checkpoint waves committed.
    pub waves_committed: usize,
    /// Highest application iteration reached by any rank.
    pub max_progress: u32,
    /// Bytes sent, by traffic class (protocol-overhead accounting).
    pub traffic: TrafficStats,
    /// Streaming schedule fingerprint of the run (see
    /// [`failmpi_sim::Fingerprint`]); equal-seed equal-tie-break runs must
    /// reproduce it bit-for-bit.
    pub fingerprint: u64,
    /// Events the engine handled (a cheap secondary determinism signal).
    pub events: u64,
    /// Full deterministic metric snapshot of the run: `mpichv.*` lifecycle
    /// counters and virtual-time histograms, `mpi.*` op counts, `net.*`
    /// channel counters, `sim.*` engine counters, `harness.*` injection
    /// counts. Same-seed same-tie-break runs must reproduce it
    /// byte-for-byte (`MetricsSnapshot::to_json`).
    pub metrics: MetricsSnapshot,
}

enum WEv<E> {
    C(E),
    FailTimer { instance: usize, timer: usize, gen: u64 },
    FailMsg { from: usize, to: usize, msg: usize },
}

/// Label codes of the injection side's own events, above every backend's.
const FAIL_TIMER_LABEL: u16 = 0xFA00;
const FAIL_MSG_LABEL: u16 = 0xFA01;

/// Narrows a FAIL runtime index for a [`Label`]. Checked: instances
/// number at most 65 537 (one per `HostId(u16)` plus `P1`), and timer and
/// message ids index the compiled scenario, so an index that does not fit
/// is a corrupted one.
fn narrow_index(index: usize) -> u32 {
    u32::try_from(index)
        .unwrap_or_else(|_| panic!("FAIL index {index} does not fit a 32-bit label argument"))
}

/// Host-readable application state exposed as FAIL `probe` variables — the
/// paper's Sec. 6 planned feature ("the FAIL language and FAIL-MPI tool
/// should be able to read … internal variables of the stressed
/// application"). Scenarios declare `probe <name>;` and react with
/// `onchange(<name>)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ProbeKind {
    /// `probe committed_wave;` — the last globally committed wave.
    CommittedWave,
    /// `probe epoch;` — the current execution epoch (recoveries so far).
    Epoch,
}

impl ProbeKind {
    /// Every probe the harness feeds, by its scenario name.
    const NAMED: [(&'static str, ProbeKind); 2] = [
        ("committed_wave", ProbeKind::CommittedWave),
        ("epoch", ProbeKind::Epoch),
    ];
}

/// Base latency of FAIL messages between daemons.
const FAIL_LATENCY: SimDuration = SimDuration::from_millis(4);
/// Upper bound of the uniform extra latency per FAIL message. This jitter
/// decides the fault-vs-registration race behind the partial bugginess of
/// Fig. 9.
const FAIL_JITTER_MAX: SimDuration = SimDuration::from_millis(7);

struct FailSide {
    rt: FailRuntime,
    rng: SimRng,
    host_instance: BTreeMap<HostId, usize>,
    halts: u32,
    /// `(instance, var slot, kind, last pushed value)` per declared probe.
    probes: Vec<(usize, usize, ProbeKind, i64)>,
}

/// One simulation world: any [`ProtocolBackend`] under an optional FAIL
/// deployment. The harness's binding logic — action application, hook and
/// probe pumping, fingerprinting, and the driver below — is
/// backend-generic; only construction is concrete.
struct World<C: ProtocolBackend> {
    cluster: C,
    fail: Option<FailSide>,
    /// The FAIL-MPI injection side's display track: the lane after every
    /// cluster lane (only the causal log reads it).
    fail_track: u32,
}

impl<C: ProtocolBackend> World<C> {
    fn apply(
        &mut self,
        now: SimTime,
        actions: Vec<FailAction>,
        sched: &mut Scheduler<WEv<C::Event>>,
    ) {
        let Some(fail) = self.fail.as_mut() else {
            return;
        };
        for a in actions {
            match a {
                FailAction::SendMsg { from, to, msg } => {
                    let jitter =
                        SimDuration::from_micros(fail.rng.below(FAIL_JITTER_MAX.as_micros()));
                    sched.at(now + FAIL_LATENCY + jitter, WEv::FailMsg { from, to, msg });
                }
                FailAction::ArmTimer {
                    instance,
                    timer,
                    gen,
                    delay,
                } => {
                    sched.at(now + delay, WEv::FailTimer { instance, timer, gen });
                }
                FailAction::Halt { proc }
                | FailAction::Stop { proc }
                | FailAction::Continue { proc }
                | FailAction::ReleaseBreakpoint { proc } => {
                    let signal = match a {
                        FailAction::Halt { .. } => Signal::Halt,
                        FailAction::Stop { .. } => Signal::Stop,
                        _ => Signal::Continue,
                    };
                    fail.halts += u32::from(signal == Signal::Halt);
                    self.cluster.fail(now, ProcId(proc as u32), signal);
                }
                FailAction::ArmBreakpoint { proc, func } => {
                    // `build_fail_side` refused every name the table lacks.
                    if let Some(f) = InstrumentedFn::from_name(&func) {
                        self.cluster.arm_breakpoint(ProcId(proc as u32), f);
                    }
                }
                FailAction::DisarmBreakpoints { proc } => {
                    self.cluster.clear_breakpoints(ProcId(proc as u32));
                }
            }
        }
    }

    /// Pushes application-state probes into the FAIL runtime when the
    /// observed values changed.
    fn pump_probes(&mut self, now: SimTime, sched: &mut Scheduler<WEv<C::Event>>) {
        let Some(fail) = self.fail.as_mut() else {
            return;
        };
        if fail.probes.is_empty() {
            return;
        }
        let committed = self.cluster.committed_wave().map_or(0, |w| w as i64);
        let epoch = self.cluster.epoch() as i64;
        let mut fired = Vec::new();
        for (instance, slot, kind, last) in fail.probes.iter_mut() {
            let value = match kind {
                ProbeKind::CommittedWave => committed,
                ProbeKind::Epoch => epoch,
            };
            if value != *last {
                *last = value;
                fired.push(FailInput::Probe {
                    instance: *instance,
                    probe: *slot,
                    value,
                });
            }
        }
        for input in fired {
            let fail = self.fail.as_mut().expect("checked");
            let acts = fail.rt.feed(input, &mut fail.rng);
            self.apply(now, acts, sched);
        }
    }

    /// Converts cluster hooks into FAIL inputs until quiescent.
    fn pump_hooks(&mut self, now: SimTime, sched: &mut Scheduler<WEv<C::Event>>) {
        loop {
            let hooks = self.cluster.take_hooks();
            if hooks.is_empty() {
                return;
            }
            for h in hooks {
                let Some(fail) = self.fail.as_mut() else {
                    continue;
                };
                let (Hook::OnLoad { host, proc }
                | Hook::OnExit { host, proc }
                | Hook::OnError { host, proc }
                | Hook::Breakpoint { host, proc, .. }) = h;
                let Some(&instance) = fail.host_instance.get(&host) else {
                    continue;
                };
                let proc = proc.0 as u64;
                let input = match h {
                    Hook::OnLoad { .. } => FailInput::OnLoad { instance, proc },
                    Hook::OnExit { .. } => FailInput::OnExit { instance, proc },
                    Hook::OnError { .. } => FailInput::OnError { instance, proc },
                    Hook::Breakpoint { func, .. } => FailInput::Breakpoint {
                        instance,
                        proc,
                        func: func.name().to_string(),
                    },
                };
                let acts = fail.rt.feed(input, &mut fail.rng);
                self.apply(now, acts, sched);
            }
        }
    }
}

impl<C: ProtocolBackend> Model for World<C> {
    type Event = WEv<C::Event>;

    fn handle(
        &mut self,
        now: SimTime,
        ev: WEv<C::Event>,
        sched: &mut Scheduler<WEv<C::Event>>,
    ) {
        self.cluster.set_event_cause(sched.current_event());
        match ev {
            WEv::C(e) => self.cluster.dispatch(now, e),
            WEv::FailTimer {
                instance,
                timer,
                gen,
            } => {
                if let Some(fail) = self.fail.as_mut() {
                    let acts = fail.rt.feed(
                        FailInput::Timer {
                            instance,
                            timer,
                            gen,
                        },
                        &mut fail.rng,
                    );
                    self.apply(now, acts, sched);
                }
            }
            WEv::FailMsg { from, to, msg } => {
                if let Some(fail) = self.fail.as_mut() {
                    let acts = fail.rt.feed(FailInput::Msg { from, to, msg }, &mut fail.rng);
                    self.apply(now, acts, sched);
                }
            }
        }
        self.pump_hooks(now, sched);
        self.pump_probes(now, sched);
        for (t, e) in self.cluster.drain_outputs() {
            sched.at(t, WEv::C(e));
        }
    }

    fn finished(&self) -> bool {
        self.cluster.is_complete()
    }

    fn fingerprint_event(&self, event: &WEv<C::Event>, fp: &mut Fingerprint) {
        match event {
            WEv::C(e) => {
                fp.write_u8(1);
                e.fold(fp);
            }
            WEv::FailTimer {
                instance,
                timer,
                gen,
            } => {
                fp.write_u8(2);
                fp.write_u64(*instance as u64);
                fp.write_u64(*timer as u64);
                fp.write_u64(*gen);
            }
            WEv::FailMsg { from, to, msg } => {
                fp.write_u8(3);
                fp.write_u64(*from as u64);
                fp.write_u64(*to as u64);
                fp.write_u64(*msg as u64);
            }
        }
    }

    fn describe(&self, event: &WEv<C::Event>) -> EventDesc {
        let (kind, code, args) = match *event {
            WEv::C(ref e) => return self.cluster.describe(e),
            WEv::FailTimer { instance, timer, .. } => (
                "fail_timer",
                FAIL_TIMER_LABEL,
                [narrow_index(instance), narrow_index(timer), 0],
            ),
            WEv::FailMsg { from, to, msg } => (
                "fail_msg",
                FAIL_MSG_LABEL,
                [narrow_index(from), narrow_index(to), narrow_index(msg)],
            ),
        };
        EventDesc {
            kind,
            label: Label::new(code, args),
            track: self.fail_track,
        }
    }

    fn render_label(label: Label) -> String {
        let [a, b, c] = label.args;
        match label.code {
            FAIL_TIMER_LABEL => format!("fail-timer i{a} t{b}"),
            FAIL_MSG_LABEL => format!("fail-msg {a}->{b} m{c}"),
            _ => C::render_label(label),
        }
    }
}

/// Relative compute noise baked into every experiment workload (models OS
/// and cache jitter of real compute phases; see `bt_programs_noisy`).
pub const COMPUTE_NOISE: f64 = 0.03;

/// Builds per-rank programs for the spec's workload (seeded compute noise
/// for BT; fixed programs verbatim).
pub fn programs_for(spec: &ExperimentSpec) -> Vec<Arc<Program>> {
    match &spec.workload {
        Workload::Bt(class) => {
            bt_programs_noisy(class, spec.cluster.n_ranks, spec.seed, COMPUTE_NOISE)
        }
        Workload::Fixed(programs) => programs.clone(),
    }
}

/// Refuses (`FB000`) a spec whose cluster configuration is inconsistent or
/// whose workload does not fit it — a BT rank count that forms no square
/// grid, a fixed program set of another length than the rank count — so
/// that no backend constructor downstream meets one and unwinds.
fn check_deploys(spec: &ExperimentSpec) -> Result<(), Report> {
    let c = &spec.cluster;
    let fit = c.validate().and_then(|()| match &spec.workload {
        Workload::Bt(_) => failmpi_workloads::bt::grid_side(c.n_ranks).map(drop),
        Workload::Fixed(programs) if programs.len() != c.n_ranks as usize => Err(format!(
            "{} fixed programs for {} ranks",
            programs.len(),
            c.n_ranks
        )),
        Workload::Fixed(_) => Ok(()),
    });
    fit.map_err(|why| {
        Report::new("experiment spec", vec![failmpi_analyze::workload_error_diag(&why)])
    })
}

/// Which of the engine's optional instruments one [`run`] pays for; all
/// off is the plain run every sweep uses.
#[derive(Clone, Copy, Debug, Default)]
pub struct Observe {
    /// Per-event-kind handler wall times. Wall-clock data: never mixed
    /// into the deterministic [`RunRecord::metrics`] snapshot.
    pub wall_profile: bool,
    /// The happens-before DAG: every engine event records the event that
    /// scheduled it and its fingerprint digest, and every [`VclEvent`] the
    /// engine event it was emitted under — the input to `failmpi-trace`,
    /// and what the determinism harness diffs after a mismatch.
    pub causal: bool,
    /// The deterministic [`RunProfile`] of a `failmpi_obs::prof` context
    /// around the run (what `--profile` merges).
    pub run_profile: bool,
}

/// Everything one [`run`] leaves behind, on any backend.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// The classified run.
    pub record: RunRecord,
    /// The lifecycle trace in the shared [`VclEvent`] vocabulary — the
    /// classifier's input.
    pub trace: Vec<TraceEntry<VclEvent>>,
    /// Empty unless [`Observe::wall_profile`].
    pub wall_profile: WallProfile,
    /// Disabled unless [`Observe::causal`]; `trace` entries are anchored
    /// into it by their `cause`.
    pub causal: CausalLog,
    /// Names for the causal nodes' track indices: the backend's lanes plus
    /// the FAIL-MPI injection lane. Empty unless [`Observe::causal`].
    pub track_names: Vec<String>,
    /// `Some` under [`Observe::run_profile`].
    pub run_profile: Option<RunProfile>,
}

/// Runs one experiment to completion or timeout on the backend the spec
/// names and classifies it — the only driver; everything else in this
/// crate is a caller.
///
/// `Err` carries the diagnostics when the spec cannot run: its workload
/// does not fit its cluster ([`check_deploys`]), or its scenario fails its
/// [`LintMode::Strict`] gate, does not compile, or does not deploy on the
/// spec's adversary/machine classes and parameters.
pub fn run(spec: &ExperimentSpec, observe: Observe) -> Result<RunArtifacts, Report> {
    check_deploys(spec)?;
    match spec.backend {
        BackendKind::Vcl => {
            let cluster = Cluster::new(spec.cluster.clone(), programs_for(spec), spec.seed);
            drive(spec, observe, cluster)
        }
        BackendKind::Ulfm => {
            let (cfg, ops) = backend_runtime_inputs(spec);
            drive(spec, observe, LightRuntime::<Shrink>::new(cfg, ops, spec.seed))
        }
        BackendKind::Replica => {
            let (cfg, ops) = backend_runtime_inputs(spec);
            drive(spec, observe, LightRuntime::<Failover>::new(cfg, ops, spec.seed))
        }
    }
}

// The four `run_one*` names below are the ones the frozen `benchmark/`
// package imports: each is `run` with at most one instrument on, projected
// onto what that caller reads, panicking where `run` returns `Err`. Tests
// and examples that want that panic use them too; nothing on a binary's
// path does — a refused spec is a diagnostic and exit 2 there.

pub(crate) fn refuse(report: Report) -> ! {
    panic!(
        "refusing to run: scenario fails the strict lint gate \
         (see failmpi-analyze):\n{}",
        report.render_human()
    );
}

/// [`run`] with no instrument on, keeping only the record.
#[doc(hidden)]
pub fn run_one(spec: &ExperimentSpec) -> RunRecord {
    run_one_with_trace(spec).0
}

/// [`run_one`], additionally returning the run's lifecycle trace.
#[doc(hidden)]
pub fn run_one_with_trace(spec: &ExperimentSpec) -> (RunRecord, Vec<TraceEntry<VclEvent>>) {
    let out = run(spec, Observe::default()).unwrap_or_else(|r| refuse(r));
    (out.record, out.trace)
}

/// [`run_one`] with [`Observe::wall_profile`] on.
#[doc(hidden)]
pub fn run_one_profiled(spec: &ExperimentSpec) -> (RunRecord, WallProfile) {
    let observe = Observe {
        wall_profile: true,
        ..Observe::default()
    };
    let out = run(spec, observe).unwrap_or_else(|r| refuse(r));
    (out.record, out.wall_profile)
}

/// [`run`] with [`Observe::causal`] on.
#[doc(hidden)]
pub fn run_one_traced(spec: &ExperimentSpec) -> RunArtifacts {
    let observe = Observe {
        causal: true,
        ..Observe::default()
    };
    run(spec, observe).unwrap_or_else(|r| refuse(r))
}

/// Derives the light backends' runtime inputs from a spec. The
/// [`BackendConfig`] timing surface maps the Vcl deployment constants
/// (ssh spawn/stagger, init handshake, closure detection); each rank's op
/// count is its program's progress-marker count — the same iterations the
/// Vcl interpreter reports as `AppProgress` — and the per-op duration is
/// the fleet-wide mean compute time between markers, so faults and probes
/// land mid-run at the same virtual scale as under Vcl. Communication
/// time is not replayed op-by-op (see DESIGN.md, "Protocol backends").
fn backend_runtime_inputs(spec: &ExperimentSpec) -> (BackendConfig, Vec<u32>) {
    let programs = programs_for(spec);
    let ops: Vec<u32> = programs
        .iter()
        .map(|p| p.progress_marks().max(1) as u32)
        .collect();
    let total_ops: u64 = ops.iter().map(|&o| u64::from(o)).sum();
    let compute_micros: u64 = programs.iter().map(|p| p.compute_micros()).sum();
    let op_delay = if compute_micros == 0 {
        SimDuration::from_millis(500)
    } else {
        SimDuration::from_micros((compute_micros / total_ops.max(1)).max(1_000))
    };
    let c = &spec.cluster;
    let cfg = BackendConfig {
        n_ranks: c.n_ranks,
        n_compute_hosts: c.n_compute_hosts,
        boot_delay: c.ssh_spawn_delay,
        boot_stagger: c.ssh_stagger,
        init_delay: c.init_delay_max,
        detect_delay: c.terminate_delay,
        round_delay: c.terminate_delay,
        op_delay,
    };
    (cfg, ops)
}

/// Builds the FAIL deployment of Fig. 3 — the coordinator `P1` plus one
/// controller per compute machine (`G1`) — against any backend's host
/// roster, and wires up every declared probe the harness knows how to
/// feed. `Err` when the scenario does not compile, names a breakpoint
/// (`before(name)`) that is no [`InstrumentedFn`], fails its lint gate or
/// does not deploy.
fn build_fail_side(
    inj: &InjectionSpec,
    seed: u64,
    compute_hosts: &[HostId],
) -> Result<FailSide, Report> {
    let refused = |d| Report::new("injection scenario", vec![d]);
    let scenario = compile(&inj.scenario_src)
        .map_err(|e| refused(failmpi_analyze::compile_error_diag(&e)))?;
    // FA012 refuses the run in every lint mode; the other passes run
    // only when the lint does.
    let diags = if inj.lint == LintMode::Off {
        failmpi_analyze::check_breakpoints(&scenario)
    } else {
        failmpi_analyze::analyze_scenario(&scenario)
    };
    let (unknown, diags): (Vec<_>, Vec<_>) = diags.into_iter().partition(|d| d.code == "FA012");
    if !unknown.is_empty() {
        return Err(Report::new("injection scenario", unknown));
    }
    lint_scenario(inj, Some(&scenario), diags)?;
    let mut deployment = Deployment::new();
    deployment
        .add_instance("P1", &inj.adversary_class)
        .expect("fresh deployment");
    let mut members = Vec::new();
    let mut host_instance = BTreeMap::new();
    for (i, host) in compute_hosts.iter().enumerate() {
        let idx = deployment
            .add_instance(&format!("G1[{i}]"), &inj.machine_class)
            .expect("fresh deployment");
        members.push(idx);
        host_instance.insert(*host, idx);
    }
    deployment.add_group("G1", members).expect("fresh group");
    let params: Vec<(&str, i64)> =
        inj.params.iter().map(|(n, v)| (n.as_str(), *v)).collect();
    let rt = FailRuntime::new(&scenario, deployment, &params)
        .map_err(|e| refused(failmpi_analyze::deploy_error_diag(&e)))?;
    let mut probes = Vec::new();
    for instance in 0..rt.len() {
        for (name, kind) in ProbeKind::NAMED {
            if let Some(slot) = rt.probe_slot(instance, name) {
                probes.push((instance, slot, kind, 0i64));
            }
        }
    }
    Ok(FailSide {
        rt,
        rng: SimRng::new(seed).derive(0xFA11),
        host_instance,
        halts: 0,
        probes,
    })
}

/// Drives a constructed backend under the spec's scenario, tie-break,
/// timeout and classification, with the instruments `observe` and the
/// telemetry sink ask for.
fn drive<C: ProtocolBackend>(
    spec: &ExperimentSpec,
    observe: Observe,
    cluster: C,
) -> Result<RunArtifacts, Report> {
    let fail = match &spec.injection {
        Some(inj) => Some(build_fail_side(inj, spec.seed, cluster.compute_hosts())?),
        None => None,
    };
    // A `--trace-out` sink claims exactly one run per invocation; the
    // claimed run pays for causal tracing, every other run keeps the
    // zero-overhead disabled path (see `crate::telemetry`).
    let owed = crate::telemetry::SINK.owed();
    let causal = observe.causal || owed.trace;
    let run_profile = observe.run_profile || owed.profile;

    // The FAIL-MPI injection side gets its own lane after every cluster
    // lane.
    let mut track_names = Vec::new();
    if causal {
        track_names = cluster.track_names();
        track_names.push("fail-mpi".to_string());
    }
    let fail_track = track_names.len().saturating_sub(1) as u32;
    let world = World {
        cluster,
        fail,
        fail_track,
    };
    let mut engine = Engine::with_tie_break(world, spec.tie_break);
    if observe.wall_profile {
        engine.enable_profiling();
    }
    if causal {
        engine.enable_causal_trace();
    }
    // Deep profiling covers the whole schedule, including the boot
    // events pushed below, so the context opens before the first push.
    if run_profile {
        failmpi_obs::prof::start_run(spec.backend.name());
    }
    // Initial cluster events.
    let boot: Vec<_> = engine.model_mut().cluster.drain_outputs().collect();
    for (t, e) in boot {
        engine.schedule(t, WEv::C(e));
    }
    // Initial FAIL actions (timer arming at t = 0).
    if engine.model().fail.is_some() {
        let start_actions = {
            let fail = engine.model_mut().fail.as_mut().expect("checked");
            fail.rt.start(&mut fail.rng)
        };
        for a in start_actions {
            match a {
                FailAction::ArmTimer {
                    instance,
                    timer,
                    gen,
                    delay,
                } => engine.schedule(
                    SimTime::ZERO + delay,
                    WEv::FailTimer {
                        instance,
                        timer,
                        gen,
                    },
                ),
                FailAction::SendMsg { from, to, msg } => {
                    engine.schedule(SimTime::ZERO, WEv::FailMsg { from, to, msg })
                }
                other => panic!("unexpected start action {other:?}"),
            }
        }
    }

    let engine_outcome = engine.run(spec.timeout);
    let run_profile = run_profile
        .then(failmpi_obs::prof::finish_run)
        .flatten();
    let end = engine.now();
    let fingerprint = engine.fingerprint();
    let events = engine.events_handled();
    let queue_hwm = engine.queue_depth_hwm();
    let wall_profile = engine.profile().clone();
    let causal_log = engine.take_causal_log();
    let World {
        mut cluster, fail, ..
    } = engine.into_model();
    let trace = cluster.take_trace();
    let outcome = classify_entries(
        &trace,
        cluster.is_complete(),
        engine_outcome,
        end,
        spec.timeout,
        spec.freeze_window,
    );
    let faults_injected = fail.as_ref().map_or(0, |f| f.halts);

    let mut metrics = MetricsSnapshot::new();
    metrics.set_backend(spec.backend.name());
    cluster.chassis().contribute(&mut metrics);
    cluster.contribute_metrics(&mut metrics);
    metrics.set_counter("sim.events_handled", events);
    metrics.set_counter("sim.queue_depth_hwm", queue_hwm as u64);
    metrics.set_counter("sim.end_micros", end.as_micros());
    metrics.set_counter("harness.faults_injected", u64::from(faults_injected));

    let artifacts = RunArtifacts {
        record: RunRecord {
            outcome,
            end,
            faults_injected,
            recoveries: cluster.recoveries_started() as usize,
            waves_committed: cluster.waves_committed() as usize,
            max_progress: cluster.max_progress(),
            traffic: cluster.traffic(),
            fingerprint,
            events,
            metrics,
        },
        trace,
        wall_profile,
        causal: causal_log,
        track_names,
        run_profile,
    };
    let trace_export = owed.trace.then(|| {
        TraceExport::of(&format!("seed-{}", spec.seed), spec.seed, &artifacts)
    });
    crate::telemetry::SINK.submit(
        owed,
        &artifacts.record.metrics,
        artifacts.run_profile.as_ref(),
        trace_export,
    );
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use failmpi_backend::light::LightEv;
    use failmpi_backend::BackendConfig;
    use failmpi_mpi::Rank;
    use failmpi_mpichv::{Ev, Wire};
    use failmpi_net::{CloseReason, ConnId, NetEvent, Port};
    use failmpi_replica::PromoteDone;
    use failmpi_ulfm::ShrinkDone;

    /// `ev` is described by a label that renders as `text` (each event's
    /// text as recorded before labels packed).
    fn assert_label<C: ProtocolBackend>(world: &World<C>, ev: WEv<C::Event>, text: &str) {
        assert_eq!(World::<C>::render_label(world.describe(&ev).label), text);
    }

    #[test]
    fn every_event_renders_the_text_it_was_always_described_by() {
        let (conn, proc, peer) = (ConnId(9), ProcId(7), ProcId(3));
        let (rank, host) = (Rank(5), HostId(12));
        let net = [
            (
                NetEvent::ConnEstablished { conn, proc, peer, token: 1 },
                "net.established pid7<-pid3",
            ),
            (
                NetEvent::Accepted { conn, proc, peer, port: Port(101) },
                "net.accepted pid7<-pid3",
            ),
            (
                NetEvent::ConnectFailed { proc, host, port: Port(101), token: 1 },
                "net.connect-failed pid7->host12",
            ),
            (
                NetEvent::Delivered {
                    conn,
                    proc,
                    from: peer,
                    payload: Wire::Terminate,
                    bytes: 64,
                },
                "net.delivered pid3->pid7",
            ),
            (
                NetEvent::Closed { conn, proc, reason: CloseReason::Graceful },
                "net.closed pid7 (Graceful)",
            ),
            (
                NetEvent::Closed { conn, proc, reason: CloseReason::PeerDied },
                "net.closed pid7 (PeerDied)",
            ),
            (
                NetEvent::Closed { conn, proc, reason: CloseReason::LocalReset },
                "net.closed pid7 (LocalReset)",
            ),
        ];
        let vcl = [
            (Ev::ComputeDone { rank, proc, gen: 1 << 40 }, "compute-done r5"),
            (Ev::SchedTick, "sched-tick"),
            (Ev::SpawnDaemon { rank, host, epoch: 2 }, "spawn-daemon r5"),
            (
                Ev::ServerWriteDone { server: 1, conn, rank, wave: 4 },
                "server-write-done r5 w4",
            ),
            (Ev::RestoreDone { rank, proc }, "restore-done r5"),
            (Ev::DiskLoaded { rank, proc }, "disk-loaded r5"),
            (Ev::LaunchFailed { rank, epoch: 2 }, "launch-failed r5"),
            (Ev::SelfCkpt { rank, proc }, "self-ckpt r5"),
            (Ev::BootConnect { rank, proc }, "boot-connect r5"),
            (Ev::DaemonExit { rank, proc, normal: true }, "daemon-exit r5 normal=true"),
            (Ev::DaemonExit { rank, proc, normal: false }, "daemon-exit r5 normal=false"),
            (
                Ev::RetryPeerConnect { rank, proc, peer: Rank(u32::MAX) },
                "retry-peer r5->r4294967295",
            ),
        ];
        let spec = ExperimentSpec::fault_free(4, BtClass::S, 1);
        let world = World {
            cluster: Cluster::new(spec.cluster.clone(), programs_for(&spec), spec.seed),
            fail: None,
            fail_track: 0,
        };
        for (ev, text) in net {
            assert_label(&world, WEv::C(Ev::Net(ev)), text);
        }
        for (ev, text) in vcl {
            assert_label(&world, WEv::C(ev), text);
        }

        fn light<D>(done: D, noun: &str, done_text: &str) -> [(LightEv<D>, String); 5] {
            [
                (LightEv::Boot { unit: 2 }, format!("boot {noun} 2")),
                (LightEv::Init { unit: 3 }, format!("init {noun} 3")),
                (LightEv::OpDone { rank: 1, gen: 6 }, "op done rank 1 (gen 6)".to_string()),
                (LightEv::Detect { unit: 0 }, format!("detect failure of {noun} 0")),
                (LightEv::RecoveryDone(done), done_text.to_string()),
            ]
        }
        let cfg = BackendConfig::small(4, 6);
        let ulfm = World {
            cluster: LightRuntime::<Shrink>::new(cfg.clone(), vec![1; 4], 1),
            fail: None,
            fail_track: 0,
        };
        for (ev, text) in light(ShrinkDone { round: 8 }, "rank", "shrink round 8 agreed") {
            assert_label(&ulfm, WEv::C(ev), &text);
        }
        let replica = World {
            cluster: LightRuntime::<Failover>::new(cfg, vec![1; 4], 1),
            fail: None,
            fail_track: 0,
        };
        let promoted = PromoteDone { rank: 2, gen: 3 };
        for (ev, text) in light(promoted, "unit", "promotion of rank 2 complete (gen 3)") {
            assert_label(&replica, WEv::C(ev), &text);
        }

        // The injection side's own events, on any backend.
        let timer = |instance| WEv::FailTimer { instance, timer: 2, gen: 1 << 40 };
        assert_label(&world, timer(31), "fail-timer i31 t2");
        assert_label(&ulfm, WEv::FailMsg { from: 0, to: 17, msg: 4 }, "fail-msg 0->17 m4");
    }

    #[test]
    fn fail_indices_narrow_checked() {
        assert_eq!(narrow_index(u32::MAX as usize), u32::MAX);
        let caught = std::panic::catch_unwind(|| narrow_index((1usize << 32) + 5));
        assert!(caught.is_err(), "an index past 32 bits narrowed");
    }
}
