//! Lane scheduling: the verification backends, the two schedulers that
//! run them, and the lemma/clause exchange bus they share.
//!
//! The paper's JasperGold workflow (§6) runs an attack-finding engine and
//! several proof engines against the same instrumented design under one
//! wall-clock budget. [`crate::check_safety`] builds one ordered lane
//! list — extra lanes (fuzzing), BMC, Houdini, k-induction, PDR — and
//! hands it to one of two schedulers over the same [`Backend`]s:
//!
//! * [`serial`] runs the lanes one at a time, in order, and stops at the
//!   first decisive outcome or at a timeout of the shared clock. A lane
//!   that strengthens the instance (Houdini) hands the strengthened
//!   system to the lanes after it.
//! * [`race`] runs every lane on its own `std::thread` worker — first
//!   decisive verdict wins — with cooperative cancellation: the shared
//!   [`AtomicBool`] stop flag is threaded through [`csl_sat::Budget`], so
//!   the losers' in-flight SAT queries abort at their next conflict
//!   boundary instead of running to their own timeouts.
//!
//! **Backend API v2:** a lane is a [`Backend`], whose `run` receives a
//! [`SharedContext`] handle on the [`crate::exchange`] bus in addition to
//! the transition system and budget. With the bus enabled
//! ([`ExchangeConfig::enabled`]), the BMC lane publishes learnt clauses at
//! conflict boundaries, the Houdini lane streams survivor lemmas the
//! moment its consecution fixpoint lands, and k-induction/PDR poll the
//! bus between SAT queries to strengthen their *running* solvers in
//! place. With the bus disabled (and always under [`serial`]) every
//! context is inert and the race is the isolated-lane portfolio of v1.
//!
//! Both schedulers return [`LaneResult`]s, merged under one precedence:
//! an attack counterexample beats a proof, a proof beats a timeout. Houdini
//! survivors strengthen k-induction/PDR either way — serially through the
//! hand-off, and in a race through the Houdini lane's own [`serial`]
//! re-run of those engines on the strengthened system (insurance for
//! racing proof lanes that ended before the lemmas reached the bus).
//!
//! Proof outcomes carry optional [`Certificate`] material (the engine's
//! inductive invariant / closing `k`, plus the Houdini survivors the
//! system assumed) so the report layer can attach a checkable artifact; a
//! lane that leaned on imported bus facts ships its proof without one,
//! since those facts are not self-contained.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use csl_hdl::Aig;
use csl_sat::Budget;

use crate::bmc::{BmcResult, BmcSession};
use crate::cert::{CertKind, Certificate};
use crate::engine::{CoverageStats, FuzzStats, InconclusiveReason, ProofEngine};
use crate::exchange::{Exchange, ExchangeConfig, ExchangeStats, SharedContext};
use crate::houdini::{houdini_with, Candidate, HoudiniResult};
use crate::kind::{KindResult, KindSession};
use crate::lane::Lane;
use crate::pdr::{pdr_with_stats, PdrOptions, PdrResult};
use crate::sim::Sim;
use crate::trace::Trace;
use crate::ts::TransitionSystem;
use crate::warm::{LaneSolverStats, WarmPool};

/// What a single backend produced. [`EngineOutcome::Attack`] and
/// [`EngineOutcome::Proof`] are decisive: the first of either ends the
/// race and cancels the other lanes.
#[derive(Debug)]
pub enum EngineOutcome {
    /// A replay-validated counterexample.
    Attack(Box<Trace>),
    /// An unbounded proof, with its checkable certificate material when
    /// the proof is self-contained (no exchange-bus imports).
    Proof(ProofEngine, Option<Box<Certificate>>),
    /// Finished inside the budget without a verdict (bounded-clean BMC,
    /// induction that never closed, PDR frame cap, …).
    Inconclusive(InconclusiveReason),
    /// Budget exhausted or canceled by a winning sibling.
    Timeout,
}

impl EngineOutcome {
    pub fn is_decisive(&self) -> bool {
        matches!(self, EngineOutcome::Attack(_) | EngineOutcome::Proof(..))
    }
}

/// One lane, v2: a named engine that checks a transition system under a
/// (cancellable) budget, publishing to and importing from the exchange
/// bus through `ctx`. Implementations must validate their own
/// counterexamples (replay on the concrete simulator, against
/// [`TransitionSystem::plain`]) before reporting
/// [`EngineOutcome::Attack`], and must only publish facts implied by the
/// shared instance (see [`crate::exchange`] for the soundness rules the
/// built-in backends follow).
///
/// The accessors below are read *after* `run` returns (implementations
/// record their values internally); both schedulers copy them into the
/// lane's [`LaneResult`].
pub trait Backend: Send {
    fn name(&self) -> &'static str;
    /// The budget/exchange lane this backend occupies.
    fn lane(&self) -> Lane;
    /// The system arrives behind an [`Arc`] so a backend can park its
    /// solver session (which owns a clone of the `Arc`) in the
    /// [`WarmPool`] when its run ends undecided.
    fn run(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> EngineOutcome;

    /// Campaign statistics, for fuzzing lanes (they reach
    /// [`crate::CheckReport::fuzz`]).
    fn fuzz_stats(&self) -> Option<FuzzStats> {
        None
    }

    /// Solver activity of the last `run`, one entry per engine lane it
    /// drove (the PDR lane's counterexample rebuild is BMC work). They
    /// reach [`crate::CheckReport::solver`].
    fn solver_stats(&self) -> Vec<LaneSolverStats> {
        Vec::new()
    }

    /// Coverage accounting, for coverage-guided fuzzing lanes (it
    /// reaches [`crate::CheckReport::coverage`]).
    fn coverage_stats(&self) -> Option<CoverageStats> {
        None
    }

    /// Lines the last `run` adds to [`crate::CheckReport::notes`].
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// The strengthened system the last `run` left behind (Houdini's
    /// survivors as assumes). [`serial`] runs the remaining lanes on it;
    /// [`race`] ignores it.
    fn strengthened(&self) -> Option<Arc<TransitionSystem>> {
        None
    }
}

/// A cloneable constructor for caller-supplied lanes, registered through
/// [`crate::CheckOptions::extra_lanes`]. `CheckOptions` must stay
/// `Clone`, and a `Box<dyn Backend>` is not — so options carry factories
/// and each check builds a fresh backend. The label identifies the lane
/// configuration in session cache keys, so it must change whenever the
/// produced backend's behaviour does.
#[derive(Clone)]
pub struct LaneFactory {
    label: String,
    make: Arc<dyn Fn() -> Box<dyn Backend> + Send + Sync>,
}

impl LaneFactory {
    pub fn new(
        label: impl Into<String>,
        make: impl Fn() -> Box<dyn Backend> + Send + Sync + 'static,
    ) -> LaneFactory {
        LaneFactory {
            label: label.into(),
            make: Arc::new(make),
        }
    }

    /// Stable description of the lane configuration (cache-key input).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Builds a fresh backend instance.
    pub fn build(&self) -> Box<dyn Backend> {
        (self.make)()
    }
}

impl std::fmt::Debug for LaneFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LaneFactory({})", self.label)
    }
}

/// Checks out a warm session with `checkout`, or builds one with
/// `build`; returns the session plus its `(warm_hits, warm_misses)`
/// accounting. `enabled = false` builds cold and counts nothing.
fn warm_or_build<S>(
    enabled: bool,
    checkout: impl FnOnce() -> Option<S>,
    build: impl FnOnce() -> S,
) -> (S, u64, u64) {
    if !enabled {
        return (build(), 0, 0);
    }
    match checkout() {
        Some(s) => (s, 1, 0),
        None => (build(), 0, 1),
    }
}

/// Drives `drive` on a BMC session for `ts` — checked out of the global
/// [`WarmPool`] when `warm`, built cold otherwise — and parks the session
/// again unless it produced a counterexample. Returns the outcome and the
/// session's solver activity over the call.
fn with_bmc_session(
    ts: &Arc<TransitionSystem>,
    warm: bool,
    drive: impl FnOnce(&mut BmcSession) -> EngineOutcome,
) -> (EngineOutcome, LaneSolverStats) {
    let pool = WarmPool::global();
    let (mut session, hits, misses) = warm_or_build(
        warm,
        || pool.checkout_bmc(ts.fingerprint()),
        || BmcSession::new(ts),
    );
    let snapshot = session.solver_stats();
    let outcome = drive(&mut session);
    let mut stats = LaneSolverStats::delta(Lane::Bmc, snapshot, session.solver_stats());
    stats.warm_hits = hits;
    stats.warm_misses = misses;
    if warm && !outcome.is_decisive() {
        pool.park_bmc(session);
    }
    (outcome, stats)
}

/// Validates a trace by concrete replay on the unstrengthened system;
/// decisive only if the replay satisfies the assumptions and fires a bad
/// bit.
fn validated_attack(ts: &Arc<TransitionSystem>, trace: Box<Trace>, engine: &str) -> EngineOutcome {
    let (assumes_ok, bad) = Sim::new(ts.plain().aig()).replay(&trace);
    if assumes_ok && bad {
        EngineOutcome::Attack(trace)
    } else {
        EngineOutcome::Inconclusive(InconclusiveReason::ReplayFailed {
            engine: engine.to_string(),
        })
    }
}

/// Certificate material for a proof on `ts`, citing the Houdini
/// survivors the system assumed.
fn certificate(ts: &TransitionSystem, kind: CertKind) -> Box<Certificate> {
    Box::new(Certificate {
        restored: Vec::new(),
        survivors: ts.survivors().to_vec(),
        kind,
    })
}

/// Bounded model checking — the attack-finding lane (the paper's `Ht`).
/// With the bus on it exports learnt clauses and prunes with imported
/// lemmas.
///
/// The lane drives a single [`BmcSession`] across its whole depth
/// schedule, so each step continues the previous step's unrolling
/// instead of re-encoding from frame 0. With [`BmcBackend::warm`] the
/// session additionally comes from / returns to the global
/// [`WarmPool`], surviving into the next engine call on the same
/// netlist.
pub struct BmcBackend {
    pub depth: usize,
    /// Progressive depth schedule from the lane plan: each step gets an
    /// even share of the lane's remaining clock, deeper steps inherit
    /// whatever earlier steps left over, and the first counterexample
    /// ends the walk. Empty = one pass at `depth`.
    pub schedule: Vec<usize>,
    warm: bool,
    stats: Mutex<Option<LaneSolverStats>>,
    replay_failed: Mutex<bool>,
}

impl BmcBackend {
    /// A cold lane running one pass at `depth`.
    pub fn new(depth: usize) -> BmcBackend {
        BmcBackend {
            depth,
            schedule: Vec::new(),
            warm: false,
            stats: Mutex::new(None),
            replay_failed: Mutex::new(false),
        }
    }

    /// Sets the progressive depth schedule (builder style).
    pub fn schedule(mut self, schedule: Vec<usize>) -> BmcBackend {
        self.schedule = schedule;
        self
    }

    /// Enables cross-call session reuse through [`WarmPool::global`].
    pub fn warm(mut self, warm: bool) -> BmcBackend {
        self.warm = warm;
        self
    }

    fn drive(
        &self,
        session: &mut BmcSession,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> EngineOutcome {
        if self.schedule.is_empty() {
            return match session.run_to(self.depth, budget, ctx) {
                BmcResult::Cex(trace) => EngineOutcome::Attack(trace),
                BmcResult::Clean { depth_checked } => {
                    EngineOutcome::Inconclusive(InconclusiveReason::BoundedClean {
                        depth: depth_checked,
                    })
                }
                BmcResult::Timeout { .. } => EngineOutcome::Timeout,
            };
        }
        let lane_deadline = budget.deadline;
        let mut clean_to: Option<usize> = None;
        for (i, &depth) in self.schedule.iter().enumerate() {
            // Split the remaining lane clock evenly over the remaining
            // steps; the final step always gets everything that is left.
            let step_budget = match lane_deadline {
                Some(dl) => {
                    let now = Instant::now();
                    if now >= dl {
                        return EngineOutcome::Timeout;
                    }
                    let steps_left = (self.schedule.len() - i) as u32;
                    let step_deadline = now + (dl - now) / steps_left;
                    Budget {
                        deadline: Some(step_deadline),
                        ..budget.clone()
                    }
                }
                None => budget.clone(),
            };
            match session.run_to(depth, step_budget, ctx) {
                BmcResult::Cex(trace) => return EngineOutcome::Attack(trace),
                BmcResult::Clean { depth_checked } => clean_to = Some(depth_checked),
                BmcResult::Timeout { depth_checked } => {
                    clean_to = depth_checked.or(clean_to);
                    // A step timeout only ends the lane when its *lane*
                    // clock (not just the step slice) is gone.
                    if budget.out_of_time() || budget.stop_requested() {
                        return EngineOutcome::Timeout;
                    }
                }
            }
        }
        match clean_to {
            Some(d) => EngineOutcome::Inconclusive(InconclusiveReason::BoundedClean { depth: d }),
            None => EngineOutcome::Timeout,
        }
    }
}

impl Backend for BmcBackend {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn lane(&self) -> Lane {
        Lane::Bmc
    }

    fn run(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> EngineOutcome {
        let (outcome, stats) = with_bmc_session(ts, self.warm, |s| self.drive(s, budget, ctx));
        *self.stats.lock().unwrap() = Some(stats);
        // A BMC counterexample is reported even if its replay fails (the
        // warning note flags it): the unrolling is exact, so a failing
        // replay points at the simulator, not at the attack.
        *self.replay_failed.lock().unwrap() = match &outcome {
            EngineOutcome::Attack(trace) => {
                let (assumes_ok, bad) = Sim::new(ts.plain().aig()).replay(trace);
                !(assumes_ok && bad)
            }
            _ => false,
        };
        outcome
    }

    fn solver_stats(&self) -> Vec<LaneSolverStats> {
        self.stats.lock().unwrap().iter().copied().collect()
    }

    fn notes(&self) -> Vec<String> {
        if *self.replay_failed.lock().unwrap() {
            vec!["WARNING: counterexample failed simulation replay".into()]
        } else {
            Vec::new()
        }
    }
}

/// k-induction; with the bus on it imports shared clauses into its base
/// instance and lemmas into both. With [`KindBackend::warm`] the
/// base/step [`KindSession`] pair is parked in the global [`WarmPool`]
/// on an `Unknown` outcome and a later call on the same netlist resumes
/// the sweep at its old `next_k`.
pub struct KindBackend {
    pub max_k: usize,
    warm: bool,
    stats: Mutex<Option<LaneSolverStats>>,
}

impl KindBackend {
    /// A cold lane sweeping `k = 1..=max_k`.
    pub fn new(max_k: usize) -> KindBackend {
        KindBackend {
            max_k,
            warm: false,
            stats: Mutex::new(None),
        }
    }

    /// Enables cross-call session reuse through [`WarmPool::global`].
    pub fn warm(mut self, warm: bool) -> KindBackend {
        self.warm = warm;
        self
    }
}

impl Backend for KindBackend {
    fn name(&self) -> &'static str {
        "k-induction"
    }

    fn lane(&self) -> Lane {
        Lane::KInduction
    }

    fn run(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> EngineOutcome {
        let pool = WarmPool::global();
        let (mut session, hits, misses) = warm_or_build(
            self.warm,
            || pool.checkout_kind(ts.fingerprint(), false),
            || KindSession::new(ts, false),
        );
        let snapshot = session.solver_stats();
        let result = session.run_to(self.max_k, budget, ctx);
        let mut stats = LaneSolverStats::delta(Lane::KInduction, snapshot, session.solver_stats());
        stats.warm_hits = hits;
        stats.warm_misses = misses;
        *self.stats.lock().unwrap() = Some(stats);
        // A certificate is only self-contained when neither this run nor
        // a warm predecessor baked foreign bus facts into the solvers.
        let imported = session.imported_facts();
        // Parking discipline (see crate::warm): only an Unknown session
        // may be resumed later — a Timeout base half could still hide an
        // undiscovered counterexample at an already-swept depth.
        if self.warm && matches!(result, KindResult::Unknown { .. }) {
            pool.park_kind(session);
        }
        match result {
            KindResult::Proof { k } => EngineOutcome::Proof(
                ProofEngine::KInduction { k },
                (imported == 0).then(|| certificate(ts, CertKind::KInduction { k })),
            ),
            // Deeper than the BMC bound: a real attack, once it replays on
            // the unstrengthened system. A failing replay is no verdict.
            KindResult::Cex(trace) => validated_attack(ts, trace, "k-induction"),
            KindResult::Unknown { max_k_tried } => {
                EngineOutcome::Inconclusive(InconclusiveReason::InductionGap { max_k: max_k_tried })
            }
            KindResult::Timeout => EngineOutcome::Timeout,
        }
    }

    fn solver_stats(&self) -> Vec<LaneSolverStats> {
        self.stats.lock().unwrap().iter().copied().collect()
    }
}

/// IC3/PDR. A cex depth hint is rebuilt into a concrete trace by a deeper
/// BMC pass on the unstrengthened system; with [`PdrBackend::warm`] that
/// pass resumes a parked BMC session (typically the BMC lane's, clean to
/// its bound) instead of re-unrolling from frame 0. With the bus on the
/// lane imports lemmas between frontier iterations. PDR's own frame
/// clauses are level-indexed and rebuilt per call, so they are never
/// parked.
pub struct PdrBackend {
    pub max_frames: usize,
    /// Reconstruction floor: the BMC pass hunts at least this deep.
    pub bmc_depth: usize,
    warm: bool,
    stats: Mutex<Vec<LaneSolverStats>>,
}

impl PdrBackend {
    pub fn new(max_frames: usize, bmc_depth: usize) -> PdrBackend {
        PdrBackend {
            max_frames,
            bmc_depth,
            warm: false,
            stats: Mutex::new(Vec::new()),
        }
    }

    /// Enables warm sessions for the counterexample rebuild.
    pub fn warm(mut self, warm: bool) -> PdrBackend {
        self.warm = warm;
        self
    }
}

impl Backend for PdrBackend {
    fn name(&self) -> &'static str {
        "pdr"
    }

    fn lane(&self) -> Lane {
        Lane::Pdr
    }

    fn run(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> EngineOutcome {
        let (result, raw) = pdr_with_stats(
            ts,
            PdrOptions {
                max_frames: self.max_frames,
                budget: budget.clone(),
            },
            ctx,
        );
        let mut stats = vec![LaneSolverStats::cold(Lane::Pdr, raw)];
        let outcome = match result {
            PdrResult::Proof {
                frames,
                invariant_clauses,
                fixpoint_level,
                invariant,
            } => EngineOutcome::Proof(
                ProofEngine::Pdr {
                    frames,
                    clauses: invariant_clauses,
                    fixpoint_level,
                },
                // The invariant is inductive relative to whatever the
                // lane imported; only an import-free run is
                // self-contained certificate material.
                (ctx.imports() == 0)
                    .then(|| certificate(ts, CertKind::Inductive { blocked: invariant })),
            ),
            PdrResult::Cex { depth_hint } => {
                let deep = depth_hint.max(self.bmc_depth + 1) + 8;
                let plain = ts.plain();
                let (rebuilt, bmc_stats) = with_bmc_session(plain, self.warm, |s| {
                    match s.run_to(deep, budget, &mut SharedContext::disabled(Lane::Bmc)) {
                        BmcResult::Cex(trace) => EngineOutcome::Attack(trace),
                        // A PDR cex BMC cannot rebuild in the budget is a
                        // timeout, not a verdict.
                        _ => EngineOutcome::Timeout,
                    }
                });
                stats.push(bmc_stats);
                match rebuilt {
                    EngineOutcome::Attack(trace) => validated_attack(plain, trace, "pdr"),
                    other => other,
                }
            }
            PdrResult::Timeout => EngineOutcome::Timeout,
            PdrResult::FrameLimit { frames } => {
                EngineOutcome::Inconclusive(InconclusiveReason::FrameCap { frames })
            }
        };
        *self.stats.lock().unwrap() = stats;
        outcome
    }

    fn solver_stats(&self) -> Vec<LaneSolverStats> {
        self.stats.lock().unwrap().clone()
    }
}

/// The Houdini lane: filter candidate relational invariants to an
/// inductive subset. Survivors stream onto the exchange bus the moment
/// the consecution fixpoint lands. If they imply safety outright that is
/// a proof (LEAVE's success mode); otherwise the lane leaves the
/// strengthened system (survivors conjoined as assumes) behind for the
/// lanes after it — and, when built with [`HoudiniBackend::then`], runs
/// those lanes itself, through [`serial`], on the strengthened system.
pub struct HoudiniBackend {
    pub candidates: Vec<Candidate>,
    /// Lanes re-run on the strengthened system (portfolio mode, where the
    /// plain proof lanes race this one on the unstrengthened system).
    then: Vec<LaneSpec>,
    last: Mutex<HoudiniRun>,
}

/// What the Houdini lane's last `run` left behind.
#[derive(Default)]
struct HoudiniRun {
    note: Option<String>,
    strengthened: Option<Arc<TransitionSystem>>,
    /// The re-runs' solver activity (the Houdini filtering phase itself
    /// keeps its solvers private).
    stats: Option<LaneSolverStats>,
}

impl HoudiniBackend {
    pub fn new(candidates: Vec<Candidate>) -> HoudiniBackend {
        HoudiniBackend {
            candidates,
            then: Vec::new(),
            last: Mutex::new(HoudiniRun::default()),
        }
    }

    /// Sets the lanes this one re-runs on the strengthened system
    /// (builder style). Their solver activity is reported as this lane's.
    pub fn then(mut self, lanes: Vec<LaneSpec>) -> HoudiniBackend {
        self.then = lanes;
        self
    }

    fn run_inner(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: Budget,
        ctx: &mut SharedContext,
        last: &mut HoudiniRun,
    ) -> EngineOutcome {
        let mut stream = |_: usize, c: &Candidate| {
            ctx.publish_lemma(c.name.clone(), c.bit);
        };
        let out = match houdini_with(ts, &self.candidates, budget.clone(), Some(&mut stream)) {
            HoudiniResult::Done(out) => out,
            HoudiniResult::Timeout => return EngineOutcome::Timeout,
        };
        last.note = Some(format!(
            "houdini: {}/{} candidates survive after {} rounds",
            out.survivors.len(),
            self.candidates.len(),
            out.rounds
        ));
        let survivors = out.survivors.len();
        if out.proves_safety {
            let cert = Box::new(Certificate {
                restored: Vec::new(),
                survivors: out.survivors,
                kind: CertKind::Inductive {
                    blocked: Vec::new(),
                },
            });
            let engine = ProofEngine::Houdini {
                invariants: survivors,
            };
            return EngineOutcome::Proof(engine, Some(cert));
        }
        if survivors == 0 {
            return EngineOutcome::Inconclusive(InconclusiveReason::NoInvariants);
        }
        let lemmas: Vec<_> = out
            .survivors
            .iter()
            .map(|&i| self.candidates[i].bit)
            .collect();
        let strengthened = ts.strengthened(out.survivors, lemmas);
        last.strengthened = Some(strengthened.clone());
        if self.then.is_empty() {
            return EngineOutcome::Inconclusive(InconclusiveReason::InvariantsInsufficient {
                survivors,
            });
        }
        // The re-runs work a private instance already carrying the
        // lemmas; they neither import nor re-export them.
        let results = serial(&self.then, &strengthened, &budget);
        if let Some(agg) = &mut last.stats {
            for s in results.iter().flat_map(|r| &r.solver) {
                agg.absorb(s);
            }
        }
        results
            .into_iter()
            .last()
            .map_or(EngineOutcome::Timeout, |r| r.outcome)
    }
}

impl Backend for HoudiniBackend {
    fn name(&self) -> &'static str {
        "houdini"
    }

    fn lane(&self) -> Lane {
        Lane::Houdini
    }

    fn run(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: Budget,
        ctx: &mut SharedContext,
    ) -> EngineOutcome {
        let mut last = HoudiniRun {
            // With re-runs configured the lane reports their activity on
            // every run (zero when they never started).
            stats: (!self.then.is_empty())
                .then(|| LaneSolverStats::cold(Lane::Houdini, csl_sat::SolverStats::default())),
            ..HoudiniRun::default()
        };
        let outcome = self.run_inner(ts, budget, ctx, &mut last);
        *self.last.lock().unwrap() = last;
        outcome
    }

    fn solver_stats(&self) -> Vec<LaneSolverStats> {
        self.last.lock().unwrap().stats.iter().copied().collect()
    }

    fn notes(&self) -> Vec<String> {
        self.last.lock().unwrap().note.iter().cloned().collect()
    }

    fn strengthened(&self) -> Option<Arc<TransitionSystem>> {
        self.last.lock().unwrap().strengthened.clone()
    }
}

/// One configured lane: the backend, its deadline (per-lane wall caps
/// from a [`crate::LanePlan`] arrive here as earlier deadlines), and its
/// exchange participation.
pub struct LaneSpec {
    pub backend: Box<dyn Backend>,
    pub deadline: Instant,
    /// Pull foreign items off the bus.
    pub import: bool,
    /// Publish this lane's clauses/lemmas.
    pub export: bool,
}

impl LaneSpec {
    /// A lane participating fully in the exchange (when it is enabled).
    pub fn new(backend: Box<dyn Backend>, deadline: Instant) -> LaneSpec {
        LaneSpec {
            backend,
            deadline,
            import: true,
            export: true,
        }
    }

    /// Sets the exchange participation (builder style).
    pub fn exchange(mut self, import: bool, export: bool) -> LaneSpec {
        self.import = import;
        self.export = export;
        self
    }

    /// Runs the lane on `ts` under `budget` with the lane's deadline, and
    /// collects its result.
    fn run(
        &self,
        ts: &Arc<TransitionSystem>,
        budget: &Budget,
        ctx: &mut SharedContext,
    ) -> LaneResult {
        let start = Instant::now();
        let budget = Budget {
            deadline: Some(self.deadline),
            ..budget.clone()
        };
        let outcome = self.backend.run(ts, budget, ctx);
        let xs = ctx.stats();
        LaneResult {
            engine: self.backend.name(),
            lane: self.backend.lane(),
            outcome,
            elapsed: start.elapsed(),
            deadline: self.deadline,
            imports: xs.imports,
            exports: xs.exports,
            obligations: xs.obligations,
            policy_len: xs.policy_len,
            policy_lbd: xs.policy_lbd,
            adaptive: xs.adaptive,
            fuzz: self.backend.fuzz_stats(),
            coverage: self.backend.coverage_stats(),
            solver: self.backend.solver_stats(),
            notes: self.backend.notes(),
        }
    }
}

/// The result of one lane, in completion order.
#[derive(Debug)]
pub struct LaneResult {
    pub engine: &'static str,
    pub lane: Lane,
    pub outcome: EngineOutcome,
    pub elapsed: Duration,
    /// The deadline this lane ran under — earlier than the shared
    /// deadline exactly when a per-lane wall cap shortened it, which is
    /// how a lane-local timeout is told from a global one.
    pub deadline: Instant,
    /// Exchange-bus items this lane applied to its solvers.
    pub imports: usize,
    /// Exchange-bus items this lane published.
    pub exports: usize,
    /// Fuzz-reached proof obligations among the imports.
    pub obligations: usize,
    /// Clause-export length threshold the lane ran under (0 = no bus).
    pub policy_len: usize,
    /// Clause-export LBD threshold the lane ran under (0 = no bus).
    pub policy_lbd: u32,
    /// Whether the export policy was adapted from bus traffic.
    pub adaptive: bool,
    /// Campaign statistics, when this lane was a fuzzing backend.
    pub fuzz: Option<FuzzStats>,
    /// Coverage accounting, when this lane was a coverage-guided fuzzing
    /// backend.
    pub coverage: Option<CoverageStats>,
    /// Solver activity (and warm-start accounting) of the SAT engines
    /// the lane drove.
    pub solver: Vec<LaneSolverStats>,
    /// Lines the lane adds to the report's notes.
    pub notes: Vec<String>,
}

impl LaneResult {
    /// Whether the lane ran on the shared clock (ending at `deadline`)
    /// rather than on an earlier wall cap of its own — a timeout of such
    /// a lane is a timeout of the whole check.
    pub fn on_shared_clock(&self, deadline: Option<Instant>) -> bool {
        deadline.is_some_and(|d| self.deadline >= d)
    }

    /// This lane's exchange-bus traffic.
    pub fn exchange_stats(&self) -> ExchangeStats {
        ExchangeStats {
            lane: self.lane,
            imports: self.imports,
            exports: self.exports,
            obligations: self.obligations,
            policy_len: self.policy_len,
            policy_lbd: self.policy_lbd,
            adaptive: self.adaptive,
        }
    }
}

/// Everything the race produced: per-lane results (in completion order)
/// plus whether the stop flag was raised to cancel the stragglers.
#[derive(Debug)]
pub struct RaceReport {
    pub lanes: Vec<LaneResult>,
    pub canceled_stragglers: bool,
}

/// Runs `lanes` one at a time on `ts`, in order, each under `budget`
/// with its lane deadline, until one is decisive or one times out on the
/// shared clock (`budget`'s deadline) rather than on its own wall cap.
/// A lane that leaves a strengthened system behind hands it to the lanes
/// after it. No exchange bus: every context is inert.
pub fn serial(lanes: &[LaneSpec], ts: &Arc<TransitionSystem>, budget: &Budget) -> Vec<LaneResult> {
    let mut ts = ts.clone();
    let mut results = Vec::with_capacity(lanes.len());
    for spec in lanes {
        let result = spec.run(
            &ts,
            budget,
            &mut SharedContext::disabled(spec.backend.lane()),
        );
        if let Some(strengthened) = spec.backend.strengthened() {
            ts = strengthened;
        }
        let stop = match result.outcome {
            EngineOutcome::Timeout => result.on_shared_clock(budget.deadline),
            ref outcome => outcome.is_decisive(),
        };
        results.push(result);
        if stop {
            break;
        }
    }
    results
}

/// Races `lanes` against each other, one thread per backend, until the
/// first decisive outcome or each lane's deadline. Each lane builds its
/// own [`TransitionSystem`] from a clone of `aig` (the build is cheap
/// relative to any SAT query) and gets a budget carrying the shared stop
/// flag; when a lane reports a decisive outcome the flag is raised and
/// every other lane aborts at its next conflict/cycle boundary.
///
/// When `exchange.enabled`, one [`Exchange`] bus is shared by every lane
/// whose [`LaneSpec`] participates; otherwise every lane gets an inert
/// context.
pub fn race(
    lanes: Vec<LaneSpec>,
    aig: &Aig,
    keep_probes: bool,
    exchange: &ExchangeConfig,
) -> RaceReport {
    let stop = Arc::new(AtomicBool::new(false));
    let bus = exchange.enabled.then(|| Exchange::new(exchange.clone()));
    let (tx, rx) = mpsc::channel::<LaneResult>();
    let total = lanes.len();
    let mut handles = Vec::with_capacity(total);
    for spec in lanes {
        let aig = aig.clone();
        let stop = stop.clone();
        let tx = tx.clone();
        let lane = spec.backend.lane();
        let mut ctx = match &bus {
            Some(bus) => SharedContext::attached(bus.clone(), lane, spec.import, spec.export),
            None => SharedContext::disabled(lane),
        };
        handles.push(std::thread::spawn(move || {
            let ts = TransitionSystem::shared(aig, keep_probes);
            let result = spec.run(&ts, &Budget::unlimited().with_stop(stop), &mut ctx);
            // The receiver may be gone if the race was already decided.
            let _ = tx.send(result);
        }));
    }
    drop(tx);

    let mut lanes = Vec::with_capacity(total);
    let mut canceled_stragglers = false;
    while lanes.len() < total {
        match rx.recv() {
            Ok(lane) => {
                let decisive = lane.outcome.is_decisive();
                lanes.push(lane);
                if decisive && !canceled_stragglers {
                    stop.store(true, Ordering::Relaxed);
                    canceled_stragglers = true;
                }
            }
            Err(_) => break, // all senders gone
        }
    }
    // By here every lane has reported (the recv loop only exits at `total`
    // results, or on Err — which requires every sender already dropped with
    // an empty channel), so the joins are immediate.
    for h in handles {
        let _ = h.join();
    }
    RaceReport {
        lanes,
        canceled_stragglers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    /// A 1-bit design with no bad states (backends under test ignore it).
    fn trivial_aig() -> Aig {
        let mut d = Design::new("trivial");
        let r = d.reg("r", 1, Init::Zero);
        let q = r.q();
        d.set_next(&r, q);
        d.finish()
    }

    /// Returns `outcome()` after `delay`, polling the stop flag every
    /// millisecond; reports how it exited through the shared flags.
    struct FakeBackend<F: Fn() -> EngineOutcome + Send + Sync> {
        name: &'static str,
        delay: Duration,
        outcome: F,
        saw_stop: Arc<AtomicBool>,
        finished_naturally: Arc<AtomicBool>,
    }

    impl<F: Fn() -> EngineOutcome + Send + Sync> Backend for FakeBackend<F> {
        fn name(&self) -> &'static str {
            self.name
        }

        fn lane(&self) -> Lane {
            Lane::Bmc
        }

        fn run(
            &self,
            _ts: &Arc<TransitionSystem>,
            budget: Budget,
            _ctx: &mut SharedContext,
        ) -> EngineOutcome {
            let end = Instant::now() + self.delay;
            while Instant::now() < end {
                if budget.stop_requested() {
                    self.saw_stop.store(true, Ordering::Relaxed);
                    return EngineOutcome::Timeout;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            self.finished_naturally.store(true, Ordering::Relaxed);
            (self.outcome)()
        }
    }

    fn fake(
        name: &'static str,
        delay: Duration,
        outcome: impl Fn() -> EngineOutcome + Send + Sync + 'static,
    ) -> (Box<dyn Backend>, Arc<AtomicBool>, Arc<AtomicBool>) {
        let saw_stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let backend = Box::new(FakeBackend {
            name,
            delay,
            outcome,
            saw_stop: saw_stop.clone(),
            finished_naturally: finished.clone(),
        });
        (backend, saw_stop, finished)
    }

    #[test]
    fn fast_engine_wins_and_slow_loser_is_canceled_promptly() {
        let slow_natural_delay = Duration::from_secs(30);
        let (fast, _, _) = fake("fast", Duration::from_millis(10), || {
            EngineOutcome::Proof(ProofEngine::KInduction { k: 1 }, None)
        });
        let (slow, slow_saw_stop, slow_finished) = fake("slow", slow_natural_delay, || {
            EngineOutcome::Proof(
                ProofEngine::Pdr {
                    frames: 1,
                    clauses: 0,
                    fixpoint_level: 0,
                },
                None,
            )
        });
        let start = Instant::now();
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = race(
            vec![LaneSpec::new(fast, deadline), LaneSpec::new(slow, deadline)],
            &trivial_aig(),
            false,
            &ExchangeConfig::off(),
        );
        let wall = start.elapsed();
        // The fast proof decided the race and the slow lane was stopped
        // cooperatively, well before its natural completion time.
        assert!(report.canceled_stragglers);
        assert!(
            wall < slow_natural_delay / 4,
            "race took {wall:?}, cancellation was not prompt"
        );
        assert!(
            slow_saw_stop.load(Ordering::Relaxed),
            "loser never saw the stop flag"
        );
        assert!(!slow_finished.load(Ordering::Relaxed));
        let winner = report
            .lanes
            .iter()
            .find(|l| l.outcome.is_decisive())
            .expect("decisive lane");
        assert_eq!(winner.engine, "fast");
    }

    #[test]
    fn inconclusive_lanes_do_not_cancel_each_other() {
        let (a, _, a_fin) = fake("a", Duration::from_millis(5), || {
            EngineOutcome::Inconclusive(InconclusiveReason::Other("nothing".into()))
        });
        let (b, b_saw_stop, b_fin) = fake("b", Duration::from_millis(40), || {
            EngineOutcome::Inconclusive(InconclusiveReason::Other("nothing".into()))
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = race(
            vec![LaneSpec::new(a, deadline), LaneSpec::new(b, deadline)],
            &trivial_aig(),
            false,
            &ExchangeConfig::off(),
        );
        assert!(!report.canceled_stragglers);
        assert!(a_fin.load(Ordering::Relaxed));
        assert!(b_fin.load(Ordering::Relaxed));
        assert!(!b_saw_stop.load(Ordering::Relaxed));
        assert_eq!(report.lanes.len(), 2);
    }

    #[test]
    fn all_lanes_report_even_when_race_is_decided() {
        // Three lanes: the winner plus two with staggered delays; every
        // lane's result must be collected (for the notes) despite the stop.
        let (w, _, _) = fake("winner", Duration::from_millis(1), || {
            EngineOutcome::Proof(ProofEngine::KInduction { k: 2 }, None)
        });
        let (l1, _, _) = fake("l1", Duration::from_secs(20), || EngineOutcome::Timeout);
        let (l2, _, _) = fake("l2", Duration::from_secs(20), || EngineOutcome::Timeout);
        let deadline = Instant::now() + Duration::from_secs(60);
        let report = race(
            vec![
                LaneSpec::new(w, deadline),
                LaneSpec::new(l1, deadline),
                LaneSpec::new(l2, deadline),
            ],
            &trivial_aig(),
            false,
            &ExchangeConfig::off(),
        );
        assert_eq!(report.lanes.len(), 3);
    }

    /// A lane that publishes over a live bus and one that imports: the
    /// race must surface both sides' counters in its lane results.
    #[test]
    fn exchange_counters_reach_lane_results() {
        struct Publisher;
        impl Backend for Publisher {
            fn name(&self) -> &'static str {
                "pub"
            }
            fn lane(&self) -> Lane {
                Lane::Houdini
            }
            fn run(
                &self,
                _ts: &Arc<TransitionSystem>,
                _budget: Budget,
                ctx: &mut SharedContext,
            ) -> EngineOutcome {
                ctx.publish_lemma("lemma", csl_hdl::Bit::from_packed(2));
                EngineOutcome::Inconclusive(InconclusiveReason::Other("done".into()))
            }
        }
        struct Consumer;
        impl Backend for Consumer {
            fn name(&self) -> &'static str {
                "con"
            }
            fn lane(&self) -> Lane {
                Lane::KInduction
            }
            fn run(
                &self,
                _ts: &Arc<TransitionSystem>,
                budget: Budget,
                ctx: &mut SharedContext,
            ) -> EngineOutcome {
                // Poll until the publisher's lemma arrives or time is up.
                let end = Instant::now() + Duration::from_secs(5);
                while Instant::now() < end && !budget.stop_requested() {
                    let n = ctx.poll().len();
                    if n > 0 {
                        ctx.note_imported(n);
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                EngineOutcome::Inconclusive(InconclusiveReason::Other("done".into()))
            }
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        let report = race(
            vec![
                LaneSpec::new(Box::new(Publisher), deadline),
                LaneSpec::new(Box::new(Consumer), deadline),
            ],
            &trivial_aig(),
            false,
            &ExchangeConfig::on(),
        );
        let stats: Vec<_> = report
            .lanes
            .iter()
            .map(LaneResult::exchange_stats)
            .collect();
        let publisher = stats.iter().find(|s| s.lane == Lane::Houdini).unwrap();
        let consumer = stats.iter().find(|s| s.lane == Lane::KInduction).unwrap();
        assert_eq!(publisher.exports, 1);
        assert_eq!(consumer.imports, 1);
    }
}
