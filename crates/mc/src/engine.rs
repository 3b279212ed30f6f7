//! Verification engine orchestration.
//!
//! [`check_safety`] is the "push-button model checker" entry point the
//! schemes in `csl-core` call: it mirrors the paper's JasperGold workflow
//! (§6) of running attack-finding (their `Ht` engine → our BMC) and proof
//! engines (their `Mp`/`AM` → our Houdini / k-induction / PDR) against one
//! instrumented design, with a wall-clock budget standing in for the
//! 7-day timeout, and reports one of the paper's three outcomes: a
//! counterexample (attack), an unbounded proof, or a timeout.
//!
//! Every check builds one ordered lane list — extra lanes (fuzzing), BMC,
//! Houdini, k-induction, PDR — and hands it to one of the two schedulers
//! of [`crate::portfolio`], chosen by [`ExecMode`]: `serial` runs the
//! lanes in order, each inheriting the remaining wall clock, and `race`
//! runs them on threads and cancels the losers as soon as one lane is
//! decisive. One merge turns either scheduler's lane results into the
//! [`CheckReport`], so the two modes share their verdict semantics.

use std::time::{Duration, Instant};

use csl_hdl::xform::PassStats;
use csl_hdl::Aig;
use csl_sat::Budget;

use crate::cert::Certificate;
use crate::exchange::{ExchangeConfig, ExchangeStats};
use crate::houdini::Candidate;
use crate::lane::{Lane, LanePlan};
use crate::portfolio::{
    race, serial, Backend, BmcBackend, EngineOutcome, HoudiniBackend, KindBackend, LaneFactory,
    LaneResult, LaneSpec, PdrBackend,
};
use crate::prepare::{run_prepared, PrepareConfig};
use crate::trace::Trace;
use crate::ts::TransitionSystem;
use crate::warm::LaneSolverStats;

/// Which engine completed an unbounded proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProofEngine {
    /// Houdini-filtered relational invariants alone imply safety
    /// (LEAVE's success mode).
    Houdini { invariants: usize },
    /// k-induction (optionally strengthened by Houdini lemmas).
    KInduction { k: usize },
    /// IC3/PDR (optionally strengthened by Houdini lemmas).
    Pdr {
        frames: usize,
        clauses: usize,
        /// Frame at which propagation found the inductive fixpoint
        /// (≤ `frames`; proof strength at a glance).
        fixpoint_level: usize,
    },
}

/// Why an engine (or a whole check) finished without a verdict. The
/// typed variants replace the free-form strings the engines used to
/// report, so reports can be filtered and diffed by reason kind; the
/// `Display` impl reproduces the human-readable text for notes and
/// tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InconclusiveReason {
    /// BMC exhausted its depth bound without a counterexample.
    BoundedClean { depth: usize },
    /// k-induction never closed within its `k` bound.
    InductionGap { max_k: usize },
    /// PDR hit its frame cap without converging.
    FrameCap { frames: usize },
    /// A counterexample failed concrete simulation replay.
    ReplayFailed { engine: String },
    /// Houdini left no surviving invariants to work with.
    NoInvariants,
    /// The surviving invariants do not exclude the bad states (LEAVE's
    /// "false counterexamples" outcome).
    InvariantsInsufficient { survivors: usize },
    /// Attack-only mode: the bounded search came back clean.
    NoAttackWithinDepth { depth: usize },
    /// A fuzzing lane ran out of trials without observing a leak — *not*
    /// a proof (fuzzing offers no coverage guarantee).
    FuzzExhausted { trials: usize },
    /// The isolated worker process solving the cell died (solver crash,
    /// OOM kill, deliberate abort) before producing a verdict; `detail`
    /// records the exit code or signal. Emitted by the `csl-serve`
    /// campaign daemon so a crashed cell stays visible in the report
    /// instead of taking the campaign down with it.
    WorkerCrashed { detail: String },
    /// Every engine finished without a verdict.
    AllInconclusive,
    /// Anything else (joined engine notes, external causes).
    Other(String),
}

impl std::fmt::Display for InconclusiveReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InconclusiveReason::BoundedClean { depth } => {
                write!(f, "bmc clean to depth {depth}")
            }
            InconclusiveReason::InductionGap { max_k } => {
                write!(f, "k-induction inconclusive to k={max_k}")
            }
            InconclusiveReason::FrameCap { frames } => write!(f, "pdr frame limit at {frames}"),
            InconclusiveReason::ReplayFailed { engine } => {
                write!(f, "{engine}: counterexample failed simulation replay")
            }
            InconclusiveReason::NoInvariants => {
                write!(f, "houdini: no surviving invariants to strengthen with")
            }
            InconclusiveReason::InvariantsInsufficient { survivors } => write!(
                f,
                "invariant search exhausted ({survivors} survivors insufficient): \
                 induction yields false counterexamples"
            ),
            InconclusiveReason::NoAttackWithinDepth { depth } => {
                write!(f, "no attack within bmc depth {depth}")
            }
            InconclusiveReason::FuzzExhausted { trials } => {
                write!(f, "fuzz exhausted {trials} trials without a leak")
            }
            InconclusiveReason::WorkerCrashed { detail } => {
                write!(f, "worker crashed ({detail})")
            }
            InconclusiveReason::AllInconclusive => write!(f, "all engines inconclusive"),
            InconclusiveReason::Other(text) => f.write_str(text),
        }
    }
}

/// Statistics from a fuzzing lane's campaign, surfaced in
/// [`CheckReport::fuzz`] (and, one layer up, in the session API's report
/// JSON as the lenient `fuzz` block). Recorded on every outcome — a leak
/// *and* an exhausted campaign both carry trial counts, simulated
/// cycles and wall time, so throughput (trials/second) is computable
/// without re-running.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzStats {
    /// Program/secret pairs simulated (including the leaking one).
    pub trials: usize,
    /// Of `trials`, how many were corpus-sourced mutants (coverage-guided
    /// mode; zero for the blind fuzzer).
    pub corpus_trials: usize,
    /// Of `trials`, how many were drawn fresh from the random generator.
    pub random_trials: usize,
    /// Total trial-cycles simulated: each simulated cycle of each lane
    /// counts once, so scalar and batched runs are directly comparable.
    pub sim_cycles: u64,
    /// Wall time the fuzzing lane spent.
    pub wall: Duration,
    /// Cycle at which the leakage assertion fired, when a leak was found.
    pub leak_cycle: Option<usize>,
    /// RNG seed that drove the stimulus stream (replays the campaign).
    pub seed: u64,
    /// Bit-parallel lanes per simulation pass (1 = scalar).
    pub lanes: usize,
}

impl FuzzStats {
    /// Campaign throughput in trials per wall-clock second. A campaign
    /// whose wall clock never ticked (zero-trial runs, sub-resolution
    /// timers) reports 0.0 rather than an absurd extrapolation.
    pub fn trials_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.trials as f64 / secs
    }
}

/// Coverage accounting from a coverage-guided fuzzing lane (see the
/// `csl_cover` crate), surfaced in [`CheckReport::coverage`] and — one
/// layer up — as the lenient `coverage` block of the session report
/// JSON. All plain counters, so the block is cheap to persist and diff.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoverageStats {
    /// Distinct latches observed toggling at least once.
    pub latches_toggled: usize,
    /// Latches the coverage map tracks (the simulated netlist's total).
    pub latches_total: usize,
    /// Distinct per-trial coverage signatures (stable-hash dedup keys).
    pub signatures: usize,
    /// Trials that reached coverage no earlier trial had reached.
    pub new_coverage_trials: usize,
    /// Corpus entries at the end of the campaign.
    pub corpus_size: usize,
    /// Fuzz-reached states exported to PDR as proof obligations.
    pub obligations_exported: usize,
    /// Stimuli skipped by the PDR-frontier rejection filter.
    pub stimuli_rejected: usize,
}

/// The paper's verification outcomes (§5.3 "Model Checking with Contract
/// Shadow Logic" lists exactly these three, plus LEAVE's UNKNOWN).
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// A counterexample: a program + secret pair that satisfies the contract
    /// constraint yet produces distinguishable microarchitectural traces.
    Attack(Box<Trace>),
    /// Unbounded proof of the contract property.
    Proof(ProofEngine),
    /// Engines exhausted without a verdict inside the budget.
    Timeout,
    /// Inconclusive for a structural reason (e.g. LEAVE's invariant set
    /// collapsed); `reason` is typed and renders to the human-readable
    /// text via `Display`.
    Unknown { reason: InconclusiveReason },
}

impl Verdict {
    pub fn is_attack(&self) -> bool {
        matches!(self, Verdict::Attack(_))
    }

    pub fn is_proof(&self) -> bool {
        matches!(self, Verdict::Proof(_))
    }

    /// Short cell text for the result tables ("CEX", "PROOF", "T/O", "UNK").
    pub fn cell(&self) -> &'static str {
        match self {
            Verdict::Attack(_) => "CEX",
            Verdict::Proof(_) => "PROOF",
            Verdict::Timeout => "T/O",
            Verdict::Unknown { .. } => "UNK",
        }
    }
}

/// How [`check_safety`] schedules its engines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// One lane at a time: extra lanes, BMC, Houdini, k-induction, PDR,
    /// each inheriting whatever wall clock remains; Houdini's survivors
    /// strengthen the lanes after it.
    #[default]
    Sequential,
    /// All engines race on threads; the first decisive lane (attack or
    /// proof) cancels the rest through the shared stop flag.
    Portfolio,
}

/// Options for [`check_safety`].
#[derive(Clone, Debug)]
pub struct CheckOptions {
    /// Total wall-clock budget (the "7 days" stand-in).
    pub total_budget: Duration,
    /// Maximum BMC depth for the attack-finding phase.
    pub bmc_depth: usize,
    /// Skip the proof phase entirely (pure attack hunting).
    pub attack_only: bool,
    /// Maximum k for k-induction (0 disables the engine).
    pub kind_max_k: usize,
    /// Run PDR if earlier engines are inconclusive.
    pub use_pdr: bool,
    /// PDR frame cap.
    pub pdr_max_frames: usize,
    /// Keep probe logic alive (larger encodings, readable traces).
    pub keep_probes: bool,
    /// Serial lane schedule or thread-racing portfolio.
    pub mode: ExecMode,
    /// Per-lane budget shaping (wall caps, BMC depth schedule, exchange
    /// opt-outs). The empty default leaves every lane on the shared
    /// clock.
    pub lanes: LanePlan,
    /// The cross-lane clause/lemma exchange bus (portfolio mode only;
    /// disabled by default — the isolated-lane race of v1).
    pub exchange: ExchangeConfig,
    /// Instance preparation: the netlist reduction pipeline every engine
    /// runs behind (default on; `PrepareConfig::off()` hands the engines
    /// the raw instance). Attack traces are lifted back to the raw
    /// netlist's vocabulary before they leave [`check_safety`].
    pub prepare: PrepareConfig,
    /// Reuse solver sessions across engine calls: BMC unrollings and
    /// k-induction base/step pairs that end undecided are parked in the
    /// process-wide [`crate::WarmPool`] and resumed by the next check on a
    /// structurally identical netlist, so depth/budget escalations and
    /// repeated queries skip the re-encode/re-learn cost. Verdicts are
    /// unaffected (see `crate::warm` for the soundness argument); the
    /// per-lane hit/miss accounting lands in [`CheckReport::solver`].
    /// Off by default.
    pub warm_start: bool,
    /// Additional attack-finding lanes beyond the built-in engines —
    /// the seam through which the differential-fuzzing backend (and any
    /// other caller-supplied [`crate::Backend`]) joins the check. In
    /// portfolio mode each factory's backend races the solver lanes
    /// (a concrete leak is decisive and cancels them); in sequential
    /// mode the extra lanes run first, ahead of BMC, under their
    /// [`LanePlan`] budgets. Empty by default.
    pub extra_lanes: Vec<LaneFactory>,
    /// Attach a checkable [`Certificate`] to every proof verdict (on by
    /// default; capturing the material is free — no extra SAT calls).
    /// Proofs that lean on facts imported over the exchange bus are not
    /// self-contained and ship without a certificate regardless.
    pub certify: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            total_budget: Duration::from_secs(60),
            bmc_depth: 20,
            attack_only: false,
            kind_max_k: 6,
            use_pdr: true,
            pdr_max_frames: 40,
            keep_probes: true,
            mode: ExecMode::Sequential,
            lanes: LanePlan::default(),
            exchange: ExchangeConfig::default(),
            prepare: PrepareConfig::default(),
            warm_start: false,
            extra_lanes: Vec::new(),
            certify: true,
        }
    }
}

impl CheckOptions {
    /// The same options with portfolio scheduling enabled.
    pub fn portfolio(mut self) -> CheckOptions {
        self.mode = ExecMode::Portfolio;
        self
    }

    /// The same options with the exchange bus configured (builder style).
    pub fn with_exchange(mut self, exchange: ExchangeConfig) -> CheckOptions {
        self.exchange = exchange;
        self
    }

    /// The same options with the preparation pipeline configured
    /// (builder style).
    pub fn with_prepare(mut self, prepare: PrepareConfig) -> CheckOptions {
        self.prepare = prepare;
        self
    }

    /// The same options with warm-start session reuse enabled
    /// (builder style) — see [`CheckOptions::warm_start`].
    pub fn warm(mut self, warm_start: bool) -> CheckOptions {
        self.warm_start = warm_start;
        self
    }

    /// The same options with one more extra attack-finding lane
    /// (builder style) — see [`CheckOptions::extra_lanes`].
    pub fn with_extra_lane(mut self, lane: LaneFactory) -> CheckOptions {
        self.extra_lanes.push(lane);
        self
    }

    /// The same options with certificate emission toggled
    /// (builder style) — see [`CheckOptions::certify`].
    pub fn certify(mut self, certify: bool) -> CheckOptions {
        self.certify = certify;
        self
    }
}

/// A verification task: an instrumented netlist plus optional relational
/// invariant candidates (used as Houdini lemmas and for the LEAVE scheme).
pub struct SafetyCheck {
    pub aig: Aig,
    pub candidates: Vec<Candidate>,
}

/// The result of a [`check_safety`] run.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckReport {
    pub verdict: Verdict,
    pub elapsed: Duration,
    /// Engine-by-engine notes (sizes, intermediate outcomes).
    pub notes: Vec<String>,
    /// Per-lane exchange-bus traffic (empty when the bus was disabled or
    /// the check ran sequentially).
    pub exchange: Vec<ExchangeStats>,
    /// Per-pass node/latch reduction statistics from instance
    /// preparation (empty when preparation was off).
    pub prepare: Vec<PassStats>,
    /// Fuzzing-lane campaign statistics (`None` when no fuzzing lane
    /// ran — the default).
    pub fuzz: Option<FuzzStats>,
    /// Coverage accounting from a coverage-guided fuzzing lane (`None`
    /// unless a fuzz lane ran with coverage tracking on).
    pub coverage: Option<CoverageStats>,
    /// Per-lane solver activity and warm-start accounting, in pipeline
    /// order (empty when no SAT lane reported — e.g. a fuzz-only check).
    pub solver: Vec<LaneSolverStats>,
    /// Checkable proof artifact for `Verdict::Proof` results, in the
    /// vocabulary of the netlist this report describes (after
    /// preparation lifting: the *raw* netlist). `None` for non-proof
    /// verdicts, when [`CheckOptions::certify`] was off, when the proof
    /// leaned on exchange-bus imports, or when lifting through the
    /// preparation pipeline failed (noted in `notes`).
    pub certificate: Option<Certificate>,
}

/// Folds a lane's stats into `acc`: merged into an existing entry for
/// the same lane (a lane can drive another lane's engine — the PDR
/// lane's counterexample rebuild is BMC work), pushed otherwise. Keeps
/// `acc` in stable pipeline order for byte-stable reports.
fn record_solver_stats(acc: &mut Vec<LaneSolverStats>, stats: LaneSolverStats) {
    match acc.iter_mut().find(|s| s.lane == stats.lane) {
        Some(existing) => existing.absorb(&stats),
        None => acc.push(stats),
    }
    acc.sort_by_key(|s| Lane::ALL.iter().position(|l| *l == s.lane));
}

/// Runs the engine lanes, one at a time or as a race depending on
/// [`CheckOptions::mode`]. Both modes schedule the same lane list and
/// merge the lane results the same way: an attack beats a proof, a proof
/// beats a timeout, and Houdini survivors strengthen the unbounded-proof
/// engines.
///
/// The instance is prepared first (see [`CheckOptions::prepare`]): every
/// lane, in both modes, runs on the reduced netlist, and any attack
/// trace is lifted back to the input netlist's latch/input indices
/// before the report is returned.
pub fn check_safety(task: &SafetyCheck, opts: &CheckOptions) -> CheckReport {
    run_prepared(task, &opts.prepare, opts.keep_probes, |t| {
        check_safety_engines(t, opts)
    })
}

fn check_safety_engines(task: &SafetyCheck, opts: &CheckOptions) -> CheckReport {
    let start = Instant::now();
    let deadline = start + opts.total_budget;
    let lanes = lane_list(task, opts, start, deadline);
    let notes = vec![
        format!(
            "netlist: {} ands, {} latches, {} inputs, {} assumes, {} bads",
            task.aig.num_ands(),
            task.aig.num_latches(),
            task.aig.num_inputs(),
            task.aig.assumes().len(),
            task.aig.bads().len()
        ),
        match opts.mode {
            ExecMode::Sequential => format!("sequential: running {} engines in order", lanes.len()),
            ExecMode::Portfolio => format!(
                "portfolio: racing {} engines ({} exchange)",
                lanes.len(),
                if opts.exchange.enabled { "with" } else { "no" }
            ),
        },
    ];
    let results = match opts.mode {
        ExecMode::Sequential => {
            let ts = TransitionSystem::shared(task.aig.clone(), opts.keep_probes);
            serial(&lanes, &ts, &Budget::until(deadline))
        }
        // Every racing lane builds its own cone-of-influence-reduced
        // system; building one here too would only delay the race start.
        ExecMode::Portfolio => race(lanes, &task.aig, opts.keep_probes, &opts.exchange).lanes,
    };
    merge(results, opts, start, deadline, notes)
}

/// The check's lanes, in pipeline order: extra lanes (fuzzing), BMC,
/// then — unless attack-only — Houdini, k-induction and PDR. In
/// sequential mode the scheduler hands Houdini's strengthened system to
/// the proof lanes after it; in portfolio mode those lanes race on the
/// plain system, so the Houdini lane re-runs them on its strengthened
/// one itself.
fn lane_list(
    task: &SafetyCheck,
    opts: &CheckOptions,
    start: Instant,
    deadline: Instant,
) -> Vec<LaneSpec> {
    let spec = |backend: Box<dyn Backend>| {
        let lane = backend.lane();
        let xc = opts.lanes.get(lane).exchange;
        LaneSpec::new(backend, opts.lanes.deadline_for(lane, start, deadline))
            .exchange(xc.import, xc.export)
    };
    let proof_engines = || {
        let mut engines: Vec<Box<dyn Backend>> = Vec::new();
        if opts.kind_max_k > 0 {
            engines.push(Box::new(
                KindBackend::new(opts.kind_max_k).warm(opts.warm_start),
            ));
        }
        if opts.use_pdr {
            engines.push(Box::new(
                PdrBackend::new(opts.pdr_max_frames, opts.bmc_depth).warm(opts.warm_start),
            ));
        }
        engines
    };
    // Extra attack-finding lanes run in every mode, including
    // attack-only: like BMC they hunt counterexamples, never proofs.
    let mut lanes: Vec<LaneSpec> = opts.extra_lanes.iter().map(|f| spec(f.build())).collect();
    lanes.push(spec(Box::new(
        BmcBackend::new(opts.bmc_depth)
            .schedule(opts.lanes.get(Lane::Bmc).depth_schedule.clone())
            .warm(opts.warm_start),
    )));
    if opts.attack_only {
        return lanes;
    }
    if !task.candidates.is_empty() {
        let mut houdini = HoudiniBackend::new(task.candidates.clone());
        if opts.mode == ExecMode::Portfolio {
            let at = opts.lanes.deadline_for(Lane::Houdini, start, deadline);
            houdini = houdini.then(
                proof_engines()
                    .into_iter()
                    .map(|b| LaneSpec::new(b, at))
                    .collect(),
            );
        }
        lanes.push(spec(Box::new(houdini)));
    }
    lanes.extend(proof_engines().into_iter().map(spec));
    lanes
}

/// Merges lane results (from either scheduler) into the report: an
/// attack beats a proof beats a timeout beats inconclusive. Lanes
/// canceled by a race winner report Timeout and only contribute notes.
fn merge(
    lanes: Vec<LaneResult>,
    opts: &CheckOptions,
    start: Instant,
    deadline: Instant,
    mut notes: Vec<String>,
) -> CheckReport {
    let bus = opts.mode == ExecMode::Portfolio && opts.exchange.enabled;
    let exchange = if bus {
        lanes.iter().map(LaneResult::exchange_stats).collect()
    } else {
        Vec::new()
    };
    let mut attack: Option<Box<Trace>> = None;
    let mut proof: Option<ProofEngine> = None;
    let mut certificate: Option<Certificate> = None;
    let mut timed_out = false;
    let mut fuzz: Option<FuzzStats> = None;
    let mut coverage: Option<CoverageStats> = None;
    let mut solver: Vec<LaneSolverStats> = Vec::new();
    for lane in lanes {
        if fuzz.is_none() {
            fuzz = lane.fuzz.clone();
        }
        if coverage.is_none() {
            coverage = lane.coverage;
        }
        for s in &lane.solver {
            record_solver_stats(&mut solver, *s);
        }
        let traffic = if bus {
            format!(" (imports {}, exports {})", lane.imports, lane.exports)
        } else {
            String::new()
        };
        notes.push(format!(
            "{} [{:.2}s]: {}{traffic}",
            lane.engine,
            lane.elapsed.as_secs_f64(),
            match &lane.outcome {
                EngineOutcome::Attack(t) => format!("attack at depth {}", t.depth()),
                EngineOutcome::Proof(p, _) => format!("proof {p:?}"),
                EngineOutcome::Inconclusive(reason) => reason.to_string(),
                EngineOutcome::Timeout => "timeout/canceled".into(),
            }
        ));
        notes.extend(lane.notes.iter().cloned());
        // A timeout on a lane's own wall cap is local — except BMC's in
        // attack-only mode, where no other solver lane can decide.
        let global =
            lane.on_shared_clock(Some(deadline)) || (opts.attack_only && lane.lane == Lane::Bmc);
        match lane.outcome {
            EngineOutcome::Attack(t) => {
                // Keep the shallowest counterexample for readability.
                if attack.as_ref().is_none_or(|a| t.depth() < a.depth()) {
                    attack = Some(t);
                }
            }
            EngineOutcome::Proof(p, cert) => {
                // First decisive proof wins; later ones add nothing.
                if proof.is_none() {
                    proof = Some(p);
                    certificate = cert.map(|c| *c);
                }
            }
            EngineOutcome::Timeout => timed_out |= global,
            EngineOutcome::Inconclusive(_) => {}
        }
    }
    let verdict = if let Some(trace) = attack {
        certificate = None;
        Verdict::Attack(trace)
    } else if let Some(p) = proof {
        Verdict::Proof(p)
    } else if timed_out {
        Verdict::Timeout
    } else if opts.attack_only {
        Verdict::Unknown {
            reason: InconclusiveReason::NoAttackWithinDepth {
                depth: opts.bmc_depth,
            },
        }
    } else {
        Verdict::Unknown {
            reason: InconclusiveReason::AllInconclusive,
        }
    };
    CheckReport {
        verdict,
        elapsed: start.elapsed(),
        notes,
        exchange,
        prepare: Vec::new(),
        fuzz,
        coverage,
        solver,
        certificate: if opts.certify { certificate } else { None },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::{Design, Init};

    fn counter_task(width: usize, target: u64, reachable: bool) -> SafetyCheck {
        let mut d = Design::new("t");
        let r = d.reg("r", width, Init::Zero);
        let limit = if reachable {
            (1 << width) - 1
        } else {
            target - 1
        };
        let at_limit = d.eq_const(&r.q(), limit);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at_limit, &r.q(), &inc);
        d.set_next(&r, nxt);
        let bad = d.eq_const(&r.q(), target);
        d.assert_always("hit", bad.not());
        SafetyCheck {
            aig: d.finish(),
            candidates: vec![],
        }
    }

    #[test]
    fn attack_found_and_validated() {
        let task = counter_task(4, 6, true);
        let report = check_safety(&task, &CheckOptions::default());
        assert!(report.verdict.is_attack(), "{:?}", report.verdict);
        assert_eq!(report.verdict.cell(), "CEX");
    }

    #[test]
    fn proof_found_for_saturating() {
        let task = counter_task(4, 6, false);
        let report = check_safety(&task, &CheckOptions::default());
        assert!(
            report.verdict.is_proof(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
    }

    #[test]
    fn attack_only_mode_reports_unknown() {
        let task = counter_task(4, 6, false);
        let report = check_safety(
            &task,
            &CheckOptions {
                attack_only: true,
                bmc_depth: 4,
                ..Default::default()
            },
        );
        assert!(matches!(report.verdict, Verdict::Unknown { .. }));
    }

    #[test]
    fn deep_cex_beyond_bmc_found_by_pdr_then_reconstructed() {
        // Bad state at depth 12 but BMC capped at 4: PDR flags it, BMC
        // reconstructs.
        let task = counter_task(4, 12, true);
        let report = check_safety(
            &task,
            &CheckOptions {
                bmc_depth: 4,
                kind_max_k: 2,
                ..Default::default()
            },
        );
        assert!(
            report.verdict.is_attack(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
    }

    #[test]
    fn zero_budget_times_out() {
        let task = counter_task(4, 6, false);
        let report = check_safety(
            &task,
            &CheckOptions {
                total_budget: Duration::from_secs(0),
                ..Default::default()
            },
        );
        assert!(
            matches!(report.verdict, Verdict::Timeout),
            "{:?}",
            report.verdict
        );
    }

    /// Portfolio mode must agree with the sequential pipeline on verdict
    /// kind for every scenario the sequential tests above cover.
    #[test]
    fn portfolio_matches_sequential_verdicts() {
        let scenarios: Vec<(&str, SafetyCheck, CheckOptions)> = vec![
            ("attack", counter_task(4, 6, true), CheckOptions::default()),
            ("proof", counter_task(4, 6, false), CheckOptions::default()),
            (
                "attack-only unknown",
                counter_task(4, 6, false),
                CheckOptions {
                    attack_only: true,
                    bmc_depth: 4,
                    ..Default::default()
                },
            ),
            (
                "deep cex via pdr",
                counter_task(4, 12, true),
                CheckOptions {
                    bmc_depth: 4,
                    kind_max_k: 2,
                    ..Default::default()
                },
            ),
            (
                "zero budget",
                counter_task(4, 6, false),
                CheckOptions {
                    total_budget: Duration::from_secs(0),
                    ..Default::default()
                },
            ),
            // Attack-only with a spent BMC lane cap: both modes must
            // report the same (global) timeout — there is no other lane
            // to fall through to.
            (
                "attack-only with capped bmc",
                counter_task(4, 6, false),
                CheckOptions {
                    attack_only: true,
                    lanes: crate::lane::LanePlan::new().with(
                        crate::lane::Lane::Bmc,
                        crate::lane::LaneBudget::wall(Duration::ZERO),
                    ),
                    ..Default::default()
                },
            ),
        ];
        for (label, task, opts) in scenarios {
            let seq = check_safety(&task, &opts);
            let par = check_safety(&task, &opts.clone().portfolio());
            assert_eq!(
                seq.verdict.cell(),
                par.verdict.cell(),
                "{label}: sequential {:?} vs portfolio {:?}\nportfolio notes: {:?}",
                seq.verdict,
                par.verdict,
                par.notes
            );
        }
    }

    /// A wall-capped lane that exhausts only its own clock is skipped in
    /// sequential mode and ignored in portfolio mode — the check still
    /// reaches the proof engines instead of reporting a global timeout.
    #[test]
    fn bmc_lane_cap_skips_phase_instead_of_timing_out() {
        use crate::lane::{Lane, LaneBudget, LanePlan};
        let task = counter_task(4, 6, false);
        for mode in [ExecMode::Sequential, ExecMode::Portfolio] {
            let opts = CheckOptions {
                lanes: LanePlan::new().with(Lane::Bmc, LaneBudget::wall(Duration::ZERO)),
                mode,
                ..Default::default()
            };
            let report = check_safety(&task, &opts);
            assert!(
                report.verdict.is_proof(),
                "{mode:?}: {:?} {:?}",
                report.verdict,
                report.notes
            );
        }
    }

    /// The saturating counter of `counter_task(4, 6, false)` next to a
    /// held flag `g` (reset 0) that is also bad, with the inductive
    /// candidate `!g`: Houdini keeps it, but it does not exclude `r == 6`
    /// on its own. Preparation is off so the candidate reaches Houdini.
    fn flagged_counter_task() -> (SafetyCheck, CheckOptions) {
        let mut d = Design::new("t");
        let r = d.reg("r", 4, Init::Zero);
        let at_limit = d.eq_const(&r.q(), 5);
        let inc = d.add_const(&r.q(), 1);
        let nxt = d.mux(at_limit, &r.q(), &inc);
        d.set_next(&r, nxt);
        let g = d.reg("g", 1, Init::Zero);
        d.hold(&g);
        let flag = g.q().bit(0);
        let hit = d.eq_const(&r.q(), 6);
        let bad = d.or_bit(hit, flag);
        d.assert_always("hit", bad.not());
        let task = SafetyCheck {
            aig: d.finish(),
            candidates: vec![Candidate {
                name: "g_low".into(),
                bit: flag.not(),
            }],
        };
        let opts = CheckOptions::default().with_prepare(PrepareConfig::off());
        (task, opts)
    }

    /// A spent Houdini cap skips the strengthening: the proof lanes run
    /// on the plain system and still prove, citing no survivors.
    #[test]
    fn houdini_lane_cap_continues_unstrengthened() {
        use crate::lane::{LaneBudget, LanePlan};
        let (task, opts) = flagged_counter_task();
        for mode in [ExecMode::Sequential, ExecMode::Portfolio] {
            let opts = CheckOptions {
                lanes: LanePlan::new().with(Lane::Houdini, LaneBudget::wall(Duration::ZERO)),
                mode,
                ..opts.clone()
            };
            let report = check_safety(&task, &opts);
            assert!(
                matches!(
                    report.verdict,
                    Verdict::Proof(ProofEngine::KInduction { .. } | ProofEngine::Pdr { .. })
                ),
                "{mode:?}: {:?} {:?}",
                report.verdict,
                report.notes
            );
            let cert = report.certificate.expect("self-contained proof");
            assert!(cert.survivors.is_empty(), "{mode:?}: {cert:?}");
        }
    }

    /// Sequential mode hands Houdini's survivors past a spent
    /// k-induction cap to PDR, whose certificate cites them.
    #[test]
    fn kind_lane_cap_leaves_pdr_the_strengthened_system() {
        use crate::lane::{LaneBudget, LanePlan};
        let (task, opts) = flagged_counter_task();
        let opts = CheckOptions {
            lanes: LanePlan::new().with(Lane::KInduction, LaneBudget::wall(Duration::ZERO)),
            ..opts
        };
        let report = check_safety(&task, &opts);
        assert!(
            matches!(report.verdict, Verdict::Proof(ProofEngine::Pdr { .. })),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
        let cert = report.certificate.expect("self-contained proof");
        assert_eq!(cert.survivors, vec![0]);
    }

    /// With warm start on, the PDR lane rebuilds its deep counterexample
    /// by resuming the BMC session the BMC lane parked clean at its bound.
    #[test]
    fn warm_pdr_rebuild_resumes_parked_bmc_session() {
        let task = counter_task(4, 12, true);
        let opts = CheckOptions {
            bmc_depth: 4,
            ..Default::default()
        }
        .warm(true);
        let report = check_safety(&task, &opts);
        assert!(
            report.verdict.is_attack(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
        let bmc = report
            .solver
            .iter()
            .find(|s| s.lane == Lane::Bmc)
            .expect("bmc lane stats present");
        assert!(bmc.warm_hits >= 1, "{:?} {:?}", report.solver, report.notes);
    }

    /// A BMC depth schedule still finds attacks beyond its shallow steps
    /// (and beyond `bmc_depth`, which the schedule overrides).
    #[test]
    fn bmc_depth_schedule_reaches_deep_attack() {
        use crate::lane::{Lane, LaneBudget, LanePlan};
        let task = counter_task(4, 6, true);
        for mode in [ExecMode::Sequential, ExecMode::Portfolio] {
            let opts = CheckOptions {
                bmc_depth: 2,
                attack_only: true,
                lanes: LanePlan::new().with(Lane::Bmc, LaneBudget::depths(&[2, 4, 8])),
                mode,
                ..Default::default()
            };
            let report = check_safety(&task, &opts);
            assert!(
                report.verdict.is_attack(),
                "{mode:?}: {:?} {:?}",
                report.verdict,
                report.notes
            );
        }
    }

    /// The exchange bus only ships implied facts, so switching it on must
    /// never change a portfolio verdict — and the report must carry the
    /// per-lane traffic counters.
    #[test]
    fn exchange_on_portfolio_matches_off_and_records_stats() {
        let scenarios: Vec<(&str, SafetyCheck, CheckOptions)> = vec![
            ("attack", counter_task(4, 6, true), CheckOptions::default()),
            ("proof", counter_task(4, 6, false), CheckOptions::default()),
            (
                "deep cex via pdr",
                counter_task(4, 12, true),
                CheckOptions {
                    bmc_depth: 4,
                    kind_max_k: 2,
                    ..Default::default()
                },
            ),
        ];
        for (label, task, opts) in scenarios {
            let off = check_safety(&task, &opts.clone().portfolio());
            let on = check_safety(
                &task,
                &opts.clone().portfolio().with_exchange(ExchangeConfig::on()),
            );
            assert_eq!(
                off.verdict.cell(),
                on.verdict.cell(),
                "{label}: off {:?} vs on {:?}\non notes: {:?}",
                off.verdict,
                on.verdict,
                on.notes
            );
            assert!(off.exchange.is_empty(), "{label}: off must report no bus");
            assert!(
                !on.exchange.is_empty(),
                "{label}: on must report per-lane stats"
            );
        }
    }

    /// An exchange opt-out in the lane plan silences that lane's side of
    /// the bus.
    #[test]
    fn lane_exchange_opt_out_is_honored() {
        use crate::lane::{LaneBudget, LaneExchange, LanePlan};
        let task = counter_task(4, 6, false);
        let opts = CheckOptions {
            lanes: LanePlan::new().with(
                Lane::Bmc,
                LaneBudget::default().with_exchange(LaneExchange {
                    import: false,
                    export: false,
                }),
            ),
            ..CheckOptions::default()
        }
        .portfolio()
        .with_exchange(ExchangeConfig::on());
        let report = check_safety(&task, &opts);
        let bmc = report
            .exchange
            .iter()
            .find(|s| s.lane == Lane::Bmc)
            .expect("bmc lane stats present");
        assert_eq!(bmc.imports, 0);
        assert_eq!(bmc.exports, 0);
    }

    /// The portfolio prefers an attack over a proof when both lanes report
    /// (can happen when a canceled-but-decided proof lane drains late).
    #[test]
    fn portfolio_attack_beats_proof_on_unsafe_design() {
        let task = counter_task(4, 6, true);
        let report = check_safety(&task, &CheckOptions::default().portfolio());
        assert!(
            report.verdict.is_attack(),
            "{:?} {:?}",
            report.verdict,
            report.notes
        );
    }
}
