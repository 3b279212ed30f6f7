//! `csl-mc` — model-checking engines over `csl-hdl` netlists.
//!
//! This crate is the reproduction's stand-in for the commercial model
//! checker (Cadence JasperGold) used by the paper. It provides:
//!
//! * [`ts::TransitionSystem`] — cone-of-influence-reduced view of a netlist,
//! * [`sim`] — concrete simulation, counterexample replay and waveforms,
//!   including the 64-lane bit-parallel [`sim::BatchSim`] behind the
//!   differential-fuzzing backend,
//! * [`bmc`] — bounded model checking (attack finding; the paper's `Ht`
//!   engine role),
//! * [`kind`] — k-induction with optional unique-state constraints,
//! * [`houdini`] — invariant filtering over candidate relational
//!   invariants (the mechanism behind the LEAVE comparison scheme),
//! * [`pdr`] — IC3/property-directed reachability (unbounded proofs; the
//!   paper's `Mp`/`AM` engine role),
//! * [`engine::check_safety`] — the orchestrated check producing the
//!   paper's three outcomes: attack counterexample, unbounded proof, or
//!   timeout. It builds one ordered lane list (extra lanes, BMC, Houdini,
//!   k-induction, PDR) and merges the lane results into one report,
//! * [`portfolio`] — the [`portfolio::Backend`] trait (API v2) and the
//!   two schedulers over it: [`serial`] (sequential mode) runs the lanes
//!   in order and hands Houdini's strengthened system to the proof lanes
//!   after it; [`race`] (portfolio mode) runs them concurrently, the
//!   first decisive lane cancelling the rest through a stop flag shared
//!   via `csl_sat::Budget`, with every backend holding a handle on the
//!   exchange bus,
//! * [`exchange`] — the cross-lane lemma/clause [`Exchange`] bus: BMC
//!   publishes learnt clauses at conflict boundaries, Houdini streams
//!   survivor lemmas at its consecution fixpoint, and k-induction/PDR
//!   import both into their running solvers between SAT queries,
//! * [`lane`] — per-lane budget shaping ([`LanePlan`]): wall caps, BMC
//!   depth schedules and exchange opt-outs threaded through
//!   [`CheckOptions::lanes`] into both execution modes,
//! * [`prepare`] — instance preparation: the `csl_hdl::xform` reduction
//!   pipeline (cone-of-influence, constant sweep + cross-copy re-strash,
//!   dead-latch elimination, compaction) every engine runs behind, with
//!   [`prepare::PreparedInstance`] carrying the reconstruction that
//!   lifts counterexamples back to raw-netlist vocabulary.
//!
//! # Example: prove a saturating counter never overflows
//!
//! ```
//! use csl_hdl::{Design, Init};
//! use csl_mc::{check_safety, CheckOptions, SafetyCheck};
//!
//! let mut d = Design::new("sat");
//! let r = d.reg("r", 3, Init::Zero);
//! let at_max = d.eq_const(&r.q(), 3);
//! let inc = d.add_const(&r.q(), 1);
//! let nxt = d.mux(at_max, &r.q(), &inc);
//! d.set_next(&r, nxt);
//! let bad = d.eq_const(&r.q(), 7);
//! d.assert_always("no7", bad.not());
//!
//! let task = SafetyCheck { aig: d.finish(), candidates: vec![] };
//! let report = check_safety(&task, &CheckOptions::default());
//! assert!(report.verdict.is_proof());
//! ```

pub mod bmc;
pub mod cert;
pub mod engine;
pub mod exchange;
pub mod houdini;
pub mod kind;
pub mod lane;
pub mod pdr;
pub mod portfolio;
pub mod prepare;
pub mod sim;
pub mod trace;
pub mod ts;
pub mod unroll;
pub mod warm;

pub use bmc::{bmc, bmc_with, BmcResult, BmcSession, BusMemory};
pub use cert::{CertKind, Certificate};
pub use engine::{
    check_safety, CheckOptions, CheckReport, CoverageStats, ExecMode, FuzzStats,
    InconclusiveReason, ProofEngine, SafetyCheck, Verdict,
};
pub use exchange::{
    Exchange, ExchangeConfig, ExchangeItem, ExchangeStats, SharedClause, SharedContext,
    SharedFrontier, SharedInvariant, SharedLemma, SharedObligation, TimedLit,
};
pub use houdini::{houdini, houdini_with, Candidate, HoudiniOutcome, HoudiniResult};
pub use kind::{k_induction, k_induction_with, KindOptions, KindResult, KindSession};
pub use lane::{Lane, LaneBudget, LaneExchange, LanePlan};
pub use pdr::{pdr, pdr_with, pdr_with_stats, Cube, PdrOptions, PdrResult};
pub use portfolio::{
    race, serial, Backend, BmcBackend, EngineOutcome, HoudiniBackend, KindBackend, LaneFactory,
    LaneResult, LaneSpec, PdrBackend, RaceReport,
};
pub use prepare::{prepare, PrepareConfig, PrepareStats, PreparedInstance};
pub use sim::{
    BatchCycleValues, BatchMasks, BatchSim, BatchState, BatchStep, CycleValues, Sim, SimState,
    StepResult,
};
pub use trace::Trace;
pub use ts::TransitionSystem;
pub use unroll::{InitMode, Unroller};
pub use warm::{LaneSolverStats, WarmPool, WarmScope, WarmSession};
