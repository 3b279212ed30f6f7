//! The fuzzing backend inside the session API: portfolio racing, the
//! fuzz lane ahead of BMC in sequential mode, trace lifting through
//! instance preparation, and cache-key sensitivity.

use std::time::Duration;

use csl_contracts::Contract;
use csl_core::api::{FuzzPlan, Mode, Verifier};
use csl_core::{run_fuzz, DesignKind, FuzzOutcome, Scheme};
use csl_cpu::Defense;
use csl_mc::{Sim, Verdict};
use csl_sat::Budget;

fn insecure_verifier() -> Verifier {
    Verifier::new()
        .design(DesignKind::SimpleOoo(Defense::None))
        .contract(Contract::Sandboxing)
        .scheme(Scheme::Shadow)
        .with_candidates(false)
        .wall(Duration::from_secs(180))
}

/// A plan sized so the campaign decides well inside the debug-profile
/// test budget (the batch simulator advances 64 trials per pass).
fn plan() -> FuzzPlan {
    FuzzPlan::new().trials(4000).cycles(20).seed(7)
}

/// With BMC capped far below the leak depth and the proof engines off,
/// the fuzzing lane is the only engine that can decide the race — the
/// attack verdict *is* the demonstration that a fuzz leak is decisive
/// and cancels the solver lanes.
#[test]
fn fuzz_lane_decides_the_portfolio_race() {
    let report = insecure_verifier()
        .mode(Mode::Portfolio)
        .attack_only(true)
        .bmc_depth(2)
        .fuzz(plan())
        .query()
        .unwrap()
        .run();
    assert!(
        report.verdict.is_attack(),
        "fuzz lane must find the leak: {:?}\n{:?}",
        report.verdict,
        report.notes
    );
    let stats = report.fuzz.as_ref().expect("fuzz stats in report");
    assert!(stats.leak_cycle.is_some());
    assert_eq!(stats.lanes, 64);
    assert_eq!(stats.seed, 7);
    assert!(
        report
            .notes
            .iter()
            .any(|n| n.starts_with("fuzz [") && n.contains("attack at depth")),
        "fuzz lane note missing: {:?}",
        report.notes
    );
    // The finding left the engine as a replayable trace: the JSON
    // round-trip preserves it like any formal counterexample.
    let parsed = csl_core::api::Report::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}

/// Sequential mode runs the fuzzing lane ahead of BMC.
#[test]
fn fuzz_phase_zero_decides_sequential_checks() {
    let report = insecure_verifier()
        .mode(Mode::Sequential)
        .attack_only(true)
        .bmc_depth(2)
        .fuzz(plan())
        .query()
        .unwrap()
        .run();
    assert!(
        report.verdict.is_attack(),
        "{:?}\n{:?}",
        report.verdict,
        report.notes
    );
    assert!(report.fuzz.is_some(), "stats must survive the wrapper");
    assert!(
        report
            .notes
            .iter()
            .any(|n| n.starts_with("fuzz [") && n.contains("attack at depth")),
        "fuzz lane note missing: {:?}",
        report.notes
    );
}

/// A leak found while fuzzing the *prepared* (reduced) netlist comes
/// back lifted into raw-netlist vocabulary — `check_safety` routes fuzz
/// traces through the same `Reconstruction` as formal ones — and the
/// lifted trace replays on the raw netlist to a bad-state hit.
#[test]
fn fuzz_findings_lift_through_preparation_and_replay_raw() {
    let query = insecure_verifier()
        .mode(Mode::Portfolio)
        .attack_only(true)
        .bmc_depth(2)
        .fuzz(plan())
        .query()
        .unwrap();
    let prepared = query.instance();
    assert!(prepared.was_prepared(), "default prepare pipeline is on");

    // Fuzz the reduced instance directly, then lift by hand.
    let isa = query.config().cpu_config().isa;
    let fuzz = run_fuzz(prepared.aig(), &isa, &plan(), &Budget::unlimited());
    let finding = match fuzz.outcome {
        FuzzOutcome::Leak(f) => f,
        FuzzOutcome::Exhausted { trials, .. } => {
            panic!("no leak in {trials} trials on the prepared insecure instance")
        }
    };
    let raw = query.raw_instance();
    let lifted = finding.trace.lifted(&prepared.reconstruction);
    let (assumes_ok, bad) = Sim::new(&raw.aig).replay(&lifted);
    assert!(
        assumes_ok && bad,
        "lifted fuzz trace must replay on the raw netlist"
    );

    // And the end-to-end path agrees: the attack the full check reports
    // replays on the raw netlist as-is.
    let report = query.run();
    match &report.verdict {
        Verdict::Attack(trace) => {
            let (ok, hit) = Sim::new(&raw.aig).replay(trace);
            assert!(ok && hit, "reported attack must be in raw vocabulary");
        }
        other => panic!("expected attack, got {other:?}\n{:?}", report.notes),
    }
}

/// The fuzz plan is part of the query fingerprint: adding a lane or
/// changing its seed must miss the session cache.
#[test]
fn fuzz_plan_changes_the_cache_key() {
    let base = insecure_verifier();
    let without = base.clone().query().unwrap().cache_key();
    let with = base.clone().fuzz(plan()).query().unwrap().cache_key();
    let reseeded = base
        .clone()
        .fuzz(plan().seed(8))
        .query()
        .unwrap()
        .cache_key();
    assert_ne!(without, with, "adding a fuzz lane must change the key");
    assert_ne!(with, reseeded, "the plan's seed is part of the key");
    let no_fuzz = base.fuzz(plan()).no_fuzz().query().unwrap().cache_key();
    assert_eq!(without, no_fuzz, "no_fuzz restores the fuzz-free key");
}
