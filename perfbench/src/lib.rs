//! End-to-end and per-layer benchmark of the contract-shadow-logic
//! verifier. See `README.md` beside this crate for the workloads, the
//! metrics and the layer map.
//!
//! The benchmark drives the verifier only through public calls:
//! `Verifier`/`Query`, `csl_mc::prepare`, `csl_certify` and the
//! `Report` JSON codec.

pub mod host;
pub mod trace;
pub mod workload;

use std::time::Instant;

use csl_certify::{check_certificate, check_witness, Witness};
use csl_core::api::{Query, Report};
use csl_mc::{ProofEngine, SafetyCheck, Verdict};

use trace::Tracer;
use workload::{fnv1a, Expect, BUDGET, FNV_OFFSET};

/// Rounds of instance building behind `setup_s`; the median is reported.
pub const SETUP_ROUNDS: usize = 3;

/// Deterministic work one query did: solver counters and engine counts.
/// In sequential mode these repeat exactly for a query, so two runs of
/// one seed must agree on them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub conflicts: u64,
    pub propagations: u64,
    pub decisions: u64,
    pub pdr_frames: u64,
    pub pdr_clauses: u64,
    pub kind_k: u64,
    pub houdini_invariants: u64,
    pub cex_depth: u64,
}

impl Work {
    pub fn of(report: &Report) -> Work {
        let mut w = Work::default();
        for lane in &report.solver {
            w.conflicts += lane.conflicts;
            w.propagations += lane.propagations;
            w.decisions += lane.decisions;
        }
        match &report.verdict {
            Verdict::Attack(trace) => w.cex_depth = trace.depth() as u64,
            Verdict::Proof(ProofEngine::Pdr {
                frames, clauses, ..
            }) => {
                w.pdr_frames = *frames as u64;
                w.pdr_clauses = *clauses as u64;
            }
            Verdict::Proof(ProofEngine::KInduction { k }) => w.kind_k = *k as u64,
            Verdict::Proof(ProofEngine::Houdini { invariants }) => {
                w.houdini_invariants = *invariants as u64
            }
            _ => {}
        }
        w
    }

    pub fn add(&mut self, o: &Work) {
        self.conflicts += o.conflicts;
        self.propagations += o.propagations;
        self.decisions += o.decisions;
        self.pdr_frames += o.pdr_frames;
        self.pdr_clauses += o.pdr_clauses;
        self.kind_k += o.kind_k;
        self.houdini_invariants += o.houdini_invariants;
        self.cex_depth += o.cex_depth;
    }
}

/// How a query's answer compares with the known one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    /// Expected verdict, evidence re-checks, well inside the budget.
    Correct,
    /// Undecided, evidence rejected, or over a tenth of the budget.
    Failed,
    /// A counterexample on a secure design or a proof on an insecure
    /// one: the verifier is unsound and the benchmark must not report.
    Unsound,
}

/// One query's outcome along the user's path.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub verdict: &'static str,
    pub answer: Answer,
    /// `Query::run` + evidence re-check + `Report` JSON round trip.
    pub latency: f64,
    /// The verifier's own `Report::elapsed`.
    pub elapsed: f64,
    pub work: Work,
}

/// Re-checks a report's evidence on the raw netlist: attacks by witness
/// replay, proofs by certificate. `None` when the verdict carries no
/// evidence to check; `Some(false)` when the check rejects it.
fn recheck(report: &Report, raw: &SafetyCheck) -> Option<bool> {
    match &report.verdict {
        Verdict::Attack(trace) => {
            Some(check_witness(&raw.aig, &Witness::new((**trace).clone())).is_ok())
        }
        Verdict::Proof(_) => Some(
            report
                .certificate
                .as_ref()
                .is_some_and(|c| check_certificate(raw, c).is_ok()),
        ),
        _ => None,
    }
}

/// JSON round trip through `Report`; returns the document size and
/// whether the verdict survived it.
fn round_trip(report: &Report) -> (usize, bool) {
    let json = report.to_json();
    let back = Report::from_json(&json);
    (json.len(), back.is_ok_and(|b| b.verdict == report.verdict))
}

/// Grades a verdict against the known answer; `evidence` is the result
/// of re-checking it.
pub fn grade(expect: Expect, verdict: &Verdict, evidence: Option<bool>, elapsed: f64) -> Answer {
    let decided = match (expect, verdict) {
        (Expect::Attack, Verdict::Proof(_)) | (Expect::Proof, Verdict::Attack(_)) => {
            return Answer::Unsound
        }
        (Expect::Attack, Verdict::Attack(_)) | (Expect::Proof, Verdict::Proof(_)) => {
            evidence == Some(true)
        }
        _ => false,
    };
    if decided && elapsed <= BUDGET.as_secs_f64() / 10.0 {
        Answer::Correct
    } else {
        Answer::Failed
    }
}

fn outcome(
    expect: Expect,
    report: &Report,
    evidence: Option<bool>,
    json_ok: bool,
    latency: f64,
) -> Outcome {
    let elapsed = report.elapsed.as_secs_f64();
    let mut answer = grade(expect, &report.verdict, evidence, elapsed);
    if !json_ok && answer == Answer::Correct {
        answer = Answer::Failed;
    }
    Outcome {
        verdict: report.verdict.cell(),
        answer,
        latency,
        elapsed,
        work: Work::of(report),
    }
}

/// One query along the user's path, untraced: `Query::run`, the evidence
/// re-check on the raw netlist built during set-up, and the JSON round
/// trip.
pub fn run_query(query: &Query, raw: &SafetyCheck, expect: Expect) -> Outcome {
    let start = Instant::now();
    let report = query.run();
    let evidence = recheck(&report, raw);
    let (_, json_ok) = round_trip(&report);
    let latency = start.elapsed().as_secs_f64();
    outcome(expect, &report, evidence, json_ok, latency)
}

/// Per-layer accumulators of a traced run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    pub harness_ands: u64,
    pub prepare_ands_removed: u64,
    pub prepare_latches_removed: u64,
    /// `Query::run` self time net of the separately timed harness and
    /// prepare calls for the same query.
    pub engine_s: f64,
    pub certify_rejected: u64,
    pub report_bytes: u64,
    /// Decisions by verdict kind and deciding engine.
    pub decided_attack: u64,
    pub decided_houdini: u64,
    pub decided_kind: u64,
    pub decided_pdr: u64,
}

impl Layers {
    fn count_verdict(&mut self, verdict: &Verdict) {
        match verdict {
            Verdict::Attack(_) => self.decided_attack += 1,
            Verdict::Proof(ProofEngine::Houdini { .. }) => self.decided_houdini += 1,
            Verdict::Proof(ProofEngine::KInduction { .. }) => self.decided_kind += 1,
            Verdict::Proof(ProofEngine::Pdr { .. }) => self.decided_pdr += 1,
            _ => {}
        }
    }
}

/// One query with a span around each layer call. The harness and prepare
/// layers are timed by building the instance once more outside
/// `Query::run`, which builds its own; `engine.s` is `Query::run`'s time
/// net of those two. Returns the outcome with `latency` set to the
/// user's path alone (run + certify + report).
pub fn run_query_traced(
    tracer: &mut Tracer,
    layers: &mut Layers,
    query: &Query,
    expect: Expect,
    id: usize,
) -> Outcome {
    let root = tracer.open("query", None, id);
    let (raw, harness_s) = tracer.span("harness", Some(root), id, || query.raw_instance());
    let opts = query.options();
    let (prepared, prepare_s) = tracer.span("prepare", Some(root), id, || {
        csl_mc::prepare(&raw, &opts.prepare, opts.keep_probes)
    });
    let (report, run_s) = tracer.span("run", Some(root), id, || query.run());
    let (evidence, certify_s) = tracer.span("certify", Some(root), id, || recheck(&report, &raw));
    let ((bytes, json_ok), report_s) =
        tracer.span("report", Some(root), id, || round_trip(&report));
    tracer.close(root);
    layers.harness_ands += raw.aig.num_ands() as u64;
    layers.prepare_ands_removed += prepared.stats.ands_removed() as u64;
    layers.prepare_latches_removed += prepared.stats.latches_removed() as u64;
    layers.engine_s += (run_s - harness_s - prepare_s).max(0.0);
    layers.certify_rejected += u64::from(evidence == Some(false));
    layers.report_bytes += bytes as u64;
    layers.count_verdict(&report.verdict);
    outcome(
        expect,
        &report,
        evidence,
        json_ok,
        run_s + certify_s + report_s,
    )
}

/// Median of a non-empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample (the largest when there are fewer than
/// eleven). Returns the value, the percentile and the samples beyond it.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = if n > 10 { 10 } else { 0 };
    let idx = n - 1 - beyond;
    (v[idx], 100.0 * (idx + 1) as f64 / n as f64, beyond)
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over each query's verdict and work, in schedule order: equal
/// digests mean two runs did the same work.
pub fn work_digest(outcomes: &[Outcome]) -> u64 {
    outcomes.iter().fold(FNV_OFFSET, |h, o| {
        let w = o.work;
        [
            w.conflicts,
            w.propagations,
            w.decisions,
            w.pdr_frames,
            w.pdr_clauses,
            w.kind_k,
            w.houdini_invariants,
            w.cex_depth,
        ]
        .iter()
        .fold(fnv1a(h, o.verdict.as_bytes()), |h, x| {
            fnv1a(h, &x.to_le_bytes())
        })
    })
}

/// Wall time of `f` in seconds, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Each distinct query's best latency over its repeats in `order`
/// (`order[k]` is the distinct index of `latencies[k]`).
pub fn best_per_query(order: &[usize], latencies: &[f64], distinct: usize) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; distinct];
    for (&i, &l) in order.iter().zip(latencies) {
        best[i] = best[i].min(l);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct, beyond) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(beyond, 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0, 0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn grading_flags_unsound_verdicts() {
        let proof = Verdict::Proof(ProofEngine::KInduction { k: 1 });
        assert_eq!(grade(Expect::Attack, &proof, None, 0.1), Answer::Unsound);
        assert_eq!(
            grade(Expect::Proof, &proof, Some(true), 0.1),
            Answer::Correct
        );
        assert_eq!(
            grade(Expect::Proof, &proof, Some(false), 0.1),
            Answer::Failed
        );
        // Over a tenth of the budget fails even with the right verdict.
        let slow = BUDGET.as_secs_f64() / 5.0;
        assert_eq!(
            grade(Expect::Proof, &proof, Some(true), slow),
            Answer::Failed
        );
        assert_eq!(
            grade(Expect::Attack, &Verdict::Timeout, None, 0.1),
            Answer::Failed
        );
    }
}
