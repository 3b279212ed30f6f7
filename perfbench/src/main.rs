//! `perfbench --workload <attack|prove> --seed <n> --seconds <s>
//! --trace <0|1> [--out-dir <dir>]`
//!
//! Runs one workload and prints every metric by name, unit and sample
//! count; the last line of standard output is the JSON summary
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a traced run records
//! spans around each layer call and reports the per-layer metrics.
//!
//! Exit codes: 0 on a finished run (even with failed queries, which the
//! summary counts), 2 on bad arguments, 3 when a verdict is unsound — a
//! counterexample on a secure design or a proof on an insecure one.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use csl_core::api::Query;
use csl_mc::SafetyCheck;

use perfbench::host::{self, Reference};
use perfbench::trace::Tracer;
use perfbench::workload::{distinct, fingerprint, schedule, Spec, Workload, BUDGET};
use perfbench::{
    best_per_query, median, peak_rss_mb, run_query, run_query_traced, tail, timed, work_digest,
    Answer, Layers, Outcome, Work, SETUP_ROUNDS,
};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out_dir,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics of an untraced run, from each distinct query's
/// best scaled latency over its repeats (see `README.md`, "Scaled
/// latencies"). `queries_per_s` is the throughput of one pass at those
/// latencies.
fn end_to_end(
    setup: f64,
    best: &[f64],
    repeats: usize,
    correct: usize,
    attempted: usize,
) -> Vec<Metric> {
    let n = best.len();
    let (tail_v, pct, beyond) = tail(best);
    println!(
        "latencies: best of {repeats} runs for each of {n} distinct queries; latency_s.tail is p{pct:.1} with {beyond} queries beyond it"
    );
    vec![
        metric("setup_s", setup, "s", SETUP_ROUNDS),
        metric("latency_s.p50", median(best), "s", n),
        metric("latency_s.tail", tail_v, "s", n),
        metric(
            "queries_per_s",
            n as f64 / best.iter().sum::<f64>(),
            "1/s",
            n,
        ),
        metric("correct", correct as f64, "count", attempted),
        metric("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1),
    ]
}

/// The per-layer metrics of a traced run; `wall` is the traced phase's
/// wall time, against which the user's path gives the tracing overhead.
fn per_layer(tracer: &Tracer, layers: &Layers, timed_out: &[Outcome], wall: f64) -> Vec<Metric> {
    let n = timed_out.len();
    let mut work = Work::default();
    for o in timed_out {
        work.add(&o.work);
    }
    let path: f64 = timed_out.iter().map(|o| o.latency).sum();
    let overhead = 100.0 * (wall - path) / path;
    println!(
        "tracing overhead: the traced phase took {wall:.3} s for {path:.3} s of user-path work ({overhead:.1}%)"
    );
    let engine_s = layers.engine_s;
    let count = |name, v: u64| metric(name, v as f64, "count", n);
    vec![
        metric("harness.s", tracer.self_time("harness"), "s", n),
        count("harness.ands", layers.harness_ands),
        metric("prepare.s", tracer.self_time("prepare"), "s", n),
        count("prepare.ands_removed", layers.prepare_ands_removed),
        count("prepare.latches_removed", layers.prepare_latches_removed),
        metric("engine.s", engine_s, "s", n),
        count("sat.conflicts", work.conflicts),
        count("sat.propagations", work.propagations),
        count("sat.decisions", work.decisions),
        metric(
            "sat.props_per_s",
            work.propagations as f64 / engine_s.max(1e-9),
            "1/s",
            n,
        ),
        count("engine.pdr_frames", work.pdr_frames),
        count("engine.pdr_clauses", work.pdr_clauses),
        count("engine.kind_k", work.kind_k),
        count("engine.houdini_invariants", work.houdini_invariants),
        count("engine.cex_depth", work.cex_depth),
        metric("certify.s", tracer.self_time("certify"), "s", n),
        count("certify.rejected", layers.certify_rejected),
        metric("report.s", tracer.self_time("report"), "s", n),
        metric("report.bytes", layers.report_bytes as f64, "bytes", n),
        count("decided.attack", layers.decided_attack),
        count("decided.houdini", layers.decided_houdini),
        count("decided.kind", layers.decided_kind),
        count("decided.pdr", layers.decided_pdr),
        metric("trace.overhead_pct", overhead, "%", n),
    ]
}

/// Builds every distinct query and its raw and prepared instance,
/// `SETUP_ROUNDS` times; returns the last build and the median round.
fn build_instances(specs: &[Spec]) -> (Vec<Query>, Vec<SafetyCheck>, f64) {
    let mut rounds = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_ROUNDS {
        let (b, s) = timed(|| {
            let queries: Vec<Query> = specs.iter().map(Spec::query).collect();
            let raws: Vec<SafetyCheck> = queries.iter().map(Query::raw_instance).collect();
            for (q, raw) in queries.iter().zip(&raws) {
                let opts = q.options();
                black_box(csl_mc::prepare(raw, &opts.prepare, opts.keep_probes));
            }
            (queries, raws)
        });
        rounds.push(s);
        built = Some(b);
    }
    let (queries, raws) = built.expect("at least one set-up round");
    (queries, raws, median(&rounds))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let specs = distinct(w);
    let passes = w.passes(args.seconds);
    let order = schedule(specs.len(), passes, args.seed);
    let labels: Vec<String> = specs.iter().map(Spec::label).collect();
    println!(
        "workload {}: {} distinct queries x {passes} passes = {} timed, seed {}, query-list fingerprint {:016x}",
        w.name(),
        specs.len(),
        order.len(),
        args.seed,
        fingerprint(order.iter().map(|&i| labels[i].as_str()))
    );

    // Set-up: build and prepare every distinct instance, then one
    // untimed pass over every distinct query in a seeded order.
    let (queries, raws, build_s) = build_instances(&specs);
    let warm_order = schedule(specs.len(), 1, args.seed ^ 0x5eed);
    let (mut outcomes, warm_s) = timed(|| {
        warm_order
            .iter()
            .map(|&i| run_query(&queries[i], &raws[i], specs[i].expect))
            .collect::<Vec<_>>()
    });
    println!("set-up: {build_s:.3} s median instance build + {warm_s:.3} s warm pass");

    let mut tracer = Tracer::default();
    let mut layers = Layers::default();
    let reference = Reference::default();
    let mut reference_times = Vec::new();
    let start = Instant::now();
    let timed_out: Vec<Outcome> = order
        .iter()
        .enumerate()
        .map(|(id, &i)| {
            if args.trace {
                run_query_traced(&mut tracer, &mut layers, &queries[i], specs[i].expect, id)
            } else {
                reference_times.push(reference.time());
                run_query(&queries[i], &raws[i], specs[i].expect)
            }
        })
        .collect();
    let wall = start.elapsed().as_secs_f64();

    for (o, &i) in outcomes
        .iter()
        .zip(&warm_order)
        .chain(timed_out.iter().zip(&order))
    {
        if o.answer != Answer::Correct {
            eprintln!("query {} ended {} ({:?})", labels[i], o.verdict, o.answer);
        }
    }
    outcomes.extend(timed_out.iter().cloned());
    if outcomes.iter().any(|o| o.answer == Answer::Unsound) {
        eprintln!(
            "perfbench: unsound verdict (a counterexample on a secure design or a proof on an insecure one)"
        );
        return ExitCode::from(3);
    }
    let attempted = outcomes.len();
    let correct = outcomes
        .iter()
        .filter(|o| o.answer == Answer::Correct)
        .count();
    let worst = outcomes.iter().map(|o| o.elapsed).fold(0.0, f64::max);
    println!(
        "budget headroom: the slowest query used {:.4} of its {} s budget (limit 0.1)",
        worst / BUDGET.as_secs_f64(),
        BUDGET.as_secs()
    );
    println!("work digest: {:016x}", work_digest(&timed_out));

    let metrics = if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        per_layer(&tracer, &layers, &timed_out, wall)
    } else {
        let factors = host::factors(&reference_times);
        let wall: Vec<f64> = timed_out.iter().map(|o| o.latency).collect();
        let scaled: Vec<f64> = wall.iter().zip(&factors).map(|(l, f)| l / f).collect();
        let unscaled = best_per_query(&order, &wall, specs.len());
        println!(
            "host factor: median {:.3} (reference {:.2} ms against {:.2} ms nominal); unscaled latency p50 {:.4} s, tail {:.4} s",
            median(&factors),
            1e3 * median(&reference_times),
            1e3 * host::NOMINAL_S,
            median(&unscaled),
            tail(&unscaled).0
        );
        let best = best_per_query(&order, &scaled, specs.len());
        end_to_end(build_s + warm_s, &best, passes, correct, attempted)
    };
    for m in &metrics {
        println!(
            "{:<28} {:>16.6} {:<6} samples {}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct == attempted,
        attempted - correct,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
