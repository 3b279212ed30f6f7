//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures.
//!
//! Budgets: every verification task runs under a wall-clock budget standing
//! in for the paper's 7-day timeout. Defaults are chosen so a full
//! `cargo bench` pass finishes in tens of minutes; set `CSL_BUDGET_SECS`
//! to raise or lower them uniformly, and `CSL_FAST=1` to shrink everything
//! for smoke runs.
//!
//! All harnesses drive the session API: [`verifier`] pre-configures a
//! `csl_core::api::Verifier` with the standard budget/depth knobs, and
//! [`smoke_matrix`]/[`table2_matrix`] build the standard campaigns. The
//! `--json <path>` / `--csv <path>` flags the bins accept are parsed by
//! [`report_args`] and written by [`write_reports`], so CI can archive a
//! run and diff it against another commit's.

use std::time::Duration;

use csl_contracts::Contract;
use csl_core::api::{Budget, CampaignReport, Matrix, Mode, Report, Verifier};
use csl_core::{CampaignCell, DesignKind, Scheme};
use csl_cpu::Defense;

/// Default on-disk location for the session result cache used by the
/// bins (under `target/` so it is ignored and `cargo clean` clears it).
pub const DEFAULT_CACHE_DIR: &str = "target/csl-report-cache";

/// Per-task budget in seconds, honouring `CSL_BUDGET_SECS` / `CSL_FAST`.
pub fn budget_secs(default: u64) -> u64 {
    if let Ok(v) = std::env::var("CSL_BUDGET_SECS") {
        if let Ok(n) = v.parse::<u64>() {
            return n;
        }
    }
    if std::env::var("CSL_FAST").is_ok_and(|v| v == "1") {
        (default / 10).max(5)
    } else {
        default
    }
}

/// BMC depth, honouring `CSL_FAST`.
pub fn bmc_depth(default: usize) -> usize {
    if std::env::var("CSL_FAST").is_ok_and(|v| v == "1") {
        default.min(8)
    } else {
        default
    }
}

/// A session builder with the standard budget/depth/attack knobs set.
/// Chain `.design(..).contract(..).scheme(..)` and run.
pub fn verifier(budget_s: u64, depth: usize, attack_only: bool) -> Verifier {
    Verifier::new()
        .budget(Budget::wall(Duration::from_secs(budget_s)))
        .bmc_depth(depth)
        .attack_only(attack_only)
}

/// Table cell text matching the paper's symbols: attacks (their lightning
/// bolt), proofs (smiley), timeouts (clock), and LEAVE's false
/// counterexamples (warning triangle).
pub fn paper_cell(v: &csl_mc::Verdict) -> &'static str {
    match v {
        csl_mc::Verdict::Attack(_) => "ATTACK",
        csl_mc::Verdict::Proof(_) => "PROOF",
        csl_mc::Verdict::Timeout => "T/O",
        csl_mc::Verdict::Unknown { .. } => "UNKNOWN",
    }
}

/// One formatted result line.
pub fn show(label: &str, report: &Report) {
    println!(
        "{label:<52} {:<8} {:>8.1}s",
        paper_cell(&report.verdict),
        report.elapsed.as_secs_f64()
    );
    if std::env::var("CSL_VERBOSE").is_ok() {
        for n in &report.notes {
            println!("    | {n}");
        }
    }
}

/// Median wall time, for the probes' on/off speed comparisons.
///
/// # Panics
/// Panics on an empty set.
pub fn median_duration(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Prints the per-pass reduction table of a preparation run (used by
/// `prepprobe`).
pub fn show_pass_stats(stats: &csl_core::api::PrepareStats) {
    for p in &stats.passes {
        println!(
            "    | {:<12} ands {:>6} -> {:<6} latches {:>5} -> {:<5}",
            p.pass, p.before.ands, p.after.ands, p.before.latches, p.after.latches
        );
    }
}

/// Prints a benchmark header.
pub fn header(title: &str, paper_ref: &str) {
    println!();
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref}; shapes matter, absolute times do not)");
    println!("==============================================================");
}

/// The five processor designs of Table 2, in column order.
pub fn table2_designs() -> Vec<DesignKind> {
    vec![
        DesignKind::InOrder,
        DesignKind::SimpleOoo(Defense::DelaySpectre), // SimpleOoO-S
        DesignKind::SimpleOoo(Defense::None),
        DesignKind::SuperOoo,
        DesignKind::BigOoo,
    ]
}

/// The Table-2 cell list (every scheme × every Table-2 design under
/// sandboxing), for callers that iterate cells themselves.
pub fn table2_cells() -> Vec<CampaignCell> {
    csl_core::matrix(&Scheme::ALL, &table2_designs(), &[Contract::Sandboxing])
}

/// The smoke cell list: every scheme on the smallest design.
pub fn smoke_cells() -> Vec<CampaignCell> {
    csl_core::matrix(
        &Scheme::ALL,
        &[DesignKind::SingleCycle],
        &[Contract::Sandboxing],
    )
}

/// The full Table-2 campaign: every scheme × every design, sandboxing,
/// cells in parallel on the worker pool, engines racing per cell.
pub fn table2_matrix(budget_s: u64, depth: usize) -> Matrix {
    campaign(&table2_designs(), budget_s, depth)
}

/// The smoke campaign: every scheme on the smallest design (LEAVE proves
/// it fast; the other schemes spend their full per-cell budget, so total
/// wall clock scales with the budget). Exercised by `cargo run --bin
/// smoke` and the campaign tests.
pub fn smoke_matrix(budget_s: u64, depth: usize) -> Matrix {
    campaign(&[DesignKind::SingleCycle], budget_s, depth)
}

fn campaign(designs: &[DesignKind], budget_s: u64, depth: usize) -> Matrix {
    Verifier::new()
        .budget(Budget::wall(Duration::from_secs(budget_s)))
        .bmc_depth(depth)
        .mode(Mode::Portfolio)
        .into_matrix(&Scheme::ALL, designs, &[Contract::Sandboxing])
}

/// Prints a finished campaign in the paper's table shape.
pub fn show_campaign(report: &CampaignReport) {
    println!();
    print!("{}", report.render_table());
    println!(
        "(thread-pool speedup: {:.1}x)",
        report.cpu_time().as_secs_f64() / report.wall.as_secs_f64().max(1e-9)
    );
}

/// The standard bin arguments: report dump paths plus the session-cache
/// and instance-preparation controls.
pub struct BinArgs {
    pub json: Option<String>,
    pub csv: Option<String>,
    /// Cache directory for campaign runs; defaults to
    /// [`DEFAULT_CACHE_DIR`], `None` after `--no-cache`.
    pub cache: Option<String>,
    /// Size cap for the on-disk cache (`--max-entries <n>`): stores
    /// prune the least-recently-used reports down to this count.
    pub cache_max_entries: Option<usize>,
    /// Instance preparation (`--no-prepare` turns the reduction pipeline
    /// off; default on).
    pub prepare: bool,
}

impl BinArgs {
    /// Applies the cache and preparation settings to a campaign matrix.
    pub fn apply_cache(&self, matrix: Matrix) -> Matrix {
        let matrix = match &self.cache {
            Some(dir) => {
                let m = matrix.cache(dir);
                match self.cache_max_entries {
                    Some(n) => m.cache_max_entries(n),
                    None => m,
                }
            }
            None => matrix.no_cache(),
        };
        matrix.prepare(self.prepare_config())
    }

    /// The preparation pipeline these arguments select.
    pub fn prepare_config(&self) -> csl_core::api::PrepareConfig {
        if self.prepare {
            csl_core::api::PrepareConfig::on()
        } else {
            csl_core::api::PrepareConfig::off()
        }
    }
}

/// Parses the standard `--json <path>` / `--csv <path>` /
/// `--cache <dir>` / `--no-cache` / `--max-entries <n>` /
/// `--no-prepare` bin arguments; unknown arguments abort with usage.
pub fn report_args(bin: &str) -> BinArgs {
    let usage = format!(
        "usage: {bin} [--json <path>] [--csv <path>] \
         [--cache <dir> | --no-cache] [--max-entries <n>] [--no-prepare]"
    );
    let mut parsed = BinArgs {
        json: None,
        csv: None,
        cache: Some(DEFAULT_CACHE_DIR.to_string()),
        cache_max_entries: None,
        prepare: true,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| {
            args.next().unwrap_or_else(|| {
                eprintln!("{usage}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--json" => parsed.json = Some(value(&mut args)),
            "--csv" => parsed.csv = Some(value(&mut args)),
            "--cache" => parsed.cache = Some(value(&mut args)),
            "--no-cache" => parsed.cache = None,
            "--max-entries" => {
                let n = value(&mut args);
                parsed.cache_max_entries = Some(n.parse().unwrap_or_else(|_| {
                    eprintln!("--max-entries takes a number; {usage}");
                    std::process::exit(2);
                }));
            }
            "--no-prepare" => parsed.prepare = false,
            _ => {
                eprintln!("unknown argument `{arg}`; {usage}");
                std::process::exit(2);
            }
        }
    }
    parsed
}

/// Writes the serialized campaign to the paths `report_args` collected.
pub fn write_reports(report: &CampaignReport, args: &BinArgs) {
    if let Some(path) = &args.json {
        std::fs::write(path, report.to_json()).expect("write json report");
        println!("json report written to {path}");
    }
    if let Some(path) = &args.csv {
        std::fs::write(path, report.to_csv()).expect("write csv report");
        println!("csv report written to {path}");
    }
}
