//! The workloads and the fixed query lists they run.
//!
//! Every workload has a fixed multiset of distinct queries; the seed only
//! orders the schedule. A seeded *draw* from each workload's
//! size space was tried first and rejected: with a few dozen queries drawn
//! from a heavy-tailed time distribution, the draw alone moved the median
//! latency by 13% and the tail by up to 40% between seeds. Fixing the
//! multiset makes every percentile rank land on the same queries in every
//! run, so what varies between runs is the host, not the input.
//!
//! The lists are chosen by systematic sampling over each workload's size
//! axes, so every axis value appears about equally often.

use std::time::Duration;

use csl_contracts::Contract;
use csl_core::api::{Budget, Mode, Query, Verifier};
use csl_core::{DesignKind, Scheme};
use csl_cpu::{CpuConfig, Defense};

/// Wall budget of every query. The slowest query of any workload takes
/// about 2 s on the reference host, so this leaves 60x headroom; the
/// headroom check fails a query that uses more than a tenth of it.
pub const BUDGET: Duration = Duration::from_secs(120);

const CONTRACTS: [Contract; 2] = [Contract::Sandboxing, Contract::ConstantTime];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Attack,
    Prove,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Attack, Workload::Prove];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Attack => "attack",
            Workload::Prove => "prove",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Wall time of one pass over the workload's distinct queries on the
    /// reference host (2 vCPUs under KVM). The schedule repeats the pass
    /// `round(seconds / nominal_pass)` times, so a run's length follows
    /// `--seconds` while its content stays a whole number of passes.
    fn nominal_pass(self) -> Duration {
        match self {
            Workload::Attack => Duration::from_secs(8),
            Workload::Prove => Duration::from_secs(8),
        }
    }

    /// Passes over the distinct queries in the timed phase.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass().as_secs_f64()).round() as usize).max(1)
    }
}

/// The answer a query must reach.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A counterexample whose witness replays on the raw netlist.
    Attack,
    /// A proof whose certificate re-checks on the raw netlist.
    Proof,
}

/// One distinct query of a workload. Only the query axes the benchmark
/// owns are set: design, contract, scheme, CPU sizes, mode, budget and
/// BMC depth.
#[derive(Clone, Debug)]
pub struct Spec {
    pub scheme: Scheme,
    pub design: DesignKind,
    pub contract: Contract,
    pub cpu: CpuConfig,
    pub bmc_depth: usize,
    pub expect: Expect,
}

impl Spec {
    fn new(scheme: Scheme, design: DesignKind, contract: Contract, expect: Expect) -> Spec {
        Spec {
            scheme,
            design,
            contract,
            cpu: design.cpu_config(),
            bmc_depth: 20,
            expect,
        }
    }

    /// `scheme/design/contract/sizes`, unique within a workload.
    pub fn label(&self) -> String {
        let isa = &self.cpu.isa;
        format!(
            "{}/{}/{}/x{}r{}i{}d{}rob{}/bmc{}",
            self.scheme.name(),
            self.design.name(),
            self.contract.name(),
            isa.xlen,
            isa.nregs,
            isa.imem_size,
            isa.dmem_size,
            self.cpu.rob_size,
            self.bmc_depth
        )
    }

    pub fn query(&self) -> Query {
        Verifier::new()
            .design(self.design)
            .contract(self.contract)
            .scheme(self.scheme)
            .mode(Mode::Sequential)
            .cpu_override(self.cpu)
            .budget(Budget::wall(BUDGET))
            .bmc_depth(self.bmc_depth)
            .query()
            .expect("design and contract are set")
    }
}

/// The distinct queries of a workload.
pub fn distinct(workload: Workload) -> Vec<Spec> {
    match workload {
        Workload::Attack => attack(),
        Workload::Prove => prove(),
    }
}

/// Insecure out-of-order cores under both contracts, with the Figure 2
/// axes: two of the three ROB sizes per (scheme, design, contract) cell,
/// rotating which one is left out, and a (dmem, nregs) pair that rotates
/// so each pair appears equally often.
fn attack() -> Vec<Spec> {
    let robs = [4, 8, 16];
    let pairs = [(4, 4), (4, 8), (8, 4), (8, 8)];
    let designs = [
        DesignKind::SimpleOoo(Defense::None),
        DesignKind::SuperOoo,
        DesignKind::BigOoo,
    ];
    let mut out = Vec::new();
    let mut cell = 0;
    for scheme in [Scheme::Shadow, Scheme::Baseline, Scheme::Upec] {
        for design in designs {
            for contract in CONTRACTS {
                for j in 1..robs.len() {
                    let rob = robs[(cell + j) % robs.len()];
                    let (dmem, nregs) = pairs[(cell + j) % pairs.len()];
                    let mut spec = Spec::new(scheme, design, contract, Expect::Attack);
                    spec.cpu.rob_size = rob;
                    spec.cpu.isa.dmem_size = dmem;
                    spec.cpu.isa.nregs = nregs;
                    out.push(spec);
                }
                cell += 1;
            }
        }
    }
    out
}

/// Secure cores that every listed scheme proves: twelve sizes per cell,
/// sampled systematically from xlen 2–6 × nregs 2–4 × imem 2–16 ×
/// dmem 2–8. ContractShadowLogic under sandboxing closes only at
/// xlen ≤ 3 within the budget, so its cell samples that slice.
fn prove() -> Vec<Spec> {
    let cells = [
        (Scheme::Leave, DesignKind::SingleCycle, Contract::Sandboxing),
        (
            Scheme::Leave,
            DesignKind::SingleCycle,
            Contract::ConstantTime,
        ),
        (Scheme::Leave, DesignKind::InOrder, Contract::Sandboxing),
        (Scheme::Leave, DesignKind::InOrder, Contract::ConstantTime),
        (
            Scheme::Shadow,
            DesignKind::SingleCycle,
            Contract::ConstantTime,
        ),
        (Scheme::Shadow, DesignKind::InOrder, Contract::ConstantTime),
        (
            Scheme::Shadow,
            DesignKind::SingleCycle,
            Contract::Sandboxing,
        ),
        (
            Scheme::Upec,
            DesignKind::SingleCycle,
            Contract::ConstantTime,
        ),
    ];
    const PER_CELL: usize = 12;
    let mut out = Vec::new();
    for (c, (scheme, design, contract)) in cells.into_iter().enumerate() {
        let max_xlen = if scheme == Scheme::Shadow && contract == Contract::Sandboxing {
            3
        } else {
            6
        };
        let mut sizes = Vec::new();
        for xlen in 2..=max_xlen {
            for nregs in [2, 4] {
                for imem in [2, 4, 8, 16] {
                    for dmem in [2, 4, 8] {
                        sizes.push((xlen, nregs, imem, dmem));
                    }
                }
            }
        }
        let step = sizes.len() / PER_CELL;
        for i in 0..PER_CELL {
            let (xlen, nregs, imem, dmem) = sizes[c % step + i * step];
            let mut spec = Spec::new(scheme, design, contract, Expect::Proof);
            spec.cpu.isa.xlen = xlen;
            spec.cpu.isa.nregs = nregs;
            spec.cpu.isa.imem_size = imem;
            spec.cpu.isa.dmem_size = dmem;
            spec.bmc_depth = 4;
            out.push(spec);
        }
    }
    out
}

/// SplitMix64: the seed → schedule generator (self-contained so the
/// schedule for a seed never changes with a dependency's version).
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The timed schedule: `passes` passes over every index in `0..n`, each
/// pass in its own order drawn from `seed`. A query's repeats land in
/// different passes, seconds apart.
pub fn schedule(n: usize, passes: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut order = Vec::with_capacity(n * passes);
    for _ in 0..passes {
        let mut pass: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut pass);
        order.extend(pass);
    }
    order
}

/// FNV-1a offset basis, the starting value for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a hash `h`. Fingerprints built on it
/// never change between builds or runs.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A hash of the schedule's query labels, in order: two runs with the
/// same fingerprint ran the same queries in the same order.
pub fn fingerprint<'a>(labels: impl IntoIterator<Item = &'a str>) -> u64 {
    labels.into_iter().fold(FNV_OFFSET, |h, label| {
        fnv1a(fnv1a(h, label.as_bytes()), b"\n")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_labels_are_unique() {
        for w in Workload::ALL {
            let specs = distinct(w);
            let mut labels: Vec<String> = specs.iter().map(Spec::label).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), specs.len(), "{}", w.name());
        }
    }

    #[test]
    fn schedule_is_a_seeded_permutation_of_whole_passes() {
        let a = schedule(10, 3, 7);
        assert_eq!(a, schedule(10, 3, 7));
        assert_ne!(a, schedule(10, 3, 8));
        for pass in a.chunks(10) {
            let mut sorted = pass.to_vec();
            sorted.sort();
            assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        }
    }
}
