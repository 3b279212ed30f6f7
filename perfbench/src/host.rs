//! A frozen reference workload that measures how fast the host is running
//! at the moment.
//!
//! The host is shared, and its contention slows every query of a run
//! together, often for longer than a run. The benchmark times this
//! reference right before each query and scales the query's latency by
//! how much slower than nominal the reference ran around it. The
//! reference is the benchmark's own code and never changes with the
//! verifier, so a faster verifier still shows as lower latency.
//!
//! The workload is WalkSAT on a fixed random 3-SAT formula: random access
//! over occurrence lists a few megabytes large, like the verifier's own
//! SAT solving, which a pointer chase does not resemble.

use std::time::Instant;

use crate::median;
use crate::workload::Rng;

/// The reference's time on the reference host (2 vCPUs under KVM) when
/// the host is quiet. Latencies are reported in seconds at that speed.
pub const NOMINAL_S: f64 = 0.004;

/// Reference samples on each side of a query that its scale factor is
/// the median of.
const WINDOW: usize = 4;

const VARS: usize = 20_000;
const CLAUSES: usize = 84_000;
const FLIPS: usize = 8_000;

pub struct Reference {
    clauses: Vec<[u32; 3]>,
    /// Clauses containing each literal (`2 * var + negated`).
    occurs: Vec<Vec<u32>>,
}

impl Default for Reference {
    /// The fixed formula.
    fn default() -> Reference {
        let mut rng = Rng::new(0x5eed_f00d);
        let mut occurs = vec![Vec::new(); 2 * VARS];
        let clauses = (0..CLAUSES as u32)
            .map(|c| {
                let mut clause = [0u32; 3];
                for lit in &mut clause {
                    *lit = (rng.next_u64() % (2 * VARS as u64)) as u32;
                    occurs[*lit as usize].push(c);
                }
                clause
            })
            .collect();
        Reference { clauses, occurs }
    }
}

impl Reference {
    /// Runs a fixed number of WalkSAT flips from a fixed assignment and
    /// returns the wall time it took. The work is the same on every call.
    pub fn time(&self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(self.walk());
        start.elapsed().as_secs_f64()
    }

    /// The flips themselves; returns the clauses left unsatisfied.
    fn walk(&self) -> usize {
        let mut rng = Rng::new(7);
        let mut value: Vec<bool> = (0..VARS).map(|_| rng.next_u64() & 1 == 1).collect();
        let is_true = |value: &[bool], lit: u32| value[(lit / 2) as usize] != (lit & 1 == 1);
        let mut trues: Vec<u8> = self
            .clauses
            .iter()
            .map(|c| c.iter().filter(|&&l| is_true(&value, l)).count() as u8)
            .collect();
        let mut unsat: Vec<u32> = (0..CLAUSES as u32)
            .filter(|&c| trues[c as usize] == 0)
            .collect();
        let mut slot = vec![u32::MAX; CLAUSES];
        for (i, &c) in unsat.iter().enumerate() {
            slot[c as usize] = i as u32;
        }
        for _ in 0..FLIPS {
            if unsat.is_empty() {
                break;
            }
            let clause =
                self.clauses[unsat[(rng.next_u64() % unsat.len() as u64) as usize] as usize];
            // Flipping a literal's variable breaks the clauses in which
            // the variable's other literal is the only true one.
            let breaks = |lit: u32| {
                self.occurs[(lit ^ 1) as usize]
                    .iter()
                    .filter(|&&c| trues[c as usize] == 1)
                    .count()
            };
            let lit = if rng.next_u64() % 10 < 4 {
                clause[(rng.next_u64() % 3) as usize]
            } else {
                *clause
                    .iter()
                    .min_by_key(|&&l| breaks(l))
                    .expect("a clause has three literals")
            };
            let var = (lit / 2) as usize;
            value[var] = !value[var];
            // `lit` is now true and its negation false.
            for &c in &self.occurs[lit as usize] {
                let c = c as usize;
                trues[c] += 1;
                if trues[c] == 1 {
                    let i = slot[c] as usize;
                    let last = unsat.pop().expect("the clause was unsatisfied");
                    if last as usize != c {
                        unsat[i] = last;
                        slot[last as usize] = i as u32;
                    }
                    slot[c] = u32::MAX;
                }
            }
            for &c in &self.occurs[(lit ^ 1) as usize] {
                let c = c as usize;
                trues[c] -= 1;
                if trues[c] == 0 {
                    slot[c] = unsat.len() as u32;
                    unsat.push(c as u32);
                }
            }
        }
        unsat.len()
    }
}

/// Each query's host factor: the median of the reference times within
/// `WINDOW` queries of it, over [`NOMINAL_S`]. A factor of 1.3 means the
/// host ran 30% slower than nominal around that query.
pub fn factors(reference_times: &[f64]) -> Vec<f64> {
    let n = reference_times.len();
    (0..n)
        .map(|i| {
            let window = &reference_times[i.saturating_sub(WINDOW)..(i + WINDOW + 1).min(n)];
            median(window) / NOMINAL_S
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_does_the_same_work_every_time() {
        let r = Reference::default();
        let left = r.walk();
        assert_eq!(left, r.walk());
        assert!(left > 0 && left < CLAUSES);
    }

    #[test]
    fn factors_are_windowed_medians_over_nominal() {
        let t = NOMINAL_S;
        let f = factors(&[t, t, 9.0 * t, t, 2.0 * t]);
        // One outlier inside a window of five does not move the median.
        assert_eq!(f[2], 1.0);
        assert_eq!(factors(&[2.0 * t])[0], 2.0);
    }
}
