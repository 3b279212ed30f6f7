//! Warm-start session pool.
//!
//! Incremental SAT amortises encoding and learning work across queries,
//! but only while the solver instance stays alive. Engine calls used to
//! rebuild their [`crate::Unroller`]s from scratch, so every depth
//! escalation, budget-escalated re-run and repeated query on the same
//! netlist paid the full unrolling and re-learning cost again. This
//! module keeps finished-but-undecided sessions around:
//!
//! * [`crate::BmcSession`] — the unrolled reset-init instance with its
//!   `clean_to` high-water mark; a deeper re-query continues at
//!   `clean_to + 1` instead of frame 0.
//! * [`crate::KindSession`] — the base/step instance pair, parked **as a
//!   unit** at its `next_k`.
//!
//! The pool is keyed by [`crate::TransitionSystem::fingerprint`] plus a
//! [`WarmScope`], so a session is only ever resumed against a
//! structurally identical netlist with the same engine configuration.
//! Everything a parked session retains — learnt clauses, `!bad(k)`
//! units, imported bus lemmas — is a consequence of that transition
//! system, so re-queries are verdict-identical to a cold run (the
//! property test `warm_soundness.rs` checks this on random netlists).
//!
//! # Parking discipline
//! Callers may only park sessions whose last outcome was *undecided*
//! (BMC `Clean`/`Timeout`, k-induction `Unknown`): the k-induction
//! shallow-query guard ([`crate::KindSession::run_to`]) is only sound
//! under that discipline, and decisive sessions have nothing left to
//! amortise. Sessions dragging too much clause-arena garbage are
//! dropped instead of parked ([`MAX_WASTED_LITERALS`]).

use std::sync::{Mutex, OnceLock};

use csl_sat::SolverStats;

use crate::bmc::BmcSession;
use crate::kind::KindSession;
use crate::lane::Lane;

/// What kind of engine a parked session belongs to. Part of the pool
/// key: a BMC unrolling is useless to (and unsound for) the induction
/// lane, and a unique-states step instance carries structural clauses a
/// plain k-induction run must not inherit.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum WarmScope {
    /// Reset-initialised BMC unrolling.
    Bmc,
    /// Base/step k-induction pair; `unique_states` is part of the step
    /// instance's encoding and therefore of the key.
    Kind { unique_states: bool },
}

/// A parked session of either scope.
pub enum WarmSession {
    Bmc(Box<BmcSession>),
    Kind(Box<KindSession>),
}

impl WarmSession {
    fn scope(&self) -> WarmScope {
        match self {
            WarmSession::Bmc(_) => WarmScope::Bmc,
            WarmSession::Kind(s) => WarmScope::Kind {
                unique_states: s.unique_states(),
            },
        }
    }

    fn fingerprint(&self) -> u64 {
        match self {
            WarmSession::Bmc(s) => s.ts().fingerprint(),
            WarmSession::Kind(s) => s.ts().fingerprint(),
        }
    }

    fn wasted_literals(&self) -> usize {
        match self {
            WarmSession::Bmc(s) => s.wasted_literals(),
            WarmSession::Kind(s) => s.wasted_literals(),
        }
    }
}

/// Sessions dragging more freed-but-uncompacted literal slots than this
/// are dropped at park time: rebuilding from scratch is cheaper than
/// resuming a garbage-heavy instance.
pub const MAX_WASTED_LITERALS: usize = 1 << 20;

/// Parked sessions the pool keeps before evicting the least recently
/// parked one. Small on purpose: each entry owns a full SAT instance.
pub const POOL_CAPACITY: usize = 8;

struct Entry {
    fingerprint: u64,
    scope: WarmScope,
    tick: u64,
    session: WarmSession,
}

#[derive(Default)]
struct PoolInner {
    entries: Vec<Entry>,
    tick: u64,
}

/// A bounded LRU pool of parked solver sessions. Checkout *removes* the
/// entry — a session has single ownership, so two concurrent queries on
/// the same netlist race for the warm copy and the loser builds cold.
#[derive(Default)]
pub struct WarmPool {
    inner: Mutex<PoolInner>,
}

impl WarmPool {
    /// An empty pool (tests and benchmarks; engines use [`WarmPool::global`]).
    pub fn new() -> WarmPool {
        WarmPool::default()
    }

    /// The process-wide pool behind [`crate::CheckOptions::warm_start`].
    pub fn global() -> &'static WarmPool {
        static POOL: OnceLock<WarmPool> = OnceLock::new();
        POOL.get_or_init(WarmPool::new)
    }

    /// Removes and returns the parked session for `(fingerprint, scope)`,
    /// if any.
    pub fn checkout(&self, fingerprint: u64, scope: WarmScope) -> Option<WarmSession> {
        let mut inner = self.inner.lock().unwrap();
        let pos = inner
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint && e.scope == scope)?;
        Some(inner.entries.swap_remove(pos).session)
    }

    /// [`WarmPool::checkout`] for the BMC scope.
    pub fn checkout_bmc(&self, fingerprint: u64) -> Option<BmcSession> {
        match self.checkout(fingerprint, WarmScope::Bmc) {
            Some(WarmSession::Bmc(s)) => Some(*s),
            _ => None,
        }
    }

    /// [`WarmPool::checkout`] for the k-induction scope.
    pub fn checkout_kind(&self, fingerprint: u64, unique_states: bool) -> Option<KindSession> {
        match self.checkout(fingerprint, WarmScope::Kind { unique_states }) {
            Some(WarmSession::Kind(s)) => Some(*s),
            _ => None,
        }
    }

    /// Parks `session` for later checkout, keyed by its own transition
    /// system's fingerprint. Displaces an already-parked session with
    /// the same key (the newer instance has strictly more learning) and
    /// evicts the least recently parked entry when full. Garbage-heavy
    /// sessions are silently dropped — see [`MAX_WASTED_LITERALS`].
    pub fn park(&self, session: WarmSession) {
        if session.wasted_literals() > MAX_WASTED_LITERALS {
            return;
        }
        let fingerprint = session.fingerprint();
        let scope = session.scope();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(pos) = inner
            .entries
            .iter()
            .position(|e| e.fingerprint == fingerprint && e.scope == scope)
        {
            inner.entries.swap_remove(pos);
        }
        if inner.entries.len() >= POOL_CAPACITY {
            let oldest = inner
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.tick)
                .map(|(i, _)| i)
                .expect("non-empty pool has an oldest entry");
            inner.entries.swap_remove(oldest);
        }
        inner.entries.push(Entry {
            fingerprint,
            scope,
            tick,
            session,
        });
    }

    /// Parks a BMC session (see [`WarmPool::park`]). The caller must
    /// have called [`BmcSession::prepare_for_park`] semantics — this
    /// does it here so no caller can forget to detach the export hook.
    pub fn park_bmc(&self, mut session: BmcSession) {
        session.prepare_for_park();
        self.park(WarmSession::Bmc(Box::new(session)));
    }

    /// Parks a k-induction session (see [`WarmPool::park`]). Only sound
    /// for sessions whose last outcome was `Unknown` — see the module
    /// docs on parking discipline.
    pub fn park_kind(&self, session: KindSession) {
        self.park(WarmSession::Kind(Box::new(session)));
    }

    /// Number of parked sessions (diagnostics and tests).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every parked session. Benchmarks use this to separate
    /// warm and cold measurement phases sharing the global pool.
    pub fn clear(&self) {
        self.inner.lock().unwrap().entries.clear();
    }
}

/// Per-lane solver activity for one engine run, reported through
/// [`crate::CheckReport::solver`]. Counters are *deltas* over the run
/// (a warm session's cumulative totals minus its checkout snapshot), so
/// a warm run's numbers are comparable to a cold run's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneSolverStats {
    pub lane: Lane,
    pub propagations: u64,
    pub conflicts: u64,
    pub decisions: u64,
    pub restarts: u64,
    pub reduced_clauses: u64,
    /// Queries served by a checked-out warm session.
    pub warm_hits: u64,
    /// Queries that wanted a warm session and built cold instead.
    pub warm_misses: u64,
}

impl LaneSolverStats {
    /// Stats for a run that started from snapshot `start` and ended at
    /// `end` (cumulative counters never reset, so the difference is the
    /// run's own activity).
    pub fn delta(lane: Lane, start: SolverStats, end: SolverStats) -> LaneSolverStats {
        LaneSolverStats {
            lane,
            propagations: end.propagations - start.propagations,
            conflicts: end.conflicts - start.conflicts,
            decisions: end.decisions - start.decisions,
            restarts: end.restarts - start.restarts,
            reduced_clauses: end.reduced_clauses - start.reduced_clauses,
            warm_hits: 0,
            warm_misses: 0,
        }
    }

    /// Fresh stats for a cold run of `lane` ending at `end`.
    pub fn cold(lane: Lane, end: SolverStats) -> LaneSolverStats {
        LaneSolverStats::delta(lane, SolverStats::default(), end)
    }

    /// Folds another lane-run's counters into this one (a report keeps
    /// one entry per lane, and a lane can run several times — the PDR
    /// lane's counterexample rebuild is BMC work).
    pub fn absorb(&mut self, other: &LaneSolverStats) {
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.decisions += other.decisions;
        self.restarts += other.restarts;
        self.reduced_clauses += other.reduced_clauses;
        self.warm_hits += other.warm_hits;
        self.warm_misses += other.warm_misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ts::TransitionSystem;
    use csl_hdl::{Design, Init};

    fn counter(name: &str, width: usize) -> std::sync::Arc<TransitionSystem> {
        let mut d = Design::new(name);
        let r = d.reg("r", width, Init::Zero);
        let inc = d.add_const(&r.q(), 1);
        d.set_next(&r, inc);
        let bad = d.eq_const(&r.q(), (1u64 << width) - 1);
        d.assert_always("sat", bad.not());
        TransitionSystem::shared(d.finish(), false)
    }

    #[test]
    fn checkout_removes_and_misses_on_wrong_key() {
        let pool = WarmPool::new();
        let ts = counter("t", 4);
        pool.park_bmc(BmcSession::new(&ts));
        assert_eq!(pool.len(), 1);
        assert!(pool.checkout_bmc(ts.fingerprint() ^ 1).is_none());
        assert!(pool.checkout_kind(ts.fingerprint(), false).is_none());
        assert!(pool.checkout_bmc(ts.fingerprint()).is_some());
        // Single ownership: the entry is gone now.
        assert!(pool.checkout_bmc(ts.fingerprint()).is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn kind_key_includes_unique_states() {
        let pool = WarmPool::new();
        let ts = counter("t", 4);
        pool.park_kind(KindSession::new(&ts, true));
        assert!(pool.checkout_kind(ts.fingerprint(), false).is_none());
        let s = pool.checkout_kind(ts.fingerprint(), true).unwrap();
        assert!(s.unique_states());
    }

    #[test]
    fn same_key_park_displaces() {
        let pool = WarmPool::new();
        let ts = counter("t", 4);
        pool.park_bmc(BmcSession::new(&ts));
        pool.park_bmc(BmcSession::new(&ts));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let pool = WarmPool::new();
        let first = counter("t0", 2);
        pool.park_bmc(BmcSession::new(&first));
        for w in 0..POOL_CAPACITY {
            // Different widths -> different fingerprints.
            pool.park_bmc(BmcSession::new(&counter("t", w + 3)));
        }
        assert_eq!(pool.len(), POOL_CAPACITY);
        // The first (least recently parked) session was evicted.
        assert!(pool.checkout_bmc(first.fingerprint()).is_none());
    }

    #[test]
    fn delta_subtracts_snapshot() {
        let start = SolverStats {
            conflicts: 5,
            propagations: 100,
            ..SolverStats::default()
        };
        let mut end = start;
        end.conflicts = 12;
        end.propagations = 400;
        end.restarts = 2;
        let d = LaneSolverStats::delta(Lane::Bmc, start, end);
        assert_eq!(d.conflicts, 7);
        assert_eq!(d.propagations, 300);
        assert_eq!(d.restarts, 2);
        assert_eq!(d.warm_hits, 0);
    }
}
