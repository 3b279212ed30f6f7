//! The cross-lane lemma/clause exchange bus.
//!
//! The portfolio of [`crate::portfolio`] races independent engines on the
//! same two-machine instance, so without sharing every solver rediscovers
//! the same facts about the product machine. This module makes the
//! sharing a first-class API: an [`Exchange`] bus that lanes publish to
//! and poll from through a per-lane [`SharedContext`] handle, carrying
//! two kinds of knowledge:
//!
//! * [`SharedClause`] — a learnt clause in *netlist vocabulary*
//!   (disjunction of "bit `b` is true at frame `t`" literals), exported
//!   by the BMC lane at conflict boundaries through the
//!   [`csl_sat::Solver`] export hook. A shared clause is a consequence of
//!   the reset-initialised unrolling `Init ∧ T^k ∧ assumes(0..h)`; the
//!   clause records `h` (as [`SharedClause::assume_frames`]) and its
//!   deepest frame so importers can gate soundness: only a solver that
//!   is itself reset-initialised, has unrolled at least as deep, and has
//!   asserted the assumptions at least as far may add it (in this
//!   portfolio: the k-induction *base* instance).
//! * [`SharedLemma`] — an invariant bit proved inductive (and true in
//!   all constrained initial states) by the Houdini lane, streamed as
//!   soon as the consecution fixpoint lands rather than at filter
//!   completion. A lemma holds in every reachable assume-satisfying
//!   state, so *any* lane may assert it at every frame of a running
//!   solver: BMC prunes its attack search with it, and k-induction/PDR
//!   strengthen their induction hypotheses in place instead of being
//!   respawned on a lemma-conjoined netlist.
//!
//! The bus is an append-only log under a read-write lock ("lock-free-ish":
//! polls take the read side and only publications take the write side,
//! and both are rare next to SAT work); consumers keep a private cursor,
//! so a slow lane never blocks a fast one. Per-lane import/export
//! counters surface through [`crate::LaneResult`] and
//! [`crate::CheckReport::exchange`] into the session reports.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use csl_hdl::Bit;
use csl_sat::ExportPolicy;

use crate::lane::Lane;

/// Bus-wide knobs, carried by [`crate::CheckOptions::exchange`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExchangeConfig {
    /// Master switch; the default (`false`) reproduces the isolated-lane
    /// portfolio exactly.
    pub enabled: bool,
    /// Export filter: longest clause the BMC lane publishes.
    pub max_clause_len: usize,
    /// Export filter: highest literal-block distance published.
    pub max_clause_lbd: u32,
    /// How many foreign items one [`SharedContext::poll`] call returns.
    pub max_imports_per_poll: usize,
    /// Bus capacity (items); *clause* publications beyond it are counted
    /// and dropped so a clause-happy lane cannot balloon memory. Lemmas
    /// are exempt: their count is bounded by the candidate set, and they
    /// are the highest-value traffic — a BMC clause flood must not evict
    /// them.
    pub capacity: usize,
    /// Adapt the clause [`ExportPolicy`] thresholds at runtime from
    /// observed import hit rates and coverage deltas instead of keeping
    /// the static `max_clause_len`/`max_clause_lbd` knobs: when importers
    /// drain the bus faster than it fills, the filter widens (longer,
    /// higher-LBD clauses are worth shipping); when nothing is consumed,
    /// it tightens back below the static knobs. The decision in force is
    /// logged per lane in [`ExchangeStats`].
    pub adaptive: bool,
}

impl Default for ExchangeConfig {
    fn default() -> ExchangeConfig {
        ExchangeConfig {
            enabled: false,
            max_clause_len: 8,
            max_clause_lbd: 4,
            max_imports_per_poll: 64,
            capacity: 4096,
            adaptive: false,
        }
    }
}

impl ExchangeConfig {
    /// The default knobs with the bus enabled.
    pub fn on() -> ExchangeConfig {
        ExchangeConfig {
            enabled: true,
            ..ExchangeConfig::default()
        }
    }

    /// The disabled default (isolated lanes).
    pub fn off() -> ExchangeConfig {
        ExchangeConfig::default()
    }

    /// The enabled bus with adaptive export thresholds.
    pub fn adaptive() -> ExchangeConfig {
        ExchangeConfig {
            enabled: true,
            adaptive: true,
            ..ExchangeConfig::default()
        }
    }

    /// The *static* solver-level export filter these knobs describe.
    /// Under [`ExchangeConfig::adaptive`] the live filter is
    /// [`Exchange::current_policy`], which starts from this one.
    pub fn export_policy(&self) -> ExportPolicy {
        ExportPolicy {
            max_len: self.max_clause_len,
            max_lbd: self.max_clause_lbd,
        }
    }
}

/// "Bit `bit` is true at frame `frame`" — one literal of a
/// [`SharedClause`], in the netlist vocabulary every lane shares (all
/// portfolio lanes unroll clones of the same [`csl_hdl::Aig`], so node
/// ids are identical across solvers).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimedLit {
    pub frame: usize,
    pub bit: Bit,
}

/// A learnt clause translated out of solver numbering. Implied by
/// `Init ∧ T^max_frame ∧ assumes(0..assume_frames-1)` of the shared
/// netlist; see the import gate on [`crate::Unroller::can_import`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedClause {
    /// The disjunction, every literal in netlist vocabulary.
    pub lits: Vec<TimedLit>,
    /// Deepest frame referenced.
    pub max_frame: usize,
    /// Number of frames whose assume bits were asserted in the exporting
    /// solver when the clause was learnt.
    pub assume_frames: usize,
    pub source: Lane,
}

/// An invariant bit: true in all constrained initial states and inductive
/// under the constrained transition relation (a Houdini survivor), hence
/// true in every reachable assume-satisfying state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedLemma {
    pub name: String,
    pub bit: Bit,
    pub source: Lane,
}

/// One clause of an inductive invariant, in netlist vocabulary: the
/// disjunction of "bit `b` has value `v`" over `lits`. Published by the
/// PDR lane at convergence (its frame clauses at the fixpoint are
/// init-true and inductive *as a set*, relative to the shared assumes),
/// so each clause holds in every reachable assume-satisfying state —
/// any lane may assert it at any frame of a running solver, exactly
/// like a [`SharedLemma`], just in clause rather than single-bit form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedInvariant {
    pub name: String,
    /// The disjunction; `(bit, value)` reads "bit takes `value`".
    pub lits: Vec<(Bit, bool)>,
    pub source: Lane,
}

/// A concretely-reached deep state, exported by the coverage-guided fuzz
/// lane (see `csl_cover`) as a *proof obligation* for PDR: the cube is a
/// full assignment over the shared netlist's active latches that
/// simulation actually visited `depth` cycles after an assume-consistent
/// reset. PDR consumes it two ways: as a directed reachability probe (is
/// a bad state one transition away from this known-reachable state?) and
/// as a generalized initial frame (generalization must not block a cube
/// containing a state the fuzzer has proven reachable at that depth).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedObligation {
    /// Full assignment over active latches, `(latch index, value)`,
    /// sorted by latch index. Latch indices — not [`Bit`]s — because the
    /// consumer side may be a simulator as well as a solver.
    pub cube: Vec<(u32, bool)>,
    /// Reset-relative cycle at which simulation reached the state (the
    /// whole prefix satisfied the contract assumes).
    pub depth: usize,
    pub source: Lane,
}

/// An init-true frame clause from a *non-converged* PDR frontier. Unlike
/// a [`SharedInvariant`] clause it is **not** known inductive — it only
/// says "no assume-consistent state reachable in ≤ `level` steps
/// satisfies the negated cube", and it is init-true by PDR's
/// init-disjointness check. Solver lanes must therefore ignore it; its
/// consumer is the fuzzer's rejection filter, which may soundly skip a
/// stimulus whose *reset state* falsifies the clause (such a state
/// cannot satisfy the assumes at cycle 0, so no valid trial starts
/// there).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedFrontier {
    pub name: String,
    /// The disjunction over latch indices; `(latch, value)` reads "latch
    /// takes `value`". Falsified only when every latch differs.
    pub lits: Vec<(u32, bool)>,
    /// Frame the clause was proven at.
    pub level: usize,
    pub source: Lane,
}

/// One bus item.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExchangeItem {
    Clause(SharedClause),
    Lemma(SharedLemma),
    Invariant(SharedInvariant),
    Obligation(SharedObligation),
    Frontier(SharedFrontier),
}

impl ExchangeItem {
    /// The lane that published this item.
    pub fn source(&self) -> Lane {
        match self {
            ExchangeItem::Clause(c) => c.source,
            ExchangeItem::Lemma(l) => l.source,
            ExchangeItem::Invariant(i) => i.source,
            ExchangeItem::Obligation(o) => o.source,
            ExchangeItem::Frontier(f) => f.source,
        }
    }
}

/// Per-lane bus traffic, as recorded in [`crate::CheckReport::exchange`]
/// and the session-API reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeStats {
    pub lane: Lane,
    /// Items this lane pulled off the bus and applied to its solvers.
    pub imports: usize,
    /// Items this lane published.
    pub exports: usize,
    /// Of `imports`, how many were fuzz-reached [`SharedObligation`]s.
    pub obligations: usize,
    /// The clause export-filter length threshold in force when the lane
    /// finished (equals the static knob unless the bus is adaptive).
    pub policy_len: usize,
    /// The clause export-filter LBD threshold in force at the end.
    pub policy_lbd: u32,
    /// Whether the thresholds were adapted at runtime.
    pub adaptive: bool,
}

impl ExchangeStats {
    /// Stats with zero traffic and detached-bus policy fields, as lanes
    /// without a live bus report them.
    pub fn empty(lane: Lane) -> ExchangeStats {
        ExchangeStats {
            lane,
            imports: 0,
            exports: 0,
            obligations: 0,
            policy_len: 0,
            policy_lbd: 0,
            adaptive: false,
        }
    }
}

/// The shared bus. Create one per portfolio race with [`Exchange::new`]
/// and hand each lane a [`SharedContext`] via
/// [`SharedContext::attached`].
#[derive(Debug)]
pub struct Exchange {
    config: ExchangeConfig,
    items: RwLock<Vec<Arc<ExchangeItem>>>,
    dropped: AtomicUsize,
    /// Fetch calls across all lanes (the denominator of the import hit
    /// rate the adaptive policy watches).
    polls: AtomicUsize,
    /// Items handed to importers across all lanes.
    fetched: AtomicUsize,
    /// New-coverage events noted by the fuzz lane; a moving coverage
    /// frontier keeps the adaptive filter wide.
    coverage_delta: AtomicUsize,
}

impl Exchange {
    pub fn new(config: ExchangeConfig) -> Arc<Exchange> {
        Arc::new(Exchange {
            config,
            items: RwLock::new(Vec::new()),
            dropped: AtomicUsize::new(0),
            polls: AtomicUsize::new(0),
            fetched: AtomicUsize::new(0),
            coverage_delta: AtomicUsize::new(0),
        })
    }

    pub fn config(&self) -> &ExchangeConfig {
        &self.config
    }

    /// The clause export filter currently in force. Static configs
    /// return [`ExchangeConfig::export_policy`] unchanged; adaptive
    /// configs derive the thresholds from the observed import hit rate
    /// (items drained per poll, across all lanes) and from coverage
    /// deltas noted by the fuzz lane:
    ///
    /// * importers keeping up with publications (≥ 1 item per poll on
    ///   average) ⇒ widen to 2× length, +2 LBD — the traffic is being
    ///   used, so ship more of it;
    /// * a warmed-up bus (≥ 16 polls) that nobody has drained ⇒ tighten
    ///   to half length, LBD capped at 2 — only glue clauses are worth
    ///   the propagation overhead;
    /// * any new-coverage events ⇒ +2 length on top, keeping the filter
    ///   open while the fuzz frontier is still moving.
    pub fn current_policy(&self) -> ExportPolicy {
        let base = self.config.export_policy();
        if !self.config.adaptive {
            return base;
        }
        let polls = self.polls.load(Ordering::Relaxed);
        let hits = self.fetched.load(Ordering::Relaxed);
        let mut policy = base;
        if polls >= 16 && hits == 0 {
            policy.max_len = (base.max_len / 2).max(2);
            policy.max_lbd = base.max_lbd.min(2);
        } else if polls > 0 && hits >= polls {
            policy.max_len = base.max_len.saturating_mul(2);
            policy.max_lbd = base.max_lbd.saturating_add(2);
        }
        if self.coverage_delta.load(Ordering::Relaxed) > 0 {
            policy.max_len = policy.max_len.saturating_add(2);
        }
        policy
    }

    /// New-coverage events noted so far (see
    /// [`SharedContext::note_coverage_delta`]).
    pub fn coverage_delta(&self) -> usize {
        self.coverage_delta.load(Ordering::Relaxed)
    }

    /// Items published so far (including ones every consumer has seen).
    pub fn len(&self) -> usize {
        self.items.read().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Publications dropped at the capacity cap.
    pub fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Appends an item. Clauses beyond the capacity cap are dropped (and
    /// counted); lemmas and invariant clauses always land — see
    /// [`ExchangeConfig::capacity`].
    fn publish(&self, item: ExchangeItem) -> bool {
        let mut items = self.items.write().unwrap();
        if matches!(item, ExchangeItem::Clause(_)) && items.len() >= self.config.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        items.push(Arc::new(item));
        true
    }

    /// Scans forward from `cursor`, collecting up to `max` items not
    /// published by `lane`; returns the batch and the new cursor.
    fn fetch(&self, cursor: usize, lane: Lane, max: usize) -> (Vec<Arc<ExchangeItem>>, usize) {
        let items = self.items.read().unwrap();
        let mut out = Vec::new();
        let mut pos = cursor;
        while pos < items.len() && out.len() < max {
            let item = &items[pos];
            pos += 1;
            if item.source() != lane {
                out.push(item.clone());
            }
        }
        self.polls.fetch_add(1, Ordering::Relaxed);
        self.fetched.fetch_add(out.len(), Ordering::Relaxed);
        (out, pos)
    }
}

/// A clause-publication handle usable from inside the
/// [`csl_sat::Solver`] export hook (the hook closure owns one; the
/// surrounding [`SharedContext`] stays with the engine).
#[derive(Clone)]
pub struct ClauseExporter {
    bus: Arc<Exchange>,
    lane: Lane,
    exports: Arc<AtomicUsize>,
}

impl ClauseExporter {
    /// The publishing lane.
    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Publishes one translated clause; counts the export only when the
    /// bus accepted it.
    pub fn publish(&self, clause: SharedClause) {
        if self.bus.publish(ExchangeItem::Clause(clause)) {
            self.exports.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One lane's handle on the bus: publish survivors/clauses, poll foreign
/// items, and count traffic for the reports. A disabled context (no bus)
/// makes every operation a cheap no-op, so engine code is written once.
pub struct SharedContext {
    bus: Option<Arc<Exchange>>,
    lane: Lane,
    cursor: usize,
    import_enabled: bool,
    export_enabled: bool,
    imports: Arc<AtomicUsize>,
    exports: Arc<AtomicUsize>,
    obligations: Arc<AtomicUsize>,
}

impl SharedContext {
    /// A context with no bus: every publish/poll is a no-op. This is what
    /// lanes get when the exchange is disabled (and what every lane of the
    /// serial schedule uses).
    pub fn disabled(lane: Lane) -> SharedContext {
        SharedContext {
            bus: None,
            lane,
            cursor: 0,
            import_enabled: false,
            export_enabled: false,
            imports: Arc::new(AtomicUsize::new(0)),
            exports: Arc::new(AtomicUsize::new(0)),
            obligations: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A context attached to `bus`, with per-lane import/export opt-outs
    /// (from [`crate::LaneBudget::exchange`]).
    pub fn attached(bus: Arc<Exchange>, lane: Lane, import: bool, export: bool) -> SharedContext {
        SharedContext {
            bus: Some(bus),
            lane,
            cursor: 0,
            import_enabled: import,
            export_enabled: export,
            imports: Arc::new(AtomicUsize::new(0)),
            exports: Arc::new(AtomicUsize::new(0)),
            obligations: Arc::new(AtomicUsize::new(0)),
        }
    }

    pub fn lane(&self) -> Lane {
        self.lane
    }

    /// Whether this lane is attached to a live bus at all.
    pub fn is_attached(&self) -> bool {
        self.bus.is_some()
    }

    /// The bus configuration, when attached.
    pub fn config(&self) -> Option<&ExchangeConfig> {
        self.bus.as_deref().map(Exchange::config)
    }

    /// A clause-publication handle for the solver export hook, or `None`
    /// when this lane does not export.
    pub fn clause_exporter(&self) -> Option<ClauseExporter> {
        let bus = self.bus.as_ref()?;
        if !self.export_enabled {
            return None;
        }
        Some(ClauseExporter {
            bus: bus.clone(),
            lane: self.lane,
            exports: self.exports.clone(),
        })
    }

    /// Publishes a proven lemma.
    pub fn publish_lemma(&self, name: impl Into<String>, bit: Bit) {
        let Some(bus) = &self.bus else { return };
        if !self.export_enabled {
            return;
        }
        let accepted = bus.publish(ExchangeItem::Lemma(SharedLemma {
            name: name.into(),
            bit,
            source: self.lane,
        }));
        if accepted {
            self.exports.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes one clause of a proven inductive invariant (PDR's frame
    /// clauses at convergence). Like lemmas, invariant clauses bypass
    /// the capacity cap — they are final, bounded in number, and the
    /// highest-value traffic a proof engine can emit.
    pub fn publish_invariant(&self, name: impl Into<String>, lits: Vec<(Bit, bool)>) {
        let Some(bus) = &self.bus else { return };
        if !self.export_enabled {
            return;
        }
        let accepted = bus.publish(ExchangeItem::Invariant(SharedInvariant {
            name: name.into(),
            lits,
            source: self.lane,
        }));
        if accepted {
            self.exports.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes a fuzz-reached state as a PDR proof obligation. Like
    /// lemmas, obligations bypass the capacity cap: the fuzzer self-caps
    /// how many it exports and each one is high-value directed work for
    /// the proof lanes.
    pub fn publish_obligation(&self, cube: Vec<(u32, bool)>, depth: usize) {
        let Some(bus) = &self.bus else { return };
        if !self.export_enabled || cube.is_empty() {
            return;
        }
        let accepted = bus.publish(ExchangeItem::Obligation(SharedObligation {
            cube,
            depth,
            source: self.lane,
        }));
        if accepted {
            self.exports.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Publishes one init-true frontier clause (PDR's non-converged frame
    /// clauses, for the fuzzer's rejection filter).
    pub fn publish_frontier(&self, name: impl Into<String>, lits: Vec<(u32, bool)>, level: usize) {
        let Some(bus) = &self.bus else { return };
        if !self.export_enabled || lits.is_empty() {
            return;
        }
        let accepted = bus.publish(ExchangeItem::Frontier(SharedFrontier {
            name: name.into(),
            lits,
            level,
            source: self.lane,
        }));
        if accepted {
            self.exports.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The live clause export filter (adaptive buses move it at runtime),
    /// or `None` when detached.
    pub fn export_policy(&self) -> Option<ExportPolicy> {
        self.bus.as_deref().map(Exchange::current_policy)
    }

    /// Records `n` new-coverage events for the adaptive export policy.
    pub fn note_coverage_delta(&self, n: usize) {
        if let Some(bus) = &self.bus {
            bus.coverage_delta.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Pulls the next batch of foreign items (bounded by
    /// [`ExchangeConfig::max_imports_per_poll`]), advancing this lane's
    /// cursor. Returns an empty batch when detached or importing is
    /// disabled. Polling does not count as importing — call
    /// [`SharedContext::note_imported`] for items actually applied.
    pub fn poll(&mut self) -> Vec<Arc<ExchangeItem>> {
        let Some(bus) = &self.bus else {
            return Vec::new();
        };
        if !self.import_enabled {
            return Vec::new();
        }
        let (batch, cursor) = bus.fetch(self.cursor, self.lane, bus.config.max_imports_per_poll);
        self.cursor = cursor;
        batch
    }

    /// Records `n` items as applied to this lane's solvers.
    pub fn note_imported(&self, n: usize) {
        self.imports.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` applied items that were fuzz-reached obligations
    /// (counted both as imports and in the obligation breakdown).
    pub fn note_obligations(&self, n: usize) {
        self.imports.fetch_add(n, Ordering::Relaxed);
        self.obligations.fetch_add(n, Ordering::Relaxed);
    }

    pub fn imports(&self) -> usize {
        self.imports.load(Ordering::Relaxed)
    }

    pub fn exports(&self) -> usize {
        self.exports.load(Ordering::Relaxed)
    }

    pub fn obligations(&self) -> usize {
        self.obligations.load(Ordering::Relaxed)
    }

    /// This lane's traffic counters, plus the export policy in force.
    pub fn stats(&self) -> ExchangeStats {
        let policy = self.bus.as_deref().map(Exchange::current_policy);
        ExchangeStats {
            lane: self.lane,
            imports: self.imports(),
            exports: self.exports(),
            obligations: self.obligations(),
            policy_len: policy.map_or(0, |p| p.max_len),
            policy_lbd: policy.map_or(0, |p| p.max_lbd),
            adaptive: self.bus.as_deref().is_some_and(|b| b.config().adaptive),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lemma(name: &str, source: Lane) -> ExchangeItem {
        ExchangeItem::Lemma(SharedLemma {
            name: name.into(),
            bit: Bit::from_packed(2),
            source,
        })
    }

    #[test]
    fn poll_skips_own_items_and_tracks_cursor() {
        let bus = Exchange::new(ExchangeConfig::on());
        let mut bmc = SharedContext::attached(bus.clone(), Lane::Bmc, true, true);
        let kind = SharedContext::attached(bus.clone(), Lane::KInduction, true, true);
        kind.publish_lemma("from-kind", Bit::from_packed(2));
        bus.publish(lemma("from-houdini", Lane::Houdini));
        bmc.publish_lemma("from-bmc", Bit::from_packed(4));

        let batch = bmc.poll();
        assert_eq!(batch.len(), 2, "own item must be skipped");
        assert!(bmc.poll().is_empty(), "cursor must advance");

        bus.publish(lemma("late", Lane::Pdr));
        assert_eq!(bmc.poll().len(), 1);
        bmc.note_imported(3);
        assert_eq!(bmc.stats().imports, 3);
        assert_eq!(bmc.stats().exports, 1);
        assert_eq!(kind.stats().exports, 1);
    }

    fn clause(source: Lane) -> SharedClause {
        SharedClause {
            lits: vec![TimedLit {
                frame: 0,
                bit: Bit::from_packed(2),
            }],
            max_frame: 0,
            assume_frames: 0,
            source,
        }
    }

    #[test]
    fn capacity_drops_clauses_but_never_lemmas() {
        let bus = Exchange::new(ExchangeConfig {
            enabled: true,
            capacity: 2,
            ..ExchangeConfig::default()
        });
        let ctx = SharedContext::attached(bus.clone(), Lane::Bmc, true, true);
        let exporter = ctx.clause_exporter().unwrap();
        exporter.publish(clause(Lane::Bmc));
        exporter.publish(clause(Lane::Bmc));
        exporter.publish(clause(Lane::Bmc));
        assert_eq!(bus.len(), 2);
        assert_eq!(bus.dropped(), 1);
        assert_eq!(ctx.exports(), 2, "dropped publication must not count");
        // A lemma still lands on the full bus: a clause flood must not
        // evict the highest-value traffic.
        ctx.publish_lemma("late survivor", Bit::from_packed(4));
        assert_eq!(bus.len(), 3);
        assert_eq!(ctx.exports(), 3);
    }

    #[test]
    fn disabled_context_is_inert() {
        let mut ctx = SharedContext::disabled(Lane::Bmc);
        ctx.publish_lemma("x", Bit::from_packed(2));
        assert!(ctx.poll().is_empty());
        assert!(ctx.clause_exporter().is_none());
        assert_eq!(ctx.stats().exports, 0);
    }

    #[test]
    fn obligations_and_frontiers_flow_and_are_counted() {
        let bus = Exchange::new(ExchangeConfig::on());
        let fuzz = SharedContext::attached(bus.clone(), Lane::Fuzz, true, true);
        let mut pdr = SharedContext::attached(bus.clone(), Lane::Pdr, true, true);
        fuzz.publish_obligation(vec![(0, true), (3, false)], 9);
        pdr.publish_frontier("pdr-front-2-0", vec![(1, true)], 2);
        assert_eq!(fuzz.stats().exports, 1);
        assert_eq!(pdr.stats().exports, 1);

        let batch = pdr.poll();
        assert_eq!(
            batch.len(),
            1,
            "pdr sees the obligation, not its own clause"
        );
        match batch[0].as_ref() {
            ExchangeItem::Obligation(o) => {
                assert_eq!(o.depth, 9);
                assert_eq!(o.cube, vec![(0, true), (3, false)]);
                assert_eq!(o.source, Lane::Fuzz);
            }
            other => panic!("expected obligation, got {other:?}"),
        }
        pdr.note_obligations(1);
        let stats = pdr.stats();
        assert_eq!(stats.imports, 1);
        assert_eq!(stats.obligations, 1);

        // Empty payloads are silently refused.
        fuzz.publish_obligation(Vec::new(), 1);
        pdr.publish_frontier("empty", Vec::new(), 1);
        assert_eq!(bus.len(), 2);
    }

    #[test]
    fn static_policy_is_untouched_by_traffic() {
        let bus = Exchange::new(ExchangeConfig::on());
        let ctx = SharedContext::attached(bus.clone(), Lane::Bmc, true, true);
        for _ in 0..32 {
            let mut c = SharedContext::attached(bus.clone(), Lane::Pdr, true, true);
            c.poll();
        }
        let policy = bus.current_policy();
        assert_eq!(policy.max_len, 8);
        assert_eq!(policy.max_lbd, 4);
        let stats = ctx.stats();
        assert!(!stats.adaptive);
        assert_eq!((stats.policy_len, stats.policy_lbd), (8, 4));
    }

    #[test]
    fn adaptive_policy_tracks_hit_rate_and_coverage() {
        let bus = Exchange::new(ExchangeConfig::adaptive());
        let fuzz = SharedContext::attached(bus.clone(), Lane::Fuzz, true, true);

        // Fresh bus: too few polls to judge, thresholds stay static.
        assert_eq!(bus.current_policy().max_len, 8);

        // A warmed-up bus nobody drains tightens the filter.
        for _ in 0..16 {
            let mut c = SharedContext::attached(bus.clone(), Lane::Pdr, true, true);
            c.poll();
        }
        let tight = bus.current_policy();
        assert_eq!(tight.max_len, 4);
        assert_eq!(tight.max_lbd, 2);

        // Importers consuming at >= 1 item/poll widen it again; the
        // hit counter only moves when fetch returns foreign items.
        for i in 0..64 {
            fuzz.publish_lemma(format!("l{i}"), Bit::from_packed(2));
        }
        let mut pdr = SharedContext::attached(bus.clone(), Lane::Pdr, true, true);
        while !pdr.poll().is_empty() {}
        let wide = bus.current_policy();
        assert_eq!(wide.max_len, 16);
        assert_eq!(wide.max_lbd, 6);

        // Coverage deltas keep the filter open a little wider still,
        // and the decision is logged in the lane stats.
        fuzz.note_coverage_delta(3);
        assert_eq!(bus.coverage_delta(), 3);
        assert_eq!(bus.current_policy().max_len, 18);
        let stats = fuzz.stats();
        assert!(stats.adaptive);
        assert_eq!(stats.policy_len, 18);
    }

    #[test]
    fn export_opt_out_blocks_publication() {
        let bus = Exchange::new(ExchangeConfig::on());
        let ctx = SharedContext::attached(bus.clone(), Lane::Bmc, true, false);
        ctx.publish_lemma("x", Bit::from_packed(2));
        assert!(bus.is_empty());
        assert!(ctx.clause_exporter().is_none());

        let mut no_import = SharedContext::attached(bus.clone(), Lane::Pdr, false, true);
        no_import.publish_lemma("y", Bit::from_packed(2));
        assert_eq!(bus.len(), 1);
        assert!(no_import.poll().is_empty(), "import opt-out");
    }
}
