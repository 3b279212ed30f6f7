//! Transition-system view of a netlist.
//!
//! [`TransitionSystem`] wraps an [`Aig`] with its cone-of-influence
//! reduction: the set of latches and inputs that can affect the
//! verification roots (assumes + bad bits). Engines iterate over the
//! *active* latches/inputs only, which is the main scalability lever the
//! paper attributes to removing the two single-cycle machines — dead logic
//! simply never reaches the solver.

use std::sync::Arc;

use csl_hdl::{Aig, Bit, CoiMarks, Init, Node};

/// A netlist plus cone-of-influence bookkeeping.
pub struct TransitionSystem {
    aig: Aig,
    keep_probes: bool,
    coi: CoiMarks,
    active_latches: Vec<u32>,
    active_inputs: Vec<u32>,
    /// The unstrengthened system this one was derived from by
    /// [`TransitionSystem::strengthened`] (`None` for a plain system).
    plain: Option<Arc<TransitionSystem>>,
    /// Houdini survivors conjoined as assumes, as indices into the
    /// check's candidate list (empty for a plain system).
    survivors: Vec<usize>,
}

impl TransitionSystem {
    /// Builds the system, computing the cone of influence of all assumes
    /// and bad bits. Probes are kept alive too when `keep_probes` (useful
    /// for readable traces; slightly larger encodings).
    ///
    /// # Panics
    /// Panics if the netlist has unsealed latches.
    pub fn new(aig: Aig, keep_probes: bool) -> TransitionSystem {
        aig.validate()
            .unwrap_or_else(|names| panic!("unsealed latches: {names:?}"));
        let coi = aig.cone_of_influence(keep_probes);
        let mut active_latches = Vec::new();
        for (i, l) in aig.latches().iter().enumerate() {
            if coi.contains(l.output) {
                active_latches.push(i as u32);
            }
        }
        let mut active_inputs = Vec::new();
        for (i, inp) in aig.inputs().iter().enumerate() {
            if coi.contains(inp.output) {
                active_inputs.push(i as u32);
            }
        }
        TransitionSystem {
            aig,
            keep_probes,
            coi,
            active_latches,
            active_inputs,
            plain: None,
            survivors: Vec::new(),
        }
    }

    /// [`TransitionSystem::new`] wrapped in the [`Arc`] every engine and
    /// [`crate::Unroller`] takes — sessions are ownable (they can outlive
    /// the engine call that created them), so the system is shared, not
    /// borrowed.
    pub fn shared(aig: Aig, keep_probes: bool) -> Arc<TransitionSystem> {
        Arc::new(TransitionSystem::new(aig, keep_probes))
    }

    /// This system with Houdini's surviving candidates conjoined as
    /// assumes — sound, because the survivors are inductive invariants.
    /// `survivors` indexes the check's candidate list and `lemmas` holds
    /// the matching candidate bits, in the same order. Proofs on the
    /// result cite the survivors in their certificates; counterexamples
    /// are replayed on [`TransitionSystem::plain`].
    pub fn strengthened(
        self: &Arc<Self>,
        survivors: Vec<usize>,
        lemmas: impl IntoIterator<Item = Bit>,
    ) -> Arc<TransitionSystem> {
        let mut aig = self.aig.clone();
        for bit in lemmas {
            aig.add_assume(bit);
        }
        let mut ts = TransitionSystem::new(aig, self.keep_probes);
        ts.plain = Some(self.plain().clone());
        ts.survivors = survivors;
        Arc::new(ts)
    }

    /// The unstrengthened system (`self` unless built by
    /// [`TransitionSystem::strengthened`]).
    pub fn plain(self: &Arc<Self>) -> &Arc<TransitionSystem> {
        self.plain.as_ref().unwrap_or(self)
    }

    /// The Houdini survivors this system assumes (empty when plain).
    pub fn survivors(&self) -> &[usize] {
        &self.survivors
    }

    /// A structural fingerprint of the netlist: two systems with the same
    /// fingerprint encode the same gates, latches (with init values and
    /// next-state functions), assumes and bad bits, so a solver session
    /// built against one is sound to reuse against the other. Keys the
    /// warm-start pool (see [`crate::warm`]). FNV-1a over the node table;
    /// names are deliberately excluded (renaming a probe must not defeat
    /// warm reuse).
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(self.aig.num_nodes() as u64);
        for n in 0..self.aig.num_nodes() as u32 {
            match self.aig.node(Bit::from_packed(n << 1)) {
                Node::Const => eat(1),
                Node::Input(i) => eat(2 | ((i as u64) << 8)),
                Node::Latch(li) => {
                    let l = &self.aig.latches()[li as usize];
                    let init = match l.init {
                        Init::Zero => 0u64,
                        Init::One => 1,
                        Init::Symbolic => 2,
                    };
                    let next = l.next.map_or(u64::MAX, |b| b.packed() as u64);
                    eat(3 | (init << 8) | (next << 16));
                }
                Node::And(x, y) => {
                    eat(4 | ((x.packed() as u64) << 8));
                    eat(y.packed() as u64);
                }
            }
        }
        for &a in self.aig.assumes() {
            eat(5 | ((a.packed() as u64) << 8));
        }
        for b in self.aig.bads() {
            eat(6 | ((b.bit.packed() as u64) << 8));
        }
        // The cone of influence is derived but depends on `keep_probes`,
        // which is not in the node table — hash the active sets so systems
        // built with different probe policies never share sessions.
        for &li in &self.active_latches {
            eat(7 | ((li as u64) << 8));
        }
        for &ii in &self.active_inputs {
            eat(8 | ((ii as u64) << 8));
        }
        h
    }

    /// The underlying netlist.
    pub fn aig(&self) -> &Aig {
        &self.aig
    }

    /// Latch indices inside the cone of influence.
    pub fn active_latches(&self) -> &[u32] {
        &self.active_latches
    }

    /// Input indices inside the cone of influence.
    pub fn active_inputs(&self) -> &[u32] {
        &self.active_inputs
    }

    /// Whether `b`'s node is in the cone of influence.
    pub fn in_coi(&self, b: Bit) -> bool {
        self.coi.contains(b)
    }

    /// Initial value of latch `idx` as a concrete bool, or `None` when
    /// symbolic.
    pub fn latch_init(&self, idx: u32) -> Option<bool> {
        match self.aig.latches()[idx as usize].init {
            Init::Zero => Some(false),
            Init::One => Some(true),
            Init::Symbolic => None,
        }
    }

    /// Summary line for logs and the Table 1 inventory.
    pub fn summary(&self) -> String {
        format!(
            "{} ands, {}/{} latches in COI, {}/{} inputs in COI, {} assumes, {} bads",
            self.aig.num_ands(),
            self.active_latches.len(),
            self.aig.num_latches(),
            self.active_inputs.len(),
            self.aig.num_inputs(),
            self.aig.assumes().len(),
            self.aig.bads().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csl_hdl::Design;

    #[test]
    fn coi_prunes_dead_state() {
        let mut d = Design::new("t");
        let live = d.reg("live", 2, Init::Zero);
        let dead = d.reg("dead", 8, Init::Zero);
        let next = d.add_const(&live.q(), 1);
        d.set_next(&live, next);
        let dnext = d.add_const(&dead.q(), 3);
        d.set_next(&dead, dnext);
        let flag = d.eq_const(&live.q(), 3);
        d.assert_always("live_lt3", flag.not());
        let ts = TransitionSystem::new(d.finish(), false);
        assert_eq!(ts.active_latches().len(), 2);
        assert_eq!(ts.aig().num_latches(), 10);
    }

    #[test]
    fn keep_probes_enlarges_cone() {
        let mut d = Design::new("t");
        let r = d.reg("r", 4, Init::Zero);
        d.hold(&r);
        let q = r.q();
        d.probe("r", &q);
        let t = csl_hdl::Bit::TRUE;
        d.assert_always("trivial", t);
        let without = TransitionSystem::new(
            {
                let mut d2 = Design::new("t");
                let r2 = d2.reg("r", 4, Init::Zero);
                d2.hold(&r2);
                let q2 = r2.q();
                d2.probe("r", &q2);
                d2.assert_always("trivial", csl_hdl::Bit::TRUE);
                d2.finish()
            },
            false,
        );
        let with = TransitionSystem::new(d.finish(), true);
        assert_eq!(without.active_latches().len(), 0);
        assert_eq!(with.active_latches().len(), 4);
    }

    #[test]
    fn latch_init_reporting() {
        let mut d = Design::new("t");
        let a = d.reg("a", 1, Init::Zero);
        let b = d.reg("b", 1, Init::Symbolic);
        d.hold(&a);
        d.hold(&b);
        let ts = TransitionSystem::new(d.finish(), false);
        assert_eq!(ts.latch_init(0), Some(false));
        assert_eq!(ts.latch_init(1), None);
    }
}
