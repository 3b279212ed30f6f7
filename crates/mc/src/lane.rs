//! Per-lane budget shaping for the engine portfolio.
//!
//! The paper's JasperGold workflow gives every engine the same 7-day
//! clock; the ROADMAP's "portfolio-aware budget shaping" item asks for
//! finer control: give the attack-finding BMC lane a *depth schedule*
//! (sweep shallow depths on a short fuse before committing to the deep
//! search) and a wall-clock cap, while PDR keeps the full clock. A
//! [`LanePlan`] captures that: one optional [`LaneBudget`] per [`Lane`],
//! threaded through [`crate::CheckOptions::lanes`] into both execution
//! modes of [`crate::check_safety`]. Each lane's deadline is the earlier of the shared deadline and its own
//! wall cap, and the BMC lane walks its depth schedule instead of a
//! single full-depth pass. A lane that exhausts *its own* cap (rather
//! than the shared clock) times out locally: the portfolio ignores it,
//! and the sequential schedule moves on to the next lane instead of
//! timing out the whole check.
//!
//! The default plan is empty (no caps, no schedule) and reproduces the
//! previous behaviour exactly.

use std::time::{Duration, Instant};

/// One engine lane of the portfolio.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Bounded model checking — the attack-finding lane.
    Bmc,
    /// k-induction on the lemma-free netlist.
    KInduction,
    /// IC3/property-directed reachability.
    Pdr,
    /// Houdini invariant filtering (plus, in portfolio mode, its
    /// strengthened re-runs).
    Houdini,
    /// Differential fuzzing on the bit-parallel simulator (extra
    /// attack-finding lanes registered through
    /// [`crate::CheckOptions::extra_lanes`]).
    Fuzz,
}

impl Lane {
    /// All lanes, in pipeline order.
    pub const ALL: [Lane; 5] = [
        Lane::Bmc,
        Lane::KInduction,
        Lane::Pdr,
        Lane::Houdini,
        Lane::Fuzz,
    ];

    /// Stable lower-case label (used in notes and serialized reports).
    pub fn name(self) -> &'static str {
        match self {
            Lane::Bmc => "bmc",
            Lane::KInduction => "k-induction",
            Lane::Pdr => "pdr",
            Lane::Houdini => "houdini",
            Lane::Fuzz => "fuzz",
        }
    }

    /// Inverse of [`Lane::name`] (used when reading persisted reports).
    pub fn from_name(name: &str) -> Option<Lane> {
        Lane::ALL.into_iter().find(|l| l.name() == name)
    }

    fn index(self) -> usize {
        match self {
            Lane::Bmc => 0,
            Lane::KInduction => 1,
            Lane::Pdr => 2,
            Lane::Houdini => 3,
            Lane::Fuzz => 4,
        }
    }
}

/// Per-lane participation in the clause/lemma exchange bus (only
/// meaningful when [`crate::CheckOptions::exchange`] enables the bus).
/// The default participates both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaneExchange {
    /// Pull foreign clauses/lemmas off the bus between SAT queries.
    pub import: bool,
    /// Publish this lane's learnt clauses / proven lemmas.
    pub export: bool,
}

impl Default for LaneExchange {
    fn default() -> LaneExchange {
        LaneExchange {
            import: true,
            export: true,
        }
    }
}

/// Budget shaping for one lane.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LaneBudget {
    /// Wall-clock cap for this lane, measured from the start of the check
    /// (`None` = the lane inherits the full shared clock).
    pub wall: Option<Duration>,
    /// Progressive depth schedule (meaningful for [`Lane::Bmc`] only):
    /// the lane checks each depth in order, splitting its wall clock
    /// evenly across the remaining steps, and stops at the first
    /// counterexample. Empty = one pass at `CheckOptions::bmc_depth`.
    pub depth_schedule: Vec<usize>,
    /// Exchange-bus participation (import/export opt-outs).
    pub exchange: LaneExchange,
}

impl LaneBudget {
    /// A wall-clock cap alone.
    pub fn wall(cap: Duration) -> LaneBudget {
        LaneBudget {
            wall: Some(cap),
            ..LaneBudget::default()
        }
    }

    /// A depth schedule alone (BMC lane).
    pub fn depths(schedule: &[usize]) -> LaneBudget {
        LaneBudget {
            depth_schedule: schedule.to_vec(),
            ..LaneBudget::default()
        }
    }

    /// Adds a wall-clock cap (builder style).
    pub fn with_wall(mut self, cap: Duration) -> LaneBudget {
        self.wall = Some(cap);
        self
    }

    /// Adds a depth schedule (builder style).
    pub fn with_depths(mut self, schedule: &[usize]) -> LaneBudget {
        self.depth_schedule = schedule.to_vec();
        self
    }

    /// Sets this lane's exchange-bus participation (builder style).
    pub fn with_exchange(mut self, exchange: LaneExchange) -> LaneBudget {
        self.exchange = exchange;
        self
    }

    fn is_default(&self) -> bool {
        self.wall.is_none()
            && self.depth_schedule.is_empty()
            && self.exchange == LaneExchange::default()
    }
}

/// Per-lane budgets for one `check_safety` run. The default plan leaves
/// every lane on the shared clock.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LanePlan {
    slots: [LaneBudget; 5],
}

impl LanePlan {
    /// The empty plan: every lane inherits the shared clock.
    pub fn new() -> LanePlan {
        LanePlan::default()
    }

    /// True when no lane carries a cap or schedule.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|b| b.is_default())
    }

    /// This lane's budget.
    pub fn get(&self, lane: Lane) -> &LaneBudget {
        &self.slots[lane.index()]
    }

    /// Replaces a lane's budget.
    pub fn set(&mut self, lane: Lane, budget: LaneBudget) {
        self.slots[lane.index()] = budget;
    }

    /// Replaces a lane's budget (builder style).
    pub fn with(mut self, lane: Lane, budget: LaneBudget) -> LanePlan {
        self.set(lane, budget);
        self
    }

    /// The lane's effective deadline: its wall cap measured from `start`,
    /// clipped to the shared `deadline`.
    pub fn deadline_for(&self, lane: Lane, start: Instant, deadline: Instant) -> Instant {
        match self.get(lane).wall {
            Some(cap) => (start + cap).min(deadline),
            None => deadline,
        }
    }

    /// Whether a timeout in this lane can be local (its own cap fired
    /// while the shared clock still runs).
    pub fn is_capped(&self, lane: Lane) -> bool {
        self.get(lane).wall.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_empty_and_inherits_deadline() {
        let plan = LanePlan::default();
        assert!(plan.is_empty());
        let start = Instant::now();
        let deadline = start + Duration::from_secs(10);
        for lane in Lane::ALL {
            assert_eq!(plan.deadline_for(lane, start, deadline), deadline);
            assert!(!plan.is_capped(lane));
        }
    }

    #[test]
    fn wall_cap_clips_to_shared_deadline() {
        let plan = LanePlan::new()
            .with(Lane::Bmc, LaneBudget::wall(Duration::from_secs(2)))
            .with(Lane::Pdr, LaneBudget::wall(Duration::from_secs(60)));
        assert!(!plan.is_empty());
        let start = Instant::now();
        let deadline = start + Duration::from_secs(10);
        assert_eq!(
            plan.deadline_for(Lane::Bmc, start, deadline),
            start + Duration::from_secs(2)
        );
        // A cap beyond the shared clock never extends it.
        assert_eq!(plan.deadline_for(Lane::Pdr, start, deadline), deadline);
        assert_eq!(
            plan.deadline_for(Lane::KInduction, start, deadline),
            deadline
        );
    }

    #[test]
    fn lane_budget_builders_compose() {
        let b = LaneBudget::depths(&[4, 8, 16]).with_wall(Duration::from_secs(5));
        assert_eq!(b.depth_schedule, vec![4, 8, 16]);
        assert_eq!(b.wall, Some(Duration::from_secs(5)));
        let plan = LanePlan::new().with(Lane::Bmc, b.clone());
        assert_eq!(plan.get(Lane::Bmc), &b);
    }

    #[test]
    fn exchange_opt_out_makes_plan_non_empty() {
        let quiet = LaneBudget::default().with_exchange(LaneExchange {
            import: true,
            export: false,
        });
        let plan = LanePlan::new().with(Lane::Bmc, quiet);
        assert!(!plan.is_empty(), "an exchange opt-out is a real setting");
        assert!(!plan.get(Lane::Bmc).exchange.export);
        assert!(plan.get(Lane::Pdr).exchange.import, "default participates");
    }
}
