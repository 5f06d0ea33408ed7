//! [`SimBatch`]: many concurrent fire forecasts advanced together.
//!
//! The paper's end goal is an operational service running many data-driven
//! fire forecasts at once, not one simulation per process. `SimBatch` is
//! that service layer's execution core: it owns N realized
//! [`Simulation`]s (each a coupled model + state + private workspace)
//! under stable slot ids and advances them toward a shared horizon.
//!
//! Nothing ties one fire's step to another's, so each slot is one work item
//! that the ensemble worker pool claims from a shared atomic cursor
//! (`wildfire_ensemble::pool::parallel_for_each_dynamic_ws`): cheap or
//! already-finished fires never pin a worker while another grinds through
//! an expensive one. Every slot steps through its own
//! [`Simulation::run_until`], the one stepping path of the workspace, so a
//! batched slot is bit-identical to the same simulation run alone, for
//! every batch composition and thread count (pinned by the proptest suite
//! in `crates/sim/tests/`).
//!
//! A failing slot stops at its failing step and fails alone: every other
//! slot still reaches the horizon, and [`SimBatch::advance_to`] names each
//! failed slot in a [`BatchError`].
//!
//! ```no_run
//! use wildfire_sim::batch::SimBatch;
//! use wildfire_sim::registry;
//!
//! let mut batch = SimBatch::new(4);
//! for name in [registry::FIG1_FIRELINE, registry::WIND_SHIFT] {
//!     let scenario = registry::by_name(name).unwrap();
//!     batch.push_scenario(&scenario).unwrap();
//! }
//! batch.advance_to(60.0).unwrap();
//! for p in batch.products() {
//!     println!("{}: burned {:.0} m², perimeter {:.0} m", p.name, p.burned_area, p.perimeter_length);
//! }
//! ```

use crate::builder::Simulation;
use crate::scenario::Scenario;
use crate::{Result, SimError, SimulationBuilder};
use wildfire_core::StepDiagnostics;
use wildfire_ensemble::pool;
use wildfire_fire::perimeter::perimeter_length;

/// Per-slot rollup of the diagnostics stream a slot produced while the
/// batch advanced — running maxima/counters only, so it composes across
/// repeated [`SimBatch::advance_to`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Rollup {
    steps: usize,
    max_spread_rate: f64,
    max_updraft: f64,
    max_surface_wind: f64,
    peak_sensible_power: f64,
    peak_latent_power: f64,
}

impl Rollup {
    fn absorb(&mut self, d: &StepDiagnostics) {
        self.steps += 1;
        self.max_spread_rate = self.max_spread_rate.max(d.max_spread_rate);
        self.max_updraft = self.max_updraft.max(d.max_updraft);
        self.max_surface_wind = self.max_surface_wind.max(d.max_surface_wind);
        self.peak_sensible_power = self.peak_sensible_power.max(d.total_sensible_power);
        self.peak_latent_power = self.peak_latent_power.max(d.total_latent_power);
    }
}

/// One owned simulation inside the batch plus its rollup, its stable
/// identity, and the error its last advance stopped on, if any.
struct Slot {
    sim: Simulation,
    rollup: Rollup,
    id: usize,
    error: Option<SimError>,
}

/// Batch-level products for one slot, as reported by
/// [`SimBatch::products`].
#[derive(Debug, Clone, PartialEq)]
pub struct SlotProducts {
    /// Scenario name of the slot.
    pub name: String,
    /// Slot simulation time (s).
    pub time: f64,
    /// Coupled steps taken since the slot joined the batch.
    pub coupled_steps: usize,
    /// Burned area (m²).
    pub burned_area: f64,
    /// Fire-front perimeter length (m), via the marching-front extractor
    /// in [`wildfire_fire::perimeter`].
    pub perimeter_length: f64,
    /// Largest front spread rate seen by any level-set sub-step (m/s).
    pub max_spread_rate: f64,
    /// Largest updraft seen after any coupled step (m/s).
    pub max_updraft: f64,
    /// Largest near-surface wind speed seen after any coupled step (m/s).
    pub max_surface_wind: f64,
    /// Peak domain-integrated sensible heat release (W).
    pub peak_sensible_power: f64,
    /// Peak domain-integrated latent heat release (W).
    pub peak_latent_power: f64,
}

/// Every slot that failed during one [`SimBatch::advance_to`]. The other
/// slots reached the horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchError {
    /// `(slot id, error)` for each failed slot, in slot order.
    pub failed: Vec<(usize, SimError)>,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} batch slot(s) failed", self.failed.len())?;
        for (id, e) in &self.failed {
            write!(f, "; slot {id}: {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for BatchError {}

/// A batch of concurrent fire forecasts; see the [module docs](self).
pub struct SimBatch {
    slots: Vec<Slot>,
    threads: usize,
    next_id: usize,
}

impl SimBatch {
    /// An empty batch that will step its slots on up to `threads` workers
    /// (clamped to at least one; a value of 1 runs inline).
    pub fn new(threads: usize) -> Self {
        SimBatch {
            slots: Vec::new(),
            threads: threads.max(1),
            next_id: 0,
        }
    }

    /// Adds a realized simulation; returns its stable slot id. Ids are
    /// assigned monotonically, never reused, and survive
    /// [`SimBatch::remove`] of other slots — while no slot has been
    /// removed, the id coincides with the slot's position.
    pub fn push(&mut self, sim: Simulation) -> usize {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.push(Slot {
            sim,
            rollup: Rollup::default(),
            id,
            error: None,
        });
        id
    }

    /// Builds and adds a simulation from a scenario; returns its stable
    /// slot id.
    ///
    /// # Errors
    /// Propagates [`SimulationBuilder::build`] failures.
    pub fn push_scenario(&mut self, scenario: &Scenario) -> Result<usize> {
        let sim = SimulationBuilder::from_scenario(scenario.clone()).build()?;
        Ok(self.push(sim))
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when the batch holds no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Position of the slot with the given stable id, if still present.
    /// Slots stay sorted by id (pushes append, removals keep the order), so
    /// this is a binary search.
    pub fn position_of(&self, id: usize) -> Option<usize> {
        self.slots.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// The stable ids of all current slots, in slot order.
    pub fn ids(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.id).collect()
    }

    /// The slot's simulation, by stable id.
    ///
    /// # Panics
    /// Panics when no slot has this id (e.g. after [`SimBatch::remove`]).
    pub fn simulation(&self, id: usize) -> &Simulation {
        let at = self.position_of(id).expect("no batch slot with this id");
        &self.slots[at].sim
    }

    /// Mutable access to a slot's simulation, by stable id. Mutating model
    /// configuration mid-batch is allowed: every slot steps on its own.
    ///
    /// # Panics
    /// Panics when no slot has this id (e.g. after [`SimBatch::remove`]).
    pub fn simulation_mut(&mut self, id: usize) -> &mut Simulation {
        let at = self.position_of(id).expect("no batch slot with this id");
        &mut self.slots[at].sim
    }

    /// Retires a slot, returning its simulation (with whatever state it
    /// has reached). `None` when no slot has this id. The remaining slots'
    /// ids are unaffected — this is how a long-lived service admits and
    /// retires forecasts from a running batch.
    pub fn remove(&mut self, id: usize) -> Option<Simulation> {
        let at = self.position_of(id)?;
        Some(self.slots.remove(at).sim)
    }

    /// Advances every slot to `horizon` (slots already past it are left
    /// untouched), each through its own [`Simulation::run_until`], with the
    /// slots work-stolen across the worker pool. Results are bit-identical
    /// to advancing each slot alone, for every thread count.
    ///
    /// # Errors
    /// A [`BatchError`] naming every slot whose step failed. A failed slot
    /// stops at its failing step; every other slot reaches the horizon.
    pub fn advance_to(&mut self, horizon: f64) -> std::result::Result<(), BatchError> {
        let mut workers = vec![(); self.threads];
        pool::parallel_for_each_dynamic_ws(&mut self.slots, &mut workers, |_, slot, ()| {
            let rollup = &mut slot.rollup;
            slot.error = slot
                .sim
                .run_until(horizon, |_, diag| rollup.absorb(diag))
                .err();
        });
        let failed: Vec<(usize, SimError)> = self
            .slots
            .iter_mut()
            .filter_map(|s| s.error.take().map(|e| (s.id, e)))
            .collect();
        if failed.is_empty() {
            Ok(())
        } else {
            Err(BatchError { failed })
        }
    }

    /// The batch product table, in slot order: per-fire burned area,
    /// perimeter length, and the diagnostics rollups accumulated across
    /// every advance so far.
    pub fn products(&self) -> Vec<SlotProducts> {
        self.slots
            .iter()
            .map(|s| SlotProducts {
                name: s.sim.scenario.name.clone(),
                time: s.sim.time(),
                coupled_steps: s.rollup.steps,
                burned_area: s.sim.state.fire.burned_area(),
                perimeter_length: perimeter_length(&s.sim.state.fire.psi),
                max_spread_rate: s.rollup.max_spread_rate,
                max_updraft: s.rollup.max_updraft,
                max_surface_wind: s.rollup.max_surface_wind,
                peak_sensible_power: s.rollup.peak_sensible_power,
                peak_latent_power: s.rollup.peak_latent_power,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::DomainSpec;
    use wildfire_fire::IgnitionShape;

    /// 13×13 fire mesh: the forecast-service request shape.
    const TINY: DomainSpec = DomainSpec {
        nx: 5,
        ny: 5,
        nz: 4,
        dx: 60.0,
        dy: 60.0,
        dz: 50.0,
        refinement: 3,
    };

    fn tiny(k: usize) -> SimulationBuilder {
        let center = TINY.center();
        SimulationBuilder::new()
            .name(format!("tiny-{k}"))
            .domain(TINY)
            .ignite(IgnitionShape::Circle {
                center: (center.0 + 10.0 * k as f64, center.1),
                radius: 25.0,
            })
    }

    fn tiny_sim(k: usize) -> Simulation {
        tiny(k).build().expect("tiny scenario builds")
    }

    fn assert_same_trajectory(a: &Simulation, b: &Simulation) {
        assert_eq!(a.state.fire.psi, b.state.fire.psi);
        assert_eq!(a.state.fire.tig, b.state.fire.tig);
        assert_eq!(a.state.fire.time.to_bits(), b.state.fire.time.to_bits());
        assert_eq!(a.state.atmos.theta, b.state.atmos.theta);
        assert_eq!(a.state.atmos.w, b.state.atmos.w);
    }

    #[test]
    fn slot_ids_are_stable_across_removal_and_reinsertion() {
        let mut batch = SimBatch::new(1);
        let a = batch.push(tiny_sim(0));
        let b = batch.push(tiny_sim(1));
        let c = batch.push(tiny_sim(2));
        assert_eq!((a, b, c), (0, 1, 2));
        let removed = batch.remove(b).expect("slot b present");
        assert_eq!(removed.scenario.name, "tiny-1");
        assert!(batch.remove(b).is_none());
        assert_eq!(batch.ids(), vec![a, c]);
        assert_eq!(batch.simulation(c).scenario.name, "tiny-2");
        assert_eq!(batch.position_of(c), Some(1));
        let d = batch.push(tiny_sim(3));
        assert_eq!(d, 3, "ids are monotonic, never reused");
        batch.advance_to(1.0).expect("advance");
        assert_eq!(batch.ids(), vec![a, c, d], "advance preserves id order");
    }

    #[test]
    fn slots_are_bitwise_deterministic_across_thread_counts() {
        // More slots than workers, so work-stealing actually interleaves
        // them; every thread count must produce bitwise-identical states.
        let n = 6;
        let t_end = 1.5;
        let mut reference: Option<Vec<Simulation>> = None;
        for threads in [1usize, 3] {
            let mut batch = SimBatch::new(threads);
            for k in 0..n {
                batch.push(tiny_sim(k));
            }
            batch.advance_to(t_end).expect("advance");
            let states: Vec<Simulation> = (0..n).map(|id| batch.simulation(id).clone()).collect();
            match &reference {
                None => reference = Some(states),
                Some(re) => {
                    for (r, s) in re.iter().zip(&states) {
                        assert_same_trajectory(r, s);
                    }
                }
            }
        }
    }

    #[test]
    fn a_failing_slot_fails_alone() {
        // A NaN ambient wind from t = 1 s poisons slot 1. The healthy slots
        // must still reach the horizon, bitwise equal to a batch without
        // the poisoned slot, and the error must name slot 1 only.
        let horizon = 5.0;
        let mut clean = SimBatch::new(2);
        clean.push(tiny_sim(0));
        clean.push(tiny_sim(2));
        clean.advance_to(horizon).expect("healthy batch advances");

        let mut mixed = SimBatch::new(2);
        mixed.push(tiny_sim(0));
        let poisoned = tiny(1)
            .wind_shift(1.0, (f64::NAN, f64::NAN))
            .build()
            .expect("the builder accepts the shift");
        let bad = mixed.push(poisoned);
        mixed.push(tiny_sim(2));
        let err = mixed.advance_to(horizon).expect_err("poisoned slot fails");
        assert_eq!(err.failed.len(), 1, "{err}");
        assert_eq!(err.failed[0].0, bad);
        assert!(mixed.simulation(bad).time() < horizon);

        for (clean_id, mixed_id) in [(0, 0), (1, 2)] {
            let (c, m) = (clean.simulation(clean_id), mixed.simulation(mixed_id));
            assert_eq!(m.time().to_bits(), horizon.to_bits());
            assert_same_trajectory(c, m);
        }
        let clean_products = clean.products();
        let mixed_products = mixed.products();
        assert_eq!(clean_products[0], mixed_products[0]);
        assert_eq!(clean_products[1], mixed_products[2]);
    }
}
