//! `fig1_forecast`: the paper's Fig. 1 fireline at `DomainSpec::PAPER`,
//! one `Simulation` stepped with `run_until` for 240 s of simulated time,
//! repeated back to back on one thread.
//!
//! The traced run interleaves untraced repetitions with repetitions that
//! compose the coupled step from the layers' public functions
//! (`fire_wind_into` → `advance_to_stats_ws` → `heat_fluxes_into` →
//! `restrict_into` → `AtmosModel::step_ws` sub-steps →
//! `surface_wind_into`), each call inside a span, and checks that the
//! composition reproduces `Simulation::step` bit for bit.

use crate::stats::{median, percentile, tail_percentile, Ledger};
use crate::trace::{coverage, overhead_frac, per_root_seconds, Tracer};
use crate::{bits_eq, peak_rss_mb, write_trace, Args, Report};
use std::time::Instant;
use wildfire_atmos::AtmosWorkspace;
use wildfire_core::{CoupledModel, CoupledState, StepDiagnostics};
use wildfire_fire::heat::{heat_fluxes_into, HeatFluxFields};
use wildfire_fire::perimeter::{burning_components, perimeter_length};
use wildfire_fire::FireWorkspace;
use wildfire_grid::transfer::restrict_into;
use wildfire_grid::{Field2, VectorField2};
use wildfire_sim::{registry, Simulation, SimulationBuilder};

/// Simulated seconds per repetition.
const T_END: f64 = 240.0;
/// Repetitions always run, so the run p90 rests on a handful of runs.
const MIN_REPS: usize = 5;
/// Relative tolerance of the golden trajectory (as the fig1 golden test).
const REL_TOL: f64 = 1e-9;
/// `(time, burned area m², perimeter length m)` of the fig1 coupled run.
/// The first three rows are the committed golden trajectory of the
/// workspace's fig1 golden test; the 240 s row extends it to the end of
/// this workload's run, produced by the same code path.
const GOLDEN: [(f64, f64, f64); 4] = [
    (20.0, 8100.0, 774.376_192_491_142_9),
    (40.0, 11196.0, 845.562_044_149_103_7),
    (60.0, 13428.0, 925.206_994_613_914_3),
    (240.0, 54684.0, 2_079.741_908_181_407_3),
];

/// Compares the trajectory against [`GOLDEN`] at each pinned time and
/// requires the three ignitions to have merged into one front at 240 s.
#[derive(Debug)]
struct GoldenCheck {
    matched: usize,
    ok: bool,
}

impl GoldenCheck {
    fn new() -> Self {
        GoldenCheck {
            matched: 0,
            ok: true,
        }
    }

    fn observe(&mut self, state: &CoupledState) {
        let t = state.time();
        for (tg, area, perimeter) in GOLDEN {
            if (t - tg).abs() < 1e-9 {
                let a = state.fire.burned_area();
                let p = perimeter_length(&state.fire.psi);
                let close = |x: f64, g: f64| (x - g).abs() <= REL_TOL * g.abs();
                if !(close(a, area) && close(p, perimeter)) {
                    eprintln!("rtbench: fig1 drifted at t = {t}: area {a} (golden {area}), perimeter {p} (golden {perimeter})");
                    self.ok = false;
                }
                self.matched += 1;
            }
        }
    }

    fn passed(&self, state: &CoupledState) -> bool {
        let merged = burning_components(&state.fire.psi) == 1;
        if !merged {
            eprintln!("rtbench: fig1 fronts did not merge by {T_END} s");
        }
        self.ok && merged && self.matched == GOLDEN.len()
    }
}

/// One untimed-overhead repetition through `Simulation::run_until`:
/// per-step wall times (s, excluding the golden checks between steps),
/// whether the checks passed, and the step diagnostics.
fn untraced_rep(
    mut sim: Simulation,
    steps: &mut Vec<f64>,
) -> (f64, bool, Simulation, Vec<StepDiagnostics>) {
    let mut check = GoldenCheck::new();
    let mut diags = Vec::with_capacity(512);
    let mut run_s = 0.0;
    let mut prev = Instant::now();
    let result = sim.run_until(T_END, |state, diag| {
        let dt = prev.elapsed().as_secs_f64();
        steps.push(dt);
        run_s += dt;
        diags.push(*diag);
        check.observe(state);
        prev = Instant::now();
    });
    if let Err(e) = &result {
        eprintln!("rtbench: fig1 run failed: {e}");
    }
    let ok = result.is_ok() && check.passed(&sim.state);
    (run_s, ok, sim, diags)
}

/// Scratch of the traced step composition (the same buffers a
/// `CoupledWorkspace` holds, owned here because they are crate-private
/// there).
#[derive(Default)]
struct TracedWorkspace {
    surface: VectorField2,
    wind: VectorField2,
    fire: FireWorkspace,
    fluxes: HeatFluxFields,
    sensible: Field2,
    latent: Field2,
    atmos: AtmosWorkspace,
    fire_substeps: Vec<f64>,
    atmos_substeps: Vec<f64>,
}

/// One coupled step composed from the layers' public functions, each call
/// in a span under a `step` root. Mirrors `CoupledModel::step_ws` for a
/// coupled model.
fn traced_step(
    model: &CoupledModel,
    state: &mut CoupledState,
    dt: f64,
    ws: &mut TracedWorkspace,
    tr: &mut Tracer,
) -> Result<StepDiagnostics, String> {
    let e = |e: &dyn std::fmt::Debug| format!("{e:?}");
    let root = tr.begin("step");
    let t_target = state.fire.time + dt;
    tr.span("core.fire_wind", || {
        model.fire_wind_into(state, &mut ws.surface, &mut ws.wind)
    })
    .map_err(|x| e(&x))?;
    let stats = tr
        .span("fire.advance", || {
            model
                .fire
                .advance_to_stats_ws(&mut state.fire, &ws.wind, t_target, dt, &mut ws.fire)
        })
        .map_err(|x| e(&x))?;
    ws.fire_substeps.push(stats.steps as f64);
    tr.span("fire.heat_flux", || {
        heat_fluxes_into(
            model.fire.mesh(),
            &state.fire,
            state.fire.time,
            &mut ws.fluxes,
        )
    });
    let h = model.atmos.grid.horizontal();
    ws.sensible.resize_no_zero(h);
    ws.latent.resize_no_zero(h);
    tr.span("grid.restrict", || {
        restrict_into(&ws.fluxes.sensible, &mut ws.sensible)
    })
    .map_err(|x| e(&x))?;
    tr.span("grid.restrict", || {
        restrict_into(&ws.fluxes.latent, &mut ws.latent)
    })
    .map_err(|x| e(&x))?;
    let mut substeps = 0;
    while state.atmos.time < t_target - 1e-9 {
        let r = tr.span("atmos.step", || {
            let dt_max = model.atmos.max_stable_dt(&state.atmos);
            let sub = dt_max.min(t_target - state.atmos.time);
            model.atmos.step_ws(
                &mut state.atmos,
                &ws.sensible,
                &ws.latent,
                sub,
                &mut ws.atmos,
            )
        });
        r.map_err(|x| e(&x))?;
        substeps += 1;
        if substeps > 10_000 {
            return Err("atmosphere sub-stepping did not reach the target time".into());
        }
    }
    ws.atmos_substeps.push(substeps as f64);
    tr.span("atmos.surface_wind", || {
        model.atmos.surface_wind_into(&state.atmos, &mut ws.surface)
    });
    let diag = tr.span("core.diagnostics", || StepDiagnostics {
        time: state.fire.time,
        burned_area: state.fire.burned_area(),
        max_updraft: state.atmos.max_updraft(),
        total_sensible_power: ws.fluxes.sensible.integral(),
        total_latent_power: ws.fluxes.latent.integral(),
        max_surface_wind: ws.surface.max_magnitude(),
        max_spread_rate: stats.max_spread_rate,
    });
    tr.end(root);
    Ok(diag)
}

/// One traced repetition: the same 240 s as `run_until`, composed step by
/// step. Returns the run's wall time, its final state and diagnostics.
fn traced_rep(
    base: &Simulation,
    ws: &mut TracedWorkspace,
    tr: &mut Tracer,
) -> Result<(f64, CoupledState, Vec<StepDiagnostics>), String> {
    let sim = base.clone();
    let mut state = sim.state.clone();
    let mut diags = Vec::with_capacity(512);
    let start = Instant::now();
    while state.time() < T_END - 1e-9 {
        let dt = sim.dt.min(T_END - state.time());
        diags.push(traced_step(&sim.model, &mut state, dt, ws, tr)?);
    }
    Ok((start.elapsed().as_secs_f64(), state, diags))
}

fn diags_bits(d: &[StepDiagnostics]) -> Vec<f64> {
    d.iter()
        .flat_map(|x| {
            [
                x.time,
                x.burned_area,
                x.max_updraft,
                x.total_sensible_power,
                x.total_latent_power,
                x.max_surface_wind,
                x.max_spread_rate,
            ]
        })
        .collect()
}

fn state_eq(a: &CoupledState, b: &CoupledState) -> bool {
    bits_eq(a.fire.psi.as_slice(), b.fire.psi.as_slice())
        && bits_eq(a.fire.tig.as_slice(), b.fire.tig.as_slice())
        && a.fire.time.to_bits() == b.fire.time.to_bits()
        && bits_eq(&a.atmos.u, &b.atmos.u)
        && bits_eq(&a.atmos.v, &b.atmos.v)
        && bits_eq(&a.atmos.w, &b.atmos.w)
        && bits_eq(&a.atmos.theta, &b.atmos.theta)
        && bits_eq(&a.atmos.qv, &b.atmos.qv)
        && a.atmos.time.to_bits() == b.atmos.time.to_bits()
}

/// Set-up of one repetition: the fig1 scenario looked up and built into a
/// ready `Simulation`. Returns the build time (s).
fn build() -> (f64, Simulation) {
    let start = Instant::now();
    let scenario = registry::by_name(registry::FIG1_FIRELINE).expect("fig1 is registered");
    let sim = SimulationBuilder::from_scenario(scenario)
        .build()
        .expect("fig1 builds");
    let elapsed = start.elapsed().as_secs_f64();
    assert!(
        sim.model.coupled && sim.scenario.wind.shifts.is_empty(),
        "the traced composition covers the coupled, shift-free fig1 step"
    );
    (elapsed, sim)
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return run_traced(args);
    }
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut steps = Vec::with_capacity(16_384);
    let mut walls = Vec::new();
    let mut builds = Vec::new();
    let start = Instant::now();
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let (build_s, sim) = build();
        builds.push(build_s);
        let (run_s, ok, _, _) = untraced_rep(sim, &mut steps);
        ledger.record(ok);
        walls.push(run_s);
    }
    let p = |xs: &[f64], q: f64| percentile(xs, q).expect("samples");
    println!(
        "fig1_forecast: {} runs of {T_END} s (wall p50 {:.4} s, p90 {:.4} s), {} coupled steps (p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms)",
        walls.len(),
        p(&walls, 50.0),
        p(&walls, 90.0),
        steps.len(),
        1e3 * p(&steps, 50.0),
        1e3 * p(&steps, 90.0),
        1e3 * p(&steps, 99.0),
    );
    let slow_run = p(&walls, 90.0);
    report.put("realtime_factor", T_END / slow_run);
    report.put(
        "latency_ms",
        1e3 * tail_percentile(&steps, 90.0).expect("at least 100 steps"),
    );
    report.put("ok_frac", ledger.ok_frac());
    // The slow side, like every timing here: set-ups are spread over the
    // run, so this one does not flip with the host's speed state.
    report.put("setup_s", p(&builds, 90.0));
    report.put("peak_rss_mb", peak_rss_mb());
    report.ledger = ledger;
    report
}

fn run_traced(args: &Args) -> Report {
    let (_, base) = build();
    let mut report = Report::default();
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new();
    let mut ws = TracedWorkspace::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut steps = Vec::new();
    let start = Instant::now();
    while traced_s.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let (run_s, ok, reference, ref_diags) = untraced_rep(base.clone(), &mut steps);
        ledger.record(ok);
        untraced_s.push(run_s);
        match traced_rep(&base, &mut ws, &mut tr) {
            Ok((wall, state, diags)) => {
                traced_s.push(wall);
                let same = state_eq(&state, &reference.state)
                    && bits_eq(&diags_bits(&diags), &diags_bits(&ref_diags));
                if !same {
                    eprintln!("rtbench: traced fig1 composition differs from Simulation::step");
                }
                ledger.record(same);
            }
            Err(e) => {
                eprintln!("rtbench: traced fig1 step failed: {e}");
                ledger.record(false);
                break;
            }
        }
    }
    let b = tr.breakdown("step");
    let med = |child: &str| median(&per_root_seconds(&b, child)).unwrap_or(0.0);
    println!(
        "fig1_forecast traced: {} traced runs, {} steps, coverage {:.4}",
        traced_s.len(),
        b.len(),
        coverage(&b)
    );
    for name in [
        "core.fire_wind",
        "fire.advance",
        "fire.heat_flux",
        "grid.restrict",
        "atmos.step",
        "atmos.surface_wind",
        "core.diagnostics",
    ] {
        println!(
            "  {name:<20} median {:.3e} s  mean {:.3e} s per step",
            med(name),
            mean(&per_root_seconds(&b, name))
        );
    }
    report.put("core.fire_wind_s", med("core.fire_wind"));
    report.put("fire.advance_s", med("fire.advance"));
    report.put("fire.substeps", mean(&ws.fire_substeps));
    report.put("fire.heat_flux_s", med("fire.heat_flux"));
    report.put("grid.restrict_s", med("grid.restrict"));
    report.put("atmos.step_s", med("atmos.step"));
    report.put("atmos.substeps", mean(&ws.atmos_substeps));
    report.put("atmos.surface_wind_s", med("atmos.surface_wind"));
    report.put("trace.coverage", coverage(&b));
    report.put("trace.overhead_frac", overhead_frac(&untraced_s, &traced_s));
    write_trace(&tr, args);
    report.ledger = ledger;
    report
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}
