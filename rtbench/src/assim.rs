//! `assimilate_morphing`: the Fig. 2/4 loop on `fig2-data-driven`
//! (SMALL). Sixteen ignition-perturbed members on a 2-thread
//! `EnsembleDriver` assimilate one dense gridded-ψ stream (`StridedPsi`,
//! stride 1) every 20 s over a 120 s window with `ObsFilter::Morphing`; an
//! unassimilated free ensemble is the skill reference.
//!
//! Set-up builds `SCENARIOS` identical-twin problems from the seed (truth
//! ignition, believed ignition, member perturbations, analysis RNG), runs
//! each truth, synthesizes its observations and runs its free ensemble.
//! Each timed window replays one problem from its initial ensemble.
//!
//! The traced run composes each cycle from `forecast_ws` → `pack_into` →
//! `analyze_obs_morphing_ws` → `pack_into`, each call in a span under a
//! `cycle` root, and checks it reproduces `cycle_obs_ws` bit for bit.

use crate::stats::{median, percentile, Ledger};
use crate::trace::{coverage, overhead_frac, per_root_seconds, Tracer};
use crate::{bits_eq, peak_rss_mb, sub_seed, write_trace, Args, Report};
use std::time::Instant;
use wildfire_core::CoupledState;
use wildfire_enkf::{register_ws, MorphingConfig, RegistrationWorkspace};
use wildfire_ensemble::{EnsembleDriver, EnsembleWorkspace, ObsCycleReport, ObsFilter};
use wildfire_fire::IgnitionShape;
use wildfire_grid::Field2;
use wildfire_math::GaussianSampler;
use wildfire_obs::{synthesize_measurements, ObsSet, StridedPsi};
use wildfire_sim::perturb::perturbed_states;
use wildfire_sim::{registry, PerturbationSpec, Scenario};

const MEMBERS: usize = 16;
const THREADS: usize = 2;
/// Observation instants (s): every 20 s over the 120 s window.
const OBS_TIMES: [f64; 6] = [20.0, 40.0, 60.0, 80.0, 100.0, 120.0];
const WINDOW: f64 = 120.0;
/// Distinct identical-twin problems per run; every run replays each at
/// least once, and `skill_ratio` pools them.
const SCENARIOS: usize = 4;
/// Believed minus true ignition center (m): the displacement of the
/// workspace's `assimilation_cycle` example, (170, 190) against (240, 240).
const OFFSET: (f64, f64) = (-70.0, -50.0);
/// Std (m) of the true ignition around the scenario's nominal center.
const TRUTH_JITTER: f64 = 15.0;
/// Std (m) of the per-member ignition displacement.
const MEMBER_SPREAD: f64 = 12.0;
/// Observation-error std of the gridded ψ stream.
const PSI_SIGMA: f64 = 1.0;
/// Assimilated over free ψ RMSE, summed over the analysis instants, must
/// stay below this in every window: the analysis must beat the free run.
/// Single windows of correct runs read 0.26–0.75 across seeds.
const SKILL_LIMIT: f64 = 1.0;
/// The same ratio pooled over every problem of a run must stay below
/// this; correct runs read 0.34–0.51, a run whose analyses do nothing 1.
const POOLED_SKILL_LIMIT: f64 = 0.7;

/// One identical-twin problem, fully prepared before timing.
struct Problem {
    members: Vec<CoupledState>,
    /// The truth at each observation instant.
    truth: Vec<CoupledState>,
    /// Synthesized measurements, one vector per observation instant.
    data: Vec<Vec<f64>>,
    /// Free-ensemble mean ψ RMSE at each observation instant.
    free_rmse: Vec<f64>,
    rng_seed: u64,
}

struct Setup {
    driver: EnsembleDriver,
    op: StridedPsi,
    cfg: MorphingConfig,
    dt: f64,
    problems: Vec<Problem>,
}

fn mean_psi_rmse(members: &[CoupledState], truth: &CoupledState) -> f64 {
    members
        .iter()
        .map(|m| {
            m.fire
                .psi
                .rmse(&truth.fire.psi)
                .expect("members share the truth grid")
        })
        .sum::<f64>()
        / members.len() as f64
}

fn circle(center: (f64, f64), radius: f64) -> Vec<IgnitionShape> {
    vec![IgnitionShape::Circle { center, radius }]
}

fn build_problem(
    base: &Scenario,
    driver: &EnsembleDriver,
    op: &StridedPsi,
    seed: u64,
    k: u64,
) -> Problem {
    let mut draw = GaussianSampler::new(sub_seed(seed, k, 1));
    let (cx, cy, r) = match base.ignitions[0] {
        IgnitionShape::Circle { center, radius } => (center.0, center.1, radius),
        _ => unreachable!("fig2-data-driven ignites one circle"),
    };
    let truth_center = (
        cx + draw.normal(0.0, TRUTH_JITTER),
        cy + draw.normal(0.0, TRUTH_JITTER),
    );
    let believed_center = (truth_center.0 + OFFSET.0, truth_center.1 + OFFSET.1);
    let believed = base.clone().with_ignitions(circle(believed_center, r));
    let spec = PerturbationSpec::position_only(MEMBER_SPREAD, sub_seed(seed, k, 2));
    let members = perturbed_states(&believed, &spec, MEMBERS, &driver.model)
        .expect("position-only perturbation of a shift-free scenario");

    let mut truth = base
        .clone()
        .with_ignitions(circle(truth_center, r))
        .ignite(&driver.model);
    let mut data_rng = GaussianSampler::new(sub_seed(seed, k, 3));
    let mut data = Vec::with_capacity(OBS_TIMES.len());
    let mut truths = Vec::with_capacity(OBS_TIMES.len());
    let mut free = members.clone();
    let mut free_rmse = Vec::with_capacity(OBS_TIMES.len());
    let mut ws = EnsembleWorkspace::new();
    for &t in &OBS_TIMES {
        driver
            .model
            .run(&mut truth, t, base.dt, |_, _| {})
            .expect("truth run");
        let mut d = Vec::with_capacity(wildfire_obs::ObservationOperator::dim(op));
        synthesize_measurements(op, &truth, &mut data_rng, &mut d).expect("data synthesis");
        data.push(d);
        driver
            .forecast_ws(&mut free, t, base.dt, &mut ws)
            .expect("free forecast");
        free_rmse.push(mean_psi_rmse(&free, &truth));
        truths.push(truth.clone());
    }
    Problem {
        members,
        truth: truths,
        data,
        free_rmse,
        rng_seed: sub_seed(seed, k, 4),
    }
}

fn setup(seed: u64) -> (Vec<f64>, Setup) {
    let base = registry::by_name(registry::FIG2_DATA_DRIVEN).expect("fig2 is registered");
    let model = base.model().expect("fig2 model builds");
    let op = StridedPsi::new(model.fire_grid, 1, PSI_SIGMA);
    let driver = EnsembleDriver::new(model, THREADS);
    let mut times = Vec::with_capacity(SCENARIOS);
    let mut problems = Vec::with_capacity(SCENARIOS);
    for k in 0..SCENARIOS as u64 {
        let start = Instant::now();
        problems.push(build_problem(&base, &driver, &op, seed, k));
        times.push(start.elapsed().as_secs_f64());
    }
    let setup = Setup {
        driver,
        op,
        cfg: MorphingConfig::default(),
        dt: base.dt,
        problems,
    };
    (times, setup)
}

/// Outcome of one window.
struct Window {
    /// Forecast plus analysis wall time (s), excluding the skill bookkeeping.
    wall_s: f64,
    analysis_s: Vec<f64>,
    reports: Vec<ObsCycleReport>,
    /// Mean member ψ RMSE against the truth after each analysis.
    rmse: Vec<f64>,
    members: Vec<CoupledState>,
}

/// One untraced window: per instant, `forecast_ws` to the instant, then
/// `cycle_obs_ws` (whose embedded forecast is then a no-op), so the
/// analysis stage is timed on its own.
fn untraced_window(s: &Setup, p: &Problem, ws: &mut EnsembleWorkspace) -> Result<Window, String> {
    let mut members = p.members.clone();
    let mut rng = GaussianSampler::new(p.rng_seed);
    let mut w = Window {
        wall_s: 0.0,
        analysis_s: Vec::with_capacity(OBS_TIMES.len()),
        reports: Vec::with_capacity(OBS_TIMES.len()),
        rmse: Vec::with_capacity(OBS_TIMES.len()),
        members: Vec::new(),
    };
    for (i, &t) in OBS_TIMES.iter().enumerate() {
        let mut pool = ObsSet::new();
        pool.push(&s.op, &p.data[i]).map_err(|e| e.to_string())?;
        let start = Instant::now();
        s.driver
            .forecast_ws(&mut members, t, s.dt, ws)
            .map_err(|e| format!("forecast: {e}"))?;
        let analysis = Instant::now();
        let report = s
            .driver
            .cycle_obs_ws(
                &mut members,
                &pool,
                ObsFilter::Morphing(&s.cfg),
                t,
                s.dt,
                &mut rng,
                ws,
            )
            .map_err(|e| format!("cycle: {e}"))?;
        w.analysis_s.push(analysis.elapsed().as_secs_f64());
        w.wall_s += start.elapsed().as_secs_f64();
        w.reports.push(report);
        w.rmse.push(mean_psi_rmse(&members, &p.truth[i]));
    }
    w.members = members;
    Ok(w)
}

/// Checks a finished window: every member finite, and the assimilated
/// ensemble's ψ RMSE, summed over the analysis instants, below
/// `SKILL_LIMIT` times the free ensemble's. Returns the check and the
/// summed assimilated RMSE.
fn check_window(p: &Problem, w: &Window) -> (bool, f64) {
    let finite = w.members.iter().all(|m| {
        m.fire.psi.all_finite()
            && m.atmos.all_finite()
            && !m.fire.tig.as_slice().iter().any(|t| t.is_nan())
    });
    let assimilated: f64 = w.rmse.iter().sum();
    let skill = assimilated / p.free_rmse.iter().sum::<f64>();
    if !finite {
        eprintln!("rtbench: a member went non-finite");
    }
    let skilled = skill < SKILL_LIMIT;
    if !skilled {
        eprintln!("rtbench: skill ratio {skill} is not below {SKILL_LIMIT}");
    }
    (finite && skilled, assimilated)
}

pub fn run(args: &Args) -> Report {
    let (setup_times, s) = setup(args.seed);
    let setup_s = median(&setup_times).expect("setup samples");
    if args.trace {
        return run_traced(args, &s);
    }
    let mut ledger = Ledger::default();
    let mut ws = EnsembleWorkspace::new();
    let mut walls = Vec::new();
    let mut analysis_s = Vec::new();
    let mut assimilated = [None::<f64>; SCENARIOS];
    let start = Instant::now();
    let mut k = 0;
    while k < SCENARIOS || start.elapsed().as_secs_f64() < args.seconds {
        let p = &s.problems[k % SCENARIOS];
        match untraced_window(&s, p, &mut ws) {
            Ok(w) => {
                let (ok, rmse) = check_window(p, &w);
                // Replays of one problem must reproduce its first window.
                let same = match assimilated[k % SCENARIOS] {
                    Some(first) => first.to_bits() == rmse.to_bits(),
                    None => {
                        assimilated[k % SCENARIOS] = Some(rmse);
                        true
                    }
                };
                if !same {
                    eprintln!("rtbench: a replayed window diverged from its first run");
                }
                ledger.record(ok && same);
                walls.push(w.wall_s);
                analysis_s.extend_from_slice(&w.analysis_s);
            }
            Err(e) => {
                eprintln!("rtbench: window failed: {e}");
                ledger.record(false);
            }
        }
        k += 1;
    }
    let free: f64 = s.problems.iter().flat_map(|p| &p.free_rmse).sum();
    let skill = assimilated.iter().flatten().sum::<f64>() / free;
    let pooled_ok = skill < POOLED_SKILL_LIMIT;
    if !pooled_ok {
        eprintln!("rtbench: pooled skill ratio {skill} is not below {POOLED_SKILL_LIMIT}");
    }
    ledger.record(pooled_ok);
    let p = |xs: &[f64], q: f64| percentile(xs, q).unwrap_or(0.0);
    println!(
        "assimilate_morphing: {} windows (wall p50 {:.3} s, p90 {:.3} s), {} analyses (p50 {:.1} ms, p90 {:.1} ms), pooled skill ratio {skill:.4}",
        walls.len(),
        p(&walls, 50.0),
        p(&walls, 90.0),
        analysis_s.len(),
        1e3 * p(&analysis_s, 50.0),
        1e3 * p(&analysis_s, 90.0),
    );
    let slow_window = p(&walls, 90.0);
    let mut report = Report::default();
    report.put("realtime_factor", WINDOW / slow_window);
    // Too few analyses per run for ten beyond p90: reported with its count.
    report.put("latency_ms", 1e3 * p(&analysis_s, 90.0));
    report.put("ok_frac", ledger.ok_frac());
    report.put("setup_s", setup_s);
    report.put("peak_rss_mb", peak_rss_mb());
    report.ledger = ledger;
    report
}

fn members_eq(a: &[CoupledState], b: &[CoupledState]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            bits_eq(x.fire.psi.as_slice(), y.fire.psi.as_slice())
                && bits_eq(x.fire.tig.as_slice(), y.fire.tig.as_slice())
                && bits_eq(&x.atmos.u, &y.atmos.u)
                && bits_eq(&x.atmos.w, &y.atmos.w)
                && bits_eq(&x.atmos.theta, &y.atmos.theta)
        })
}

fn reports_eq(a: &[ObsCycleReport], b: &[ObsCycleReport]) -> bool {
    let flat = |r: &[ObsCycleReport]| -> Vec<f64> {
        r.iter()
            .flat_map(|x| [x.forecast_innovation_rms, x.analysis_innovation_rms])
            .collect()
    };
    bits_eq(&flat(a), &flat(b))
}

/// One traced window: the cycle composed from the layers' public
/// functions. After each cycle (outside its span), the forecast members
/// are registered serially against the reference member with
/// `register_ws`, the pairs the morphing analysis registers in parallel.
fn traced_window(
    s: &Setup,
    p: &Problem,
    ws: &mut EnsembleWorkspace,
    reg: &mut RegistrationWorkspace,
    tr: &mut Tracer,
) -> Result<Window, String> {
    let mut members = p.members.clone();
    let mut rng = GaussianSampler::new(p.rng_seed);
    let mut reports = Vec::with_capacity(OBS_TIMES.len());
    let mut psi: Vec<Field2> = Vec::with_capacity(MEMBERS);
    let mut wall_s = 0.0;
    for (i, &t) in OBS_TIMES.iter().enumerate() {
        let mut pool = ObsSet::new();
        pool.push(&s.op, &p.data[i]).map_err(|e| e.to_string())?;
        let start = Instant::now();
        let root = tr.begin("cycle");
        tr.span("ensemble.forecast", || {
            s.driver.forecast_ws(&mut members, t, s.dt, ws)
        })
        .map_err(|e| format!("forecast: {e}"))?;
        tr.span("obs.pack", || pool.pack_into(&members, &mut ws.obs))
            .map_err(|e| format!("pack: {e}"))?;
        let forecast_innovation_rms = ws.obs.innovation_rms();
        psi.clear();
        psi.extend(members.iter().map(|m| m.fire.psi.clone()));
        tr.span("ensemble.analysis", || {
            s.driver
                .analyze_obs_morphing_ws(&mut members, &pool, &s.cfg, &mut rng, ws)
        })
        .map_err(|e| format!("analysis: {e}"))?;
        tr.span("obs.pack", || pool.pack_into(&members, &mut ws.obs))
            .map_err(|e| format!("pack: {e}"))?;
        reports.push(ObsCycleReport {
            forecast_innovation_rms,
            analysis_innovation_rms: ws.obs.innovation_rms(),
        });
        tr.end(root);
        wall_s += start.elapsed().as_secs_f64();

        let pass = tr.begin("registrations");
        for u in &psi {
            tr.span("enkf.register", || {
                register_ws(u, &psi[0], &s.cfg.registration, reg)
            })
            .map_err(|e| format!("registration: {e}"))?;
        }
        tr.end(pass);
    }
    Ok(Window {
        wall_s,
        analysis_s: Vec::new(),
        reports,
        rmse: Vec::new(),
        members,
    })
}

fn run_traced(args: &Args, s: &Setup) -> Report {
    let mut ledger = Ledger::default();
    let mut tr = Tracer::new();
    let mut ws = EnsembleWorkspace::new();
    let mut traced_ws = EnsembleWorkspace::new();
    let mut reg = RegistrationWorkspace::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut innovation_ratio = Vec::new();
    let (mut assimilated, mut free) = (0.0, 0.0);
    let start = Instant::now();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < args.seconds {
        let p = &s.problems[k % SCENARIOS];
        k += 1;
        let (reference, traced) = match (
            untraced_window(s, p, &mut ws),
            traced_window(s, p, &mut traced_ws, &mut reg, &mut tr),
        ) {
            (Ok(r), Ok(t)) => (r, t),
            (r, t) => {
                for e in [r.err(), t.err()].into_iter().flatten() {
                    eprintln!("rtbench: window failed: {e}");
                }
                ledger.record(false);
                break;
            }
        };
        let (ok, rmse) = check_window(p, &reference);
        ledger.record(ok);
        assimilated += rmse;
        free += p.free_rmse.iter().sum::<f64>();
        let same = members_eq(&traced.members, &reference.members)
            && reports_eq(&traced.reports, &reference.reports);
        if !same {
            eprintln!("rtbench: traced cycle composition differs from cycle_obs_ws");
        }
        ledger.record(same);
        untraced_s.push(reference.wall_s);
        traced_s.push(traced.wall_s);
        innovation_ratio.extend(
            traced
                .reports
                .iter()
                .map(|r| r.analysis_innovation_rms / r.forecast_innovation_rms),
        );
    }
    let b = tr.breakdown("cycle");
    let regs = tr.breakdown("registrations");
    let med = |child: &str| median(&per_root_seconds(&b, child)).unwrap_or(0.0);
    println!(
        "assimilate_morphing traced: {} windows, {} cycles, coverage {:.4}",
        traced_s.len(),
        b.len(),
        coverage(&b)
    );
    for name in ["ensemble.forecast", "obs.pack", "ensemble.analysis"] {
        println!("  {name:<20} median {:.4e} s per cycle", med(name));
    }
    let mut report = Report::default();
    report.put("ensemble.forecast_s", med("ensemble.forecast"));
    report.put("obs.pack_s", med("obs.pack"));
    report.put(
        "obs.dim",
        wildfire_obs::ObservationOperator::dim(&s.op) as f64,
    );
    report.put("ensemble.analysis_s", med("ensemble.analysis"));
    report.put(
        "ensemble.innovation_ratio",
        median(&innovation_ratio).unwrap_or(0.0),
    );
    report.put("ensemble.skill_ratio", assimilated / free);
    report.put(
        "enkf.register_s",
        median(&per_root_seconds(&regs, "enkf.register")).unwrap_or(0.0),
    );
    let register_calls = tr
        .spans()
        .iter()
        .filter(|sp| sp.name == "enkf.register")
        .count();
    report.put(
        "enkf.registrations",
        register_calls as f64 / regs.len().max(1) as f64,
    );
    report.put("trace.coverage", coverage(&b));
    report.put("trace.overhead_frac", overhead_frac(&untraced_s, &traced_s));
    write_trace(&tr, args);
    report.ledger = ledger;
    report
}
