//! `service_open`: `ForecastService` (2 threads, 2 s tick) under an open
//! loop of 4-member requests on a 13×13 fire mesh (horizons 30 and 60 s),
//! arriving as a seeded Poisson process at a fixed rate. One request in
//! four carries a `ChannelSource` stream steered with ETKF. Three bursts of 64
//! simultaneous requests follow the open-loop phase.
//!
//! One generator thread submits each request when it is due and collects
//! the events of every outstanding request; latency is timed from the due
//! time, so a late generator is charged to the service, and how late the
//! generator ran is reported and checked.

use crate::stats::{latency_from_due, median, percentile, tail_percentile, Ledger};
use crate::trace::{overhead_frac, Tracer};
use crate::{peak_rss_mb, sub_seed, write_trace, Args, Report};
use std::time::{Duration, Instant};
use wildfire_fire::IgnitionShape;
use wildfire_math::GaussianSampler;
use wildfire_obs::{ChannelSource, ObsReport, ObservationOperator, StridedPsi};
use wildfire_service::{
    AnalysisFilter, ForecastEvent, ForecastRequest, ForecastService, RequestHandle, ServiceConfig,
};
use wildfire_sim::{DomainSpec, Scenario, SimulationBuilder};

/// The service-shape domain: a 13×13 fire mesh over a 5×5×4 atmosphere.
const TINY: DomainSpec = DomainSpec {
    nx: 5,
    ny: 5,
    nz: 4,
    dx: 60.0,
    dy: 60.0,
    dz: 50.0,
    refinement: 3,
};
const CONFIG: ServiceConfig = ServiceConfig {
    threads: 2,
    tick: 2.0,
};
const MEMBERS: usize = 4;
const HORIZONS: [f64; 2] = [30.0, 60.0];
/// Open-loop arrival rate (requests/s), about half the rate (10–15/s on
/// two cores) at which the service stops keeping up with staggered
/// arrivals.
const RATE: f64 = 6.0;
/// Requests the open-loop phase always offers, so its p90 has ten
/// samples beyond it.
const MIN_OPEN: usize = 100;
/// Share of `--seconds` given to the open-loop phase; the bursts follow.
const OPEN_SHARE: f64 = 0.85;
const BURST: usize = 64;
const BURSTS: usize = 3;
/// Every `STREAM_EVERY`-th request carries an observation stream.
const STREAM_EVERY: usize = 4;
/// Report times (s) of each stream, from the template's truth run.
const REPORT_TIMES: [f64; 2] = [10.0, 20.0];
/// A generator later than this behind a due time invalidates the run
/// (correct runs on two cores stay within about 10 ms).
const LATE_LIMIT: f64 = 0.05;
/// Collector poll period while nothing is due.
const POLL: Duration = Duration::from_millis(1);
/// Set-ups timed before the open loop; more are timed during it.
const SETUP_REPS: usize = 5;
/// A set-up is timed during the open loop only when nothing is in flight
/// and the next request is due at least this far (s) ahead…
const IDLE_GAP: f64 = 0.02;
/// …and at most once per this many seconds.
const IDLE_EVERY: f64 = 1.0;

fn template() -> Scenario {
    SimulationBuilder::new()
        .name("service-open")
        .domain(TINY)
        .ignite(IgnitionShape::Circle {
            center: TINY.center(),
            radius: 30.0,
        })
        .into_scenario()
}

/// The reports every streamed request is fed: the template's truth run,
/// observed through a stride-3 gridded-ψ operator.
fn truth_reports(base: &Scenario, op: &StridedPsi) -> Vec<ObsReport> {
    let mut truth = base.build().expect("template builds");
    REPORT_TIMES
        .iter()
        .map(|&t| {
            truth.run_until(t, |_, _| {}).expect("truth run");
            ObsReport {
                time: t,
                stream: 0,
                data: op.observe(&truth.state).expect("truth observation"),
            }
        })
        .collect()
}

/// One prepared request, with what its events must show.
struct Planned {
    req: ForecastRequest,
    reports_sent: usize,
}

fn plan(base: &Scenario, op: &StridedPsi, reports: &[ObsReport], seed: u64, i: usize) -> Planned {
    let streamed = i.is_multiple_of(STREAM_EVERY);
    let mut req = ForecastRequest {
        scenario: base.clone(),
        n_members: MEMBERS,
        position_spread: 10.0,
        seed: sub_seed(seed, i as u64, 6),
        horizons: HORIZONS.to_vec(),
        operators: Vec::new(),
        source: None,
        filter: AnalysisFilter::default(),
    };
    let mut reports_sent = 0;
    if streamed {
        let (tx, source) = ChannelSource::channel();
        for r in reports {
            tx.send(r.clone()).expect("the source is alive");
            reports_sent += 1;
        }
        req.operators = vec![Box::new(op.clone())];
        req.source = Some(Box::new(source));
        req.filter = AnalysisFilter::Etkf { inflation: 1.0 };
    }
    Planned { req, reports_sent }
}

/// The seeded Poisson arrival schedule: due times (s from phase start).
fn arrivals(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = GaussianSampler::new(sub_seed(seed, 0, 5));
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.uniform(0.0, 1.0)).ln() / RATE;
            t
        })
        .collect()
}

struct Prepared {
    open: Vec<Planned>,
    due: Vec<f64>,
    bursts: Vec<Vec<Planned>>,
}

/// Requests of the open-loop phase: the rate over the phase, at least
/// `MIN_OPEN`. The traced run offers two such phases of half the length.
fn open_requests(args: &Args) -> usize {
    let open_s = OPEN_SHARE * args.seconds;
    if args.trace {
        2 * ((open_s * RATE / 2.0).ceil() as usize).max(MIN_OPEN)
    } else {
        ((open_s * RATE).ceil() as usize).max(MIN_OPEN)
    }
}

fn prepare(args: &Args, base: &Scenario, op: &StridedPsi, reports: &[ObsReport]) -> Prepared {
    let n_open = open_requests(args);
    let open = (0..n_open)
        .map(|i| plan(base, op, reports, args.seed, i))
        .collect();
    let bursts = (0..BURSTS)
        .map(|b| {
            (0..BURST)
                .map(|i| plan(base, op, reports, args.seed, n_open + b * BURST + i))
                .collect()
        })
        .collect();
    Prepared {
        open,
        due: arrivals(args.seed, n_open),
        bursts,
    }
}

/// What the generator saw of one request.
struct Track {
    handle: RequestHandle,
    due: f64,
    reports_sent: usize,
    horizons_seen: usize,
    first_product: Option<f64>,
    finished: Option<f64>,
    products: usize,
    assimilated: usize,
    ok: bool,
}

impl Track {
    /// Drains this request's events, timestamped at `now`.
    fn poll(&mut self, now: f64) {
        while let Some(ev) = self.handle.try_next() {
            match ev {
                ForecastEvent::Product(p) => {
                    let expected = HORIZONS.get(self.horizons_seen).copied();
                    if self.finished.is_some()
                        || expected != Some(p.horizon)
                        || p.request != self.handle.id()
                    {
                        self.ok = false;
                    }
                    self.horizons_seen += 1;
                    self.products += 1;
                    self.assimilated = p.reports_assimilated;
                    self.first_product.get_or_insert(now);
                }
                ForecastEvent::Finished { request } => {
                    if self.finished.is_some() || request != self.handle.id() {
                        self.ok = false;
                    }
                    self.finished = Some(now);
                }
                ForecastEvent::Failed { error, .. } => {
                    eprintln!("rtbench: request {} failed: {error}", self.handle.id());
                    self.ok = false;
                    self.finished = Some(now);
                }
            }
        }
    }

    /// Whether the request met its contract: every horizon in order, then
    /// exactly one `Finished`, and every streamed report assimilated.
    fn passed(&mut self) -> bool {
        // Nothing may follow the terminal event.
        if self.handle.try_next().is_some() {
            self.ok = false;
        }
        self.ok
            && self.finished.is_some()
            && self.horizons_seen == HORIZONS.len()
            && self.assimilated == self.reports_sent
    }
}

/// Measurements of one phase (open loop or burst).
#[derive(Default)]
struct Phase {
    finish: Vec<f64>,
    first_product: Vec<f64>,
    submit_s: Vec<f64>,
    late_max: f64,
    products: usize,
    reports_sent: usize,
    reports_assimilated: usize,
    failed_requests: usize,
    /// Time from the first due time to the last `Finished` (s).
    span_s: f64,
}

impl Phase {
    /// Requests finished per second of the phase (the drain rate of a burst).
    fn drain_rps(&self) -> f64 {
        self.finish.len() as f64 / self.span_s
    }
}

/// Offers `requests` at their `due` times (s from now) and collects every
/// event until all have terminated.
fn drive(
    service: &ForecastService,
    requests: Vec<Planned>,
    due: &[f64],
    ledger: &mut Ledger,
    mut tr: Option<&mut Tracer>,
    idle: &mut dyn FnMut(),
) -> Phase {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    let mut last_idle = 0.0;
    let mut pending = requests.into_iter().zip(due.iter().copied()).peekable();
    let mut tracks: Vec<Track> = Vec::new();
    let mut done: Vec<Track> = Vec::new();
    loop {
        while let Some(&(_, d)) = pending.peek() {
            let now = t0.elapsed().as_secs_f64();
            if d > now {
                break;
            }
            let (planned, due_at) = pending.next().expect("peeked");
            phase.late_max = phase.late_max.max(now - due_at);
            let start = Instant::now();
            let submitted = match tr.as_deref_mut() {
                Some(t) => t.span("service.submit", || service.submit(planned.req)),
                None => service.submit(planned.req),
            };
            phase.submit_s.push(start.elapsed().as_secs_f64());
            match submitted {
                Ok(handle) => tracks.push(Track {
                    handle,
                    due: due_at,
                    reports_sent: planned.reports_sent,
                    horizons_seen: 0,
                    first_product: None,
                    finished: None,
                    products: 0,
                    assimilated: 0,
                    ok: true,
                }),
                Err(e) => {
                    eprintln!("rtbench: submit rejected: {e}");
                    phase.failed_requests += 1;
                    ledger.record(false);
                }
            }
        }
        let now = t0.elapsed().as_secs_f64();
        for t in &mut tracks {
            t.poll(now);
        }
        let (finished, open): (Vec<Track>, Vec<Track>) =
            tracks.drain(..).partition(|t| t.finished.is_some());
        tracks = open;
        done.extend(finished);
        if tracks.is_empty() && pending.peek().is_none() {
            break;
        }
        let next_due = pending.peek().map(|&(_, d)| d);
        if tracks.is_empty()
            && next_due.is_some_and(|d| d - now > IDLE_GAP)
            && now - last_idle > IDLE_EVERY
        {
            idle();
            last_idle = now;
            continue;
        }
        let wait = next_due.map_or(POLL, |d| {
            Duration::from_secs_f64((d - now).clamp(0.0, POLL.as_secs_f64()))
        });
        std::thread::sleep(wait);
    }
    let first_due = due.first().copied().unwrap_or(0.0);
    for mut t in done {
        let ok = t.passed();
        ledger.record(ok);
        if !ok {
            eprintln!(
                "rtbench: request {} broke its event contract",
                t.handle.id()
            );
            phase.failed_requests += 1;
            continue;
        }
        let finished = t.finished.expect("terminated");
        let finish = latency_from_due(t.due, finished);
        phase.finish.push(finish);
        phase.first_product.push(latency_from_due(
            t.due,
            t.first_product.expect("has products"),
        ));
        phase.products += t.products;
        phase.reports_sent += t.reports_sent;
        phase.reports_assimilated += t.assimilated;
        phase.span_s = phase.span_s.max(finished - first_due);
    }
    // The generator must have kept to its schedule for the phase to count.
    let on_time = phase.late_max <= LATE_LIMIT;
    if !on_time {
        eprintln!("rtbench: generator ran {:.4} s late", phase.late_max);
    }
    ledger.record(on_time);
    phase
}

/// One set-up: truth run and report synthesis, the request plan and
/// arrival schedule, and the service start. Returns its time (s).
fn setup(args: &Args) -> (f64, Prepared, ForecastService) {
    let start = Instant::now();
    let base = template();
    let op = StridedPsi::new(base.model().expect("template model").fire_grid, 3, 0.5);
    let reports = truth_reports(&base, &op);
    let prepared = prepare(args, &base, &op, &reports);
    let service = ForecastService::start(CONFIG);
    (start.elapsed().as_secs_f64(), prepared, service)
}

/// Times one more set-up and discards it.
fn setup_sample(args: &Args, times: &mut Vec<f64>) {
    let (t, _, service) = setup(args);
    times.push(t);
    service.shutdown();
}

/// Untimed warm-up: a handful of requests through the fresh service so
/// its workspaces are sized before measuring.
fn warm_up(service: &ForecastService, args: &Args) {
    let base = template();
    let op = StridedPsi::new(base.model().expect("template model").fire_grid, 3, 0.5);
    let reports = truth_reports(&base, &op);
    let handles: Vec<RequestHandle> = (0..8)
        .map(|i| {
            let p = plan(&base, &op, &reports, args.seed ^ 0xffff, i);
            service.submit(p.req).expect("warm-up submit")
        })
        .collect();
    for h in handles {
        h.wait().expect("warm-up request completes");
    }
}

fn burst_phases(
    service: &ForecastService,
    bursts: Vec<Vec<Planned>>,
    ledger: &mut Ledger,
    mut tr: Option<&mut Tracer>,
) -> Vec<Phase> {
    bursts
        .into_iter()
        .map(|b| {
            drive(
                service,
                b,
                &[0.0; BURST],
                ledger,
                tr.as_deref_mut(),
                &mut || {},
            )
        })
        .collect()
}

pub fn run(args: &Args) -> Report {
    let mut setup_times = Vec::new();
    for _ in 1..SETUP_REPS {
        setup_sample(args, &mut setup_times);
    }
    let (setup_s, prepared, service) = setup(args);
    setup_times.push(setup_s);
    warm_up(&service, args);
    let mut ledger = Ledger::default();
    let mut report = Report::default();
    if args.trace {
        run_traced(args, &service, prepared, &mut ledger, &mut report);
    } else {
        let open = drive(
            &service,
            prepared.open,
            &prepared.due,
            &mut ledger,
            None,
            &mut || setup_sample(args, &mut setup_times),
        );
        let bursts = burst_phases(&service, prepared.bursts, &mut ledger, None);
        let drain: Vec<f64> = bursts.iter().map(Phase::drain_rps).collect();
        println!(
            "service_open: {} open-loop requests at {RATE}/s (finish p50 {:.1} ms, p90 {:.1} ms, first product p50 {:.1} ms; generator late by ≤ {:.2} ms), {} bursts of {BURST} (drain {drain:.1?} req/s)",
            open.finish.len(),
            1e3 * median(&open.finish).unwrap_or(0.0),
            1e3 * tail_percentile(&open.finish, 90.0).unwrap_or(0.0),
            1e3 * median(&open.first_product).unwrap_or(0.0),
            1e3 * open.late_max,
            bursts.len()
        );
        // The median request: its tail swings 30 % between seeds with
        // where the Poisson arrivals happen to cluster.
        let typical = median(&open.finish).unwrap_or(0.0);
        report.put("realtime_factor", HORIZONS[HORIZONS.len() - 1] / typical);
        report.put("latency_ms", 1e3 * typical);
        report.put("ok_frac", ledger.ok_frac());
        // The slow side, like every timing here: set-ups are spread over
        // the open loop's idle moments, so this one does not flip with the
        // host's speed state.
        println!("service_open: {} set-ups timed", setup_times.len());
        report.put("setup_s", percentile(&setup_times, 90.0).unwrap_or(0.0));
        report.put("peak_rss_mb", peak_rss_mb());
    }
    service.shutdown();
    report.ledger = ledger;
    report
}

/// The traced run: the open-loop phase twice, untraced then traced (spans
/// around every `submit`), then the bursts traced.
fn run_traced(
    args: &Args,
    service: &ForecastService,
    prepared: Prepared,
    ledger: &mut Ledger,
    report: &mut Report,
) {
    let mut tr = Tracer::new();
    let Prepared {
        mut open,
        due,
        bursts,
    } = prepared;
    let half = open.len() / 2;
    let traced_open = open.split_off(half);
    let untraced = drive(service, open, &due[..half], ledger, None, &mut || {});
    let shift = due[half - 1];
    let traced_due: Vec<f64> = due[half..].iter().map(|d| d - shift).collect();
    let traced = drive(
        service,
        traced_open,
        &traced_due,
        ledger,
        Some(&mut tr),
        &mut || {},
    );
    let bursts = burst_phases(service, bursts, ledger, Some(&mut tr));
    let all = || {
        std::iter::once(&untraced)
            .chain(std::iter::once(&traced))
            .chain(bursts.iter())
    };
    let first: Vec<f64> = [&untraced, &traced]
        .iter()
        .flat_map(|p| p.first_product.iter().copied())
        .collect();
    let submit: Vec<f64> = all().flat_map(|p| p.submit_s.iter().copied()).collect();
    let sent: usize = all().map(|p| p.reports_sent).sum();
    let assimilated: usize = all().map(|p| p.reports_assimilated).sum();
    report.put("service.submit_s", median(&submit).unwrap_or(0.0));
    report.put(
        "service.products",
        all().map(|p| p.products).sum::<usize>() as f64,
    );
    report.put(
        "service.report_yield",
        assimilated as f64 / sent.max(1) as f64,
    );
    report.put(
        "service.requests_failed",
        all().map(|p| p.failed_requests).sum::<usize>() as f64,
    );
    report.put("service.first_product_p50_s", median(&first).unwrap_or(0.0));
    report.put(
        "service.first_product_p90_s",
        tail_percentile(&first, 90.0).unwrap_or(0.0),
    );
    let drain: Vec<f64> = bursts.iter().map(Phase::drain_rps).collect();
    report.put("service.drain_rps", median(&drain).unwrap_or(0.0));
    report.put(
        "load.late_max_s",
        all().map(|p| p.late_max).fold(0.0, f64::max),
    );
    report.put(
        "trace.overhead_frac",
        overhead_frac(&untraced.finish, &traced.finish),
    );
    println!(
        "service_open traced: {} + {} open-loop requests, {} submit spans",
        untraced.finish.len(),
        traced.finish.len(),
        tr.spans().len()
    );
    write_trace(&tr, args);
}
