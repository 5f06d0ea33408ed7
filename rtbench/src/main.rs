//! `rtbench`: end-to-end and per-layer benchmark of the real-time fire
//! forecasting loop.
//!
//! ```text
//! rtbench --workload <fig1_forecast|assimilate_morphing|service_open>
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up (scenario building, ensemble perturbation, identical-twin truth
//! runs, observation synthesis, service start) happens before timing. The
//! run then measures for `--seconds` seconds, checks its outputs, and
//! prints one JSON object as its last line of standard output: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics (from a run
//! that records spans around each layer call) with `--trace 1`. See
//! README.md for the workloads and the metric → layer → workload map.

mod assim;
mod fig1;
mod service;
mod stats;
mod trace;

use stats::Ledger;

/// End-to-end metrics: `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("realtime_factor", "sim_s/s"),
    ("latency_ms", "ms"),
    ("ok_frac", "fraction"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`, printed by every traced run. A
/// layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("core.fire_wind_s", "s"),
    ("fire.advance_s", "s"),
    ("fire.substeps", "count"),
    ("fire.heat_flux_s", "s"),
    ("grid.restrict_s", "s"),
    ("atmos.step_s", "s"),
    ("atmos.substeps", "count"),
    ("atmos.surface_wind_s", "s"),
    ("ensemble.forecast_s", "s"),
    ("obs.pack_s", "s"),
    ("obs.dim", "count"),
    ("ensemble.analysis_s", "s"),
    ("ensemble.innovation_ratio", "ratio"),
    ("ensemble.skill_ratio", "ratio"),
    ("enkf.register_s", "s"),
    ("enkf.registrations", "count"),
    ("service.submit_s", "s"),
    ("service.products", "count"),
    ("service.report_yield", "ratio"),
    ("service.requests_failed", "count"),
    ("service.first_product_p50_s", "s"),
    ("service.first_product_p90_s", "s"),
    ("service.drain_rps", "1/s"),
    ("load.late_max_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run hands back: its ledger and the metrics of the
/// requested mode, by name.
#[derive(Debug, Default)]
pub struct Report {
    pub ledger: Ledger,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }
}

/// Peak resident set size of this process (MB), from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a traced run writes its spans: `rtbench/out/` under the working
/// directory (the repository root).
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new("rtbench/out")
        .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed))
}

/// Writes the spans of a traced run, warning (not failing) when the
/// output directory is not writable.
pub fn write_trace(tracer: &trace::Tracer, args: &Args) {
    let path = trace_path(args);
    match tracer.write_tsv(&path) {
        Ok(()) => println!(
            "trace: {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("rtbench: could not write {}: {e}", path.display()),
    }
}

/// Independent sub-seed `tag` of problem `k` from the workload seed
/// (SplitMix64 finalizer over the mixed words).
pub fn sub_seed(seed: u64, k: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(tag.wrapping_mul(0xd1b5_4a32_d192_ed03));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bitwise equality of two float slices (NaN-safe, distinguishes ±0).
pub fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn render(report: &Report, trace: bool) -> Result<String, String> {
    let expected: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut parts = Vec::with_capacity(expected.len());
    for &(name, unit) in expected {
        let mut values = report.metrics.iter().filter(|(n, _)| *n == name);
        let value = match (values.next(), values.next()) {
            (Some(&(_, v)), None) => v,
            (None, _) if trace => 0.0,
            (None, _) => return Err(format!("metric {name} was not measured")),
            (Some(_), Some(_)) => return Err(format!("metric {name} reported twice")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if let Some((stray, _)) = report
        .metrics
        .iter()
        .find(|(n, _)| !expected.iter().any(|(e, _)| e == n))
    {
        return Err(format!("metric {stray} is not declared for this mode"));
    }
    let l = report.ledger;
    if l.attempted == 0 {
        return Err("the run attempted nothing".into());
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        l.failed == 0,
        l.attempted,
        l.failed,
        parts.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rtbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "fig1_forecast" => fig1::run(&args),
        "assimilate_morphing" => assim::run(&args),
        "service_open" => service::run(&args),
        other => {
            eprintln!("rtbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    match render(&report, args.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("rtbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_report(failed: bool) -> Report {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.put(name, 1.5);
        }
        r.ledger.record(true);
        r.ledger.record(!failed);
        r
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let ok = render(&full_report(false), false).expect("renders");
        assert!(ok.starts_with("{\"correct\": true, \"attempted\": 2, \"failed\": 0,"));
        let bad = render(&full_report(true), false).expect("renders");
        assert!(bad.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(bad.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn every_declared_metric_is_printed_once() {
        // An end-to-end metric left out is an error, not a silent zero.
        let mut r = full_report(false);
        r.metrics.retain(|(n, _)| *n != "setup_s");
        assert!(render(&r, false).is_err());
        // A duplicate or undeclared metric is an error too.
        let mut r = full_report(false);
        r.put("setup_s", 2.0);
        assert!(render(&r, false).is_err());
        let mut r = full_report(false);
        r.put("fire.advance_s", 2.0);
        assert!(render(&r, false).is_err());
        // Per-layer metrics of layers a workload never calls read 0.
        let mut r = Report::default();
        r.ledger.record(true);
        r.put("fire.advance_s", 2.0e-4);
        let line = render(&r, true).expect("renders");
        assert!(line.contains("\"fire.advance_s\": {\"value\": 0.0002, \"unit\": \"s\"}"));
        assert!(line.contains("\"service.submit_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        // Nothing attempted is not a result.
        assert!(render(&Report::default(), true).is_err());
    }
}
