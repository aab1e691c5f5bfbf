//! Benchmark of the Escra simulator: three workloads, each run serially
//! in its own process, reporting end-to-end metrics (`--trace 0`) or
//! per-layer metrics (`--trace 1`) as one JSON line on stdout.
//!
//! ```text
//! perfbench --workload trace_mix|fleet_scale|paper_eval --seed N --seconds S --trace 0|1
//! ```
//!
//! See `README.md` for what each workload runs and what each metric means.

mod checks;
mod fleet_scale;
mod paper_eval;
mod probes;
mod stats;
mod trace_mix;

use escra_metrics::{LatencyRecorder, SlackRecorder};
use stats::{cdf_percentile, median, peak_rss_mib, thread_cpu_s, Spans};

/// Command-line options.
#[derive(Debug, Clone)]
struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_opts() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| "--seconds: not a number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Opts {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

const WORKLOADS: [&str; 3] = ["trace_mix", "fleet_scale", "paper_eval"];

/// CFS periods per simulated second: Escra's 100 ms report period.
pub const PERIODS_PER_SEC: u64 = 10;

/// What one round of driver calls produced.
#[derive(Debug, Clone)]
pub struct RoundOut {
    /// Simulated container-periods over the round's driver calls.
    pub container_periods: u64,
    /// This thread's on-CPU time inside the round's driver calls, in
    /// seconds.
    pub driver_s: f64,
    /// Deterministic summary of the round's outputs: every round of a
    /// run replays the same inputs, so every digest must be equal.
    pub digest: String,
}

/// Escra's allocation quality over a workload's Escra runs.
#[derive(Debug, Default)]
pub struct Quality {
    pub latency: LatencyRecorder,
    pub slack: SlackRecorder,
    pub cost_usd: f64,
    /// Requests/invocations completed (the cost denominator).
    pub completed: u64,
    /// Requests/invocations the driver accounted for (completed + failed).
    /// Escra runs only: the baselines on paper_eval time out about 4 %
    /// of their requests, a share that moves with the seed.
    pub attempted: u64,
    pub failed: u64,
}

impl Quality {
    /// Folds one Escra run's recorders and cost in.
    pub fn add(&mut self, latency: &LatencyRecorder, slack: &SlackRecorder, cost_usd: f64) {
        self.latency.merge(latency);
        self.slack.merge(slack);
        self.cost_usd += cost_usd;
        self.completed += latency.successes();
        self.attempted += latency.successes() + latency.failures();
        self.failed += latency.failures();
    }
}

/// A metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Per-layer counts from the driver outputs, reported on every
/// workload; one the workload's drivers do not return reads 0.
const COUNTS: [(&str, &str); 12] = [
    ("simcore.heap_events", "count"),
    ("cluster.pods_spawned", "count"),
    ("core.entries_ingested", "count"),
    ("core.quota_updates", "count"),
    ("core.mem_grants", "count"),
    ("net.control_bytes", "bytes"),
    ("workloads.csv_parse_s", "s"),
    ("workloads.csv_parse_ns_per_app", "ns"),
    ("harness.profile_s", "s"),
    ("harness.rounds", "count"),
    ("harness.rounds_fast_forwarded", "count"),
    ("harness.container_periods", "count"),
];

/// One benchmark workload.
pub trait Workload {
    /// Times one set-up (the work a user pays before the first driver
    /// call), in on-CPU seconds. Called several times; the median is
    /// reported.
    fn setup(&mut self, spans: Option<&mut Spans>) -> f64;
    /// How many set-ups to time before each round.
    fn setup_reps(&self) -> usize;
    /// Runs one round of driver calls.
    fn round(&mut self, spans: Option<&mut Spans>) -> RoundOut;
    /// Output checks on the last round; each entry is a failed check.
    fn check(&self) -> Vec<String>;
    /// Allocation quality of the last round's Escra runs.
    fn quality(&self) -> Quality;
    /// The [`COUNTS`] the workload's drivers reported for the last round,
    /// and its set-up spans.
    fn counts(&self) -> Vec<Metric>;
    /// Input shape for the layer probes.
    fn shape(&self) -> probes::Shape;
}

fn make(opts: &Opts) -> Box<dyn Workload> {
    match opts.workload.as_str() {
        "trace_mix" => Box::new(trace_mix::TraceMix::new(opts.seed)),
        "fleet_scale" => Box::new(fleet_scale::FleetScale::new(opts.seed)),
        "paper_eval" => Box::new(paper_eval::PaperEval::new(opts.seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut w = make(&opts);
    let mut spans = Spans::new();
    let tracing = opts.trace;

    // Whole rounds until the driver calls have used up the measuring
    // time. Set-up is repeated before every round, so its samples are
    // spread over the run rather than bunched at its start. The traced
    // run records spans on every second round only; the difference
    // between rounds with and without spans is the tracing overhead.
    let mut setups: Vec<f64> = Vec::new();
    let mut rounds: Vec<RoundOut> = Vec::new();
    let mut measured_s = 0.0;
    loop {
        for _ in 0..w.setup_reps() {
            let id = tracing.then(|| spans.open("setup"));
            setups.push(w.setup(tracing.then_some(&mut spans)));
            id.map(|id| spans.close(id));
        }
        let traced = tracing && rounds.len() % 2 == 1;
        let id = traced.then(|| spans.open("round"));
        let r = w.round(traced.then_some(&mut spans));
        id.map(|id| spans.close(id));
        eprintln!(
            "round {}: {} container-periods in {:.3} s of driver calls",
            rounds.len() + 1,
            r.container_periods,
            r.driver_s
        );
        measured_s += r.driver_s;
        rounds.push(r);
        let enough = !tracing || rounds.len() >= 2;
        if enough && measured_s >= opts.seconds {
            break;
        }
    }
    let n_rounds = rounds.len() as u64;

    // The reduction after the run: recorder merges, percentiles, cost.
    let id = tracing.then(|| spans.open("metrics.reduce"));
    let t = thread_cpu_s();
    let quality = w.quality();
    let lat = quality.latency.cdf();
    let cpu = quality.slack.cpu_cdf();
    let mem = quality.slack.mem_cdf();
    let reduced = [
        cdf_percentile(&lat, 50.0),
        cdf_percentile(&lat, 99.9),
        cdf_percentile(&cpu, 50.0),
        cdf_percentile(&mem, 50.0),
        quality.cost_usd * 1000.0 / quality.completed.max(1) as f64,
    ];
    let reduce_s = thread_cpu_s() - t;
    id.map(|id| spans.close(id));
    let [lat_p50, lat_p999, cpu_p50, mem_p50, usd_per_kreq] = reduced;

    let mut errors = w.check();
    if let Some(r) = rounds.iter().find(|r| r.digest != rounds[0].digest) {
        errors.push(format!(
            "round outputs differ on equal inputs: {:?} vs {:?}",
            rounds[0].digest, r.digest
        ));
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }

    let metrics: Vec<Metric> = if tracing {
        let driver_s = |traced: usize| -> Vec<f64> {
            rounds
                .iter()
                .skip(traced)
                .step_by(2)
                .map(|r| r.driver_s)
                .collect()
        };
        let run_s = median(&driver_s(1));
        let mut m: Vec<Metric> = vec![
            ("harness.run_s".into(), run_s, "s"),
            ("trace.overhead_s".into(), run_s - median(&driver_s(0)), "s"),
            ("metrics.reduce_s".into(), reduce_s, "s"),
        ];
        let counts = w.counts();
        for (name, unit) in COUNTS {
            let value = counts.iter().find(|c| c.0 == name).map_or(0.0, |c| c.1);
            m.push((name.to_string(), value, unit));
        }
        let id = spans.open("probes");
        m.extend(probes::run(&w.shape()));
        spans.close(id);
        let path = std::path::PathBuf::from("perfbench/out")
            .join(format!("{}-seed{}.spans.json", opts.workload, opts.seed));
        match spans.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
        m
    } else {
        let cp: u64 = rounds.iter().map(|r| r.container_periods).sum();
        let driver_s: f64 = rounds.iter().map(|r| r.driver_s).sum();
        vec![
            ("cp_per_s".into(), cp as f64 / driver_s, "1/s"),
            ("setup_s".into(), median(&setups), "s"),
            ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
            ("latency_p50_ms".into(), lat_p50, "ms"),
            ("latency_p999_ms".into(), lat_p999, "ms"),
            ("cpu_slack_p50_cores".into(), cpu_p50, "cores"),
            ("mem_slack_p50_mib".into(), mem_p50, "MiB"),
            ("usd_per_kreq".into(), usd_per_kreq, "USD"),
        ]
    };

    eprintln!(
        "{}: {n_rounds} round(s), {} check(s) failed",
        opts.workload,
        errors.len()
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        errors.is_empty(),
        quality.attempted * n_rounds,
        quality.failed * n_rounds,
        json_metrics(&metrics)
    );
}
