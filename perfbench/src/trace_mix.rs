//! `trace_mix`: a seeded mega_mix population at trace_mega's full app
//! count, written as an Azure-Functions CSV and loaded back through
//! `parse_azure_csv`, then four of its trace_mega shards over the
//! trace's first two minutes under Escra on `trace_sim` (columnar
//! telemetry, jittered multi-window reports).

use crate::checks::{check_trace_mix, TraceMixFacts};
use crate::probes::Shape;
use crate::stats::{median, timed, Spans};
use crate::{Metric, Quality, RoundOut, Workload, PERIODS_PER_SEC};
use escra_core::EscraConfig;
use escra_harness::{run_trace_sim, scenario_seed, ReportPlan, TraceSimConfig, TraceSimOutput};
use escra_metrics::CostModel;
use escra_workloads::trace_workload::Z99;
use escra_workloads::{mega_mix, parse_azure_csv, synthetic_trace, TraceWorkload};

/// trace_mega's full population: 20k apps over 6 minutes on 384 nodes,
/// cut round-robin into 16 shards of 24 nodes each.
const APPS: usize = 20_000;
const MINUTES: usize = 6;
const NODES: usize = 384;
const SHARDS: usize = 16;
/// Shards run per round, one after the other. A shard's invocations
/// come mostly from its few dozen heavy bursty apps, so between seeds
/// one shard's median latency and cost moved 7–8 %, two shards' 5–6 %,
/// four shards' 1.5–5 %.
const RUN_SHARDS: usize = 4;
/// Trace minutes simulated per shard: the first third of the trace,
/// which keeps a round of four shards near 12 s.
const RUN_MINUTES: usize = 2;

/// What the benchmark wrote into the CSV, counted as it wrote it.
#[derive(Debug, Clone, Copy)]
pub struct CsvFacts {
    pub apps: usize,
    pub minutes: usize,
    /// Σ of every per-minute invocation count.
    pub total: u64,
}

/// Renders `w` as the joined one-row-per-app Azure CSV the loader
/// reads. Per-minute rates become whole invocation counts; duration
/// percentiles are the lognormal's p50/p99; the memory p50 is sized so
/// the loader's idle-memory rule gives back the app's idle footprint.
fn write_csv(w: &TraceWorkload) -> (String, CsvFacts) {
    let mut csv = String::from("app,mem_p50_mib,mem_p99_mib,dur_p50_ms,dur_p99_ms");
    for m in 0..w.minutes {
        csv.push_str(&format!(",m{m}"));
    }
    csv.push('\n');
    let mut total = 0u64;
    for app in &w.apps {
        let p50 = app.exec_ms_mu.exp();
        let p99 = (app.exec_ms_mu + Z99 * app.exec_ms_sigma).exp();
        csv.push_str(&format!(
            "{},{},{},{p50:?},{p99:?}",
            app.name,
            app.idle_mem_mib * 4,
            app.mem_mib
        ));
        for &rpm in &app.rpm {
            let count = rpm.round() as u64;
            total += count;
            csv.push_str(&format!(",{count}"));
        }
        csv.push('\n');
    }
    let facts = CsvFacts {
        apps: w.apps.len(),
        minutes: w.minutes,
        total,
    };
    (csv, facts)
}

/// trace_mega's per-shard configuration: Escra, columnar telemetry, and
/// nodes reporting every 1, 2 or 5 periods with half-period jitter.
fn shard_cfg(seed: u64) -> TraceSimConfig {
    let mut cfg = TraceSimConfig::paper_like(Some(EscraConfig::default()), seed, NODES / SHARDS);
    cfg.report_plan = ReportPlan {
        period_multipliers: vec![1, 2, 5],
        jitter_frac: 0.5,
    };
    cfg.columnar = true;
    cfg.minutes_cap = Some(RUN_MINUTES);
    cfg
}

/// Σ of an app set's per-minute counts over the simulated minutes.
fn simulated_invocations(w: &TraceWorkload) -> f64 {
    w.apps
        .iter()
        .map(|a| a.rpm[..RUN_MINUTES].iter().sum::<f64>())
        .sum()
}

pub struct TraceMix {
    seed: u64,
    csv: String,
    csv_facts: CsvFacts,
    parsed: Option<TraceWorkload>,
    /// The shards this workload runs, each an independent sub-cluster.
    shards: Vec<TraceWorkload>,
    outs: Vec<TraceSimOutput>,
    parse_s: Vec<f64>,
}

impl TraceMix {
    pub fn new(seed: u64) -> Self {
        let population = synthetic_trace(&mega_mix(APPS, MINUTES, seed));
        let (csv, csv_facts) = write_csv(&population);
        TraceMix {
            seed,
            csv,
            csv_facts,
            parsed: None,
            shards: Vec::new(),
            outs: Vec::new(),
            parse_s: Vec::new(),
        }
    }

    fn sum(&self, f: impl Fn(&TraceSimOutput) -> u64) -> u64 {
        self.outs.iter().map(f).sum()
    }

    fn facts(&self) -> TraceMixFacts {
        let parsed = self.parsed.as_ref().expect("set up");
        TraceMixFacts {
            csv: self.csv_facts,
            parsed_apps: parsed.apps.len(),
            parsed_minutes: parsed.minutes,
            parsed_total: parsed.expected_invocations(),
            shard_expected: self.shards.iter().map(simulated_invocations).sum(),
            completed: self.sum(|o| o.metrics.latency.successes()),
            failed: self.sum(|o| o.metrics.latency.failures()),
            container_periods: self.sum(|o| o.container_periods),
            slack_samples: self.sum(|o| o.metrics.slack.count()),
            pods_spawned: self.sum(|o| o.pods_spawned),
            cold_start_periods: shard_cfg(self.seed).cold_start.as_micros() * PERIODS_PER_SEC
                / 1_000_000,
            oom_kills: self.sum(|o| o.metrics.oom_kills),
        }
    }
}

impl Workload for TraceMix {
    fn setup_reps(&self) -> usize {
        2
    }

    fn setup(&mut self, spans: Option<&mut Spans>) -> f64 {
        let (parsed, secs) = timed(spans, "workloads.parse_azure_csv", || {
            parse_azure_csv(&self.csv).expect("the benchmark's own CSV parses")
        });
        self.parse_s.push(secs);
        // trace_mega's round-robin cut: shard k holds apps k, k+16, ...
        self.shards = (0..RUN_SHARDS)
            .map(|k| TraceWorkload {
                apps: parsed
                    .apps
                    .iter()
                    .skip(k)
                    .step_by(SHARDS)
                    .cloned()
                    .collect(),
                minutes: parsed.minutes,
            })
            .collect();
        self.parsed = Some(parsed);
        secs
    }

    fn round(&mut self, mut spans: Option<&mut Spans>) -> RoundOut {
        self.outs.clear();
        let mut driver_s = 0.0;
        let mut digest = String::new();
        for (k, shard) in self.shards.iter().enumerate() {
            let cfg = shard_cfg(scenario_seed(self.seed, k));
            let name = format!("harness.run_trace_sim shard {k}");
            let (out, secs) = timed(spans.as_deref_mut(), &name, || run_trace_sim(shard, &cfg));
            driver_s += secs;
            digest.push_str(&format!(
                "cp={} inv={} spawned={} bytes={} p999={}; ",
                out.container_periods,
                out.serverless.invocations,
                out.pods_spawned,
                out.control_bytes,
                out.metrics.latency.p(99.9)
            ));
            self.outs.push(out);
        }
        RoundOut {
            container_periods: self.sum(|o| o.container_periods),
            driver_s,
            digest,
        }
    }

    fn check(&self) -> Vec<String> {
        check_trace_mix(&self.facts())
    }

    fn quality(&self) -> Quality {
        let model = CostModel::default();
        let mut q = Quality::default();
        for out in &self.outs {
            let cost = model.serverless_cost(&out.serverless, out.metrics.oom_kills);
            q.add(&out.metrics.latency, &out.metrics.slack, cost.total());
        }
        q
    }

    fn counts(&self) -> Vec<Metric> {
        let parse_s = median(&self.parse_s);
        let count = |f: fn(&TraceSimOutput) -> u64| self.sum(f) as f64;
        vec![
            (
                "cluster.pods_spawned".into(),
                count(|o| o.pods_spawned),
                "count",
            ),
            (
                "net.control_bytes".into(),
                count(|o| o.control_bytes),
                "bytes",
            ),
            ("workloads.csv_parse_s".into(), parse_s, "s"),
            (
                "workloads.csv_parse_ns_per_app".into(),
                parse_s * 1e9 / APPS as f64,
                "ns",
            ),
            (
                "harness.rounds".into(),
                count(|o| o.rounds_executed),
                "count",
            ),
            (
                "harness.rounds_fast_forwarded".into(),
                count(|o| o.rounds_fast_forwarded),
                "count",
            ),
            (
                "harness.container_periods".into(),
                count(|o| o.container_periods),
                "count",
            ),
        ]
    }

    fn shape(&self) -> Shape {
        let shard = &self.shards[0];
        let out = &self.outs[0];
        let nodes = NODES / SHARDS;
        // Mean live pods of one shard, from its container-period count.
        let live = (out.container_periods / out.rounds_executed.max(1)).max(1) as usize;
        let secs = (RUN_MINUTES * 60) as f64;
        Shape {
            containers: live,
            nodes,
            batch: (live / nodes).max(1),
            // One invocation per pod: trace_sim queues per app, not per pod.
            queue_depth: 1,
            rate_rps: simulated_invocations(shard) / secs,
        }
    }
}
