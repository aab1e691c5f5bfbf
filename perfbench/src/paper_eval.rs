//! `paper_eval`: the paper's evaluation at paper scale. The Table I
//! matrix (4 apps × 4 workloads, 60 s runs) on `microsim` under
//! static-1.5×, Autopilot, tiny, ARC-V and Escra, plus the two
//! OpenWhisk apps (ImageProcess, GridSearch) on `serverless_sim` under
//! vanilla OpenWhisk and Escra. The profiling pre-runs are set-up.

use crate::checks::{check_paper_eval, CellFacts, PaperFacts, ServerlessFacts};
use crate::probes::{little_depth, Shape};
use crate::stats::{median, timed, Spans};
use crate::{Metric, Quality, RoundOut, Workload, PERIODS_PER_SEC};
use escra_baselines::types::ContainerProfile;
use escra_core::EscraConfig;
use escra_harness::serverless_sim::{
    run_serverless, ServerlessApp, ServerlessConfig, ServerlessOutput,
};
use escra_harness::{profile_run, run_with_profiles, MicroSimConfig, MicroSimOutput, Policy};
use escra_metrics::{CostModel, RunMetrics};
use escra_simcore::time::SimDuration;
use escra_workloads::serverless::{grid_search_task, image_process};
use escra_workloads::{
    alibaba_workload, hipster_shop, media_microservice, teastore, train_ticket, MicroserviceApp,
    WorkloadKind,
};

/// The paper's measured run length per cell.
const RUN_SECS: u64 = 60;
/// ImageProcess iterations (750 requests each).
const IMAGE_ITERATIONS: usize = 4;
const IMAGE_REQUESTS_PER_ITERATION: u64 = 750;

fn apps() -> Vec<(&'static str, MicroserviceApp)> {
    vec![
        ("MediaMicroservice", media_microservice()),
        ("HipsterShop", hipster_shop()),
        ("TrainTicket", train_ticket()),
        ("Teastore", teastore()),
    ]
}

fn workloads() -> Vec<(&'static str, WorkloadKind)> {
    vec![
        ("alibaba", alibaba_workload(240)),
        ("burst", WorkloadKind::paper_burst()),
        ("exp", WorkloadKind::paper_exp()),
        ("fixed", WorkloadKind::paper_fixed()),
    ]
}

/// The five compared policies, Escra last.
fn policies() -> [Policy; 5] {
    [
        Policy::static_1_5x(),
        Policy::autopilot_default(),
        Policy::tiny_default(),
        Policy::arc_v_default(),
        Policy::escra_default(),
    ]
}

struct Cell {
    name: String,
    cfg: MicroSimConfig,
    profiles: Vec<ContainerProfile>,
    /// One output per policy, in [`policies`] order.
    outs: Vec<MicroSimOutput>,
}

/// One OpenWhisk app run: (label, escra?, output).
struct Sls {
    label: &'static str,
    escra: bool,
    out: ServerlessOutput,
}

pub struct PaperEval {
    cells: Vec<Cell>,
    sls: Vec<Sls>,
    seed: u64,
    profile_s: Vec<f64>,
}

/// Container-periods of one serverless run, which reports none: every
/// live pod is sampled once per simulated second (the slack recorder),
/// so samples × periods per second counts the pod-periods.
fn serverless_periods(m: &RunMetrics) -> u64 {
    m.slack.count() * PERIODS_PER_SEC
}

fn microsim_periods(cell: &Cell, out: &MicroSimOutput) -> u64 {
    out.sim.rounds * cell.cfg.app.container_count() as u64
}

impl PaperEval {
    pub fn new(seed: u64) -> Self {
        let mut cells = Vec::new();
        for (app_name, app) in apps() {
            for (wl_name, wl) in workloads() {
                let cfg = MicroSimConfig::new(app.clone(), wl, Policy::static_1_5x(), seed)
                    .with_duration(SimDuration::from_secs(RUN_SECS));
                cells.push(Cell {
                    name: format!("{app_name}/{wl_name}"),
                    cfg,
                    profiles: Vec::new(),
                    outs: Vec::new(),
                });
            }
        }
        PaperEval {
            cells,
            sls: Vec::new(),
            seed,
            profile_s: Vec::new(),
        }
    }

    fn sls_configs(&self) -> Vec<(&'static str, bool, ServerlessConfig)> {
        let mut v = Vec::new();
        for escra in [false, true] {
            let ecfg = escra.then(EscraConfig::default);
            v.push((
                "ImageProcess",
                escra,
                ServerlessConfig {
                    app: ServerlessApp::ImageProcess {
                        iterations: IMAGE_ITERATIONS,
                    },
                    ..ServerlessConfig::image_process(ecfg.clone(), self.seed)
                },
            ));
            v.push((
                "GridSearch",
                escra,
                ServerlessConfig::grid_search(ecfg, self.seed),
            ));
        }
        v
    }

    fn facts(&self) -> PaperFacts {
        let escra = policies().len() - 1;
        PaperFacts {
            cells: self
                .cells
                .iter()
                .map(|c| {
                    let m = &c.outs[escra].metrics;
                    CellFacts {
                        name: c.name.clone(),
                        escra_oom_kills: m.oom_kills,
                        max_cpu_limit: m.cpu_limit_series.max().unwrap_or(0.0),
                        max_mem_limit_mib: m.mem_limit_series.max().unwrap_or(0.0),
                        pool_cpu: c.cfg.app.global_cpu_cores,
                        pool_mem_mib: c.cfg.app.global_mem_mib as f64,
                    }
                })
                .collect(),
            serverless: self
                .sls
                .iter()
                .map(|s| ServerlessFacts {
                    name: format!("{}/{}", s.label, if s.escra { "escra" } else { "vanilla" }),
                    image_process: s.label == "ImageProcess",
                    completed: s.out.metrics.latency.successes(),
                    expected: IMAGE_ITERATIONS as u64 * IMAGE_REQUESTS_PER_ITERATION,
                    job_done: s.out.job_latency.is_some(),
                })
                .collect(),
        }
    }
}

impl Workload for PaperEval {
    fn setup_reps(&self) -> usize {
        2
    }

    fn setup(&mut self, mut spans: Option<&mut Spans>) -> f64 {
        let mut total = 0.0;
        for cell in &mut self.cells {
            let (profiles, secs) = timed(
                spans.as_deref_mut(),
                &format!("harness.profile_run {}", cell.name),
                || profile_run(&cell.cfg),
            );
            cell.profiles = profiles;
            total += secs;
        }
        self.profile_s.push(total);
        total
    }

    fn round(&mut self, mut spans: Option<&mut Spans>) -> RoundOut {
        let mut driver_s = 0.0;
        let mut cp = 0u64;
        let mut digest = String::new();
        for cell in &mut self.cells {
            cell.outs.clear();
            for policy in policies() {
                let cfg = MicroSimConfig {
                    policy,
                    ..cell.cfg.clone()
                };
                let name = format!("harness.microsim {} {}", cell.name, cfg.policy.name());
                let (out, secs) = timed(spans.as_deref_mut(), &name, || {
                    run_with_profiles(&cfg, &cell.profiles)
                });
                driver_s += secs;
                cp += microsim_periods(cell, &out);
                digest.push_str(&format!(
                    "{}:{} ",
                    out.metrics.latency.successes(),
                    out.sim.heap_events
                ));
                cell.outs.push(out);
            }
        }
        self.sls.clear();
        for (label, escra, cfg) in self.sls_configs() {
            let profile = match cfg.app {
                ServerlessApp::ImageProcess { .. } => image_process(),
                ServerlessApp::GridSearch => grid_search_task(),
            };
            let name = format!("harness.serverless_sim {label} escra={escra}");
            let (out, secs) = timed(spans.as_deref_mut(), &name, || {
                run_serverless(&cfg, &profile)
            });
            driver_s += secs;
            cp += serverless_periods(&out.metrics);
            digest.push_str(&format!(
                "{}:{} ",
                out.metrics.latency.successes(),
                out.rounds_executed
            ));
            self.sls.push(Sls { label, escra, out });
        }
        RoundOut {
            container_periods: cp,
            driver_s,
            digest,
        }
    }

    fn check(&self) -> Vec<String> {
        check_paper_eval(&self.facts())
    }

    fn quality(&self) -> Quality {
        let model = CostModel::default();
        let mut q = Quality::default();
        let escra = policies().len() - 1;
        let runs = self
            .cells
            .iter()
            .map(|c| &c.outs[escra].metrics)
            .chain(self.sls.iter().filter(|s| s.escra).map(|s| &s.out.metrics));
        for m in runs {
            q.add(&m.latency, &m.slack, model.run_cost(m).total());
        }
        q
    }

    fn counts(&self) -> Vec<Metric> {
        let mut heap = 0u64;
        let mut ingested = 0u64;
        let mut quota = 0u64;
        let mut grants = 0u64;
        let mut bytes = 0u64;
        let mut rounds = 0u64;
        let mut ff = 0u64;
        let mut cp = 0u64;
        for c in &self.cells {
            for out in &c.outs {
                heap += out.sim.heap_events;
                rounds += out.sim.rounds;
                cp += microsim_periods(c, out);
                bytes += out.network.as_ref().map_or(0, |n| n.total_bytes());
                if let Some(s) = out.controller_stats {
                    ingested += s.cpu_stats_ingested;
                    quota += s.quota_updates;
                    grants += s.mem_grants;
                }
            }
        }
        for s in &self.sls {
            rounds += s.out.rounds_executed;
            ff += s.out.rounds_fast_forwarded;
            cp += serverless_periods(&s.out.metrics);
            bytes += s.out.network.as_ref().map_or(0, |n| n.total_bytes());
        }
        vec![
            ("simcore.heap_events".into(), heap as f64, "count"),
            ("core.entries_ingested".into(), ingested as f64, "count"),
            ("core.quota_updates".into(), quota as f64, "count"),
            ("core.mem_grants".into(), grants as f64, "count"),
            ("net.control_bytes".into(), bytes as f64, "bytes"),
            ("harness.profile_s".into(), median(&self.profile_s), "s"),
            ("harness.rounds".into(), rounds as f64, "count"),
            ("harness.rounds_fast_forwarded".into(), ff as f64, "count"),
            ("harness.container_periods".into(), cp as f64, "count"),
        ]
    }

    fn shape(&self) -> Shape {
        // The largest paper app on the paper's 3 worker nodes.
        let containers = self
            .cells
            .iter()
            .map(|c| c.cfg.app.container_count())
            .max()
            .unwrap_or(1);
        let rate = self
            .cells
            .iter()
            .map(|c| c.cfg.workload.mean_rps())
            .sum::<f64>()
            / self.cells.len() as f64;
        let escra = policies().len() - 1;
        let busiest = self
            .cells
            .iter()
            .max_by_key(|c| c.cfg.app.container_count())
            .expect("cells");
        Shape {
            containers,
            nodes: 3,
            batch: containers.div_ceil(3),
            queue_depth: little_depth(rate, &busiest.outs[escra].metrics, containers),
            rate_rps: rate,
        }
    }
}
