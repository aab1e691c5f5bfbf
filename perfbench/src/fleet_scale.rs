//! `fleet_scale`: `microsim` under Escra on sim_scale's synthetic
//! 10k-node / 12k-container two-tier app at its low request rate, with
//! the default row-batch telemetry. Control-plane volume dominates.
//! Set-up is Escra's deployment of the app onto the cluster.

use crate::checks::{check_fleet_scale, FleetFacts};
use crate::probes::{little_depth, Shape};
use crate::stats::{timed, Spans};
use crate::{Metric, Quality, RoundOut, Workload, PERIODS_PER_SEC};
use escra_cfs::MIB;
use escra_cluster::{AppId, Cluster, ContainerSpec, NodeSpec};
use escra_core::{deploy_app, AppConfig, Controller};
use escra_harness::{run, MicroSimConfig, MicroSimOutput, Policy};
use escra_metrics::CostModel;
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::{MicroserviceApp, RequestClass, ServiceTier, WorkloadKind};

const NODES: usize = 10_000;
/// Replicas per tier (two tiers: 12k containers).
const REPLICAS: usize = 6_000;
const RATE_RPS: f64 = 400.0;
/// Measured simulated seconds per run (microsim adds a 10 s warm-up).
const MEASURED_SECS: u64 = 20;
const WARMUP_SECS: u64 = 10;
/// microsim deploys every container with a 2 s cold start.
const COLD_START_SECS: u64 = 2;

/// sim_scale's synthetic two-tier app: Teastore-class tiers with
/// background work thinned to one job per 10 s per container.
fn scale_app() -> MicroserviceApp {
    let tier = |name: &str, cpu_per_req_ms: f64| ServiceTier {
        name: name.into(),
        replicas: REPLICAS,
        cpu_per_req_ms,
        cpu_cv: 0.3,
        mem_base_mib: 48,
        mem_per_inflight_kib: 256,
        mem_cache_mib: 64,
        parallelism: 8.0,
        startup_cpu_cores: 0.5,
        bg_work_ms: 40.0,
        bg_interval_s: 10.0,
    };
    MicroserviceApp {
        name: "scale-synthetic".into(),
        tiers: vec![tier("edge", 4.0), tier("backend", 8.0)],
        classes: vec![RequestClass {
            name: "get".into(),
            weight: 1.0,
            path: vec![0, 1],
        }],
        global_cpu_cores: (2 * REPLICAS) as f64 * 2.0,
        global_mem_mib: (2 * REPLICAS) as u64 * 256,
    }
}

fn scale_cfg(seed: u64) -> MicroSimConfig {
    let mut cfg = MicroSimConfig::new(
        scale_app(),
        WorkloadKind::Fixed { rps: RATE_RPS },
        Policy::escra_default(),
        seed,
    )
    .with_duration(SimDuration::from_secs(MEASURED_SECS));
    cfg.worker_nodes = NODES;
    cfg.node_cores = 4;
    cfg
}

/// Escra's deployment of the app as microsim makes it before its first
/// period: the cluster's nodes, the controller, and `deploy_app`
/// placing and registering every container. Returns the containers
/// placed.
fn deploy(cfg: &MicroSimConfig) -> usize {
    let Policy::Escra(ecfg) = &cfg.policy else {
        unreachable!("fleet_scale runs Escra")
    };
    let app = &cfg.app;
    let app_id = AppId::new(0);
    let mut cluster = Cluster::new(vec![
        NodeSpec {
            cores: cfg.node_cores,
            mem_bytes: 192 * 1024 * MIB,
        };
        cfg.worker_nodes
    ]);
    let mut controller = Controller::new(ecfg.clone());
    let containers = app
        .tiers
        .iter()
        .flat_map(|tier| {
            (0..tier.replicas).map(move |r| {
                ContainerSpec::new(format!("{}-{r}", tier.name), app_id)
                    .with_base_mem(tier.mem_base_mib * MIB)
                    .with_restart_delay(SimDuration::from_secs(COLD_START_SECS))
            })
        })
        .collect();
    let config = AppConfig {
        app: app_id,
        name: app.name.clone(),
        global_cpu_cores: app.global_cpu_cores,
        global_mem_bytes: app.global_mem_mib * MIB,
        containers,
    };
    let (ids, actions) = deploy_app(ecfg, &config, &mut cluster, &mut controller, SimTime::ZERO)
        .expect("the fleet fits its nodes");
    std::hint::black_box(actions);
    ids.len()
}

pub struct FleetScale {
    cfg: MicroSimConfig,
    deployed: usize,
    out: Option<MicroSimOutput>,
}

impl FleetScale {
    pub fn new(seed: u64) -> Self {
        FleetScale {
            cfg: scale_cfg(seed),
            deployed: 0,
            out: None,
        }
    }

    fn facts(&self) -> FleetFacts {
        let cfg = &self.cfg;
        let out = self.out.as_ref().expect("a round ran");
        let m = &out.metrics;
        FleetFacts {
            containers: cfg.app.container_count() as u64,
            deployed: self.deployed as u64,
            expected_rounds: (WARMUP_SECS + MEASURED_SECS) * PERIODS_PER_SEC,
            rounds: out.sim.rounds,
            entries_ingested: out.controller_stats.map_or(0, |s| s.cpu_stats_ingested),
            cold_start_rounds: COLD_START_SECS * PERIODS_PER_SEC,
            slack_samples: m.slack.count(),
            measured_secs: MEASURED_SECS,
            expected_requests: RATE_RPS * MEASURED_SECS as f64,
            served: m.latency.successes(),
            oom_kills: m.oom_kills,
            max_cpu_limit: m.cpu_limit_series.max().unwrap_or(0.0),
            max_mem_limit_mib: m.mem_limit_series.max().unwrap_or(0.0),
            pool_cpu: cfg.app.global_cpu_cores,
            pool_mem_mib: cfg.app.global_mem_mib as f64,
        }
    }
}

fn container_periods(cfg: &MicroSimConfig, out: &MicroSimOutput) -> u64 {
    out.sim.rounds * cfg.app.container_count() as u64
}

impl Workload for FleetScale {
    fn setup_reps(&self) -> usize {
        10
    }

    fn setup(&mut self, spans: Option<&mut Spans>) -> f64 {
        let (deployed, secs) = timed(spans, "core.deploy_app", || deploy(&self.cfg));
        self.deployed = deployed;
        secs
    }

    fn round(&mut self, spans: Option<&mut Spans>) -> RoundOut {
        let cfg = &self.cfg;
        let (out, driver_s) = timed(spans, "harness.microsim", || run(cfg));
        let digest = format!(
            "rounds={} heap={} served={} ingested={:?}",
            out.sim.rounds,
            out.sim.heap_events,
            out.metrics.latency.successes(),
            out.controller_stats.map(|s| s.cpu_stats_ingested)
        );
        let container_periods = container_periods(cfg, &out);
        self.out = Some(out);
        RoundOut {
            container_periods,
            driver_s,
            digest,
        }
    }

    fn check(&self) -> Vec<String> {
        check_fleet_scale(&self.facts())
    }

    fn quality(&self) -> Quality {
        let out = self.out.as_ref().expect("a round ran");
        let mut q = Quality::default();
        let cost = CostModel::default().run_cost(&out.metrics).total();
        q.add(&out.metrics.latency, &out.metrics.slack, cost);
        q
    }

    fn counts(&self) -> Vec<Metric> {
        let cfg = &self.cfg;
        let out = self.out.as_ref().expect("a round ran");
        let stats = out.controller_stats.unwrap_or_default();
        vec![
            (
                "simcore.heap_events".into(),
                out.sim.heap_events as f64,
                "count",
            ),
            (
                "core.entries_ingested".into(),
                stats.cpu_stats_ingested as f64,
                "count",
            ),
            (
                "core.quota_updates".into(),
                stats.quota_updates as f64,
                "count",
            ),
            ("core.mem_grants".into(), stats.mem_grants as f64, "count"),
            (
                "net.control_bytes".into(),
                out.network.as_ref().map_or(0, |n| n.total_bytes()) as f64,
                "bytes",
            ),
            ("harness.rounds".into(), out.sim.rounds as f64, "count"),
            (
                "harness.container_periods".into(),
                container_periods(cfg, out) as f64,
                "count",
            ),
        ]
    }

    fn shape(&self) -> Shape {
        let cfg = &self.cfg;
        let containers = cfg.app.container_count();
        Shape {
            containers,
            nodes: NODES,
            batch: containers.div_ceil(NODES),
            queue_depth: little_depth(
                RATE_RPS,
                &self.out.as_ref().expect("a round ran").metrics,
                containers,
            ),
            rate_rps: RATE_RPS,
        }
    }
}
