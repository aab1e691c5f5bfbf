//! Layer probes for the traced run: time per call into each layer's
//! public functions, with inputs shaped like the workload (its live
//! container count, node count, per-node batch, queue depth and request
//! rate). Each probe times a fixed number of calls several times and
//! reports the median time per call, in nanoseconds.

use crate::stats::{median, thread_cpu_s};
use crate::Metric;
use escra_baselines::types::ContainerProfile;
use escra_baselines::{
    ArcVConfig, ArcVScaler, AutopilotConfig, AutopilotScaler, PeriodicScaler, StaticPolicy,
    TinyAutoscaler, TinyAutoscalerConfig, UsageSample,
};
use escra_cfs::node::arbitrate;
use escra_cfs::{CpuBandwidth, CpuPeriodStats, MemCgroup, MIB};
use escra_cluster::{AppId, Cluster, ContainerId, ContainerSpec, NodeSpec};
use escra_core::{Agent, Controller, CpuStatsColumns, CpuStatsEntry, EscraConfig, ToAgent};
use escra_harness::queueing::{drain_fifo, StageJob};
use escra_metrics::{LatencyRecorder, SlackRecorder};
use escra_net::{Addr, FaultInjector, FaultPlan};
use escra_simcore::events::EventQueue;
use escra_simcore::rng::SimRng;
use escra_simcore::time::{SimDuration, SimTime};
use escra_workloads::{teastore, RequestGenerator, WorkloadKind};
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;

/// The workload's input shape, as the probes need it.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Live containers (pods) at once.
    pub containers: usize,
    pub nodes: usize,
    /// Telemetry entries per node flush.
    pub batch: usize,
    /// Stage jobs queued per container.
    pub queue_depth: usize,
    /// Requests (invocations) per second.
    pub rate_rps: f64,
}

/// Mean requests in flight per container by Little's law (rate × mean
/// latency / containers), at least 1: the queue depth a drain sees.
pub fn little_depth(rate_rps: f64, m: &escra_metrics::RunMetrics, containers: usize) -> usize {
    let in_flight = rate_rps * m.latency.mean_ms() / 1e3;
    ((in_flight / containers.max(1) as f64).ceil() as usize).max(1)
}

/// Timed repetitions per probe; the median is reported.
const REPS: usize = 5;
const PERIOD: SimDuration = SimDuration::from_millis(100);

/// Median over [`REPS`] of (time of `f()` / `calls`), in ns.
fn per_call_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = thread_cpu_s();
            f();
            (thread_cpu_s() - t) * 1e9 / calls.max(1) as f64
        })
        .collect();
    median(&samples)
}

fn stats(i: usize) -> CpuPeriodStats {
    let usage = 20_000.0 + (i % 7) as f64 * 5_000.0;
    CpuPeriodStats {
        quota_cores: 1.0,
        unused_runtime_us: 100_000.0 - usage,
        usage_us: usage,
        throttled: i.is_multiple_of(11),
    }
}

/// A cluster of `nodes` nodes hosting `containers` containers of one app.
fn cluster(shape: &Shape) -> (Cluster, Vec<ContainerId>) {
    let mut c = Cluster::new(vec![
        NodeSpec {
            cores: 48,
            mem_bytes: 64 * 1024 * MIB,
        };
        shape.nodes.max(1)
    ]);
    let ids = (0..shape.containers)
        .map(|i| {
            let spec = ContainerSpec::new(format!("c{i}"), AppId::new(0));
            c.deploy(spec, SimTime::ZERO).expect("cluster has nodes")
        })
        .collect();
    c.tick(SimTime::from_secs(10));
    (c, ids)
}

/// A controller managing `ids` as one app with a generous pool.
fn controller(c: &Cluster, ids: &[ContainerId]) -> Controller {
    let mut ctl = Controller::new(EscraConfig::default());
    let n = ids.len() as f64;
    ctl.register_app(AppId::new(0), 2.0 * n, ids.len() as u64 * 512 * MIB);
    for &id in ids {
        let node = c.container(id).expect("deployed").node();
        ctl.register_container(id, AppId::new(0), node, 1.0, 256 * MIB)
            .expect("registers");
    }
    ctl
}

fn scalers(ids: &[ContainerId]) -> Vec<(&'static str, Box<dyn PeriodicScaler>)> {
    let profiles: BTreeMap<ContainerId, ContainerProfile> = ids
        .iter()
        .map(|&id| {
            (
                id,
                ContainerProfile {
                    peak_cpu_cores: 1.0,
                    peak_mem_bytes: 256 * MIB,
                },
            )
        })
        .collect();
    let mut v: Vec<(&'static str, Box<dyn PeriodicScaler>)> = vec![
        (
            "static",
            Box::new(StaticPolicy::from_profiles(&profiles, 1.5)),
        ),
        (
            "autopilot",
            Box::new(AutopilotScaler::new(AutopilotConfig::default())),
        ),
        (
            "tiny",
            Box::new(TinyAutoscaler::new(TinyAutoscalerConfig::default())),
        ),
        ("arc_v", Box::new(ArcVScaler::new(ArcVConfig::default()))),
    ];
    for (_, s) in &mut v {
        for &id in ids {
            s.track(id, 1.0, 256 * MIB);
        }
    }
    v
}

/// Runs every probe; returns the per-layer `_ns` metrics.
pub fn run(shape: &Shape) -> Vec<Metric> {
    let n = shape.containers.max(1);
    let mut m: Vec<Metric> = Vec::new();
    let mut put = |name: &str, ns: f64| m.push((name.to_string(), ns, "ns"));

    // simcore: one push_keyed + pop at the workload's heap size.
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..n as u64 {
        q.push_keyed(SimTime::from_micros(i * 97 % 100_000), i, i);
    }
    let calls = 200_000;
    put(
        "simcore.heap_op_ns",
        per_call_ns(calls, || {
            for _ in 0..calls {
                let (t, e) = q.pop().expect("non-empty");
                q.push_keyed(t + PERIOD, e, e);
            }
        }),
    );

    // cfs: a period close per container (consume + end_period).
    let mut cpus: Vec<CpuBandwidth> = (0..n).map(|_| CpuBandwidth::new(1.0)).collect();
    put(
        "cfs.period_close_ns",
        per_call_ns(n, || {
            for (i, c) in cpus.iter_mut().enumerate() {
                c.consume((i % 13) as f64 * 7_000.0);
                black_box(c.end_period());
            }
        }),
    );
    // cfs: a memory charge/uncharge/limit cycle per container.
    let mut mems: Vec<MemCgroup> = (0..n).map(|_| MemCgroup::new(512 * MIB)).collect();
    put(
        "cfs.mem_charge_ns",
        per_call_ns(n, || {
            for (i, c) in mems.iter_mut().enumerate() {
                let delta = ((i % 5) as u64 + 1) * MIB;
                black_box(c.try_charge(delta));
                c.uncharge(delta);
                c.set_limit_bytes(512 * MIB + delta);
            }
        }),
    );
    // cfs: one arbitration per node-window at the per-node batch size.
    let demands: Vec<f64> = (0..shape.batch.max(1))
        .map(|i| 20_000.0 + (i % 9) as f64 * 15_000.0)
        .collect();
    let windows = (200_000 / demands.len()).max(100);
    put(
        "cfs.arbitrate_ns",
        per_call_ns(windows, || {
            for _ in 0..windows {
                black_box(arbitrate(black_box(400_000.0), &demands));
            }
        }),
    );

    // cluster: lookups at the live count; spawn + teardown pairs.
    let (mut cl, ids) = cluster(shape);
    put(
        "cluster.lookup_ns",
        per_call_ns(2 * ids.len(), || {
            for &id in &ids {
                black_box(cl.container(id).map(|c| c.is_running()));
                if let Some(c) = cl.container_mut(id) {
                    c.cpu.consume(1.0);
                }
            }
        }),
    );
    let spawns = 2_000;
    let mut spawned = 0u64;
    put(
        "cluster.spawn_teardown_ns",
        per_call_ns(spawns, || {
            for _ in 0..spawns {
                let spec = ContainerSpec::new(format!("p{spawned}"), AppId::new(1));
                let id = cl.deploy(spec, SimTime::ZERO).expect("cluster has nodes");
                cl.terminate(id, SimTime::ZERO).expect("just deployed");
                spawned += 1;
            }
        }),
    );

    // core: telemetry build, row and column ingest (per entry), tick,
    // and agent apply.
    let mut ctl = controller(&cl, &ids);
    let entries: Vec<CpuStatsEntry> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| CpuStatsEntry {
            container: id,
            stats: stats(i),
        })
        .collect();
    let batch = shape.batch.clamp(1, entries.len().max(1));
    put(
        "core.telemetry_build_ns",
        per_call_ns(entries.len(), || {
            for chunk in entries.chunks(batch) {
                black_box(CpuStatsColumns::from_entries(chunk));
            }
        }),
    );
    let mut out = Vec::new();
    let mut now = SimTime::from_secs(10);
    put(
        "core.ingest_rows_ns",
        per_call_ns(entries.len(), || {
            for chunk in entries.chunks(batch) {
                ctl.ingest_cpu_batch(chunk, &mut out);
                out.clear();
            }
        }),
    );
    let columns: Vec<CpuStatsColumns> = entries
        .chunks(batch)
        .map(CpuStatsColumns::from_entries)
        .collect();
    put(
        "core.ingest_columns_ns",
        per_call_ns(entries.len(), || {
            for c in &columns {
                ctl.ingest_cpu_columns(c, &mut out);
                out.clear();
            }
        }),
    );
    let ticks = 1_000;
    put(
        "core.tick_ns",
        per_call_ns(ticks, || {
            for _ in 0..ticks {
                now += PERIOD;
                ctl.tick_into(now, &mut out);
                out.clear();
            }
        }),
    );
    let mut agents: Vec<Agent> = cl.nodes().iter().map(|nd| Agent::new(nd.id())).collect();
    let mut seq = 1u64 << 32;
    put(
        "core.agent_apply_ns",
        per_call_ns(ids.len(), || {
            for &id in &ids {
                let node = cl.container(id).expect("deployed").node().as_u64() as usize;
                seq += 1;
                let cmd = ToAgent::SetCpuQuota {
                    container: id,
                    quota_cores: 0.5 + (seq % 4) as f64 * 0.25,
                    seq,
                };
                black_box(agents[node].apply(&mut cl, cmd));
            }
        }),
    );

    // net: the workloads run fault-free, so the injector sees the empty
    // plan on every control-plane message.
    let mut inj = FaultInjector::new(FaultPlan::none(), 1);
    let msgs = 200_000;
    put(
        "net.fault_decide_ns",
        per_call_ns(msgs, || {
            for i in 0..msgs as u64 {
                black_box(inj.decide(
                    SimTime::from_micros(i),
                    Addr::from_raw(1 + i % shape.nodes.max(1) as u64),
                    Addr::from_raw(0),
                ));
            }
        }),
    );

    // baselines: one observation per container, one recommend per call.
    for (name, mut s) in scalers(&ids) {
        let mut k = 0u64;
        put(
            &format!("baselines.{name}.observe_ns"),
            per_call_ns(ids.len(), || {
                for &id in &ids {
                    k += 1;
                    s.observe(
                        id,
                        UsageSample {
                            cpu_cores: 0.2 + (k % 10) as f64 * 0.05,
                            mem_bytes: (100 + k % 50) * MIB,
                        },
                    );
                }
            }),
        );
        put(
            &format!("baselines.{name}.recommend_ns"),
            per_call_ns(1, || {
                black_box(s.recommend());
            }),
        );
    }

    // workloads: arrivals per 100 ms window at the workload's rate, and
    // one service-time sample per request stage.
    let mut gen = RequestGenerator::new(
        WorkloadKind::Fixed {
            rps: shape.rate_rps.max(1.0),
        },
        7,
    );
    let wins = 20_000;
    let mut t = SimTime::ZERO;
    put(
        "workloads.arrivals_ns",
        per_call_ns(wins, || {
            for _ in 0..wins {
                black_box(gen.arrivals_in(t, t + PERIOD));
                t += PERIOD;
            }
        }),
    );
    let tier = teastore().tiers[0].clone();
    let mut rng = SimRng::new(7);
    let samples = 200_000;
    put(
        "workloads.service_sample_ns",
        per_call_ns(samples, || {
            for _ in 0..samples {
                black_box(tier.sample_service_us(&mut rng));
            }
        }),
    );

    // harness: one FIFO drain per container-window at the queue depth.
    let depth = shape.queue_depth.max(1);
    let drains = (200_000 / depth).max(100);
    let mut queue: VecDeque<StageJob> = VecDeque::with_capacity(depth);
    put(
        "harness.drain_fifo_ns",
        per_call_ns(drains, || {
            for d in 0..drains {
                queue.clear();
                let start = SimTime::from_millis(100 * d as u64);
                for r in 0..depth {
                    queue.push_back(StageJob {
                        request: r,
                        remaining_us: 4_000.0 + (r % 5) as f64 * 1_000.0,
                        queued_at: start,
                    });
                }
                black_box(drain_fifo(
                    &mut queue,
                    start,
                    start + PERIOD,
                    2.0,
                    200_000.0,
                ));
            }
        }),
    );

    // metrics: one latency record and one slack record.
    let mut lat = LatencyRecorder::new();
    let recs = 200_000;
    put(
        "metrics.latency_record_ns",
        per_call_ns(recs, || {
            for i in 0..recs as u64 {
                lat.record_success(SimDuration::from_micros(500 + i % 50_000));
            }
        }),
    );
    let mut slack = SlackRecorder::new();
    put(
        "metrics.slack_record_ns",
        per_call_ns(recs, || {
            for i in 0..recs {
                slack.record((i % 100) as f64 * 0.01, (i % 300) as f64);
            }
        }),
    );
    m
}
