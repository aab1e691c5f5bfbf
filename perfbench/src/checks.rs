//! Output checks. Each compares a driver output against a count the
//! benchmark made itself or against a property the method must have;
//! none compares against a stored copy of an earlier output. Each check
//! returns the list of what failed (empty = correct).

use crate::trace_mix::CsvFacts;
use crate::PERIODS_PER_SEC;

/// Poisson tolerance: counts within this many standard deviations of
/// their mean pass (a false alarm is rarer than 1 in 10⁶ per check).
const SIGMAS: f64 = 5.0;

fn within_poisson(observed: f64, mean: f64) -> bool {
    (observed - mean).abs() <= SIGMAS * mean.sqrt().max(1.0)
}

/// Relative slack on floating-point limit sums.
const LIMIT_EPS: f64 = 1e-9;

#[derive(Debug, Clone)]
pub struct TraceMixFacts {
    pub csv: CsvFacts,
    pub parsed_apps: usize,
    pub parsed_minutes: usize,
    pub parsed_total: f64,
    /// Σ of the shard's per-minute counts over the simulated minutes.
    pub shard_expected: f64,
    pub completed: u64,
    pub failed: u64,
    pub container_periods: u64,
    pub slack_samples: u64,
    pub pods_spawned: u64,
    /// Periods of one pod cold start.
    pub cold_start_periods: u64,
    pub oom_kills: u64,
}

pub fn check_trace_mix(f: &TraceMixFacts) -> Vec<String> {
    let mut errs = Vec::new();
    if f.parsed_apps != f.csv.apps {
        errs.push(format!(
            "parsed {} apps, CSV has {}",
            f.parsed_apps, f.csv.apps
        ));
    }
    if f.parsed_minutes != f.csv.minutes {
        errs.push(format!(
            "parsed {} minutes, CSV has {}",
            f.parsed_minutes, f.csv.minutes
        ));
    }
    if f.parsed_total != f.csv.total as f64 {
        errs.push(format!(
            "parsed per-minute counts sum to {}, CSV sums to {}",
            f.parsed_total, f.csv.total
        ));
    }
    // Arrivals are Poisson with mean Σ counts. trace_sim drops the
    // invocations still queued or running when the trace ends without
    // counting them (README, known fault 2), so finished invocations may
    // fall short of arrivals by that residue; they never exceed them.
    let done = (f.completed + f.failed) as f64;
    let lo = f.shard_expected * (1.0 - TRACE_END_RESIDUE) - SIGMAS * f.shard_expected.sqrt();
    let hi = f.shard_expected + SIGMAS * f.shard_expected.sqrt();
    if done < lo || done > hi {
        errs.push(format!(
            "{done} invocations finished, outside [{lo:.0}, {hi:.0}] around the trace's {}",
            f.shard_expected
        ));
    }
    // Every live pod is sampled once per second, cold start included; a
    // pod closes a period every 100 ms once it runs. So the periods are
    // the samples x periods per second, less each pod's cold-start
    // periods, give or take under one second of periods per pod for
    // where its life falls between the sampling instants.
    let expected = f.slack_samples * PERIODS_PER_SEC
        - (f.pods_spawned * f.cold_start_periods).min(f.slack_samples * PERIODS_PER_SEC);
    let room = f.pods_spawned * PERIODS_PER_SEC;
    if f.container_periods.abs_diff(expected) > room {
        errs.push(format!(
            "{} container-periods, {} per-pod samples x {PERIODS_PER_SEC} less cold starts \
             give {expected} (+/- {room})",
            f.container_periods, f.slack_samples
        ));
    }
    if f.oom_kills != 0 {
        errs.push(format!("Escra OOM-killed {} pods", f.oom_kills));
    }
    errs
}

/// Share of arrivals allowed to be still queued or running, and so
/// dropped uncounted, at trace end: 4.0–6.6 % over the two simulated
/// minutes on seeds 1–12. A driver that loses more than this fails.
/// Goes away once unfinished invocations are counted as failures.
const TRACE_END_RESIDUE: f64 = 0.10;

#[derive(Debug, Clone)]
pub struct FleetFacts {
    pub containers: u64,
    /// Containers the set-up's `deploy_app` placed.
    pub deployed: u64,
    pub expected_rounds: u64,
    pub rounds: u64,
    pub entries_ingested: u64,
    /// Rounds each container spends cold-starting before it runs.
    pub cold_start_rounds: u64,
    pub slack_samples: u64,
    pub measured_secs: u64,
    pub expected_requests: f64,
    pub served: u64,
    pub oom_kills: u64,
    pub max_cpu_limit: f64,
    pub max_mem_limit_mib: f64,
    pub pool_cpu: f64,
    pub pool_mem_mib: f64,
}

pub fn check_fleet_scale(f: &FleetFacts) -> Vec<String> {
    let mut errs = Vec::new();
    if f.rounds != f.expected_rounds {
        errs.push(format!(
            "{} rounds simulated, the run spans {}",
            f.rounds, f.expected_rounds
        ));
    }
    if f.deployed != f.containers {
        errs.push(format!(
            "set-up deployed {} of the app's {} containers",
            f.deployed, f.containers
        ));
    }
    // Every container runs from the end of its cold start on and never
    // restarts (0 OOM kills); each running period reaches the controller.
    let running = f.rounds.saturating_sub(f.cold_start_rounds) * f.containers;
    if f.entries_ingested != running {
        errs.push(format!(
            "controller ingested {} entries for {running} running container-periods",
            f.entries_ingested
        ));
    }
    if f.slack_samples != f.containers * f.measured_secs {
        errs.push(format!(
            "{} slack samples != {} containers x {} s",
            f.slack_samples, f.containers, f.measured_secs
        ));
    }
    if !within_poisson(f.served as f64, f.expected_requests) {
        errs.push(format!(
            "{} requests served, Poisson mean {}",
            f.served, f.expected_requests
        ));
    }
    if f.oom_kills != 0 {
        errs.push(format!("Escra OOM-killed {} containers", f.oom_kills));
    }
    if f.max_cpu_limit > f.pool_cpu * (1.0 + LIMIT_EPS) {
        errs.push(format!(
            "aggregate CPU limit {} exceeds the pool's {}",
            f.max_cpu_limit, f.pool_cpu
        ));
    }
    if f.max_mem_limit_mib > f.pool_mem_mib * (1.0 + LIMIT_EPS) {
        errs.push(format!(
            "aggregate memory limit {} MiB exceeds the pool's {}",
            f.max_mem_limit_mib, f.pool_mem_mib
        ));
    }
    errs
}

#[derive(Debug, Clone)]
pub struct CellFacts {
    pub name: String,
    pub escra_oom_kills: u64,
    pub max_cpu_limit: f64,
    pub max_mem_limit_mib: f64,
    pub pool_cpu: f64,
    pub pool_mem_mib: f64,
}

#[derive(Debug, Clone)]
pub struct ServerlessFacts {
    pub name: String,
    pub image_process: bool,
    pub completed: u64,
    pub expected: u64,
    pub job_done: bool,
}

#[derive(Debug, Clone)]
pub struct PaperFacts {
    pub cells: Vec<CellFacts>,
    pub serverless: Vec<ServerlessFacts>,
}

pub fn check_paper_eval(f: &PaperFacts) -> Vec<String> {
    let mut errs = Vec::new();
    for c in &f.cells {
        if c.escra_oom_kills != 0 {
            errs.push(format!(
                "{}: Escra OOM-killed {}",
                c.name, c.escra_oom_kills
            ));
        }
        if c.max_cpu_limit > c.pool_cpu * (1.0 + LIMIT_EPS) {
            errs.push(format!(
                "{}: aggregate CPU limit {} exceeds the pool's {}",
                c.name, c.max_cpu_limit, c.pool_cpu
            ));
        }
        if c.max_mem_limit_mib > c.pool_mem_mib * (1.0 + LIMIT_EPS) {
            errs.push(format!(
                "{}: aggregate memory limit {} MiB exceeds the pool's {}",
                c.name, c.max_mem_limit_mib, c.pool_mem_mib
            ));
        }
    }
    for s in &f.serverless {
        if s.image_process && s.completed != s.expected {
            errs.push(format!(
                "{}: {} requests completed, {} sent",
                s.name, s.completed, s.expected
            ));
        }
        if !s.image_process && !s.job_done {
            errs.push(format!("{}: the GridSearch job did not complete", s.name));
        }
    }
    if f.cells.len() != 16 {
        errs.push(format!(
            "{} matrix cells ran, Table I has 16",
            f.cells.len()
        ));
    }
    errs
}

#[cfg(test)]
mod tests {
    //! Each check fed a doctored output must fail, naming what is wrong;
    //! the undoctored output passes every check.
    use super::*;

    fn trace_ok() -> TraceMixFacts {
        TraceMixFacts {
            csv: CsvFacts {
                apps: 20_000,
                minutes: 6,
                total: 1_354_454,
            },
            parsed_apps: 20_000,
            parsed_minutes: 6,
            parsed_total: 1_354_454.0,
            shard_expected: 87_362.0,
            completed: 85_010,
            failed: 0,
            container_periods: 9_817_091,
            slack_samples: 987_479,
            pods_spawned: 11_195,
            cold_start_periods: 5,
            oom_kills: 0,
        }
    }

    fn fails(errs: Vec<String>, what: &str) {
        assert!(
            errs.iter().any(|e| e.contains(what)),
            "expected a failure mentioning {what:?}, got {errs:?}"
        );
    }

    #[test]
    fn trace_mix_accepts_a_consistent_run() {
        assert_eq!(check_trace_mix(&trace_ok()), Vec::<String>::new());
    }

    #[test]
    fn trace_mix_rejects_a_parse_that_lost_apps_minutes_or_counts() {
        let mut f = trace_ok();
        f.parsed_apps -= 1;
        fails(check_trace_mix(&f), "apps");
        let mut f = trace_ok();
        f.parsed_minutes = 5;
        fails(check_trace_mix(&f), "minutes");
        let mut f = trace_ok();
        f.parsed_total -= 1.0;
        fails(check_trace_mix(&f), "sum to");
    }

    #[test]
    fn trace_mix_rejects_invocations_outside_the_poisson_bound() {
        let mut f = trace_ok();
        f.completed = (f.shard_expected * 1.02) as u64;
        fails(check_trace_mix(&f), "invocations finished");
        let mut f = trace_ok();
        f.completed = (f.shard_expected * 0.85) as u64;
        fails(check_trace_mix(&f), "invocations finished");
    }

    #[test]
    fn trace_mix_rejects_periods_that_disagree_with_the_samples() {
        let mut f = trace_ok();
        // Counting cold-start periods as running ones.
        f.container_periods = f.slack_samples * PERIODS_PER_SEC + f.pods_spawned * 20;
        fails(check_trace_mix(&f), "container-periods");
        let mut f = trace_ok();
        f.container_periods /= 2;
        fails(check_trace_mix(&f), "container-periods");
    }

    #[test]
    fn trace_mix_rejects_an_oom_kill() {
        let mut f = trace_ok();
        f.oom_kills = 1;
        fails(check_trace_mix(&f), "OOM");
    }

    fn fleet_ok() -> FleetFacts {
        FleetFacts {
            containers: 12_000,
            deployed: 12_000,
            expected_rounds: 300,
            rounds: 300,
            entries_ingested: 3_360_000,
            cold_start_rounds: 20,
            slack_samples: 240_000,
            measured_secs: 20,
            expected_requests: 8_000.0,
            served: 7_999,
            oom_kills: 0,
            max_cpu_limit: 20_000.0,
            max_mem_limit_mib: 3_000_000.0,
            pool_cpu: 24_000.0,
            pool_mem_mib: 3_072_000.0,
        }
    }

    #[test]
    fn fleet_scale_accepts_a_consistent_run() {
        assert_eq!(check_fleet_scale(&fleet_ok()), Vec::<String>::new());
    }

    #[test]
    fn fleet_scale_rejects_miscounted_rounds_and_a_short_deployment() {
        let mut f = fleet_ok();
        f.rounds = 299;
        fails(check_fleet_scale(&f), "rounds simulated");
        let mut f = fleet_ok();
        f.deployed -= 1;
        fails(check_fleet_scale(&f), "set-up deployed");
    }

    #[test]
    fn fleet_scale_rejects_lost_telemetry_entries() {
        let mut f = fleet_ok();
        f.entries_ingested -= 12_000;
        fails(check_fleet_scale(&f), "ingested");
    }

    #[test]
    fn fleet_scale_rejects_missing_slack_samples() {
        let mut f = fleet_ok();
        f.slack_samples -= 1;
        fails(check_fleet_scale(&f), "slack samples");
    }

    #[test]
    fn fleet_scale_rejects_served_requests_off_the_rate() {
        let mut f = fleet_ok();
        f.served = 7_000;
        fails(check_fleet_scale(&f), "requests served");
    }

    #[test]
    fn fleet_scale_rejects_oom_kills_and_limits_over_the_pool() {
        let mut f = fleet_ok();
        f.oom_kills = 2;
        fails(check_fleet_scale(&f), "OOM");
        let mut f = fleet_ok();
        f.max_cpu_limit = f.pool_cpu + 1.0;
        fails(check_fleet_scale(&f), "aggregate CPU limit");
        let mut f = fleet_ok();
        f.max_mem_limit_mib = f.pool_mem_mib + 1.0;
        fails(check_fleet_scale(&f), "aggregate memory limit");
    }

    fn paper_ok() -> PaperFacts {
        PaperFacts {
            cells: (0..16)
                .map(|i| CellFacts {
                    name: format!("cell{i}"),
                    escra_oom_kills: 0,
                    max_cpu_limit: 30.0,
                    max_mem_limit_mib: 4_000.0,
                    pool_cpu: 40.0,
                    pool_mem_mib: 8_192.0,
                })
                .collect(),
            serverless: vec![
                ServerlessFacts {
                    name: "ImageProcess/escra".into(),
                    image_process: true,
                    completed: 3_000,
                    expected: 3_000,
                    job_done: false,
                },
                ServerlessFacts {
                    name: "GridSearch/escra".into(),
                    image_process: false,
                    completed: 960,
                    expected: 3_000,
                    job_done: true,
                },
            ],
        }
    }

    #[test]
    fn paper_eval_accepts_a_consistent_run() {
        assert_eq!(check_paper_eval(&paper_ok()), Vec::<String>::new());
    }

    #[test]
    fn paper_eval_rejects_an_escra_oom_kill_in_any_cell() {
        let mut f = paper_ok();
        f.cells[7].escra_oom_kills = 1;
        fails(check_paper_eval(&f), "cell7: Escra OOM-killed");
    }

    #[test]
    fn paper_eval_rejects_limits_over_an_app_pool() {
        let mut f = paper_ok();
        f.cells[3].max_cpu_limit = 40.5;
        fails(check_paper_eval(&f), "cell3: aggregate CPU limit");
        let mut f = paper_ok();
        f.cells[4].max_mem_limit_mib = 9_000.0;
        fails(check_paper_eval(&f), "cell4: aggregate memory limit");
    }

    #[test]
    fn paper_eval_rejects_lost_image_requests_and_an_unfinished_job() {
        let mut f = paper_ok();
        f.serverless[0].completed = 2_999;
        fails(check_paper_eval(&f), "ImageProcess/escra");
        let mut f = paper_ok();
        f.serverless[1].job_done = false;
        fails(check_paper_eval(&f), "GridSearch job");
    }

    #[test]
    fn paper_eval_rejects_a_short_matrix() {
        let mut f = paper_ok();
        f.cells.pop();
        fails(check_paper_eval(&f), "matrix cells");
    }
}
