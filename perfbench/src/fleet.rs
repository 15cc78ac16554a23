//! `fleet-global`: one `simulate_global` per call — three cells of
//! 3–6 TPUv4i BERT0 servers riding diurnal traffic with a flash crowd,
//! per-server MTBF crashes with failover and retries, one full cell
//! outage, and the autoscaler.
//!
//! This covers the request-level DES engine, fault injection and the
//! fleet orchestrator. Each call simulates about [`REQUESTS`] requests,
//! so the retained latency samples set the process's peak memory.

use tpu_arch::catalog;
use tpu_hlo::{compile, CompilerOptions};
use tpu_serving::fleet::{
    simulate_global, AutoscalerConfig, Cell, CellFault, CellFaultKind, GeoPolicy, GlobalConfig,
    GlobalReport, TrafficModel,
};
use tpu_serving::{
    slo, FaultPlan, FleetConfig, FleetPolicy, LatencyModel, MtbfFaults, RetryPolicy, ServingConfig,
};
use tpu_sim::Simulator;
use tpu_workloads::zoo;

use crate::design::serving_dtype;
use crate::trace::{span, Tracer};
use crate::util::{Digest, Rng};
use crate::workload::{Counters, Workload};

/// Inputs drawn per run; the loop wraps around only past this many.
const INPUTS: usize = 512;
/// Offered requests per call (approximate: arrivals are Poisson).
pub const REQUESTS: f64 = 1e5;
const CELLS: usize = 3;
/// Offered base load as a fraction of the initial fleet's capacity.
const LOAD: f64 = 0.65;
const EPOCHS: f64 = 12.0;
/// Batches profiled to fit the BERT0 latency curve.
const PROFILE_BATCHES: [u64; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// BERT0 on TPUv4i, profiled once per set-up.
struct Profile {
    model: LatencyModel,
    slo_s: f64,
    batch: u64,
    capacity_rps: f64,
}

impl Profile {
    fn bert0_on_v4i() -> Result<Profile, String> {
        let chip = catalog::tpu_v4i();
        let app = zoo::bert0();
        let dtype = serving_dtype(&app, &chip);
        let sim = Simulator::new(chip.clone());
        let mut points = Vec::with_capacity(PROFILE_BATCHES.len());
        for b in PROFILE_BATCHES {
            let graph = app.build_with(b, dtype).map_err(|e| e.to_string())?;
            let exe =
                compile(&graph, &chip, &CompilerOptions::default()).map_err(|e| e.to_string())?;
            points.push((b, sim.run(exe.plan()).map_err(|e| e.to_string())?.seconds));
        }
        let model = LatencyModel::from_points(points).map_err(|e| format!("{e:?}"))?;
        let slo_s = app.spec.slo_p99_ms / 1e3;
        // Half the SLO for service leaves the rest for queueing.
        let batch = slo::max_batch_within_slo(&model, 0.5 * slo_s, 1024).unwrap_or(1);
        let capacity_rps = model.throughput(batch);
        Ok(Profile {
            model,
            slo_s,
            batch,
            capacity_rps,
        })
    }

    /// A cell of `servers` replicas with deadline shedding, a capped
    /// queue and one retry, crashing at random with the given MTBF.
    fn cell(&self, servers: usize, horizon_s: f64, fault_seed: u64) -> Cell {
        let base = ServingConfig {
            arrival_rate_rps: 1.0,
            max_batch: self.batch,
            batch_timeout_s: 0.1 * self.slo_s,
            requests: 1,
            seed: 0,
        };
        let queue_budget_s = (self.slo_s - self.model.latency(self.batch)).max(0.05 * self.slo_s);
        let drainable = (self.capacity_rps * queue_budget_s).ceil() as usize;
        let policy = FleetPolicy {
            deadline_s: Some(self.slo_s),
            shed_expired: true,
            queue_budget_s: Some(queue_budget_s),
            queue_cap: Some(drainable.max(self.batch as usize) * servers),
            retry: RetryPolicy {
                max_retries: 1,
                backoff_s: 0.1 * self.slo_s,
                backoff_mult: 2.0,
            },
        };
        let faults = FaultPlan {
            mtbf: Some(MtbfFaults {
                mtbf_s: 0.5 * horizon_s,
                mttr_s: 0.04 * horizon_s,
                horizon_s,
            }),
            fault_seed,
            ..FaultPlan::none()
        };
        Cell::new(
            FleetConfig::new(base.with_servers(servers)).with_policy(policy),
            self.capacity_rps,
            2 * servers,
        )
        .with_faults(faults)
    }

    fn draw(&self, rng: &mut Rng, requests: f64) -> GlobalConfig {
        let servers: Vec<usize> = (0..CELLS).map(|_| 3 + rng.below(4)).collect();
        let total: usize = servers.iter().sum();
        let base_rps = LOAD * self.capacity_rps * total as f64;
        let horizon_s = requests / base_rps;
        let cells = servers
            .iter()
            .map(|&n| self.cell(n, horizon_s, rng.next_u64()))
            .collect();
        let flash_at = (0.3 + 0.3 * rng.unit()) * horizon_s;
        let outage_at = (0.2 + 0.3 * rng.unit()) * horizon_s;
        GlobalConfig {
            cells,
            traffic: TrafficModel::diurnal(base_rps, 0.35, horizon_s).with_flash(
                flash_at,
                0.15 * horizon_s,
                1.8,
            ),
            cell_faults: vec![CellFault {
                cell: rng.below(CELLS),
                at_s: outage_at,
                duration_s: 0.25 * horizon_s,
                kind: CellFaultKind::Outage,
            }],
            autoscaler: AutoscalerConfig {
                enabled: true,
                target_utilization: 0.6,
                step_servers: 1,
                provisioning_lag_epochs: 1,
            },
            geo: GeoPolicy {
                failover: true,
                redirect_latency_s: 0.2 * self.slo_s,
                overload_threshold: 1.1,
                detect_epochs: 1,
            },
            epoch_s: horizon_s / EPOCHS,
            horizon_s,
            seed: rng.next_u64(),
        }
    }
}

pub struct FleetGlobal {
    model: LatencyModel,
    inputs: Vec<GlobalConfig>,
}

impl FleetGlobal {
    /// Profiles BERT0 and draws `n` validated fleet configs from `seed`,
    /// each offering about `requests` requests.
    pub fn new(seed: u64, n: usize, requests: f64) -> Result<FleetGlobal, String> {
        let profile = Profile::bert0_on_v4i()?;
        let mut rng = Rng::new(seed, 2);
        let inputs: Vec<GlobalConfig> = (0..n).map(|_| profile.draw(&mut rng, requests)).collect();
        for (i, c) in inputs.iter().enumerate() {
            c.validate().map_err(|e| format!("fleet config {i}: {e}"))?;
        }
        Ok(FleetGlobal {
            model: profile.model,
            inputs,
        })
    }
}

impl Workload for FleetGlobal {
    type Input = GlobalConfig;
    type Output = GlobalReport;

    const UNIT: &'static str = "requests";
    const MIN_CALLS: usize = 16;

    fn setup(seed: u64) -> Result<FleetGlobal, String> {
        FleetGlobal::new(seed, INPUTS, REQUESTS)
    }

    fn inputs(&self) -> &[GlobalConfig] {
        &self.inputs
    }

    fn call<T: Tracer>(&self, cfg: &GlobalConfig, t: &mut T) -> Result<GlobalReport, String> {
        span(t, "serving.global", |_| simulate_global(&self.model, cfg)).map_err(|e| e.to_string())
    }

    fn check(&self, _: &GlobalConfig, r: &GlobalReport) -> Result<(), String> {
        if r.conservation_holds() {
            Ok(())
        } else {
            Err(format!(
                "conservation broken: {} arrivals vs {} completed + {} shed + {} dropped + {} failed",
                r.arrivals, r.completed, r.shed, r.dropped, r.failed
            ))
        }
    }

    fn units(r: &GlobalReport) -> u64 {
        r.arrivals
    }

    fn requests(r: &GlobalReport) -> u64 {
        r.arrivals
    }

    fn digest(r: &GlobalReport, d: &mut Digest) {
        for x in [
            r.arrivals,
            r.completed,
            r.good,
            r.shed,
            r.dropped,
            r.failed,
            r.redirected,
            r.lb_shed,
            r.stats.n as u64,
            r.metrics.events_processed.get(),
            r.metrics.retries.get(),
            r.metrics.failover_redistributed.get(),
            r.autoscaler.scale_ups,
            r.autoscaler.scale_downs,
            r.autoscaler.server_epochs,
        ] {
            d.u64(x);
        }
        for x in [
            r.stats.mean_s,
            r.stats.p50_s,
            r.stats.p95_s,
            r.stats.p99_s,
            r.stats.max_s,
            r.availability,
            r.throughput_rps,
            r.goodput_rps,
            r.duration_s,
        ] {
            d.f64(x);
        }
        for c in &r.cells {
            d.u64(c.offered);
            d.u64(c.completed);
            d.u64(c.infra_lost);
            d.f64(c.stats.p99_s);
        }
    }

    fn count(r: &GlobalReport, c: &mut Counters) {
        c.add("serving.des.events", r.metrics.events_processed.get());
        c.add("serving.des.retries", r.metrics.retries.get());
        c.add(
            "serving.des.failover_redistributed",
            r.metrics.failover_redistributed.get(),
        );
        c.add("serving.des.shed", r.shed);
        c.add("serving.des.dropped", r.dropped);
        c.add("serving.des.failed", r.failed);
        c.add("serving.fleet.redirected", r.redirected);
        c.add("serving.fleet.lb_shed", r.lb_shed);
        c.add(
            "serving.fleet.autoscaler_actions",
            r.autoscaler.scale_ups + r.autoscaler.scale_downs,
        );
        c.add("serving.fleet.server_epochs", r.autoscaler.server_epochs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_draws_the_same_configs() {
        let draw = |seed| FleetGlobal::new(seed, 6, REQUESTS).expect("valid").inputs;
        let a = draw(5);
        assert_eq!(a, draw(5));
        assert_ne!(a, draw(6));
        for cfg in &a {
            assert_eq!(cfg.cells.len(), CELLS);
            assert!(cfg
                .cells
                .iter()
                .all(|c| (3..=6).contains(&c.initial_servers)));
        }
    }
}
