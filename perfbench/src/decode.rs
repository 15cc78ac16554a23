//! `llm-decode`: one `simulate_generation` per call — continuous
//! batching of about [`REQUESTS`] autoregressive requests on a TPUv4i
//! replica, at 0.5x, 0.9x or 1.2x of its analytic capacity.
//!
//! This is the token-level serving path: the generation engine never
//! touches the fleet event queue, so a change there should not move
//! this workload, while decode-step and KV-admission work show only
//! here. The load ladder varies batch occupancy and KV deferrals.

use tpu_arch::catalog;
use tpu_numerics::DType;
use tpu_serving::{
    simulate_generation, BatchingMode, GenConfig, GenLatencyModel, GenReport, GenerationModel,
    LatencyModel, TokenDistribution,
};

use crate::trace::{span, Tracer};
use crate::util::{Digest, Rng};
use crate::workload::{Counters, Workload};

/// Inputs drawn per run; the loop wraps around only past this many.
const INPUTS: usize = 4096;
/// Requests per call.
pub const REQUESTS: usize = 20_000;
/// Offered load as a multiple of analytic capacity.
const LOADS: [f64; 3] = [0.5, 0.9, 1.2];

/// The generation fixture: a 2 GB-parameter int8 decoder resident in
/// TPUv4i's 8 GiB HBM, the rest available for KV-cache.
///
/// - one decode step streams the weights once (`weights / hbm_bw`),
///   nearly flat in batch;
/// - prefill is compute-bound: 2 FLOPs/param/token at half of int8 peak;
/// - the KV footprint per token makes KV bind (about 20 concurrent
///   requests) below the batch cap of 24.
///
/// Returns the cost curves, a base config (rate and seed are set per
/// call) and the analytic capacity in requests/second.
pub fn v4i_fixture() -> Result<(GenLatencyModel, GenConfig, f64), String> {
    let chip = catalog::tpu_v4i();
    let params: f64 = 2e9;
    let weights_bytes = params as u64;
    let kv_capacity_bytes = chip.hbm.capacity_bytes - weights_bytes;

    let step_base = weights_bytes as f64 / chip.hbm.bandwidth_bps;
    let decode = LatencyModel::from_points(vec![
        (1, 1.02 * step_base),
        (8, 1.10 * step_base),
        (32, 1.45 * step_base),
        (128, 2.60 * step_base),
    ])
    .map_err(|e| format!("decode curve: {e:?}"))?;
    let peak = chip
        .peak_flops(DType::Int8)
        .ok_or("TPUv4i has no int8 peak")?;
    let s_per_token = 2.0 * params / (0.5 * peak);
    let prefill = LatencyModel::from_points(vec![
        (1, 2e-4 + s_per_token),
        (2048, 2e-4 + 2048.0 * s_per_token),
    ])
    .map_err(|e| format!("prefill curve: {e:?}"))?;

    let model = GenerationModel {
        prompt: TokenDistribution::Uniform { min: 64, max: 1024 },
        output: TokenDistribution::Geometric {
            mean: 64.0,
            max: 256,
        },
        kv_bytes_per_token: 512 * 1024,
    };

    // Each request costs its prefill exclusively plus its share of
    // decode steps at the KV-bound effective batch.
    let mean_prompt = model.prompt.mean_tokens();
    let mean_output = model.output.mean_tokens();
    let kv_tokens = (kv_capacity_bytes / model.kv_bytes_per_token) as f64;
    let max_batch = 24u64;
    let b_eff = (kv_tokens / (mean_prompt + mean_output)).min(max_batch as f64);
    let lat = GenLatencyModel { prefill, decode };
    let step_eff = lat.decode_step_s(b_eff.round() as u64);
    let capacity_rps =
        1.0 / (lat.prefill_s(mean_prompt.round() as u64) + mean_output * step_eff / b_eff);

    let base = GenConfig {
        arrival_rate_rps: capacity_rps,
        requests: 1,
        seed: 0,
        mode: BatchingMode::Continuous,
        max_batch,
        kv_capacity_bytes,
        ttft_slo_s: Some(0.25),
        model,
    };
    Ok((lat, base, capacity_rps))
}

pub struct LlmDecode {
    lat: GenLatencyModel,
    inputs: Vec<GenConfig>,
}

impl LlmDecode {
    /// Draws `n` validated generation configs of `requests` requests
    /// each from `seed`.
    pub fn new(seed: u64, n: usize, requests: usize) -> Result<LlmDecode, String> {
        let (lat, base, capacity_rps) = v4i_fixture()?;
        let mut rng = Rng::new(seed, 3);
        let inputs: Vec<GenConfig> = (0..n)
            .map(|_| GenConfig {
                arrival_rate_rps: LOADS[rng.below(LOADS.len())] * capacity_rps,
                requests,
                seed: rng.next_u64(),
                ..base
            })
            .collect();
        for (i, c) in inputs.iter().enumerate() {
            c.validate()
                .map_err(|e| format!("generation config {i}: {e}"))?;
        }
        Ok(LlmDecode { lat, inputs })
    }
}

impl Workload for LlmDecode {
    type Input = GenConfig;
    type Output = GenReport;

    const UNIT: &'static str = "requests";
    const MIN_CALLS: usize = 32;

    fn setup(seed: u64) -> Result<LlmDecode, String> {
        LlmDecode::new(seed, INPUTS, REQUESTS)
    }

    fn inputs(&self) -> &[GenConfig] {
        &self.inputs
    }

    fn call<T: Tracer>(&self, cfg: &GenConfig, t: &mut T) -> Result<GenReport, String> {
        span(t, "serving.gen", |_| simulate_generation(&self.lat, cfg)).map_err(|e| e.to_string())
    }

    fn check(&self, _: &GenConfig, r: &GenReport) -> Result<(), String> {
        if r.conservation_holds() {
            Ok(())
        } else {
            Err(format!(
                "conservation broken: {} arrivals, {} completed, {} tokens generated vs {} sampled",
                r.arrivals,
                r.completed,
                r.metrics.tokens_generated.get(),
                r.output_tokens
            ))
        }
    }

    fn units(r: &GenReport) -> u64 {
        r.arrivals as u64
    }

    fn requests(r: &GenReport) -> u64 {
        r.arrivals as u64
    }

    fn digest(r: &GenReport, d: &mut Digest) {
        for x in [
            r.arrivals as u64,
            r.completed as u64,
            r.output_tokens,
            r.prompt_tokens,
            r.kv_peak_bytes,
            r.metrics.events_processed.get(),
            r.metrics.decode_steps.get(),
            r.metrics.kv_deferrals.get(),
        ] {
            d.u64(x);
        }
        for s in [&r.ttft_stats, &r.tpot_stats, &r.e2e_stats] {
            d.u64(s.n as u64);
            for x in [s.mean_s, s.p50_s, s.p95_s, s.p99_s, s.max_s] {
                d.f64(x);
            }
        }
        for x in [
            r.throughput_rps,
            r.goodput_rps,
            r.tokens_per_s,
            r.duration_s,
        ] {
            d.f64(x);
        }
    }

    fn count(r: &GenReport, c: &mut Counters) {
        c.add("serving.gen.events", r.metrics.events_processed.get());
        c.add("serving.gen.decode_steps", r.metrics.decode_steps.get());
        c.add("serving.gen.tokens", r.metrics.tokens_generated.get());
        c.add("serving.gen.kv_deferrals", r.metrics.kv_deferrals.get());
        c.max("serving.gen.kv_peak_bytes", r.kv_peak_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_draws_the_same_configs() {
        let draw = |seed| LlmDecode::new(seed, 64, REQUESTS).expect("valid").inputs;
        let a = draw(9);
        assert_eq!(a, draw(9));
        assert_ne!(a, draw(10));
        // Every rung of the load ladder appears.
        let (_, _, cap) = v4i_fixture().expect("valid");
        for load in LOADS {
            assert!(a
                .iter()
                .any(|g| (g.arrival_rate_rps - load * cap).abs() < 1e-9));
        }
    }
}
