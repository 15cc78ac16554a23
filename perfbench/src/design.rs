//! `design-sweep`: one design point per call — build, compile, simulate
//! and encode an app at a batch and compiler setting on a chip.
//!
//! This loop is most of the `experiments` binary's host time. Points
//! are drawn, so they are mostly distinct and a compile cache would
//! gain only on real reuse. TPU points are bound by compile time; the
//! GPU's long RNN and BERT plans are bound by simulation time.

use tpu_arch::{catalog, ChipConfig};
use tpu_hlo::{compile, CompilerOptions};
use tpu_numerics::DType;
use tpu_sim::{SimReport, Simulator};
use tpu_workloads::{production_apps, App};

use crate::trace::{span, Tracer};
use crate::util::{Digest, Rng};
use crate::workload::{Counters, Workload};

/// Inputs drawn per run; the loop wraps around only past this many.
const INPUTS: usize = 1 << 15;
/// Largest batch drawn (log-uniform over `1..=MAX_BATCH`).
const MAX_BATCH: u64 = 256;
/// E6's CMEM capacity ladder, MiB.
const CMEM_LADDER_MIB: [u64; 8] = [0, 16, 32, 64, 96, 128, 160, 192];

/// Which compiler options a point uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Options {
    Default,
    ForChip,
    CmemMib(u64),
}

/// One design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    pub app: usize,
    pub chip: usize,
    pub batch: u64,
    pub options: Options,
}

/// The simulated outcome of one point.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub nodes: usize,
    pub nodes_in: usize,
    pub nodes_out: usize,
    pub passes_applied: usize,
    pub pass_sweeps: usize,
    pub plan_steps: usize,
    pub report: SimReport,
    pub bundles: usize,
    pub binary: Vec<u8>,
}

pub struct DesignSweep {
    apps: Vec<App>,
    chips: Vec<ChipConfig>,
    simulators: Vec<Simulator>,
    inputs: Vec<Point>,
}

/// The serving precision of an app on a chip: int8 where production
/// quality allows it and the chip has native int8, else bf16.
pub fn serving_dtype(app: &App, chip: &ChipConfig) -> DType {
    if app.spec.int8_servable && chip.native_types.contains(&DType::Int8) {
        DType::Int8
    } else {
        DType::Bf16
    }
}

/// The first `n` points of the sweep for `seed`. Apps and chips come in
/// blocks that hold every (app, chip) pair once, so each run sees the
/// same mix. The first block is the same for every seed: each pair at
/// the largest batch with default options, so the process's peak memory
/// is set by the largest points in a fixed order, not by which large
/// point a seed happens to draw first. Later blocks come in a seeded
/// order, with batch and options drawn per point. `has_cmem[c]` says
/// whether chip `c` has CMEM: only those chips get a CMEM budget (on the
/// others the compiled program fails verification).
pub fn draw_points(seed: u64, apps: usize, has_cmem: &[bool], n: usize) -> Vec<Point> {
    let mut rng = Rng::new(seed, 1);
    let mut pairs: Vec<(usize, usize)> = (0..apps)
        .flat_map(|a| (0..has_cmem.len()).map(move |c| (a, c)))
        .collect();
    let mut points: Vec<Point> = pairs
        .iter()
        .take(n)
        .map(|&(app, chip)| Point {
            app,
            chip,
            batch: MAX_BATCH,
            options: Options::Default,
        })
        .collect();
    points.reserve(n - points.len());
    while points.len() < n {
        rng.shuffle(&mut pairs);
        for &(app, chip) in pairs.iter().take(n - points.len()) {
            let batch =
                ((rng.unit() * ((MAX_BATCH + 1) as f64).ln()).exp() as u64).clamp(1, MAX_BATCH);
            let options = match rng.below(if has_cmem[chip] { 3 } else { 2 }) {
                0 => Options::Default,
                1 => Options::ForChip,
                _ => Options::CmemMib(CMEM_LADDER_MIB[rng.below(CMEM_LADDER_MIB.len())]),
            };
            points.push(Point {
                app,
                chip,
                batch,
                options,
            });
        }
    }
    points
}

impl DesignSweep {
    fn options(&self, p: &Point) -> CompilerOptions {
        match p.options {
            Options::Default => CompilerOptions::default(),
            Options::ForChip => CompilerOptions::for_chip(&self.chips[p.chip]),
            Options::CmemMib(mib) => CompilerOptions::with_cmem_budget(mib << 20),
        }
    }
}

impl Workload for DesignSweep {
    type Input = Point;
    type Output = Outcome;

    const UNIT: &'static str = "points";
    const MIN_CALLS: usize = 256;

    fn setup(seed: u64) -> Result<DesignSweep, String> {
        let apps = production_apps();
        let chips = catalog::inference_comparison_set();
        for chip in &chips {
            chip.validate().map_err(|e| format!("{}: {e}", chip.name))?;
        }
        let simulators = chips.iter().cloned().map(Simulator::new).collect();
        let has_cmem: Vec<bool> = chips.iter().map(|c| c.cmem.is_some()).collect();
        let inputs = draw_points(seed, apps.len(), &has_cmem, INPUTS);
        Ok(DesignSweep {
            apps,
            chips,
            simulators,
            inputs,
        })
    }

    fn inputs(&self) -> &[Point] {
        &self.inputs
    }

    fn call<T: Tracer>(&self, p: &Point, t: &mut T) -> Result<Outcome, String> {
        let app = &self.apps[p.app];
        let chip = &self.chips[p.chip];
        let options = self.options(p);
        span(t, "sweep.point", |t| {
            let graph = span(t, "workloads.build", |_| {
                app.build_with(p.batch, serving_dtype(app, chip))
            })
            .map_err(|e| format!("build: {e}"))?;
            let exe = span(t, "hlo.compile", |_| compile(&graph, chip, &options))
                .map_err(|e| format!("compile: {e}"))?;
            let report = span(t, "sim.run", |_| self.simulators[p.chip].run(exe.plan()))
                .map_err(|e| format!("simulate: {e}"))?;
            let binary =
                span(t, "isa.encode", |_| exe.binary()).map_err(|e| format!("encode: {e}"))?;
            let summary = exe.pass_summary();
            Ok(Outcome {
                nodes: graph.nodes().len(),
                nodes_in: summary.nodes_before,
                nodes_out: summary.nodes_after,
                passes_applied: summary.applied.len(),
                pass_sweeps: summary.sweeps,
                plan_steps: exe.plan().len(),
                report,
                bundles: exe.program().len(),
                binary,
            })
        })
    }

    fn check(&self, p: &Point, o: &Outcome) -> Result<(), String> {
        let r = &o.report;
        if !(r.seconds.is_finite() && r.seconds > 0.0) {
            return Err(format!("sim time {} is not finite and positive", r.seconds));
        }
        if !(r.energy_joules.is_finite() && r.energy_joules > 0.0) {
            return Err(format!(
                "sim energy {} is not finite and positive",
                r.energy_joules
            ));
        }
        let decoded = tpu_isa::decode(&o.binary, self.chips[p.chip].generation)
            .map_err(|e| format!("decode: {e:?}"))?;
        if decoded.len() != o.bundles {
            return Err(format!(
                "binary decodes to {} bundles, program has {}",
                decoded.len(),
                o.bundles
            ));
        }
        Ok(())
    }

    fn units(_: &Outcome) -> u64 {
        1
    }

    fn requests(_: &Outcome) -> u64 {
        0
    }

    fn digest(o: &Outcome, d: &mut Digest) {
        let r = &o.report;
        d.f64(r.seconds);
        d.f64(r.dynamic_joules);
        d.f64(r.static_joules);
        d.f64(r.energy_joules);
        d.u64(r.flops);
        d.u64(r.hbm_bytes);
        d.u64(r.cmem_bytes);
        d.u64(r.steps as u64);
        d.u64(o.nodes_out as u64);
        d.bytes(&o.binary);
    }

    fn count(o: &Outcome, c: &mut Counters) {
        c.add("workloads.nodes", o.nodes as u64);
        c.add("hlo.nodes_in", o.nodes_in as u64);
        c.add("hlo.nodes_out", o.nodes_out as u64);
        c.add("hlo.passes_applied", o.passes_applied as u64);
        c.add("hlo.pass_sweeps", o.pass_sweeps as u64);
        c.add("hlo.plan_steps", o.plan_steps as u64);
        c.add("sim.steps", o.report.steps as u64);
        c.add("sim.flops", o.report.flops);
        c.add("sim.hbm_bytes", o.report.hbm_bytes);
        c.add("isa.bundles", o.bundles as u64);
        c.add("isa.bytes", o.binary.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HAS_CMEM: [bool; 4] = [false, false, true, false];

    #[test]
    fn same_seed_draws_the_same_points() {
        let draw = |seed, n| draw_points(seed, 8, &HAS_CMEM, n);
        assert_eq!(draw(3, 500), draw(3, 500));
        assert_ne!(draw(3, 500), draw(4, 500));
        // A longer list extends a shorter one.
        assert_eq!(draw(3, 500)[..100], draw(3, 100)[..]);
        // Only the largest-batch first block is shared between seeds.
        assert_eq!(draw(3, 32), draw(4, 32));
        assert!(draw(3, 32).iter().all(|p| p.batch == MAX_BATCH));
    }

    #[test]
    fn every_block_holds_each_pair_once_and_only_cmem_chips_get_a_budget() {
        let points = draw_points(11, 8, &HAS_CMEM, 640);
        for block in points.chunks(32) {
            let mut pairs: Vec<_> = block.iter().map(|p| (p.app, p.chip)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            assert_eq!(pairs.len(), 32);
        }
        assert!(points.iter().all(|p| (1..=MAX_BATCH).contains(&p.batch)));
        for p in &points {
            let budget = matches!(p.options, Options::CmemMib(_));
            assert!(!budget || HAS_CMEM[p.chip]);
        }
        assert!(points
            .iter()
            .any(|p| matches!(p.options, Options::CmemMib(_))));
    }
}
