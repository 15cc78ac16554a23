//! The event-driven executor: greedy list scheduling over unit pools and
//! serialized memory channels.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use tpu_arch::{ChipConfig, MemLevel};
use tpu_numerics::DType;

use crate::machine::Machine;
use crate::plan::{StepKind, StepPlan};
use crate::report::{Resource, SimReport};
use crate::trace::{Trace, TraceEntry};

/// Error produced by a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The plan DMAs to/from CMEM but the chip has none.
    NoCmem {
        /// Name of the chip.
        chip: String,
    },
    /// A plan step uses a dtype the chip cannot compute at all.
    UnsupportedType {
        /// Name of the chip.
        chip: String,
        /// The requested type.
        dtype: DType,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoCmem { chip } => write!(f, "{chip} has no CMEM"),
            SimError::UnsupportedType { chip, dtype } => {
                write!(f, "{chip} cannot compute in {dtype}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A simulator bound to one chip configuration.
#[derive(Debug, Clone)]
pub struct Simulator {
    machine: Machine,
    /// Calibration factor anchoring modeled dynamic power to the chip's
    /// published TDP at full utilization (see [`Simulator::calibration`]).
    dyn_scale: f64,
}

impl Simulator {
    /// Creates a simulator for a chip.
    pub fn new(chip: ChipConfig) -> Simulator {
        let machine = Machine::new(chip);
        let dyn_scale = Self::calibration(&machine);
        Simulator { machine, dyn_scale }
    }

    /// The underlying machine model.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Computes the dynamic-energy calibration factor.
    ///
    /// The per-op energies from the process table capture *relative*
    /// costs well but omit clocking, control and margin, which dominate
    /// real chips. We anchor the model to the published envelope: at full
    /// MXU + HBM + VPU utilization, dynamic power should equal
    /// `TDP - idle`. All per-step dynamic energies are scaled by this one
    /// factor, preserving relative costs.
    fn calibration(machine: &Machine) -> f64 {
        let chip = machine.chip();
        let e = machine.energy();
        let fastest = chip.fastest_type();
        let mac_pj = match fastest {
            DType::Int8 => e.mac_int8_pj,
            DType::Fp32 => e.mac_fp32_pj,
            _ => e.mac_bf16_pj,
        };
        let macs_per_sec = chip
            .peak_macs_per_sec(fastest)
            .expect("fastest type is native");
        let mxu_w = macs_per_sec * mac_pj * 1e-12;
        let hbm_w = chip.hbm.bandwidth_bps * chip.hbm.pj_per_byte * 1e-12;
        let vpu_w = chip.peak_vpu_ops_per_sec() * (e.mac_fp32_pj / 3.0) * 1e-12;
        let modeled_peak_w = mxu_w + hbm_w + vpu_w;
        let headroom_w = (chip.tdp_w - chip.idle_w).max(1.0);
        headroom_w / modeled_peak_w.max(1e-9)
    }

    /// Executes a plan, producing a report.
    ///
    /// Greedy list scheduling with a fixed order contract, on which the
    /// bit-identity of every report and trace rests: the next step to
    /// dispatch is the ready step with the lowest `(ready time, step id)`
    /// (times compared by `total_cmp`; a step is ready when its last
    /// dependency finishes, roots at 0); it runs on the earliest-free
    /// unit of its pool, the lowest unit index on ties, and starts once
    /// that unit and its memory channel (one serialized channel each for
    /// HBM and CMEM) are free.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoCmem`] if the plan addresses CMEM on a chip
    /// without one, and [`SimError::UnsupportedType`] for un-computable
    /// dtypes (note int8 on a bf16-only chip *is* computable — it runs at
    /// bf16 rate after on-the-fly conversion — but fp16 on a TPU is not).
    pub fn run(&self, plan: &StepPlan) -> Result<SimReport, SimError> {
        self.run_core(plan, false).map(|(report, _)| report)
    }

    /// Like [`Simulator::run`], additionally returning the execution
    /// [`Trace`] (per-step unit assignment and timing) for audits and
    /// Gantt rendering.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_traced(&self, plan: &StepPlan) -> Result<(SimReport, Trace), SimError> {
        self.run_core(plan, true)
    }

    /// Like [`Simulator::run_traced`], additionally streaming the trace
    /// into `recorder` on the unified telemetry event model (one track
    /// per `(resource, unit)`, one span per step) — the same recorder a
    /// serving-fleet run feeds, so one Chrome-trace export can hold both
    /// simulators' timelines. Telemetry stays derived-only: the report
    /// and trace are identical to [`Simulator::run_traced`]'s.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_recorded(
        &self,
        plan: &StepPlan,
        recorder: &mut tpu_telemetry::Recorder,
    ) -> Result<(SimReport, Trace), SimError> {
        let (report, trace) = self.run_core(plan, true)?;
        for ev in trace.to_events() {
            recorder.record(ev);
        }
        recorder.add_counter("sim_steps", trace.entries.len() as u64);
        Ok((report, trace))
    }

    /// Shared scheduling core. `want_trace` gates [`TraceEntry`]
    /// collection: an untraced [`Simulator::run`] (the sweep hot path)
    /// skips the per-step entry push, which is pure overhead when the
    /// caller discards the trace.
    fn run_core(&self, plan: &StepPlan, want_trace: bool) -> Result<(SimReport, Trace), SimError> {
        let chip = self.machine.chip();
        let n = plan.len();
        let steps = plan.steps();

        // One pass validates every step and counts each step's
        // dependencies and dependents. Roots are ready at 0 and enter the
        // ready queue here, already in (0, id) order.
        let mut ready = ReadyQueue::with_capacity(n);
        let mut waiting = vec![0u32; n];
        let mut dependents_end = vec![0u32; n];
        for s in steps {
            if let Some((MemLevel::Cmem, _)) = s.kind.channel_bytes() {
                if chip.cmem.is_none() {
                    return Err(SimError::NoCmem {
                        chip: chip.name.clone(),
                    });
                }
            }
            if let StepKind::Mxu { dtype, .. } = s.kind {
                let computable = match dtype {
                    DType::Fp16 => chip.native_types.contains(&DType::Fp16),
                    // int8/bf16/fp32 always computable on TPUs (possibly
                    // via widening), int8 on GPU likewise.
                    _ => true,
                };
                if !computable {
                    return Err(SimError::UnsupportedType {
                        chip: chip.name.clone(),
                        dtype,
                    });
                }
            }
            let deps = plan.deps(s.id);
            if deps.is_empty() {
                ready.push(key(0.0, s.id.0));
            }
            waiting[s.id.index()] = deps.len() as u32;
            for d in deps {
                dependents_end[d.index()] += 1;
            }
        }

        // Dependents in CSR form: turn the counts into start offsets,
        // then fill; each fill cursor ends one past its step's run, so
        // `dependents_end` doubles as the end offsets (the plan's own
        // layout, inverted).
        let mut edges = 0u32;
        for end in &mut dependents_end {
            let count = *end;
            *end = edges;
            edges += count;
        }
        let mut dependents = vec![0u32; edges as usize];
        for s in steps {
            for d in plan.deps(s.id) {
                let cursor = &mut dependents_end[d.index()];
                dependents[*cursor as usize] = s.id.0;
                *cursor += 1;
            }
        }

        let (mxu_n, vpu_n, dma_n, ici_n) = self.machine.pool_sizes();
        let mut pools = [
            Pool::new(mxu_n),
            Pool::new(vpu_n),
            Pool::new(dma_n),
            Pool::new(ici_n),
        ];
        let (mut hbm_free, mut cmem_free) = (0.0f64, 0.0f64);

        // Totals, summed in dispatch order and written to the report once.
        let mut busy = [0.0f64; 6];
        let mut energy_by = [0.0f64; 6];
        let mut dynamic_joules = 0.0f64;
        let (mut flops, mut hbm_bytes, mut cmem_bytes) = (0u64, 0u64, 0u64);

        let mut ready_at = vec![0.0f64; n];
        let mut trace = Trace::default();
        if want_trace {
            trace.entries.reserve(n);
        }
        let mut makespan = 0.0f64;
        let mut done = 0usize;

        while let Some(next) = ready.pop() {
            let idx = next as u32 as usize;
            let ready_t = ready_at[idx];
            let step = &steps[idx];
            let cost = self.machine.step_cost(&step.kind);

            // Which unit pool?
            let resource = match step.kind {
                StepKind::Mxu { .. } => Resource::Mxu,
                StepKind::Vpu { .. } => Resource::Vpu,
                StepKind::DmaIn { .. } | StepKind::DmaOut { .. } => Resource::Dma,
                StepKind::Ici { .. } => Resource::Ici,
            };
            let pool = &mut pools[resource.index()];
            let (unit_idx, unit_free) = pool.earliest_free();
            // Serialized channel, if any.
            let channel = self.machine.channel_of(&step.kind);
            let chan_free = match channel {
                Some(MemLevel::Hbm) => hbm_free,
                Some(MemLevel::Cmem) => cmem_free,
                _ => 0.0,
            };

            let start = ready_t.max(unit_free).max(chan_free);
            let end = start + cost.unit_seconds;
            pool.occupy_earliest(end);
            busy[resource.index()] += cost.unit_seconds;
            if want_trace {
                trace.entries.push(TraceEntry {
                    step: step.id,
                    tag: step.tag,
                    resource,
                    unit: unit_idx,
                    start,
                    end,
                });
            }
            match channel {
                Some(MemLevel::Hbm) => {
                    hbm_free = start + cost.channel_seconds;
                    busy[Resource::HbmChannel.index()] += cost.channel_seconds;
                }
                Some(MemLevel::Cmem) => {
                    cmem_free = start + cost.channel_seconds;
                    busy[Resource::CmemChannel.index()] += cost.channel_seconds;
                }
                _ => {}
            }

            let joules = cost.energy_joules * self.dyn_scale;
            dynamic_joules += joules;
            energy_by[resource.index()] += joules;
            flops += step.kind.flops();
            match step.kind.channel_bytes() {
                Some((MemLevel::Hbm, bytes)) => hbm_bytes += bytes,
                Some((MemLevel::Cmem, bytes)) => cmem_bytes += bytes,
                _ => {}
            }

            makespan = makespan.max(end);
            done += 1;
            // A step is ready at the latest finish among its
            // dependencies; the running max needs no second pass.
            let first = idx.checked_sub(1).map_or(0, |p| dependents_end[p] as usize);
            for &dep in &dependents[first..dependents_end[idx] as usize] {
                let d = dep as usize;
                ready_at[d] = ready_at[d].max(end);
                waiting[d] -= 1;
                if waiting[d] == 0 {
                    ready.push(key(ready_at[d], dep));
                }
            }
        }
        // O(1), and kept in release builds: a scheduler bug must fail
        // loudly rather than report a truncated run.
        assert_eq!(
            done,
            n,
            "scheduler dispatched {done} of {n} steps of plan `{}`",
            plan.name()
        );

        let mut report = SimReport::new(plan.name(), &chip.name);
        report.seconds = makespan;
        report.dynamic_joules = dynamic_joules;
        report.static_joules = self.machine.static_watts() * makespan;
        report.flops = flops;
        report.hbm_bytes = hbm_bytes;
        report.cmem_bytes = cmem_bytes;
        report.steps = n;
        report.set_totals(busy, energy_by, [mxu_n, vpu_n, dma_n, ici_n]);
        Ok((report, trace))
    }
}

/// A `(time, index)` scheduling key packed into one integer: the time's
/// `total_cmp`-ordered bits in the high part, a step id or unit index in
/// the low 32 bits. Integer order is `(time by total_cmp, index)` order.
type Key = u128;

fn key(t: f64, index: u32) -> Key {
    (Key::from(ordered_bits(t)) << 32) | Key::from(index)
}

/// Maps an `f64` to a `u64` whose unsigned order is `f64::total_cmp`'s:
/// positive values gain the sign bit, negative ones are inverted.
fn ordered_bits(t: f64) -> u64 {
    let bits = t.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 1 << 63)
}

/// Inverse of [`ordered_bits`].
fn time_of(key: Key) -> f64 {
    let bits = (key >> 32) as u64;
    f64::from_bits(bits ^ (!((bits as i64 >> 63) as u64) | 1 << 63))
}

/// The ready steps, popped in `(ready time, step id)` order.
///
/// Dispatch runs in ready-time order, so a push usually lands at or
/// above the previous one: pushes that keep order append to a sorted
/// FIFO, and those below its back go to a side heap, which stays far
/// smaller than one heap over every ready step. A pop takes the smaller
/// of the two fronts. Every key is unique (it holds a step id), so the
/// pop sequence is exactly a single heap's.
#[derive(Debug)]
struct ReadyQueue {
    sorted: VecDeque<Key>,
    late: BinaryHeap<Reverse<Key>>,
}

impl ReadyQueue {
    /// A queue for a plan of `n` steps: neither side outgrows `n`, so a
    /// run allocates it once.
    fn with_capacity(n: usize) -> ReadyQueue {
        ReadyQueue {
            sorted: VecDeque::with_capacity(n),
            late: BinaryHeap::with_capacity(n),
        }
    }

    fn push(&mut self, key: Key) {
        match self.sorted.back() {
            Some(&last) if key < last => self.late.push(Reverse(key)),
            _ => self.sorted.push_back(key),
        }
    }

    fn pop(&mut self) -> Option<Key> {
        match (self.sorted.front(), self.late.peek()) {
            (Some(&s), Some(&Reverse(l))) if l < s => self.late.pop().map(|Reverse(k)| k),
            (Some(_), _) => self.sorted.pop_front(),
            (None, _) => self.late.pop().map(|Reverse(k)| k),
        }
    }
}

/// A pool of identical units, sorted by `(free time, unit)` so the
/// earliest-free unit, lowest index on ties, is at the front. A unit
/// usually goes back at the end; otherwise a binary search places it,
/// and the shift is short because the catalog's pools hold at most 80
/// units.
#[derive(Debug)]
struct Pool {
    free: VecDeque<Key>,
}

impl Pool {
    fn new(n: usize) -> Pool {
        Pool {
            free: (0..n.max(1) as u32).map(|unit| key(0.0, unit)).collect(),
        }
    }

    /// The earliest-free unit: `(index, free_time)`.
    fn earliest_free(&self) -> (usize, f64) {
        let front = self.free[0];
        (front as u32 as usize, time_of(front))
    }

    /// Marks the unit [`Pool::earliest_free`] returned busy until
    /// `free_at`.
    fn occupy_earliest(&mut self, free_at: f64) {
        let unit = self.free.pop_front().expect("a pool has at least one unit") as u32;
        let k = key(free_at, unit);
        match self.free.back() {
            Some(&last) if k < last => {
                let at = self.free.partition_point(|&x| x < k);
                self.free.insert(at, k);
            }
            _ => self.free.push_back(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_arch::catalog;

    fn v4i() -> Simulator {
        Simulator::new(catalog::tpu_v4i())
    }

    fn dma(bytes: u64) -> StepKind {
        StepKind::DmaIn {
            from: MemLevel::Hbm,
            bytes,
        }
    }

    fn mxu(rows: u64) -> StepKind {
        StepKind::Mxu {
            rows,
            cols: 128,
            inner: 128,
            dtype: DType::Bf16,
            weights_resident: true,
        }
    }

    #[test]
    fn empty_plan_is_instant() {
        let r = v4i().run(&StepPlan::new("empty")).unwrap();
        assert_eq!(r.seconds, 0.0);
        assert_eq!(r.flops, 0);
        assert_eq!(r.steps, 0);
    }

    #[test]
    fn dependencies_serialize() {
        let sim = v4i();
        let mut seq = StepPlan::new("seq");
        let a = seq.push(mxu(1024), &[]);
        seq.push(mxu(1024), &[a]);
        let mut par = StepPlan::new("par");
        par.push(mxu(1024), &[]);
        par.push(mxu(1024), &[]);
        let t_seq = sim.run(&seq).unwrap().seconds;
        let t_par = sim.run(&par).unwrap().seconds;
        // v4i has 4 MXUs: independent steps run fully in parallel.
        assert!(t_seq > 1.9 * t_par, "seq {t_seq} vs par {t_par}");
    }

    #[test]
    fn hbm_channel_bandwidth_serializes() {
        let sim = v4i();
        let bytes = 1 << 26; // 64 MiB
        let mut one = StepPlan::new("one");
        one.push(dma(bytes), &[]);
        let mut four = StepPlan::new("four");
        for _ in 0..4 {
            four.push(dma(bytes), &[]);
        }
        let t1 = sim.run(&one).unwrap().seconds;
        let t4 = sim.run(&four).unwrap().seconds;
        // 8 DMA engines, but one HBM channel: 4x the bytes ≈ 4x the time.
        assert!(
            (t4 / t1 - 4.0).abs() < 0.3,
            "expected ~4x serialization, got {:.2}x",
            t4 / t1
        );
    }

    #[test]
    fn compute_and_dma_overlap() {
        let sim = v4i();
        // Balanced compute and DMA that can double-buffer.
        let mut overlapped = StepPlan::new("ovl");
        for _ in 0..8 {
            overlapped.push(dma(1 << 24), &[]);
            overlapped.push(mxu(16384), &[]);
        }
        let mut serialized = StepPlan::new("ser");
        let mut prev: Option<crate::plan::StepId> = None;
        for _ in 0..8 {
            let deps: Vec<_> = prev.into_iter().collect();
            let d = serialized.push(dma(1 << 24), &deps);
            prev = Some(serialized.push(mxu(16384), &[d]));
        }
        let t_o = sim.run(&overlapped).unwrap().seconds;
        let t_s = sim.run(&serialized).unwrap().seconds;
        assert!(t_o < 0.75 * t_s, "overlap {t_o} vs serial {t_s}");
    }

    #[test]
    fn memory_bound_plan_achieves_bandwidth_roofline() {
        let sim = v4i();
        let mut plan = StepPlan::new("membound");
        let total: u64 = 1 << 30; // 1 GiB through HBM
        for _ in 0..16 {
            plan.push(dma(total / 16), &[]);
        }
        let r = sim.run(&plan).unwrap();
        let achieved_bw = r.hbm_bytes as f64 / r.seconds;
        let peak = sim.machine().chip().hbm.bandwidth_bps;
        assert!(
            achieved_bw > 0.9 * peak,
            "achieved {:.0} GB/s of {:.0}",
            achieved_bw / 1e9,
            peak / 1e9
        );
        assert!(r.utilization(Resource::HbmChannel) > 0.9);
    }

    #[test]
    fn compute_bound_plan_approaches_peak_flops() {
        let sim = v4i();
        let mut plan = StepPlan::new("compute");
        for _ in 0..16 {
            plan.push(
                StepKind::Mxu {
                    rows: 16384,
                    cols: 512,
                    inner: 512,
                    dtype: DType::Bf16,
                    weights_resident: true,
                },
                &[],
            );
        }
        let r = sim.run(&plan).unwrap();
        let peak = sim.machine().chip().peak_flops(DType::Bf16).unwrap();
        let frac = r.flops_per_second() / peak;
        assert!(frac > 0.9, "achieved {:.1}% of peak", frac * 100.0);
        assert!(r.utilization(Resource::Mxu) > 0.9);
    }

    #[test]
    fn power_is_anchored_near_tdp_when_saturated() {
        let sim = v4i();
        let mut plan = StepPlan::new("hot");
        for _ in 0..8 {
            plan.push(
                StepKind::Mxu {
                    rows: 65536,
                    cols: 512,
                    inner: 512,
                    dtype: DType::Bf16,
                    weights_resident: true,
                },
                &[],
            );
            plan.push(dma(1 << 28), &[]);
        }
        let r = sim.run(&plan).unwrap();
        let chip = catalog::tpu_v4i();
        let p = r.average_watts();
        assert!(
            p > 0.5 * chip.tdp_w && p < 1.2 * chip.tdp_w,
            "average power {p:.0} W should be near TDP {} W",
            chip.tdp_w
        );
    }

    #[test]
    fn cmem_plan_rejected_without_cmem() {
        let sim = Simulator::new(catalog::tpu_v3());
        let mut plan = StepPlan::new("cmem");
        plan.push(
            StepKind::DmaIn {
                from: MemLevel::Cmem,
                bytes: 1024,
            },
            &[],
        );
        assert_eq!(
            sim.run(&plan).unwrap_err(),
            SimError::NoCmem {
                chip: "TPUv3".to_owned()
            }
        );
    }

    #[test]
    fn fp16_rejected_on_tpus_accepted_on_gpu() {
        let mut plan = StepPlan::new("fp16");
        plan.push(
            StepKind::Mxu {
                rows: 128,
                cols: 128,
                inner: 128,
                dtype: DType::Fp16,
                weights_resident: true,
            },
            &[],
        );
        assert!(matches!(
            v4i().run(&plan).unwrap_err(),
            SimError::UnsupportedType { .. }
        ));
        assert!(Simulator::new(catalog::gpu_t4_like()).run(&plan).is_ok());
    }

    #[test]
    fn cmem_reads_beat_hbm_reads() {
        // The E6 mechanism: same bytes, CMEM channel is ~8x faster.
        let sim = v4i();
        let mut via_hbm = StepPlan::new("hbm");
        let mut via_cmem = StepPlan::new("cmem");
        for _ in 0..8 {
            via_hbm.push(dma(1 << 26), &[]);
            via_cmem.push(
                StepKind::DmaIn {
                    from: MemLevel::Cmem,
                    bytes: 1 << 26,
                },
                &[],
            );
        }
        let t_hbm = sim.run(&via_hbm).unwrap().seconds;
        let t_cmem = sim.run(&via_cmem).unwrap().seconds;
        assert!(t_cmem < t_hbm / 4.0, "cmem {t_cmem} vs hbm {t_hbm}");
    }

    #[test]
    fn report_utilizations_are_bounded() {
        let sim = v4i();
        let mut plan = StepPlan::new("mixed");
        let d = plan.push(dma(1 << 20), &[]);
        let m = plan.push(mxu(512), &[d]);
        plan.push(
            StepKind::Vpu {
                elements: 1 << 16,
                ops_per_element: 2,
            },
            &[m],
        );
        let r = sim.run(&plan).unwrap();
        for res in Resource::ALL {
            let u = r.utilization(res);
            assert!((0.0..=1.0 + 1e-9).contains(&u), "{res:?} utilization {u}");
        }
        assert!(r.seconds > 0.0);
        assert_eq!(r.steps, 3);
    }

    /// A small deterministic generator (SplitMix64) for the key-stream
    /// tests.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Times that stress the key packing: zero, the smallest subnormal
    /// and its neighbours, the smallest normal, and ordinary step-sized
    /// values, drawn often enough to tie.
    const TIMES: [f64; 8] = [
        0.0,
        f64::from_bits(1),
        f64::from_bits(2),
        f64::MIN_POSITIVE,
        1e-9,
        1e-9,
        2.5e-6,
        3.0,
    ];

    /// The reference key: time by `total_cmp`, then index.
    #[derive(Debug, Clone, Copy, PartialEq)]
    struct RefKey(f64, u32);

    impl Eq for RefKey {}

    impl PartialOrd for RefKey {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for RefKey {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
        }
    }

    #[test]
    fn keys_order_like_total_cmp_then_index() {
        let times = [
            f64::NEG_INFINITY,
            -3.0,
            -f64::MIN_POSITIVE,
            -f64::from_bits(1),
            -0.0,
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
            1e-9,
            3.0,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ];
        for &a in &times {
            assert_eq!(
                time_of(key(a, 7)).to_bits(),
                a.to_bits(),
                "{a:e} round trip"
            );
            for &b in &times {
                for (i, j) in [(0, 0), (0, 1), (1, 0), (u32::MAX, 0)] {
                    assert_eq!(
                        key(a, i).cmp(&key(b, j)),
                        RefKey(a, i).cmp(&RefKey(b, j)),
                        "({a:e}, {i}) vs ({b:e}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn ready_queue_pops_like_a_heap() {
        let mut rng = Mix(1);
        for round in 0..200 {
            let mut queue = ReadyQueue::with_capacity(0);
            let mut reference = BinaryHeap::new();
            // Mostly ascending times with occasional drops below the
            // last push, interleaved with pops; ids are unique.
            let mut clock = 0.0f64;
            let mut next_id = 0u32;
            let steps = 1 + rng.below(300);
            for _ in 0..steps {
                if rng.below(3) == 0 {
                    let got = queue.pop().map(|k| (time_of(k).to_bits(), k as u32));
                    let want = reference
                        .pop()
                        .map(|Reverse(RefKey(t, id))| (t.to_bits(), id));
                    assert_eq!(got, want, "round {round}");
                    continue;
                }
                let t = match rng.below(8) {
                    0 => TIMES[rng.below(TIMES.len() as u64) as usize],
                    1 => clock / 2.0,
                    _ => {
                        clock += TIMES[rng.below(TIMES.len() as u64) as usize];
                        clock
                    }
                };
                // Ids arrive out of order too, so equal times tie on id.
                let id = next_id ^ (rng.below(4) as u32);
                next_id += 4;
                queue.push(key(t, id));
                reference.push(Reverse(RefKey(t, id)));
            }
            while let Some(Reverse(RefKey(t, id))) = reference.pop() {
                let k = queue.pop().expect("queue drained early");
                assert_eq!((time_of(k).to_bits(), k as u32), (t.to_bits(), id));
            }
            assert_eq!(queue.pop(), None);
        }
    }

    #[test]
    fn pools_pick_the_earliest_free_lowest_unit() {
        let mut rng = Mix(2);
        for units in [1usize, 2, 4, 7, 80] {
            let mut pool = Pool::new(units);
            let mut reference = vec![0.0f64; units];
            for i in 0..4000 {
                let want = (0..units)
                    .min_by(|&a, &b| reference[a].total_cmp(&reference[b]).then(a.cmp(&b)))
                    .unwrap();
                let (unit, free) = pool.earliest_free();
                assert_eq!(
                    (unit, free.to_bits()),
                    (want, reference[want].to_bits()),
                    "{units} units, dispatch {i}"
                );
                // Equal durations make ties; zero and subnormal ones keep
                // a unit at the front.
                let busy = TIMES[rng.below(TIMES.len() as u64) as usize];
                let free_at = free + busy;
                pool.occupy_earliest(free_at);
                reference[want] = free_at;
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let sim = v4i();
        let mut plan = StepPlan::new("det");
        for i in 0..32 {
            let deps: Vec<_> = if i >= 2 {
                vec![crate::plan::StepId(i - 2)]
            } else {
                vec![]
            };
            plan.push(dma(1 << 18), &deps);
            let _ = i;
        }
        let a = sim.run(&plan).unwrap();
        let b = sim.run(&plan).unwrap();
        assert_eq!(a.seconds, b.seconds);
        assert_eq!(a.dynamic_joules, b.dynamic_joules);
    }
}
