//! Property tests for the event-driven engine.

use proptest::prelude::*;

use tpu_arch::{catalog, MemLevel};
use tpu_numerics::DType;
use tpu_sim::plan::{StepId, StepKind, StepPlan};
use tpu_sim::{Resource, Simulator};

fn step_kind() -> impl Strategy<Value = StepKind> {
    prop_oneof![
        (1u64..(1 << 22)).prop_map(|bytes| StepKind::DmaIn {
            from: MemLevel::Hbm,
            bytes
        }),
        (1u64..(1 << 20)).prop_map(|bytes| StepKind::DmaOut {
            to: MemLevel::Hbm,
            bytes
        }),
        (1u64..512, 1u64..512, 1u64..512).prop_map(|(rows, cols, inner)| StepKind::Mxu {
            rows,
            cols,
            inner,
            dtype: DType::Bf16,
            weights_resident: false,
        }),
        (1u64..(1 << 18), 1u64..8).prop_map(|(elements, ops)| StepKind::Vpu {
            elements,
            ops_per_element: ops,
        }),
        (1u64..(1 << 20)).prop_map(|bytes| StepKind::Ici { bytes }),
    ]
}

/// A random plan: each step may depend on up to two earlier steps.
fn random_plan() -> impl Strategy<Value = StepPlan> {
    prop::collection::vec((step_kind(), any::<u32>(), any::<u32>()), 1..48).prop_map(|steps| {
        let mut plan = StepPlan::new("prop");
        for (i, (kind, d1, d2)) in steps.into_iter().enumerate() {
            let mut deps = Vec::new();
            if i > 0 {
                deps.push(StepId((d1 as usize % i) as u32));
                let second = (d2 as usize) % i;
                if !deps.contains(&StepId(second as u32)) {
                    deps.push(StepId(second as u32));
                }
            }
            plan.push(kind, &deps);
        }
        plan
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The makespan is bounded below by every single step's duration and
    /// above by the sum of all durations (greedy scheduling never
    /// inflates past full serialization).
    #[test]
    fn makespan_bounds(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let machine = sim.machine().clone();
        let report = sim.run(&plan).unwrap();
        let durations: Vec<f64> = plan
            .steps()
            .iter()
            .map(|s| machine.step_cost(&s.kind).unit_seconds)
            .collect();
        let max = durations.iter().cloned().fold(0.0f64, f64::max);
        let sum: f64 = durations.iter().sum();
        prop_assert!(report.seconds >= max * 0.999, "{} < {max}", report.seconds);
        prop_assert!(report.seconds <= sum * 1.001, "{} > {sum}", report.seconds);
    }

    /// Utilization never exceeds 1 on any resource, and traffic counters
    /// match the plan exactly.
    #[test]
    fn utilization_and_traffic(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let report = sim.run(&plan).unwrap();
        for r in Resource::ALL {
            let u = report.utilization(r);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "{r}: {u}");
        }
        let (hbm, cmem) = plan.channel_traffic();
        prop_assert_eq!(report.hbm_bytes, hbm);
        prop_assert_eq!(report.cmem_bytes, cmem);
        prop_assert_eq!(report.flops, plan.total_flops());
    }

    /// Traced runs match untraced runs, cover every step, and never
    /// overlap two steps on one unit.
    #[test]
    fn traces_are_consistent(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let plain = sim.run(&plan).unwrap();
        let (traced_report, trace) = sim.run_traced(&plan).unwrap();
        prop_assert_eq!(plain, traced_report);
        prop_assert_eq!(trace.entries.len(), plan.len());
        prop_assert_eq!(trace.find_overlap(), None);
        // Every step's dependencies finish before it starts.
        for e in &trace.entries {
            for dep in plan.deps(e.step) {
                let dep_end = trace
                    .entries
                    .iter()
                    .find(|x| x.step == *dep)
                    .map(|x| x.end)
                    .unwrap();
                prop_assert!(dep_end <= e.start + 1e-12);
            }
        }
        // The Gantt renders without panicking.
        let g = trace.render_gantt(60);
        prop_assert!(!g.is_empty());
    }

    /// The engine is deterministic.
    #[test]
    fn engine_is_deterministic(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let a = sim.run(&plan).unwrap();
        let b = sim.run(&plan).unwrap();
        prop_assert_eq!(a, b);
    }

    /// Adding a dependency never makes a plan finish earlier.
    #[test]
    fn extra_dependencies_never_speed_up(plan in random_plan()) {
        prop_assume!(plan.len() >= 2);
        let sim = Simulator::new(catalog::tpu_v4i());
        let base = sim.run(&plan).unwrap().seconds;
        // Rebuild with a full serialization chain added.
        let mut chained = StepPlan::new("chained");
        for (i, s) in plan.steps().iter().enumerate() {
            let mut deps = plan.deps(s.id).to_vec();
            if i > 0 {
                let prev = StepId((i - 1) as u32);
                if !deps.contains(&prev) {
                    deps.push(prev);
                }
            }
            chained.push(s.kind, &deps);
        }
        let serial = sim.run(&chained).unwrap().seconds;
        prop_assert!(serial >= base * 0.999, "serial {serial} < base {base}");
    }

    /// Energy is additive: energy of a plan equals the sum of the
    /// energies of its steps run alone (static power aside).
    #[test]
    fn dynamic_energy_is_additive(plan in random_plan()) {
        let sim = Simulator::new(catalog::tpu_v4i());
        let whole = sim.run(&plan).unwrap().dynamic_joules;
        let mut parts = 0.0f64;
        for s in plan.steps() {
            let mut single = StepPlan::new("one");
            single.push(s.kind, &[]);
            parts += sim.run(&single).unwrap().dynamic_joules;
        }
        prop_assert!((whole - parts).abs() <= 1e-9 * parts.max(1.0));
    }
}

/// One dispatched step of the reference schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RefEntry {
    step: StepId,
    resource: Resource,
    unit: usize,
    start: f64,
    end: f64,
}

/// Everything observable about a [`tpu_sim::SimReport`], as exact bits.
#[derive(Debug, PartialEq)]
struct Observed {
    plan: String,
    chip: String,
    seconds: u64,
    dynamic_joules: u64,
    static_joules: u64,
    energy_joules: u64,
    flops: u64,
    hbm_bytes: u64,
    cmem_bytes: u64,
    steps: usize,
    busy: Vec<u64>,
    energy_by: Vec<u64>,
    utilization: Vec<u64>,
}

impl Observed {
    fn of(r: &tpu_sim::SimReport) -> Observed {
        let per =
            |f: &dyn Fn(Resource) -> f64| Resource::ALL.iter().map(|&x| f(x).to_bits()).collect();
        Observed {
            plan: r.plan.clone(),
            chip: r.chip.clone(),
            seconds: r.seconds.to_bits(),
            dynamic_joules: r.dynamic_joules.to_bits(),
            static_joules: r.static_joules.to_bits(),
            energy_joules: r.energy_joules.to_bits(),
            flops: r.flops,
            hbm_bytes: r.hbm_bytes,
            cmem_bytes: r.cmem_bytes,
            steps: r.steps,
            busy: per(&|x| r.busy_seconds(x)),
            energy_by: per(&|x| r.energy_of(x)),
            utilization: per(&|x| r.utilization(x)),
        }
    }
}

fn resource_of(kind: &StepKind) -> Resource {
    match kind {
        StepKind::Mxu { .. } => Resource::Mxu,
        StepKind::Vpu { .. } => Resource::Vpu,
        StepKind::DmaIn { .. } | StepKind::DmaOut { .. } => Resource::Dma,
        StepKind::Ici { .. } => Resource::Ici,
    }
}

/// A naive O(n²) list scheduler stating the engine's order contract
/// directly: every dispatch picks, by linear scan, the ready step with
/// the lowest `(ready time by total_cmp, step id)`, then the
/// earliest-free unit of its pool (lowest index on ties); HBM and CMEM
/// are one serialized channel each. Per-step calibrated energies come
/// from one-step runs, which add exactly one product to a zero sum.
fn reference_run(sim: &Simulator, plan: &StepPlan) -> (Observed, Vec<RefEntry>) {
    let machine = sim.machine();
    let n = plan.len();
    let (mxu_n, vpu_n, dma_n, ici_n) = machine.pool_sizes();
    let mut pools: Vec<Vec<f64>> = [mxu_n, vpu_n, dma_n, ici_n]
        .iter()
        .map(|&k| vec![0.0; k.max(1)])
        .collect();
    let (mut hbm_free, mut cmem_free) = (0.0f64, 0.0f64);
    let mut finish: Vec<Option<f64>> = vec![None; n];
    let mut busy = [0.0f64; 6];
    let mut energy_by = [0.0f64; 6];
    let (mut dynamic, mut makespan) = (0.0f64, 0.0f64);
    let (mut flops, mut hbm_bytes, mut cmem_bytes) = (0u64, 0u64, 0u64);
    let mut entries = Vec::with_capacity(n);
    let slot = |r: Resource| Resource::ALL.iter().position(|&x| x == r).unwrap();

    for _ in 0..n {
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in plan.steps().iter().enumerate() {
            if finish[i].is_some() {
                continue;
            }
            let mut ready_t = 0.0f64;
            let mut ready = true;
            for d in plan.deps(s.id) {
                match finish[d.index()] {
                    Some(t) => ready_t = ready_t.max(t),
                    None => ready = false,
                }
            }
            let better = match best {
                None => true,
                Some((bt, bi)) => ready_t.total_cmp(&bt).then(i.cmp(&bi)).is_lt(),
            };
            if ready && better {
                best = Some((ready_t, i));
            }
        }
        let (ready_t, idx) = best.expect("an acyclic plan always has a ready step");
        let kind = plan.steps()[idx].kind;
        let cost = machine.step_cost(&kind);
        let resource = resource_of(&kind);
        let pool = &mut pools[slot(resource)];
        let mut unit = 0;
        for (u, &t) in pool.iter().enumerate() {
            if t < pool[unit] {
                unit = u;
            }
        }
        let channel = machine.channel_of(&kind);
        let chan_free = match channel {
            Some(MemLevel::Hbm) => hbm_free,
            Some(MemLevel::Cmem) => cmem_free,
            _ => 0.0,
        };
        let start = ready_t.max(pool[unit]).max(chan_free);
        let end = start + cost.unit_seconds;
        pool[unit] = end;
        busy[slot(resource)] += cost.unit_seconds;
        match channel {
            Some(MemLevel::Hbm) => {
                hbm_free = start + cost.channel_seconds;
                busy[slot(Resource::HbmChannel)] += cost.channel_seconds;
            }
            Some(MemLevel::Cmem) => {
                cmem_free = start + cost.channel_seconds;
                busy[slot(Resource::CmemChannel)] += cost.channel_seconds;
            }
            _ => {}
        }
        let mut single = StepPlan::new("one");
        single.push(kind, &[]);
        let scaled = sim.run(&single).unwrap().dynamic_joules;
        dynamic += scaled;
        energy_by[slot(resource)] += scaled;
        flops += kind.flops();
        match kind.channel_bytes() {
            Some((MemLevel::Hbm, b)) => hbm_bytes += b,
            Some((MemLevel::Cmem, b)) => cmem_bytes += b,
            _ => {}
        }
        finish[idx] = Some(end);
        makespan = makespan.max(end);
        entries.push(RefEntry {
            step: StepId(idx as u32),
            resource,
            unit,
            start,
            end,
        });
    }

    let static_joules = machine.static_watts() * makespan;
    let pool_of = |r: Resource| match r {
        Resource::Mxu => mxu_n,
        Resource::Vpu => vpu_n,
        Resource::Dma => dma_n,
        Resource::Ici => ici_n,
        _ => 1,
    };
    let utilization = Resource::ALL
        .iter()
        .map(|&r| {
            if makespan <= 0.0 {
                0.0f64.to_bits()
            } else {
                (busy[slot(r)] / (makespan * pool_of(r) as f64)).to_bits()
            }
        })
        .collect();
    let observed = Observed {
        plan: plan.name().to_owned(),
        chip: machine.chip().name.clone(),
        seconds: makespan.to_bits(),
        dynamic_joules: dynamic.to_bits(),
        static_joules: static_joules.to_bits(),
        energy_joules: (dynamic + static_joules).to_bits(),
        flops,
        hbm_bytes,
        cmem_bytes,
        steps: n,
        busy: busy.iter().map(|b| b.to_bits()).collect(),
        energy_by: energy_by.iter().map(|e| e.to_bits()).collect(),
        utilization,
    };
    (observed, entries)
}

/// A plan built from a small palette of identical steps, so ready and
/// free times tie often; `root_pct` percent of the steps have no
/// dependencies, and zero-length VPU steps make dependents ready at
/// time 0, level with the roots.
fn tie_heavy_plan() -> impl Strategy<Value = StepPlan> {
    (
        0u32..101,
        prop::collection::vec(
            (0usize..6, any::<u32>(), any::<u32>(), any::<u32>()),
            1..220,
        ),
    )
        .prop_map(|(root_pct, steps)| {
            let palette = [
                StepKind::Mxu {
                    rows: 128,
                    cols: 128,
                    inner: 128,
                    dtype: DType::Bf16,
                    weights_resident: false,
                },
                StepKind::Mxu {
                    rows: 8,
                    cols: 256,
                    inner: 128,
                    dtype: DType::Bf16,
                    weights_resident: true,
                },
                StepKind::DmaIn {
                    from: MemLevel::Hbm,
                    bytes: 1 << 16,
                },
                StepKind::Vpu {
                    elements: 4096,
                    ops_per_element: 1,
                },
                StepKind::Vpu {
                    elements: 0,
                    ops_per_element: 1,
                },
                StepKind::Ici { bytes: 4096 },
            ];
            let mut plan = StepPlan::new("ties");
            for (i, (k, root, d1, d2)) in steps.into_iter().enumerate() {
                let mut deps = Vec::new();
                if i > 0 && root % 100 >= root_pct {
                    deps.push(StepId(d1 % i as u32));
                    let second = StepId(d2 % i as u32);
                    if !deps.contains(&second) {
                        deps.push(second);
                    }
                }
                plan.push(palette[k], &deps);
            }
            plan
        })
}

/// A plan shaped like GPU lowering: layers of column chunks, each a
/// root weight DMA feeding an MXU chunk that also waits on the previous
/// layer's outputs, with more chunks per layer than the MXU pool has
/// units (`min_chunks` up) and one cost for every DMA and every MXU
/// chunk, so free and ready times tie across the pool. A layer's value
/// is its chunks, or one fused VPU tail over them; an output DMA closes
/// the plan.
fn gpu_like_plan(min_chunks: u32) -> impl Strategy<Value = StepPlan> {
    prop::collection::vec((min_chunks..min_chunks + 40, any::<bool>()), 1..4).prop_map(|layers| {
        let mut plan = StepPlan::new("gpu-like");
        let mut value: Vec<StepId> = Vec::new();
        let mut deps = Vec::new();
        for (chunks, fused) in layers {
            let mut outs = Vec::new();
            for _ in 0..chunks {
                let weights = plan.push_tagged(
                    StepKind::DmaIn {
                        from: MemLevel::Hbm,
                        bytes: 1 << 14,
                    },
                    &[],
                    "weights",
                );
                deps.clear();
                deps.push(weights);
                deps.extend_from_slice(&value);
                outs.push(plan.push_tagged(
                    StepKind::Mxu {
                        rows: 8,
                        cols: 128,
                        inner: 512,
                        dtype: DType::Bf16,
                        weights_resident: false,
                    },
                    &deps,
                    "dot",
                ));
            }
            value = if fused {
                vec![plan.push_tagged(
                    StepKind::Vpu {
                        elements: 1 << 12,
                        ops_per_element: 1,
                    },
                    &outs,
                    "fused",
                )]
            } else {
                outs
            };
        }
        plan.push_tagged(
            StepKind::DmaOut {
                to: MemLevel::Hbm,
                bytes: 1 << 12,
            },
            &value,
            "output",
        );
        plan
    })
}

/// Checks `Simulator::run` and `run_traced` against [`reference_run`].
fn matches_reference(chip: tpu_arch::ChipConfig, plan: &StepPlan) -> Result<(), TestCaseError> {
    let sim = Simulator::new(chip);
    let (expected, schedule) = reference_run(&sim, plan);
    let report = sim.run(plan).unwrap();
    prop_assert_eq!(Observed::of(&report), expected);
    let (traced_report, trace) = sim.run_traced(plan).unwrap();
    prop_assert_eq!(traced_report, report);
    let got: Vec<RefEntry> = trace
        .entries
        .iter()
        .map(|e| RefEntry {
            step: e.step,
            resource: e.resource,
            unit: e.unit,
            start: e.start,
            end: e.end,
        })
        .collect();
    prop_assert_eq!(got, schedule);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine's schedule and report equal the naive reference
    /// scheduler's, bit for bit, on TPUv4i (4 MXUs).
    #[test]
    fn engine_matches_reference_scheduler_v4i(plan in random_plan(), ties in tie_heavy_plan()) {
        matches_reference(catalog::tpu_v4i(), &plan)?;
        matches_reference(catalog::tpu_v4i(), &ties)?;
    }

    /// The same on GPU-T4 (80 MXUs, 40 VPUs), where wide pools make
    /// earliest-free ties across many idle units the common case.
    #[test]
    fn engine_matches_reference_scheduler_t4(plan in random_plan(), ties in tie_heavy_plan()) {
        matches_reference(catalog::gpu_t4_like(), &plan)?;
        matches_reference(catalog::gpu_t4_like(), &ties)?;
    }

    /// GPU-lowering-shaped plans against the reference, on GPU-T4 (80
    /// MXUs) and TPUv4i (4 MXUs), in both `run` and `run_traced`.
    #[test]
    fn engine_matches_reference_scheduler_on_gpu_like_plans(t4 in gpu_like_plan(81), v4i in gpu_like_plan(5)) {
        matches_reference(catalog::gpu_t4_like(), &t4)?;
        matches_reference(catalog::tpu_v4i(), &v4i)?;
    }
}
