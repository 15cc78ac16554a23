//! Step plans: the tile-level schedules the compiler hands the simulator.

use std::fmt;

use tpu_arch::MemLevel;
use tpu_numerics::DType;

/// Identifier of a step within one plan.
///
/// The raw index is public so callers can reference earlier steps when
/// assembling plans by hand; [`StepPlan::push`] still rejects forward
/// references, so invalid ids cannot enter a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StepId(pub u32);

impl StepId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for StepId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// What one step does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepKind {
    /// Asynchronous copy from `from` into VMEM.
    DmaIn {
        /// Source memory level.
        from: MemLevel,
        /// Bytes transferred.
        bytes: u64,
    },
    /// Asynchronous copy from VMEM out to `to`.
    DmaOut {
        /// Destination memory level.
        to: MemLevel,
        /// Bytes transferred.
        bytes: u64,
    },
    /// A matrix-multiply tile group on one MXU: `rows x inner @ inner x
    /// cols`, tiled over the systolic array.
    Mxu {
        /// Activation rows streamed.
        rows: u64,
        /// Output columns.
        cols: u64,
        /// Contraction dimension.
        inner: u64,
        /// Multiply precision (int8 runs at 2x on chips that support it).
        dtype: DType,
        /// Whether weights are already loaded into the array (true in the
        /// steady state of a weight-stationary schedule).
        weights_resident: bool,
    },
    /// Elementwise / reduction work on a VPU.
    Vpu {
        /// Elements processed.
        elements: u64,
        /// Vector-ops per element (1 for add/relu, ~6-10 for
        /// transcendentals; see `tpu_numerics::activation`).
        ops_per_element: u64,
    },
    /// Inter-chip transfer over one ICI link.
    Ici {
        /// Bytes transferred.
        bytes: u64,
    },
}

impl StepKind {
    /// Floating-point (or int-op) work this step performs.
    pub fn flops(&self) -> u64 {
        match *self {
            StepKind::Mxu {
                rows, cols, inner, ..
            } => 2 * rows * cols * inner,
            StepKind::Vpu {
                elements,
                ops_per_element,
            } => elements * ops_per_element,
            _ => 0,
        }
    }

    /// Bytes this step moves on the named off-VMEM channel, if any.
    pub fn channel_bytes(&self) -> Option<(MemLevel, u64)> {
        match *self {
            StepKind::DmaIn { from, bytes } => Some((from, bytes)),
            StepKind::DmaOut { to, bytes } => Some((to, bytes)),
            _ => None,
        }
    }
}

/// One node of the plan DAG. Its dependencies live in the owning plan
/// (see [`StepPlan::deps`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    /// This step's id.
    pub id: StepId,
    /// What it does.
    pub kind: StepKind,
    /// Optional human-readable tag (the HLO op it came from).
    pub tag: &'static str,
}

/// A dependency-ordered plan of steps.
///
/// Construction enforces acyclicity structurally: a step may only depend
/// on already-pushed steps, so ids form a topological order.
///
/// Dependencies are stored flat (compressed sparse rows): every step's
/// dependency ids are concatenated in id order into one array, and
/// `deps_end[i]` marks one past the end of step `i`'s run. Building a
/// plan therefore allocates nothing per step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepPlan {
    name: String,
    steps: Vec<Step>,
    deps: Vec<StepId>,
    deps_end: Vec<u32>,
}

impl StepPlan {
    /// Creates an empty plan.
    pub fn new(name: &str) -> StepPlan {
        StepPlan {
            name: name.to_owned(),
            ..StepPlan::default()
        }
    }

    /// Reserves room for `steps` more steps with `deps` more dependency
    /// edges in total, so pushing them does not regrow the plan.
    pub fn reserve(&mut self, steps: usize, deps: usize) {
        self.steps.reserve(steps);
        self.deps_end.reserve(steps);
        self.deps.reserve(deps);
    }

    /// The plan's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a step depending on `deps`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if any dependency id has not been pushed yet (which would
    /// create a cycle or a dangling edge).
    pub fn push(&mut self, kind: StepKind, deps: &[StepId]) -> StepId {
        self.push_tagged(kind, deps, "")
    }

    /// Like [`StepPlan::push`] with a human-readable tag.
    ///
    /// # Panics
    ///
    /// Panics if any dependency id has not been pushed yet.
    pub fn push_tagged(&mut self, kind: StepKind, deps: &[StepId], tag: &'static str) -> StepId {
        let id = StepId(self.steps.len() as u32);
        for d in deps {
            assert!(d.0 < id.0, "dependency {d} of step {id} does not exist yet");
        }
        self.deps.extend_from_slice(deps);
        self.seal(Step { id, kind, tag });
        id
    }

    /// Appends `step`, closing its dependency run at the current end of
    /// the shared array.
    fn seal(&mut self, step: Step) {
        let end = u32::try_from(self.deps.len()).expect("plan has more than 2^32 dependency edges");
        self.deps_end.push(end);
        self.steps.push(step);
    }

    /// The steps in id (topological) order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// The steps `id` must wait for (all earlier ids), in push order.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a step of this plan.
    pub fn deps(&self, id: StepId) -> &[StepId] {
        let i = id.index();
        let start = i.checked_sub(1).map_or(0, |p| self.deps_end[p] as usize);
        &self.deps[start..self.deps_end[i] as usize]
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total MXU+VPU work in the plan.
    pub fn total_flops(&self) -> u64 {
        self.steps.iter().map(|s| s.kind.flops()).sum()
    }

    /// Total bytes moved per memory channel `(hbm, cmem)`.
    pub fn channel_traffic(&self) -> (u64, u64) {
        let mut hbm = 0;
        let mut cmem = 0;
        for s in &self.steps {
            if let Some((level, bytes)) = s.kind.channel_bytes() {
                match level {
                    MemLevel::Hbm => hbm += bytes,
                    MemLevel::Cmem => cmem += bytes,
                    _ => {}
                }
            }
        }
        (hbm, cmem)
    }

    /// Appends every step of `other`, shifting its ids after ours and
    /// making its roots depend on `barrier` (if given). Returns the id
    /// mapping offset.
    pub fn append(&mut self, other: &StepPlan, barrier: Option<StepId>) -> u32 {
        let offset = self.steps.len() as u32;
        for s in &other.steps {
            let deps = other.deps(s.id);
            // Rebased ids stay below the new id, so acyclicity holds.
            self.deps.extend(deps.iter().map(|d| StepId(d.0 + offset)));
            if let (Some(b), true) = (barrier, deps.is_empty()) {
                self.deps.push(b);
            }
            self.seal(Step {
                id: StepId(s.id.0 + offset),
                ..*s
            });
        }
        offset
    }

    /// The operational intensity of the plan against HBM, FLOP/byte
    /// (infinite if the plan never touches HBM).
    pub fn hbm_intensity(&self) -> f64 {
        let (hbm, _) = self.channel_traffic();
        if hbm == 0 {
            f64::INFINITY
        } else {
            self.total_flops() as f64 / hbm as f64
        }
    }
}

impl fmt::Display for StepPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan `{}`: {} steps, {:.2e} flops",
            self.name,
            self.len(),
            self.total_flops() as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_returns_sequential_ids() {
        let mut p = StepPlan::new("t");
        let a = p.push(StepKind::Ici { bytes: 1 }, &[]);
        let b = p.push(StepKind::Ici { bytes: 2 }, &[a]);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(p.deps(b), &[a]);
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_dependency_panics() {
        let mut p = StepPlan::new("t");
        p.push(StepKind::Ici { bytes: 1 }, &[StepId(5)]);
    }

    #[test]
    fn flops_accounting() {
        let k = StepKind::Mxu {
            rows: 4,
            cols: 8,
            inner: 16,
            dtype: DType::Bf16,
            weights_resident: true,
        };
        assert_eq!(k.flops(), 2 * 4 * 8 * 16);
        assert_eq!(
            StepKind::Vpu {
                elements: 100,
                ops_per_element: 3
            }
            .flops(),
            300
        );
        assert_eq!(StepKind::Ici { bytes: 9 }.flops(), 0);
    }

    #[test]
    fn channel_traffic_splits_levels() {
        let mut p = StepPlan::new("t");
        p.push(
            StepKind::DmaIn {
                from: MemLevel::Hbm,
                bytes: 100,
            },
            &[],
        );
        p.push(
            StepKind::DmaIn {
                from: MemLevel::Cmem,
                bytes: 40,
            },
            &[],
        );
        p.push(
            StepKind::DmaOut {
                to: MemLevel::Hbm,
                bytes: 10,
            },
            &[],
        );
        assert_eq!(p.channel_traffic(), (110, 40));
    }

    #[test]
    fn intensity_is_flops_over_hbm_bytes() {
        let mut p = StepPlan::new("t");
        p.push(
            StepKind::DmaIn {
                from: MemLevel::Hbm,
                bytes: 1000,
            },
            &[],
        );
        p.push(
            StepKind::Mxu {
                rows: 10,
                cols: 10,
                inner: 10,
                dtype: DType::Bf16,
                weights_resident: true,
            },
            &[],
        );
        assert!((p.hbm_intensity() - 2.0).abs() < 1e-12);
        let empty = StepPlan::new("e");
        assert!(empty.hbm_intensity().is_infinite());
    }

    #[test]
    fn append_rebases_ids_and_adds_barrier() {
        let mut a = StepPlan::new("a");
        let a0 = a.push(StepKind::Ici { bytes: 1 }, &[]);
        let mut b = StepPlan::new("b");
        let b0 = b.push(StepKind::Ici { bytes: 2 }, &[]);
        b.push(StepKind::Ici { bytes: 3 }, &[b0]);
        let offset = a.append(&b, Some(a0));
        assert_eq!(offset, 1);
        assert_eq!(a.len(), 3);
        // b's root now depends on the barrier...
        assert_eq!(a.deps(StepId(1)), &[a0]);
        // ...and b's internal edge is rebased.
        assert_eq!(a.deps(StepId(2)), &[StepId(1)]);
    }

    #[test]
    #[should_panic]
    fn deps_of_a_missing_step_panics() {
        StepPlan::new("empty").deps(StepId(0));
    }

    #[test]
    fn deps_of_step_zero_is_empty() {
        let mut p = StepPlan::new("t");
        let a = p.push(StepKind::Ici { bytes: 1 }, &[]);
        assert!(p.deps(a).is_empty());
        let b = p.push(StepKind::Ici { bytes: 2 }, &[a]);
        // A later push leaves step 0's run untouched.
        assert!(p.deps(a).is_empty());
        assert_eq!(p.deps(b), &[a]);
    }

    #[test]
    fn deps_keep_push_order_and_duplicates() {
        let mut p = StepPlan::new("t");
        let a = p.push(StepKind::Ici { bytes: 1 }, &[]);
        let b = p.push(StepKind::Ici { bytes: 2 }, &[]);
        let c = p.push(StepKind::Ici { bytes: 3 }, &[b, a, b]);
        let d = p.push(StepKind::Ici { bytes: 4 }, &[]);
        assert_eq!(p.deps(c), &[b, a, b]);
        assert!(p.deps(d).is_empty());
    }

    #[test]
    fn append_without_barrier_keeps_roots_free() {
        let mut a = StepPlan::new("a");
        a.push(StepKind::Ici { bytes: 1 }, &[]);
        let mut b = StepPlan::new("b");
        let b0 = b.push(StepKind::Ici { bytes: 2 }, &[]);
        let b1 = b.push(StepKind::Ici { bytes: 3 }, &[b0]);
        b.push(StepKind::Ici { bytes: 4 }, &[b0, b1]);
        assert_eq!(a.append(&b, None), 1);
        assert_eq!(a.len(), 4);
        assert!(a.deps(StepId(1)).is_empty());
        assert_eq!(a.deps(StepId(2)), &[StepId(1)]);
        assert_eq!(a.deps(StepId(3)), &[StepId(1), StepId(2)]);
        assert_eq!(a.steps()[3].id, StepId(3));
    }

    #[test]
    fn append_onto_an_empty_plan_copies_it() {
        let mut b = StepPlan::new("b");
        let b0 = b.push_tagged(StepKind::Ici { bytes: 2 }, &[], "x");
        b.push_tagged(StepKind::Ici { bytes: 3 }, &[b0], "y");
        let mut a = StepPlan::new("b");
        assert_eq!(a.append(&b, None), 0);
        assert_eq!(a, b);
    }

    #[test]
    fn display_mentions_name() {
        assert!(format!("{}", StepPlan::new("myplan")).contains("myplan"));
    }
}
