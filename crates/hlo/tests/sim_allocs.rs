//! Allocation count of the simulator: a counting global allocator
//! tallies the heap allocations one `Simulator::run` makes over the
//! plans the production apps compile to on the inference comparison
//! chips.
//!
//! Like `compile_allocs.rs` this is a work-count gate, so it holds on any
//! machine. A run sizes every array from the plan up front, so its count
//! is the same small constant for every plan, however many steps it has.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpu_arch::catalog;
use tpu_hlo::{compile, CompilerOptions};
use tpu_sim::Simulator;
use tpu_workloads::production_apps;

/// Counts allocations (including reallocations) made on this thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread local with no destructor, so touching it
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Batches of the plan set.
const BATCHES: [u64; 4] = [1, 8, 64, 256];

/// Allocations allowed per run.
///
/// A run allocates its dependency counters, the dependents array and
/// its offsets, the ready times, the two halves of the ready queue, four
/// unit pools and the report's two names: 12. When the ready queue was
/// a binary heap grown by pushes, the same set took 11 to 22 per run,
/// more on longer plans.
const ALLOCS_PER_RUN: u64 = 12;

/// Allocations one untraced run of `plan` makes.
fn run_allocs(sim: &Simulator, plan: &tpu_sim::StepPlan) -> u64 {
    let before = allocations();
    let report = sim.run(plan).expect("production plans simulate");
    let after = allocations();
    drop(report);
    after - before
}

#[test]
fn simulator_runs_allocate_a_constant_independent_of_plan_length() {
    let apps = production_apps();
    let chips = catalog::inference_comparison_set();
    let options = CompilerOptions::default();
    let mut runs = 0;
    let mut longest = 0;
    for chip in &chips {
        let sim = Simulator::new(chip.clone());
        for app in &apps {
            for &batch in &BATCHES {
                let graph = app.build(batch).expect("production apps build");
                let exe = compile(&graph, chip, &options).expect("production apps compile");
                let first = run_allocs(&sim, exe.plan());
                let again = run_allocs(&sim, exe.plan());
                assert_eq!(
                    first, again,
                    "{} batch {batch} on {}: identical runs allocate differently",
                    app.spec.name, chip.name
                );
                assert_eq!(
                    first,
                    ALLOCS_PER_RUN,
                    "{} batch {batch} on {} ({} steps)",
                    app.spec.name,
                    chip.name,
                    exe.plan().len()
                );
                longest = longest.max(exe.plan().len());
                runs += 1;
            }
        }
    }
    assert_eq!(runs, 8 * chips.len() * BATCHES.len());
    // The set spans plans from a few hundred steps to tens of thousands.
    assert!(longest > 10_000, "longest plan has {longest} steps");
}
