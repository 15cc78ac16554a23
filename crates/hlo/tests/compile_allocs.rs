//! Allocation budget of the compiler: a counting global allocator
//! tallies the heap allocations `compile` makes over the production
//! apps on the inference comparison chips.
//!
//! This is a work-count gate, so it holds on any machine: the count is
//! a pure function of the code, the toolchain and the inputs, unlike a
//! timing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpu_arch::catalog;
use tpu_hlo::{compile, CompilerOptions, Graph};
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

/// Batches of the compile set.
const BATCHES: [u64; 4] = [1, 8, 64, 256];

/// Mean heap allocations allowed per default compile over the set.
///
/// When operand lists, shapes and per-node step lists were heap `Vec`s
/// and the fusion map a `HashMap`, the same set averaged 5,744
/// allocations per compile. The inline and flat representations bring
/// it to about 100, and sizing the step plan before lowering emits it
/// (instead of regrowing it) to about 80. The budget leaves a little
/// headroom for incidental growth, not for a per-node allocation
/// creeping back in.
const MEAN_ALLOCS_BUDGET: f64 = 110.0;

/// Allocations one default compile of `graph` on `chip` makes.
fn compile_allocs(graph: &Graph, chip: &tpu_arch::ChipConfig) -> u64 {
    let options = CompilerOptions::default();
    let before = allocations();
    let exe = compile(graph, chip, &options).expect("production apps compile");
    let after = allocations();
    drop(exe);
    after - before
}

#[test]
fn default_compiles_stay_within_the_allocation_budget() {
    let apps = production_apps();
    let chips = catalog::inference_comparison_set();
    let mut total = 0u64;
    let mut compiles = 0u64;
    for app in &apps {
        for &batch in &BATCHES {
            let graph = app.build(batch).expect("production apps build");
            for chip in &chips {
                let first = compile_allocs(&graph, chip);
                let again = compile_allocs(&graph, chip);
                assert_eq!(
                    first, again,
                    "{} batch {batch} on {}: identical compiles allocate differently",
                    app.spec.name, chip.name
                );
                total += first;
                compiles += 1;
            }
        }
    }
    assert_eq!(compiles, 8 * 4 * BATCHES.len() as u64);
    let mean = total as f64 / compiles as f64;
    assert!(
        mean <= MEAN_ALLOCS_BUDGET,
        "a default compile makes {mean:.1} heap allocations on average, over the budget of {MEAN_ALLOCS_BUDGET}"
    );
}
