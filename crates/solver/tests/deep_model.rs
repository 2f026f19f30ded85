//! The search keeps its open nodes on the heap, so model size does not set
//! a stack requirement: a 100 000-variable dive runs on a 256 KiB thread,
//! where one recursion frame per variable needed a thread sized to the
//! model. (CI greps `crates/` for thread stack sizing; this file is the
//! one exemption.)

// Test harness: the deep dive runs on a deliberately small stack (clippy.toml bans these in library code).
#![allow(clippy::disallowed_methods)]

use cornet_model::ModelBuilder;
use cornet_solver::{solve, Outcome, SolverConfig};

#[test]
fn hundred_thousand_variables_dive_on_a_256_kib_stack() {
    let n = 100_000;
    let mut b = ModelBuilder::new("deep", 50);
    let vars = b.slot_vars("X", n);
    b.capacity("concurrency", vars.clone(), vec![1; n], 2_500);
    b.completion_objective(&vars, &vec![1; n], 100);
    let model = b.build();
    let result = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || solve(&model, &SolverConfig::default()))
        .expect("spawn the small-stack thread")
        .join()
        .expect("the search must not overflow the stack");
    assert_eq!(result.stats.nodes, n as u64 + 1, "one node per variable");
    assert_eq!(result.outcome, Outcome::Optimal, "the dive meets the bound");
    // 40 slots filled to capacity, cheapest first.
    assert_eq!(result.solution().cost, 2_500 * (1..=40).sum::<i64>());
}
