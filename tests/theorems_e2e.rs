//! Condition 3.4 and Theorems 3.5, 4.1 and 4.2, one test per claim. Each
//! runs the experiment of `wmrd-bench` that checks the claim over the
//! catalog, the weak models, the backends and random programs
//! (EXPERIMENTS.md E5–E7 and A2) and fails on any of its failed
//! expectations.

use wmrd_bench::assert_holds;

#[test]
fn condition_3_4_holds_across_catalog_and_models() {
    assert_holds(&["e7"]);
}

#[test]
fn drf_programs_appear_sequentially_consistent_on_weak_hardware() {
    assert_holds(&["e7"]);
}

#[test]
fn raw_hardware_breaks_the_guarantee() {
    assert_holds(&["a2"]);
}

#[test]
fn theorem_4_1_over_random_programs() {
    assert_holds(&["e5"]);
}

#[test]
fn theorem_4_2_with_exhaustive_oracle() {
    assert_holds(&["e6"]);
}

#[test]
fn all_sync_pairing_is_monotone() {
    assert_holds(&["e5"]);
}
