//! The paper's Figures 1–3, one test per figure claim. Each runs the
//! experiment of `wmrd-bench` that checks the claim (EXPERIMENTS.md E1–E4
//! and E7) and fails on any of its failed expectations.

use wmrd_bench::assert_holds;

#[test]
fn fig1a_races_under_every_schedule() {
    assert_holds(&["e1"]);
}

#[test]
fn fig1b_race_free_everywhere() {
    assert_holds(&["e2", "e7"]);
}

#[test]
fn fig2_and_fig3_structure() {
    assert_holds(&["e3", "e4"]);
}

#[test]
fn fixed_work_queue_is_race_free() {
    assert_holds(&["e7"]);
}

#[test]
fn theorem_4_1_on_figures() {
    assert_holds(&["e5"]);
}
