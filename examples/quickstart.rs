//! Quickstart: write a small multiprocessor program, run it, and detect
//! its data races post-mortem.
//!
//! ```text
//! cargo run -p wmrd-xtests --example quickstart
//! ```

use wmrd_core::PostMortem;
use wmrd_progs::ProcBuilder;
use wmrd_sim::{run_sc, Program, RandomWeakSched, Reg, RunConfig};
use wmrd_trace::{Location, TraceBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A shared flag and a data word. The producer writes the data and
    // then sets the flag with an ordinary store — a bug: nothing orders
    // the consumer's reads with the producer's writes.
    let data = Location::new(0);
    let flag = Location::new(1);

    let mut program = Program::new("quickstart", 2);

    let mut producer = ProcBuilder::new();
    producer
        .st(42, data) // write the payload
        .st(1, flag) // ...and the flag, as a *data* store (bug!)
        .halt();
    program.push_proc(producer.assemble()?);

    let mut consumer = ProcBuilder::new();
    consumer
        .label("spin")
        .ld(Reg::new(0), flag) // poll the flag with a data load
        .bz(Reg::new(0), "spin")
        .ld(Reg::new(1), data) // then read the payload
        .halt();
    program.push_proc(consumer.assemble()?);

    // Run on the sequentially consistent reference machine, recording an
    // event-level trace through the instrumentation hook.
    let mut sink = TraceBuilder::new(program.num_procs());
    let outcome =
        run_sc(&program, &mut RandomWeakSched::new(7, 0.0), &mut sink, RunConfig::default())?;
    println!("run complete: {} steps, {} cycles", outcome.steps, outcome.total_cycles());

    // Post-mortem analysis: happens-before-1 graph, races, partitions.
    let trace = sink.finish();
    let report = PostMortem::new(&trace).analyze()?;
    println!("{report}");

    if report.is_race_free() {
        println!("no data races: the execution was sequentially consistent.");
    } else {
        println!(
            "reported {} race(s) from {} first partition(s) — fix: use st.rel/ld.acq \
             (or Unset/Test&Set) for the flag.",
            report.reported_races().len(),
            report.first_partitions().count()
        );
    }
    Ok(())
}
