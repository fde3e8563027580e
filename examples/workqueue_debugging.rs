//! The paper's running example, end to end: the Figure 2 work queue with
//! its missing `Test&Set`, executed on weakly ordered hardware, produces
//! the stale dequeue of Figure 2b; the analysis of Section 4 narrows the
//! bug hunt to the first partition (Figure 3).
//!
//! ```text
//! cargo run -p wmrd-xtests --example workqueue_debugging
//! ```

use wmrd_core::PostMortem;
use wmrd_progs::catalog;
use wmrd_sim::{run_weak_hw, Fidelity, HwImpl, MemoryModel, RunConfig, WeakScript};
use wmrd_trace::{MultiSink, OpRecorder, ProcId, TraceBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let entry = catalog::work_queue_buggy();
    let lay = catalog::work_queue_layout();
    println!("program: {} — {}", entry.name, entry.description);
    println!(
        "layout: lock={} QEmpty={} Q={} region at {}..{}",
        lay.lock,
        lay.q_empty,
        lay.q,
        lay.region_base,
        lay.region_base + lay.region_len
    );
    println!();

    // Execute on the WO machine with the schedule that reproduces the
    // paper's Figure 2b: P1's write of QEmpty drains before its write of
    // Q, so P2 sees "queue non-empty" but dequeues the stale address.
    let mut sink = MultiSink::new(
        TraceBuilder::new(entry.program.num_procs()),
        OpRecorder::new(entry.program.num_procs()),
    );
    let mut sched = WeakScript::new(catalog::work_queue_weak_script());
    run_weak_hw(
        HwImpl::StoreBuffer,
        &entry.program,
        MemoryModel::Wo,
        Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )?;
    let (builder, recorder) = sink.into_inner();
    let mut trace = builder.finish();
    trace.meta.program = Some(entry.name.into());
    trace.meta.model = Some("WO".into());
    let ops = recorder.finish();

    println!("what P2 observed (operation trace):");
    for op in ops.proc_ops(ProcId::new(1)).into_iter().flatten() {
        println!("  {op}");
    }
    println!();

    // Post-mortem analysis.
    let report = PostMortem::new(&trace).analyze()?;
    println!("{report}");

    println!("how to read this:");
    println!("* the FIRST partition points at the real bug: the unsynchronized");
    println!("  accesses to QEmpty and Q (the missing Test&Set);");
    println!("* the withheld partition is P2 colliding with P3's region — those");
    println!("  races cannot happen in any sequentially consistent execution");
    println!("  (P2 could never have dequeued {}), so reporting them would", lay.stale_addr);
    println!("  mislead the programmer (Section 3.1's second problem);");
    println!("* the SCP boundary marks how far sequential-consistency reasoning");
    println!("  remains valid for other debugging tools.");
    Ok(())
}
