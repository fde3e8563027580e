//! The simulator pinned end to end.
//!
//! `sim_matrix_matches_golden` runs every catalog entry plus four
//! generated racy programs, two scheduler seeds each, on the SC runner
//! and on every weak backend × memory model × fidelity, and records one
//! line per run: either the error, or the step count, per-processor
//! cycles, final memory, `SimStats`, and CRC-32s of the v2 trace bytes
//! and of the operation trace's JSON. The table is the golden
//! `tests/data/sim/matrix.txt` (regenerate with
//! `WMRD_REGOLD=1 cargo test -p wmrd-xtests --test sim`), so any change
//! to what a backend executes, counts or records shows up as a diff.

use wmrd_progs::{catalog, generate};
use wmrd_sim::{
    run_sc, run_weak_hw, Addr, Fidelity, HwImpl, Instr, MemoryModel, Program, RandomSched,
    RandomWeakSched, Reg, RunConfig, RunOutcome, SimError, SimStats,
};
use wmrd_trace::{crc32, Location, MultiSink, OpRecorder, ToJson, TraceBuilder};

type Sink = MultiSink<TraceBuilder, OpRecorder>;

fn sink(program: &Program) -> Sink {
    MultiSink::new(TraceBuilder::new(program.num_procs()), OpRecorder::new(program.num_procs()))
}

fn stats_fields(s: &SimStats) -> [u64; 16] {
    [
        s.data_reads,
        s.data_writes,
        s.sync_ops,
        s.buffer_forwards,
        s.cache_hits,
        s.stale_reads,
        s.buffered_writes,
        s.background_drains,
        s.sync_flushes,
        s.flushed_entries,
        s.flush_stall_cycles,
        s.invalidations_queued,
        s.ooo_retired,
        s.ooo_flushes,
        s.ooo_forwards,
        s.ooo_load_fills,
    ]
}

fn join<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items.into_iter().map(|x| x.to_string()).collect::<Vec<_>>().join(",")
}

fn render(result: Result<RunOutcome, SimError>, sink: Sink) -> String {
    match result {
        Err(e) => format!("error: {e}"),
        Ok(out) => {
            let (builder, recorder) = sink.into_inner();
            let trace = builder.finish().to_binary();
            let ops = recorder.finish().json().render();
            format!(
                "steps={} cycles=[{}] mem=[{}] stats=[{}] trace={:08x} ops={:08x}",
                out.steps,
                join(&out.cycles),
                join(out.final_memory.iter().map(|v| v.get())),
                join(stats_fields(&out.stats)),
                crc32(&trace),
                crc32(ops.as_bytes()),
            )
        }
    }
}

fn matrix_programs() -> Vec<Program> {
    let mut programs: Vec<Program> = catalog::all().into_iter().map(|e| e.program).collect();
    for seed in 0..4 {
        programs.push(generate::racy(&generate::GenConfig::default().with_seed(seed)));
    }
    programs
}

fn matrix() -> String {
    let config = RunConfig::default().with_max_steps(2_000);
    let mut lines = Vec::new();
    for (i, program) in matrix_programs().iter().enumerate() {
        let name = format!("{i:02}-{}", program.name());
        for seed in 0..2u64 {
            let mut s = sink(program);
            let out = run_sc(program, &mut RandomSched::new(seed), &mut s, config);
            lines.push(format!("{name} seed={seed} sc: {}", render(out, s)));
            for hw in HwImpl::ALL {
                for model in MemoryModel::ALL {
                    for fidelity in [Fidelity::Conditioned, Fidelity::Raw] {
                        let mut s = sink(program);
                        let mut sched = RandomWeakSched::new(seed, 0.3);
                        let out =
                            run_weak_hw(hw, program, model, fidelity, &mut sched, &mut s, config);
                        lines.push(format!(
                            "{name} seed={seed} {hw}/{model}/{fidelity}: {}",
                            render(out, s)
                        ));
                    }
                }
            }
        }
    }
    format!("{}\n", lines.join("\n"))
}

#[test]
fn sim_matrix_matches_golden() {
    let rendered = matrix();
    assert_eq!(rendered.lines().count(), 24 * 2 * 31);
    let path = std::path::PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/sim/matrix.txt"
    ));
    if std::env::var("WMRD_REGOLD").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path:?} ({e}); run with WMRD_REGOLD=1"));
    let diffs: Vec<String> = rendered
        .lines()
        .zip(expected.lines())
        .filter(|(got, want)| got != want)
        .take(8)
        .map(|(got, want)| format!("  want {want}\n  got  {got}"))
        .collect();
    assert!(
        rendered == expected,
        "simulator matrix diverged (WMRD_REGOLD=1 regenerates):\n{}",
        diffs.join("\n")
    );
}

/// Data message passing: P0 writes `x` then `y`; P1 reads `x`, spins
/// until it sees `y`, then reads `x` again.
fn message_passing() -> Program {
    let (x, y) = (Addr::Abs(Location::new(0)), Addr::Abs(Location::new(1)));
    let mut prog = Program::new("data-mp", 2);
    prog.push_proc(vec![
        Instr::St { src: 1.into(), addr: x },
        Instr::St { src: 1.into(), addr: y },
        Instr::Halt,
    ]);
    prog.push_proc(vec![
        Instr::Ld { dst: Reg::new(0), addr: x },
        Instr::Ld { dst: Reg::new(1), addr: y }, // 1: spin
        Instr::Bz { cond: Reg::new(1), target: 1 },
        Instr::Ld { dst: Reg::new(2), addr: x },
        Instr::Halt,
    ]);
    prog
}

/// `MemoryModel::Sc` means sequential consistency on every backend, racy
/// programs included: the invalidation-queue machine reads shared memory
/// and queues nothing, as the store buffer writes through.
#[test]
fn sc_model_is_sequentially_consistent_on_every_backend() {
    let program = message_passing();
    for hw in HwImpl::ALL {
        for seed in 0..64 {
            let mut sink = OpRecorder::new(program.num_procs());
            let mut sched = RandomWeakSched::new(seed, 0.3);
            let config = RunConfig::default();
            let sc = MemoryModel::Sc;
            run_weak_hw(hw, &program, sc, Fidelity::Conditioned, &mut sched, &mut sink, config)
                .unwrap();
            let ops = sink.finish();
            assert!(
                wmrd_verify::is_sequentially_consistent(&ops, &program.initial_memory()),
                "{hw} seed {seed}: SC run is not sequentially consistent"
            );
        }
    }
}
