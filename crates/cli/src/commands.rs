//! Command implementations. Each returns its output as a `String` so the
//! whole CLI is unit-testable; `main` just prints.

use std::fmt::Write as _;

use wmrd_core::{render, PairingPolicy, PostMortem, RaceKey, SalvageAnalysis};
use wmrd_explore::{
    run_campaign, run_campaign_observed, CampaignObserver, CampaignReport, CampaignSpec, ExecSpec,
};
use wmrd_faults::FaultPlan;
use wmrd_progs::catalog;
use wmrd_serve::{Client, Endpoint, Reply, ServeConfig, Server, StreamMeta};
use wmrd_sim::{
    run_sc, run_weak_hw, write_asm, Fidelity, HwImpl, MemoryModel, Program, RandomWeakSched,
    RunConfig, RunOutcome, WeakScript,
};
use wmrd_trace::{
    Json, Metrics, MultiSink, OpRecorder, StreamWriter, ToJson, TraceBuilder, TraceMeta, TraceSet,
    TraceSink,
};
use wmrd_verify::sample_sc;
use wmrd_verify::theorems::{check_condition_3_4_hw, sc_race_signatures};

use crate::args::{
    parse, AnalyzeOpts, CaptureOpts, CheckOpts, Command, ExecOpts, ExploreOpts, LintOpts,
    MetricsOpts, PredictOpts, QueryOpts, RunOpts, ServeOpts, StreamOpts, SubmitOpts, USAGE,
};
use crate::CliError;

fn file_err(path: &str) -> impl FnOnce(std::io::Error) -> CliError + '_ {
    move |source| CliError::File { path: path.to_string(), source }
}

impl MetricsOpts {
    /// The metrics handle for one command: enabled only when the user
    /// asked for `--metrics <file>` or `--stats`, so unobserved
    /// invocations pay nothing.
    fn handle(&self) -> Metrics {
        if self.out.is_some() || self.stats {
            Metrics::enabled()
        } else {
            Metrics::disabled()
        }
    }

    /// Writes the collected metrics to `--metrics <file>` (schema-stable
    /// JSON, see OBSERVABILITY.md) and/or appends the `--stats` summary.
    fn emit(&self, metrics: &Metrics, out: &mut String) -> Result<(), CliError> {
        if !metrics.is_enabled() {
            return Ok(());
        }
        let report = metrics.report();
        if let Some(path) = &self.out {
            std::fs::write(path, report.to_json()).map_err(file_err(path))?;
            let _ = writeln!(out, "metrics written to {path}");
        }
        if self.stats {
            let _ = write!(out, "{}", report.to_summary());
        }
        Ok(())
    }
}

/// Executes `program` once as `exec` says, feeding `sink`: an SC
/// execution on the SC machine, every other model on the `exec.hw` weak
/// machine, each under its seeded random scheduler. Returns the outcome
/// and the metadata the execution's trace carries.
fn execute<S: TraceSink>(
    program: &Program,
    exec: &ExecOpts,
    sink: &mut S,
) -> Result<(RunOutcome, TraceMeta), CliError> {
    let config = RunConfig::default();
    let outcome = if exec.model == MemoryModel::Sc {
        run_sc(program, &mut RandomWeakSched::new(exec.seed, 0.0), sink, config)?
    } else {
        let mut sched = RandomWeakSched::new(exec.seed, 0.3);
        run_weak_hw(exec.hw, program, exec.model, exec.fidelity, &mut sched, sink, config)?
    };
    let meta = TraceMeta {
        program: Some(program.name().to_string()),
        model: Some(exec.model.to_string()),
        seed: Some(exec.seed),
    };
    Ok((outcome, meta))
}

/// Expands command-line targets: the word `all` means every catalog
/// entry.
fn expand_targets(targets: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for t in targets {
        if t == "all" {
            out.extend(catalog::all().into_iter().map(|e| e.name.to_string()));
        } else {
            out.push(t.clone());
        }
    }
    out
}

/// Worker threads for `--jobs`: `0` means one per available core.
fn worker_count(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        jobs
    }
}

/// A race identity as the campaign commands print it:
/// `m[<addr>] <proc>:<kind> × <proc>:<kind>`.
fn key_text(key: &RaceKey) -> String {
    format!(
        "m[{}] {}:{:?} × {}:{:?}",
        key.loc.addr(),
        key.a.proc,
        key.a.kind,
        key.b.proc,
        key.b.kind
    )
}

/// Executes one CLI invocation (arguments exclude the binary name) and
/// returns its output.
///
/// # Errors
///
/// Returns a [`CliError`] describing parse or execution failures.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    match parse(args)? {
        Command::Help => Ok(USAGE.to_string()),
        Command::Catalog => cmd_catalog(),
        Command::Show(name) => cmd_show(&name),
        Command::Export { name, path } => cmd_export(&name, &path),
        Command::Run(opts) => cmd_run(&opts),
        Command::Analyze(opts) => cmd_analyze(&opts),
        Command::Check(opts) => cmd_check(&opts),
        Command::Explore(opts) => cmd_explore(&opts),
        Command::Lint(opts) => cmd_lint(&opts),
        Command::Predict(opts) => cmd_predict(&opts),
        Command::Capture(opts) => cmd_capture(&opts),
        Command::Serve(opts) => cmd_serve(&opts),
        Command::Submit(opts) => cmd_submit(&opts),
        Command::Stream(opts) => cmd_stream(&opts),
        Command::Query(opts) => cmd_query(&opts),
        Command::Demo => cmd_demo(),
    }
}

fn load_program(name_or_path: &str) -> Result<Program, CliError> {
    if let Some(entry) = catalog::all().into_iter().find(|e| e.name == name_or_path) {
        return Ok(entry.program);
    }
    if std::path::Path::new(name_or_path).exists() {
        // Any file is `.wmrd` assembly, whatever its extension;
        // `parse_asm` validates the result.
        let text = std::fs::read_to_string(name_or_path).map_err(file_err(name_or_path))?;
        return wmrd_sim::parse_asm(&text)
            .map_err(|source| CliError::Asm { path: name_or_path.to_string(), source });
    }
    Err(CliError::NotFound(format!(
        "`{name_or_path}` is neither a catalog workload (see `wmrd catalog`) nor a file"
    )))
}

fn cmd_catalog() -> Result<String, CliError> {
    let mut out = String::new();
    let _ = writeln!(out, "{:<26} {:>5} {:>6}  description", "name", "procs", "racy");
    for entry in catalog::all() {
        let _ = writeln!(
            out,
            "{:<26} {:>5} {:>6}  {}",
            entry.name,
            entry.program.num_procs(),
            if entry.racy { "yes" } else { "no" },
            entry.description
        );
    }
    Ok(out)
}

fn cmd_show(name: &str) -> Result<String, CliError> {
    let program = load_program(name)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "program {} ({} processors, {} memory words)",
        program.name(),
        program.num_procs(),
        program.num_locations()
    );
    for (loc, value) in program.init() {
        let _ = writeln!(out, "  init {loc} = {value}");
    }
    for (pi, code) in program.procs().iter().enumerate() {
        let _ = writeln!(out, "P{pi}:");
        for (i, instr) in code.iter().enumerate() {
            let _ = writeln!(out, "  {i:>3}: {instr}");
        }
    }
    Ok(out)
}

fn cmd_export(name: &str, path: &str) -> Result<String, CliError> {
    let program = load_program(name)?;
    std::fs::write(path, write_asm(&program)).map_err(file_err(path))?;
    Ok(format!("wrote {} to {path}\n", program.name()))
}

fn cmd_run(opts: &RunOpts) -> Result<String, CliError> {
    let program = load_program(&opts.program)?;
    let exec = &opts.exec;
    let metrics = opts.metrics.handle();
    metrics.context("command", "run");
    metrics.context("program", program.name());
    metrics.context("model", exec.model);
    metrics.context("fidelity", exec.fidelity);
    metrics.context("seed", exec.seed);
    if exec.model != MemoryModel::Sc {
        metrics.context("hw", exec.hw);
    }
    let mut sink = MultiSink::new(
        TraceBuilder::new(program.num_procs()),
        OpRecorder::new(program.num_procs()),
    );
    let (outcome, meta) = execute(&program, exec, &mut sink)?;
    let (builder, recorder) = sink.into_inner();
    let mut trace = builder.finish();
    trace.meta = meta;
    outcome.stats.record_into(&metrics);
    if metrics.is_enabled() {
        metrics.set_gauge("sim.steps", outcome.steps);
        metrics.set_gauge("sim.cycles", outcome.total_cycles());
        metrics.set_gauge("trace.events", trace.num_events() as u64);
        metrics.set_gauge("trace.procs", trace.num_procs() as u64);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "ran {} on {} (fidelity {}, seed {}): {} steps, {} cycles, {} events",
        program.name(),
        exec.model,
        exec.fidelity,
        exec.seed,
        outcome.steps,
        outcome.total_cycles(),
        trace.num_events()
    );
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, trace.to_binary()).map_err(file_err(path))?;
        let _ = writeln!(out, "event trace written to {path}");
    }
    if let Some(path) = &opts.ops_out {
        std::fs::write(path, recorder.finish().json().pretty()).map_err(file_err(path))?;
        let _ = writeln!(out, "operation trace written to {path}");
    }
    if opts.trace_out.is_none() {
        // No file requested: analyze inline for convenience.
        let report = PostMortem::new(&trace).metrics(&metrics).analyze()?;
        let _ = writeln!(out, "{report}");
    }
    opts.metrics.emit(&metrics, &mut out)?;
    Ok(out)
}

/// Parses a `--inject` fault plan, mapping syntax errors to usage
/// errors.
fn parse_fault_plan(spec: &str) -> Result<FaultPlan, CliError> {
    FaultPlan::parse(spec).map_err(|e| CliError::Usage(e.to_string()))
}

fn cmd_analyze(opts: &AnalyzeOpts) -> Result<String, CliError> {
    let metrics = opts.metrics.handle();
    metrics.context("command", "analyze");
    metrics.context("pairing", format!("{:?}", opts.pairing));
    let mut bytes = std::fs::read(&opts.trace).map_err(file_err(&opts.trace))?;
    if let Some(plan) = &opts.inject {
        let plan = parse_fault_plan(plan)?;
        metrics.add(wmrd_trace::metric_keys::FAULTS_INJECTED, plan.points().len() as u64);
        bytes = plan.corrupt(&bytes);
    }
    let (trace, salvage_banner, report) = if opts.salvage {
        let analysis = SalvageAnalysis::run(&bytes, opts.pairing, &metrics)?;
        let banner = analysis.salvage.to_string();
        (analysis.salvage.trace, Some(banner), analysis.report)
    } else {
        let trace = TraceSet::from_binary(&bytes)?;
        let report = PostMortem::new(&trace).pairing(opts.pairing).metrics(&metrics).analyze()?;
        (trace, None, report)
    };
    if let Some(program) = &trace.meta.program {
        metrics.context("program", program);
    }
    if let Some(model) = &trace.meta.model {
        metrics.context("model", model);
    }
    if let Some(seed) = trace.meta.seed {
        metrics.context("seed", seed);
    }
    let mut out = String::new();
    if let Some(banner) = &salvage_banner {
        if !opts.json {
            let _ = writeln!(out, "{banner}");
        }
    }
    if opts.json {
        let _ = writeln!(out, "{}", report.json().pretty());
    } else {
        let _ = write!(out, "{report}");
        if opts.show_all && !report.withheld_races().is_empty() {
            let _ = writeln!(out, "withheld (potentially non-SC / artifact) races:");
            for race in report.withheld_races() {
                let _ = writeln!(out, "  {race}");
            }
        }
    }
    if opts.timeline {
        let _ = writeln!(out, "\n{}", render::to_timeline(&trace, &report));
    }
    if let Some(path) = &opts.dot_out {
        std::fs::write(path, render::to_dot(&trace, &report)?).map_err(file_err(path))?;
        let _ = writeln!(out, "dot graph written to {path}");
    }
    opts.metrics.emit(&metrics, &mut out)?;
    Ok(out)
}

fn cmd_check(opts: &CheckOpts) -> Result<String, CliError> {
    let program = load_program(&opts.program)?;
    let exec = &opts.exec;
    let metrics = opts.metrics.handle();
    metrics.context("command", "check");
    metrics.context("program", program.name());
    metrics.context("model", exec.model);
    metrics.context("fidelity", exec.fidelity);
    metrics.context("hw", exec.hw);
    // Build the SC-race oracle by sampling.
    let samples = sample_sc(&program, 0..60, RunConfig::default())?;
    let sigs = sc_race_signatures(&samples, PairingPolicy::ByRole)?;
    let sc_racy = !sigs.is_empty();
    let outcomes = check_condition_3_4_hw(
        exec.hw,
        &program,
        exec.model,
        exec.fidelity,
        0..opts.seeds,
        &sigs,
        PairingPolicy::ByRole,
    )?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Condition 3.4 check: {} on {} ({}, {}), {} seeded executions",
        program.name(),
        exec.model,
        exec.fidelity,
        exec.hw,
        outcomes.len()
    );
    let _ = writeln!(
        out,
        "sampled SC executions: {} ({} race signature(s); program looks {})",
        samples.len(),
        sigs.len(),
        if sc_racy { "racy" } else { "data-race-free" }
    );
    let mut all_ok = true;
    for o in &outcomes {
        let verdict = if o.holds() { "ok" } else { "VIOLATED" };
        all_ok &= o.holds();
        let detail = if o.race_free {
            format!("race-free, SC={}", o.part1_sc.map_or("-".into(), |b| b.to_string()))
        } else {
            let t = o.part2.expect("racy executions carry a 4.2 outcome");
            format!(
                "racy, first partitions confirmed {}/{}",
                t.partitions_confirmed, t.partitions_checked
            )
        };
        let _ = writeln!(
            out,
            "  seed {:>3}: {verdict}  ({detail}, scp-linearizes={})",
            o.seed, o.scp_linearizes
        );
    }
    let _ = writeln!(
        out,
        "{}",
        if all_ok {
            "every execution satisfied Condition 3.4"
        } else {
            "CONDITION 3.4 VIOLATED — this hardware cannot support sound dynamic race detection"
        }
    );
    if metrics.is_enabled() {
        metrics.set_gauge("check.seeds", outcomes.len() as u64);
        metrics.set_gauge("check.sc_samples", samples.len() as u64);
        metrics.set_gauge("check.sc_race_signatures", sigs.len() as u64);
        metrics.add("check.race_free", outcomes.iter().filter(|o| o.race_free).count() as u64);
        metrics.add("check.racy", outcomes.iter().filter(|o| !o.race_free).count() as u64);
        metrics.add("check.violations", outcomes.iter().filter(|o| !o.holds()).count() as u64);
    }
    opts.metrics.emit(&metrics, &mut out)?;
    Ok(out)
}

/// One lint target's full analysis: the may-race report plus, when the
/// invocation asked for them, the cycle classification and the repair.
struct LintedTarget {
    report: wmrd_lint::LintReport,
    cycles: Option<wmrd_lint::CycleReport>,
    repair: Option<wmrd_lint::Repair>,
}

/// One linted target for `--format json`.
///
/// Without `--cycles` this is the bare [`LintReport`] — the v1 schema,
/// byte-identical to what earlier releases emitted. With `--cycles` the
/// report is wrapped in the v2 envelope: the same report fields at the
/// top level plus `version: 2`, the `cycles` classification, and the
/// `repair` plan.
impl ToJson for LintedTarget {
    fn json(&self) -> Json {
        let mut json = self.report.json();
        if let (Some(cycles), Some(repair)) = (&self.cycles, &self.repair) {
            json.push("version", 2u32.json());
            json.push("cycles", cycles.json());
            json.push("repair", repair.plan.json());
        }
        json
    }
}

fn cmd_lint(opts: &LintOpts) -> Result<String, CliError> {
    let metrics = opts.metrics.handle();
    metrics.context("command", "lint");
    let run_cycles = opts.cycles || opts.repair_out.is_some();
    let targets = expand_targets(&opts.targets);
    if opts.repair_out.is_some() && targets.len() != 1 {
        return Err(CliError::Usage(
            "lint --repair wants exactly one target (it writes one repaired program)".into(),
        ));
    }
    let mut linted = Vec::new();
    for target in &targets {
        let program = load_program(target)?;
        let report = wmrd_lint::analyze_with_metrics(&program, &metrics);
        let (cycles, repair) = if run_cycles {
            let cycles = wmrd_lint::analyze_cycles_with_metrics(&program, &report, &metrics);
            let repair = wmrd_lint::repair_with_metrics(&program, &report, &metrics);
            (Some(cycles), Some(repair))
        } else {
            (None, None)
        };
        linted.push(LintedTarget { report, cycles, repair });
    }
    let findings: u64 = linted.iter().map(|t| t.report.keys.len() as u64).sum();
    let mut out = String::new();
    if opts.json {
        let json = match linted.as_slice() {
            [only] => only.json(),
            all => all.json(),
        };
        let _ = writeln!(out, "{}", json.pretty());
    } else {
        for (i, t) in linted.iter().enumerate() {
            if i > 0 {
                let _ = writeln!(out);
            }
            let _ = write!(out, "{}", t.report.render());
            if let Some(cycles) = &t.cycles {
                let _ = write!(out, "{}", cycles.render());
            }
            if let Some(repair) = &t.repair {
                let _ = write!(out, "{}", repair.plan.render());
            }
        }
        if linted.len() > 1 {
            let racy = linted.iter().filter(|t| !t.report.is_race_free()).count();
            let _ = writeln!(
                out,
                "\nlinted {} program(s): {} with may-race findings, {} statically race-free",
                linted.len(),
                racy,
                linted.len() - racy
            );
        }
    }
    if let (Some(path), [only]) = (&opts.repair_out, linted.as_slice()) {
        let repair = only.repair.as_ref().expect("--repair implies the cycle analysis");
        std::fs::write(path, write_asm(&repair.repaired)).map_err(file_err(path))?;
        let _ = writeln!(
            out,
            "repaired program written to {path} ({} fence(s), {} strengthened location(s))",
            repair.plan.fences.len(),
            repair.plan.strengthened.len()
        );
    }
    opts.metrics.emit(&metrics, &mut out)?;
    if findings > 0 {
        // A verdict, not a malfunction: the caller prints `output` and
        // exits non-zero so scripts can gate on the result.
        return Err(CliError::LintFindings { output: out, findings });
    }
    Ok(out)
}

/// Resolves one `predict` target to a trace: an existing file that
/// starts with the `WMRD` trace magic is decoded as-is; anything else
/// goes through [`load_program`] and is run once by [`execute`], exactly
/// like `wmrd run`.
fn predict_input(target: &str, exec: &ExecOpts) -> Result<TraceSet, CliError> {
    let is_catalog = catalog::all().into_iter().any(|e| e.name == target);
    if !is_catalog && std::path::Path::new(target).exists() {
        let bytes = std::fs::read(target).map_err(file_err(target))?;
        if bytes.starts_with(b"WMRD") {
            return Ok(TraceSet::from_binary(&bytes)?);
        }
    }
    let program = load_program(target)?;
    let mut builder = TraceBuilder::new(program.num_procs());
    let (_, meta) = execute(&program, exec, &mut builder)?;
    let mut trace = builder.finish();
    trace.meta = meta;
    Ok(trace)
}

fn cmd_predict(opts: &PredictOpts) -> Result<String, CliError> {
    let metrics = opts.metrics.handle();
    metrics.context("command", "predict");
    metrics.context("order", opts.order);
    let targets = expand_targets(&opts.targets);
    let mut reports = Vec::new();
    for target in &targets {
        let trace = predict_input(target, &opts.exec)?;
        let name = trace.meta.program.clone().unwrap_or_else(|| target.clone());
        reports.push(wmrd_predict::predict_with_metrics(
            &trace,
            &name,
            opts.pairing,
            opts.order,
            &metrics,
        )?);
    }
    let findings: u64 = reports.iter().map(|r| r.keys.len() as u64).sum();
    let mut out = String::new();
    if opts.json {
        let json = match reports.as_slice() {
            [only] => only.json(),
            all => all.json(),
        };
        let _ = writeln!(out, "{}", json.pretty());
    } else {
        for (i, report) in reports.iter().enumerate() {
            if i > 0 {
                let _ = writeln!(out);
            }
            let _ = write!(out, "{}", report.render());
        }
        if reports.len() > 1 {
            let racy = reports.iter().filter(|r| !r.is_race_free()).count();
            let beyond: usize = reports.iter().map(|r| r.predicted_only().count()).sum();
            let _ = writeln!(
                out,
                "\npredicted over {} trace(s): {} with predicted races, {} predictively \
                 race-free, {} key(s) beyond the observed schedule",
                reports.len(),
                racy,
                reports.len() - racy,
                beyond
            );
        }
    }
    opts.metrics.emit(&metrics, &mut out)?;
    if findings > 0 {
        // A verdict, not a malfunction — mirror `lint`'s typed non-zero
        // exit so scripts can gate on predicted races.
        return Err(CliError::PredictFindings { output: out, findings });
    }
    Ok(out)
}

/// `wmrd capture`: run instrumented multithreaded workloads — real
/// `std::thread` workers on real atomics, instrumented by
/// `wmrd-capture` — and pipe the captured executions into the
/// analysis pipeline: inline hb1 analysis by default, trace files with
/// `--out`, a live daemon with `--sink` (`SUBMIT` for v2 traces, a
/// `STREAM`/`FEED`/`CLOSE` session for `WMRS` streams).
fn cmd_capture(opts: &CaptureOpts) -> Result<String, CliError> {
    use std::collections::BTreeSet;
    use wmrd_capture::workloads;
    use wmrd_core::{detect_races, event_race_keys, HbGraph};
    use wmrd_trace::metric_keys;

    if opts.workload == "list" {
        let mut out = String::new();
        for w in workloads::all() {
            let _ = writeln!(
                out,
                "{:<16} {} thread(s)  {}  {}",
                w.name,
                w.threads,
                if w.racy { "racy " } else { "clean" },
                w.description
            );
        }
        return Ok(out);
    }
    let selected: Vec<&workloads::Workload> = if opts.workload == "all" {
        workloads::all().iter().collect()
    } else {
        vec![workloads::find(&opts.workload).ok_or_else(|| {
            CliError::NotFound(format!(
                "`{}` is not a capture workload (try `wmrd capture list`)",
                opts.workload
            ))
        })?]
    };

    let metrics = opts.metrics.handle();
    metrics.context("command", "capture");
    let mut out = String::new();
    let mut delivered = 0u64;
    let mut runs_done = 0u64;
    let mut unique: BTreeSet<wmrd_core::RaceKey> = BTreeSet::new();
    metrics.time(metric_keys::CAPTURE_TOTAL, || -> Result<(), CliError> {
        let mut sink = match &opts.sink {
            Some(to) => Some(Client::connect(&Endpoint::parse(to)?)?),
            None => None,
        };
        for w in selected {
            for run in 0..opts.runs {
                let seed = opts.seed + run;
                let capture = w.capture(seed);
                let stats = capture.stats();
                runs_done += 1;
                metrics.incr(metric_keys::CAPTURE_RUNS);
                metrics.add(metric_keys::CAPTURE_DATA_OPS, stats.data_ops);
                metrics.add(metric_keys::CAPTURE_SYNC_OPS, stats.sync_ops);
                metrics.add(metric_keys::CAPTURE_THREADS, stats.threads);
                metrics.add(metric_keys::CAPTURE_NUDGES, stats.nudges);
                metrics.add(metric_keys::CAPTURE_DROPPED_OPS, stats.dropped_ops);
                metrics.add(metric_keys::CAPTURE_PANICS, stats.panics);
                metrics.add(metric_keys::CAPTURE_UNRESOLVED_OBSERVED, stats.unresolved_observed);

                let trace = capture.to_traceset();
                let hb = HbGraph::build(&trace, PairingPolicy::ByRole)?;
                let keys = event_race_keys(&detect_races(&trace, &hb), &trace);
                let _ = write!(
                    out,
                    "{} seed={seed}: {} thread(s), {} op(s) ({} sync), {} race key(s)",
                    w.name,
                    stats.threads,
                    stats.ops(),
                    stats.sync_ops,
                    keys.len()
                );
                if stats.panics > 0 || stats.dropped_ops > 0 {
                    let _ = write!(
                        out,
                        " [{} panic(s), {} dropped op(s)]",
                        stats.panics, stats.dropped_ops
                    );
                }
                let _ = writeln!(out);
                for key in &keys {
                    let _ = writeln!(out, "  race {}", wmrd_catalog::format_key(key));
                }
                unique.extend(keys);

                // The run's encoding, made once for both `--out` and `--sink`.
                let bytes = match (opts.out.is_some() || sink.is_some(), opts.wmrs) {
                    (false, _) => Vec::new(),
                    (true, true) => capture.to_wmrs()?,
                    (true, false) => trace.to_binary(),
                };
                if let Some(prefix) = &opts.out {
                    let ext = if opts.wmrs { "wmrs" } else { "trace" };
                    let path = format!("{prefix}-{}-{seed}.{ext}", w.name);
                    std::fs::write(&path, &bytes).map_err(file_err(&path))?;
                    let _ = writeln!(out, "  wrote {path}");
                }
                if let Some(client) = sink.as_mut() {
                    // A WMRS run is one session: its opening and the
                    // FEEDs that completed races lead the summary.
                    let mut summary = String::new();
                    let reply = if opts.wmrs {
                        let session = session_token(&format!(
                            "capture-{}-{}",
                            capture.name(),
                            capture.seed()
                        ));
                        let meta = StreamMeta {
                            program: Some(capture.name().to_string()),
                            model: Some("capture".to_string()),
                            seed: Some(capture.seed()),
                        };
                        client.stream_session(&session, &meta, &bytes, opts.chunk, |reply| {
                            if let Some(text) = shown_text(reply) {
                                let _ = write!(summary, "{}; ", text.trim_end());
                            }
                        })?
                    } else {
                        client.submit(&bytes)?
                    };
                    let delivery = match reply {
                        Reply::Ok(payload) => {
                            delivered += 1;
                            metrics.incr(metric_keys::CAPTURE_SUBMITTED);
                            summary + String::from_utf8_lossy(&payload).trim_end()
                        }
                        Reply::Busy(message) => format!("BUSY ({message})"),
                        Reply::Err { code, message } => {
                            format!("REJECTED ({}: {message})", code.as_str())
                        }
                    };
                    let _ = writeln!(out, "  sink: {delivery}");
                }
            }
        }
        Ok(())
    })?;
    metrics.set_gauge(metric_keys::CAPTURE_UNIQUE_RACES, unique.len() as u64);
    let _ = writeln!(
        out,
        "captured {runs_done} run(s): {} distinct race key(s){}",
        unique.len(),
        if opts.sink.is_some() {
            format!(", {delivered} delivered to sink")
        } else {
            String::new()
        }
    );
    opts.metrics.emit(&metrics, &mut out)?;
    Ok(out)
}

/// Builds the campaign spec an `explore` invocation describes.
fn campaign_spec(opts: &ExploreOpts) -> Result<CampaignSpec, CliError> {
    let mut config = RunConfig::default();
    if let Some(steps) = opts.budget {
        config = config.with_max_steps(steps);
    }
    if let Some(cycles) = opts.cycle_budget {
        config = config.with_max_cycles(cycles);
    }
    let mut spec = CampaignSpec::new(opts.seeds.0, opts.seeds.1)
        .with_hws(opts.hws.clone())
        .with_models(opts.models.clone())
        .with_drain_probs(opts.drain_probs.clone())
        .with_config(config);
    spec.fidelity = opts.fidelity;
    spec.pairing = opts.pairing;
    if let Some(plan) = &opts.inject {
        spec = spec.with_faults(parse_fault_plan(plan)?);
    }
    Ok(spec)
}

/// The campaign's first execution point at `seed`: the first entry of
/// each configuration list, so `--repro` and `--predict` coordinates can
/// be fed back verbatim.
fn first_point(spec: &CampaignSpec, seed: u64) -> ExecSpec {
    ExecSpec {
        hw: spec.hws[0],
        model: spec.models[0],
        fidelity: spec.fidelity,
        drain_prob: spec.drain_probs[0],
        seed,
    }
}

fn cmd_explore(opts: &ExploreOpts) -> Result<String, CliError> {
    let program = load_program(&opts.program)?;
    let spec = campaign_spec(opts)?;
    let metrics = opts.metrics.handle();
    metrics.context("command", "explore");
    metrics.context("program", program.name());

    if let Some(seed) = opts.repro {
        // Replay one point in full detail.
        let exec = first_point(&spec, seed);
        metrics.context("seed", seed);
        let replay = wmrd_explore::replay(&program, &exec, spec.config, spec.pairing)?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay of {} (seed {}, {}, {}, p={}{})",
            program.name(),
            seed,
            exec.hw,
            exec.model,
            exec.drain_prob,
            if replay.budget_hit { ", budget-stopped" } else { "" },
        );
        let _ = write!(out, "{}", replay.report);
        if !replay.keys.is_empty() {
            let _ = writeln!(out, "race identities reached by this seed:");
            for key in &replay.keys {
                let _ = writeln!(out, "  {}", key_text(key));
            }
        }
        opts.metrics.emit(&metrics, &mut out)?;
        return Ok(out);
    }

    if opts.verify_repair {
        return cmd_verify_repair(&program, opts, &spec, &metrics);
    }

    // With --prune-static, lint before simulating: a statically
    // race-free program cannot produce findings (lint over-approximates
    // the dynamic detector), so its campaign is skipped outright.
    let lint = opts.prune_static.then(|| wmrd_lint::analyze_with_metrics(&program, &metrics));
    if let Some(lint) = &lint {
        if lint.is_race_free() {
            metrics.add(wmrd_trace::metric_keys::LINT_PRUNED_CAMPAIGNS, 1);
            let report = CampaignReport {
                program: program.name().to_string(),
                points: spec.num_points() as u64,
                pruned: true,
                prune_reason: Some(format!(
                    "statically race-free ({} access(es), {} qualified lock(s))",
                    lint.accesses,
                    lint.locks.len()
                )),
                ..CampaignReport::default()
            };
            report.record_into(&metrics);
            let mut out = report.render();
            if let Some(path) = &opts.report_out {
                std::fs::write(path, report.json().pretty()).map_err(file_err(path))?;
                let _ = writeln!(out, "campaign report written to {path}");
            }
            opts.metrics.emit(&metrics, &mut out)?;
            return Ok(out);
        }
    }

    // With --predict, replay the campaign's first execution point once,
    // on the machine its workers run it on, and predict races from that
    // single trace; the campaign then serves as the soundness oracle
    // below.
    let predicted = opts
        .predict
        .then(|| -> Result<wmrd_predict::PredictReport, CliError> {
            let exec = first_point(&spec, opts.seeds.0);
            let replay = wmrd_explore::replay(&program, &exec, spec.config, spec.pairing)?;
            Ok(wmrd_predict::predict_with_metrics(
                &replay.trace,
                program.name(),
                spec.pairing,
                wmrd_predict::PredictOrder::Wcp,
                &metrics,
            )?)
        })
        .transpose()?;

    let jobs = worker_count(opts.jobs);
    let sink = opts
        .sink
        .as_deref()
        .map(|s| SinkObserver::connect(s, &program, spec.config))
        .transpose()?;
    let report = match &sink {
        Some(observer) => run_campaign_observed(&program, &spec, jobs, &metrics, observer)?,
        None => run_campaign(&program, &spec, jobs, &metrics)?,
    };
    report.record_into(&metrics);
    let mut out = report.render();
    if let Some(lint) = &lint {
        // Soundness cross-check: every dynamic finding must fall inside
        // the static may-race set.
        let missed: Vec<_> = report.keys().filter(|k| !lint.covers(k)).collect();
        metrics.add(wmrd_trace::metric_keys::LINT_CROSSCHECK_VIOLATIONS, missed.len() as u64);
        if missed.is_empty() {
            let _ = writeln!(
                out,
                "static cross-check: {} dynamic race identit{} inside the static may-race set \
                 ({} static key(s))",
                report.races.len(),
                if report.races.len() == 1 { "y" } else { "ies" },
                lint.keys.len()
            );
        } else {
            for key in &missed {
                let _ = writeln!(
                    out,
                    "WARNING: dynamic race {} escaped the static may-race set — lint \
                     soundness violation",
                    key_text(key)
                );
            }
        }
    }
    if let Some(pred) = &predicted {
        // Soundness oracle: every predicted race identity must be
        // reached by some seed of the campaign.
        let reached: std::collections::BTreeSet<_> = report.keys().copied().collect();
        let escaped: Vec<_> = pred.keys.iter().filter(|k| !reached.contains(k)).collect();
        metrics.add(wmrd_trace::metric_keys::PREDICT_CROSSCHECK_VIOLATIONS, escaped.len() as u64);
        if escaped.is_empty() {
            let _ = writeln!(
                out,
                "predictive cross-check ({} order, seed {}): {} predicted key(s), {} beyond \
                 single-seed hb1, all reached by the campaign",
                pred.order,
                opts.seeds.0,
                pred.keys.len(),
                pred.predicted_only().count()
            );
        } else {
            for key in &escaped {
                let _ = writeln!(
                    out,
                    "WARNING: predicted race {} was reached by no campaign seed — prediction \
                     soundness violation",
                    key_text(key)
                );
            }
        }
    }
    if let Some(observer) = &sink {
        let _ = writeln!(out, "{}", observer.summary());
    }
    if !report.is_race_free() {
        let _ = writeln!(
            out,
            "reproduce a finding with: wmrd explore {} --repro <seed> (plus its hw/model/drain flags)",
            opts.program
        );
    }
    if let Some(path) = &opts.report_out {
        std::fs::write(path, report.json().pretty()).map_err(file_err(path))?;
        let _ = writeln!(out, "campaign report written to {path}");
    }
    opts.metrics.emit(&metrics, &mut out)?;
    Ok(out)
}

/// Raw out-of-order hardware can livelock a spin loop (no sync drains
/// means a release can stay buffered arbitrarily long), so the
/// `--verify-repair` ablation caps each raw execution at this many
/// steps; truncated runs count as quiesced, exactly like `--budget`.
const ABLATION_MAX_STEPS: u64 = 4_000;

/// `wmrd explore --verify-repair`: synthesize the critical-cycle repair
/// for the program, then verify it dynamically —
///
/// 1. the **repaired** program must reach zero race identities in a
///    campaign over *every* hardware backend and the requested seed
///    range, and must satisfy Condition 3.4 on each backend;
/// 2. the **unrepaired** program is run under raw out-of-order hardware
///    (the one configuration outside the static contract) as an
///    ablation, reporting how many of its dynamic races the cycle
///    analysis classified `weak-only` — evidence the classification,
///    not just the fence insertion, carries information.
///
/// A verification failure is a verdict ([`CliError::RepairUnverified`]):
/// the report still prints, and the exit status is what scripts gate on.
fn cmd_verify_repair(
    program: &Program,
    opts: &ExploreOpts,
    spec: &CampaignSpec,
    metrics: &Metrics,
) -> Result<String, CliError> {
    let report = wmrd_lint::analyze_with_metrics(program, metrics);
    let cycles = wmrd_lint::analyze_cycles_with_metrics(program, &report, metrics);
    let repair = wmrd_lint::repair_with_metrics(program, &report, metrics);
    let mut out = String::new();
    let _ = writeln!(out, "repair verification for {}", program.name());
    let _ = write!(out, "{}", cycles.render());
    let _ = write!(out, "{}", repair.plan.render());
    let jobs = worker_count(opts.jobs);
    let mut failure: Option<String> = None;

    // 1a. The repaired program races on no backend.
    let mut verify_spec = spec.clone();
    verify_spec.hws = HwImpl::ALL.to_vec();
    verify_spec.fidelity = Fidelity::Conditioned;
    let campaign = run_campaign(&repair.repaired, &verify_spec, jobs, metrics)?;
    campaign.record_into(metrics);
    let dynamic: Vec<_> = campaign.keys().copied().collect();
    let _ = writeln!(
        out,
        "repaired campaign: {} point(s) across {} backend(s): {} race identit{}",
        campaign.points,
        verify_spec.hws.len(),
        dynamic.len(),
        if dynamic.len() == 1 { "y" } else { "ies" }
    );
    for key in &dynamic {
        let _ = writeln!(out, "  STILL RACES: {}", key_text(key));
    }
    if !dynamic.is_empty() {
        failure = Some(format!(
            "repaired program still reached {} race identit{}",
            dynamic.len(),
            if dynamic.len() == 1 { "y" } else { "ies" }
        ));
    }

    // 1b. The repaired program satisfies Condition 3.4 on each backend.
    let samples = sample_sc(&repair.repaired, 0..60, spec.config)?;
    let sigs = sc_race_signatures(&samples, spec.pairing)?;
    for hw in HwImpl::ALL {
        let outcomes = check_condition_3_4_hw(
            hw,
            &repair.repaired,
            verify_spec.models[0],
            Fidelity::Conditioned,
            opts.seeds.0..opts.seeds.1,
            &sigs,
            spec.pairing,
        )?;
        let bad = outcomes.iter().filter(|o| !o.holds()).count();
        let _ = writeln!(
            out,
            "condition 3.4 on {hw}: {}/{} seed(s) clean",
            outcomes.len() - bad,
            outcomes.len()
        );
        if bad > 0 && failure.is_none() {
            failure = Some(format!("Condition 3.4 violated on {hw} ({bad} seed(s))"));
        }
    }

    // 2. Ablation: the unrepaired program under raw out-of-order
    // hardware, step-capped because raw spin loops can livelock.
    let mut ablation = spec.clone();
    ablation.hws = vec![HwImpl::Ooo];
    ablation.fidelity = Fidelity::Raw;
    ablation.config = ablation.config.with_max_steps(spec.config.max_steps.min(ABLATION_MAX_STEPS));
    let raw = run_campaign(program, &ablation, jobs, metrics)?;
    let raw_keys = raw.keys().count();
    let weak_hits =
        raw.keys().filter(|k| cycles.class_of(k) == Some(wmrd_lint::RaceClass::WeakOnly)).count();
    if raw_keys > 0 {
        let _ = writeln!(
            out,
            "ablation (unrepaired, ooo raw): {raw_keys} race identit{}, {weak_hits} classified \
             weak-only by the cycle analysis",
            if raw_keys == 1 { "y" } else { "ies" }
        );
    } else {
        let _ = writeln!(
            out,
            "ablation (unrepaired, ooo raw): no races reached over this seed range (inconclusive)"
        );
    }

    match failure {
        Some(reason) => {
            let _ = writeln!(out, "REPAIR UNVERIFIED: {reason}");
            opts.metrics.emit(metrics, &mut out)?;
            Err(CliError::RepairUnverified { output: out, reason })
        }
        None => {
            let _ = writeln!(
                out,
                "repair verified: race-free and Condition-3.4-clean on every backend \
                 (seeds {}..{})",
                opts.seeds.0, opts.seeds.1
            );
            opts.metrics.emit(metrics, &mut out)?;
            Ok(out)
        }
    }
}

/// Bytes per `FEED` frame when `--sink` streams a racy execution.
const SINK_CHUNK_BYTES: usize = 4096;
/// The text of an `OK` session reply worth showing: every reply except
/// the `FEED` acknowledgements that completed no new race, which are
/// progress noise (`new=0`).
fn shown_text(reply: &Reply) -> Option<std::borrow::Cow<'_, str>> {
    match reply {
        Reply::Ok(payload) => {
            let text = String::from_utf8_lossy(payload);
            (!text.trim_end().ends_with("new=0")).then_some(text)
        }
        _ => None,
    }
}

/// Makes a `STREAM` session token request-line-safe: the protocol
/// carries the name as one whitespace-delimited token with `key=value`
/// metadata after it, so spaces, `=`, and newlines become `-`.
fn session_token(raw: &str) -> String {
    raw.chars().map(|c| if c == '=' || c.is_whitespace() { '-' } else { c }).collect()
}

/// Streams a campaign's racy executions live to a `wmrd serve` daemon.
///
/// Each racy execution is deterministically re-executed (same seeded
/// scheduler coordinates the campaign used) into the
/// operation-granular `WMRS` stream format and fed to the daemon in
/// bounded chunks over one `STREAM`/`FEED`/`CLOSE` session, exercising
/// the daemon's online detector instead of shipping one monolithic
/// `SUBMIT` payload. The finished trace cannot be streamed directly:
/// its events aggregate operations, while the stream format (and the
/// positional operation-identity contract) is per-operation. Each
/// session opens its own connection — worker threads call the observer
/// concurrently, and per-execution connections need no shared client
/// lock. Failures (including `BUSY` refusals) are counted, not fatal:
/// losing a sink stream never loses the campaign report, and the
/// daemon's digest dedup makes re-streaming a later campaign cheap.
struct SinkObserver {
    endpoint: Endpoint,
    program: Program,
    config: RunConfig,
    submitted: std::sync::atomic::AtomicU64,
    refused: std::sync::atomic::AtomicU64,
    failed: std::sync::atomic::AtomicU64,
}

impl SinkObserver {
    /// Parses the endpoint and verifies the daemon answers a `PING`, so
    /// a dead sink fails the invocation before any simulation runs.
    fn connect(spec: &str, program: &Program, config: RunConfig) -> Result<Self, CliError> {
        let endpoint = Endpoint::parse(spec)?;
        let mut probe = Client::connect(&endpoint)?;
        probe.ping()?.into_text()?;
        Ok(SinkObserver {
            endpoint,
            program: program.clone(),
            config,
            submitted: 0.into(),
            refused: 0.into(),
            failed: 0.into(),
        })
    }

    /// Re-executes `exec` into `WMRS` bytes and streams them in chunks;
    /// `None` means a transport or re-execution failure.
    fn stream_one(&self, exec: &ExecSpec, trace: &TraceSet) -> Option<Reply> {
        let mut sched = RandomWeakSched::new(exec.seed, exec.drain_prob);
        let mut writer = StreamWriter::new(Vec::new(), self.program.num_procs());
        run_weak_hw(
            exec.hw,
            &self.program,
            exec.model,
            exec.fidelity,
            &mut sched,
            &mut writer,
            self.config,
        )
        .ok()?;
        let bytes = writer.finish().ok()?;

        let meta = StreamMeta {
            program: trace.meta.program.clone(),
            model: trace.meta.model.clone(),
            seed: trace.meta.seed,
        };
        let session = session_token(&format!(
            "{}-{}-{}",
            trace.meta.program.as_deref().unwrap_or("campaign"),
            exec.model,
            exec.seed
        ));
        let mut client = Client::connect(&self.endpoint).ok()?;
        client.stream_session(&session, &meta, &bytes, SINK_CHUNK_BYTES, |_| {}).ok()
    }

    fn summary(&self) -> String {
        use std::sync::atomic::Ordering::Relaxed;
        format!(
            "sink {}: {} execution(s) streamed & submitted, {} refused busy, {} failed",
            self.endpoint,
            self.submitted.load(Relaxed),
            self.refused.load(Relaxed),
            self.failed.load(Relaxed)
        )
    }
}

impl CampaignObserver for SinkObserver {
    fn racy_execution(&self, exec: &ExecSpec, trace: &TraceSet) {
        use std::sync::atomic::Ordering::Relaxed;
        match self.stream_one(exec, trace) {
            Some(Reply::Ok(_)) => self.submitted.fetch_add(1, Relaxed),
            Some(Reply::Busy(_)) => self.refused.fetch_add(1, Relaxed),
            Some(Reply::Err { .. }) | None => self.failed.fetch_add(1, Relaxed),
        };
    }
}

fn cmd_serve(opts: &ServeOpts) -> Result<String, CliError> {
    let endpoint = Endpoint::parse(&opts.listen)?;
    let config = ServeConfig {
        workers: opts.workers,
        queue_cap: opts.queue_cap,
        catalog: opts.catalog.as_ref().map(std::path::PathBuf::from),
        pairing: opts.pairing,
        max_streams: opts.max_streams,
        ..ServeConfig::default()
    };
    let server = Server::bind(&endpoint, config)?;
    // The readiness banner goes out immediately — scripts wait on it —
    // while the command's return value is the post-drain summary.
    println!(
        "wmrd-serve listening on {} ({} workers, queue cap {}, {} stream slots, catalog: {})",
        server.endpoint(),
        opts.workers,
        opts.queue_cap,
        opts.max_streams,
        opts.catalog.as_deref().unwrap_or("in-memory")
    );
    let summary = server.run()?;
    Ok(format!("{summary}\n"))
}

fn cmd_submit(opts: &SubmitOpts) -> Result<String, CliError> {
    let endpoint = Endpoint::parse(&opts.to)?;
    let mut client = Client::connect(&endpoint)?;
    let mut out = String::new();
    let mut rejected = 0u64;
    for path in &opts.files {
        let bytes = std::fs::read(path).map_err(file_err(path))?;
        match client.submit(&bytes)? {
            Reply::Ok(payload) => {
                let _ = writeln!(out, "{path}: {}", String::from_utf8_lossy(&payload).trim_end());
            }
            Reply::Busy(message) => {
                rejected += 1;
                let _ = writeln!(out, "{path}: BUSY ({message})");
            }
            Reply::Err { code, message } => {
                rejected += 1;
                let _ = writeln!(out, "{path}: REJECTED ({}: {message})", code.as_str());
            }
        }
    }
    if rejected > 0 {
        let _ = writeln!(out, "{rejected} of {} submission(s) not ingested", opts.files.len());
    }
    Ok(out)
}

/// `wmrd stream`: execute a program locally and feed its operations to
/// a daemon's online detector over a `STREAM`/`FEED`/`CLOSE` session.
///
/// The execution is driven into the operation-granular `WMRS` format
/// first, then delivered in `--chunk`-sized `FEED` frames — chunk
/// boundaries are arbitrary byte offsets, the daemon reassembles
/// records across them. Races surface in `FEED` replies the moment
/// their second access arrives; `CLOSE` seals the trace, runs the
/// post-mortem cross-check, and ingests into the catalog.
fn cmd_stream(opts: &StreamOpts) -> Result<String, CliError> {
    let endpoint = Endpoint::parse(&opts.to)?;
    let program = load_program(&opts.program)?;

    let mut writer = StreamWriter::new(Vec::new(), program.num_procs());
    let (_, meta) = execute(&program, &opts.exec, &mut writer)?;
    let records = writer.records();
    let bytes = writer.finish()?;

    let session = match &opts.session {
        Some(name) => name.clone(),
        None => session_token(&format!("{}-{}", program.name(), opts.exec.seed)),
    };
    let meta = StreamMeta { program: meta.program, model: meta.model, seed: meta.seed };

    let mut out = String::new();
    let mut client = Client::connect(&endpoint)?;
    // The opening and the chunks that completed new races (their reply
    // carries the race lines) are shown; a session that ends early or
    // a CLOSE still BUSY after its retries fails the command.
    let closed = client
        .stream_session(&session, &meta, &bytes, opts.chunk, |reply| match reply {
            Reply::Busy(message) => {
                let _ = writeln!(out, "close refused busy ({message}); retrying");
            }
            reply => {
                if let Some(text) = shown_text(reply) {
                    out.push_str(&text);
                }
            }
        })?
        .into_text()?;
    let _ = write!(out, "{closed}");
    let _ = writeln!(
        out,
        "streamed {records} operation(s) in {} chunk(s) of at most {} bytes",
        bytes.len().div_ceil(opts.chunk),
        opts.chunk
    );
    Ok(out)
}

fn cmd_query(opts: &QueryOpts) -> Result<String, CliError> {
    let endpoint = Endpoint::parse(&opts.to)?;
    let mut client = Client::connect(&endpoint)?;
    let reply = match opts.spec.as_str() {
        // `stats` is already JSON; the other control words have no
        // row-structured payload for `--format json` to re-render.
        "stats" => client.stats()?,
        "ping" | "compact" | "shutdown" if opts.json => {
            return Err(CliError::Usage(format!(
                "`--format json` does not apply to `{}`",
                opts.spec
            )));
        }
        "ping" => client.ping()?,
        "compact" => client.compact()?,
        "shutdown" => client.shutdown()?,
        spec if opts.json => client.query(&format!("json:{spec}"))?,
        spec => client.query(spec)?,
    };
    Ok(reply.into_text()?)
}

fn cmd_demo() -> Result<String, CliError> {
    let entry = catalog::work_queue_buggy();
    let mut sink = TraceBuilder::new(entry.program.num_procs());
    let mut sched = WeakScript::new(catalog::work_queue_weak_script());
    run_weak_hw(
        HwImpl::StoreBuffer,
        &entry.program,
        MemoryModel::Wo,
        wmrd_sim::Fidelity::Conditioned,
        &mut sched,
        &mut sink,
        RunConfig::default(),
    )?;
    let mut trace = sink.finish();
    trace.meta.program = Some(entry.name.into());
    trace.meta.model = Some("WO".into());
    let report = PostMortem::new(&trace).analyze()?;
    let mut out = String::new();
    let _ = writeln!(out, "the paper's Figure 2 work queue, on weakly ordered hardware:\n");
    let _ = write!(out, "{report}");
    let _ = writeln!(out, "\ntimeline:\n{}", render::to_timeline(&trace, &report));
    let _ = writeln!(
        out,
        "the FIRST partition is the missing-Test&Set bug; the withheld races are\n\
         the stale-region collisions that no sequentially consistent execution\n\
         could produce. Run `wmrd analyze --dot` on your own traces for pictures."
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("wmrd-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The raw value after the first `"key": ` in pretty JSON output.
    fn json_value<'a>(text: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\": ");
        let start = text.find(&pat).unwrap_or_else(|| panic!("no `{key}` in:\n{text}")) + pat.len();
        let rest = &text[start..];
        rest[..rest.find([',', '\n']).unwrap_or(rest.len())].trim()
    }

    #[test]
    fn help_and_catalog() {
        assert!(run_cli(&argv("help")).unwrap().contains("USAGE"));
        let listing = run_cli(&argv("catalog")).unwrap();
        assert!(listing.contains("fig1a"));
        assert!(listing.contains("work-queue-buggy"));
        assert!(listing.contains("ticket-lock"));
    }

    #[test]
    fn show_disassembles() {
        let text = run_cli(&argv("show fig1b")).unwrap();
        assert!(text.contains("unset"), "{text}");
        assert!(text.contains("test&set"), "{text}");
        assert!(text.contains("init m[2] = 1"), "{text}");
    }

    #[test]
    fn export_then_run_from_file() {
        let path = tmp("exported.wmrd");
        run_cli(&argv(&format!("export fig1a {path}"))).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(wmrd_sim::parse_asm(&text).unwrap(), catalog::fig1a().program);
        let out = run_cli(&argv(&format!("run {path} --model wo --seed 2"))).unwrap();
        assert!(out.contains("ran fig1a on WO"), "{out}");
        assert!(out.contains("data race"), "inline analysis expected:\n{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_records_and_analyze_reads_both_formats() {
        let bin_path = tmp("t.bin");
        run_cli(&argv(&format!("run fig1a --trace {bin_path}"))).unwrap();
        assert!(std::fs::read(&bin_path).unwrap().starts_with(b"WMRD"), "v2 binary");
        let from_bin = run_cli(&argv(&format!("analyze {bin_path}"))).unwrap();
        assert!(from_bin.contains("1 data race(s)"), "{from_bin}");
        // Anything that is not a binary trace gets the typed decode error.
        let json_path = tmp("t.json");
        std::fs::write(&json_path, b"{\"meta\": {}}").unwrap();
        let err = run_cli(&argv(&format!("analyze {json_path}"))).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&json_path).ok();
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn analyze_flags() {
        let path = tmp("t2.bin");
        let dot = tmp("g.dot");
        run_cli(&argv(&format!("run work-queue-buggy --model wo --seed 4 --trace {path}")))
            .unwrap();
        let out = run_cli(&argv(&format!(
            "analyze {path} --all --timeline --dot {dot} --pairing by-role"
        )))
        .unwrap();
        assert!(out.contains("verdict"), "{out}");
        assert!(out.contains("dot graph written"), "{out}");
        let dot_text = std::fs::read_to_string(&dot).unwrap();
        assert!(dot_text.starts_with("digraph"));
        let json_out = run_cli(&argv(&format!("analyze {path} --json"))).unwrap();
        assert!(json_out.starts_with("{\n  \"meta\": {\n    \"program\": \"work-queue-buggy\","));
        assert_eq!(json_value(&json_out, "pairing"), "\"ByRole\"");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&dot).ok();
    }

    #[test]
    fn ops_trace_export() {
        let path = tmp("ops.json");
        let out = run_cli(&argv(&format!("run fig1b --ops {path}"))).unwrap();
        assert!(out.contains("operation trace written"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("{\n  \"ops\": [\n    [\n      {\n        \"id\": {"), "{text}");
        assert!(text.contains("\"issue_order\": ["), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_reports_condition_3_4() {
        let ok = run_cli(&argv("check producer-consumer --model rcsc --seeds 3")).unwrap();
        assert!(ok.contains("every execution satisfied Condition 3.4"), "{ok}");
        assert!(ok.contains("data-race-free"), "{ok}");
        let racy = run_cli(&argv("check fig1a --model wo --seeds 3")).unwrap();
        assert!(racy.contains("racy"), "{racy}");
        assert!(racy.contains("every execution satisfied Condition 3.4"), "{racy}");
    }

    #[test]
    fn demo_tells_the_story() {
        let out = run_cli(&argv("demo")).unwrap();
        assert!(out.contains("FIRST"), "{out}");
        assert!(out.contains("end of estimated SCP"), "{out}");
    }

    #[test]
    fn run_writes_metrics_and_stats() {
        let path = tmp("m-run.json");
        let out =
            run_cli(&argv(&format!("run fig1a --model wo --seed 3 --metrics {path} --stats")))
                .unwrap();
        assert!(out.contains("metrics written to"), "{out}");
        assert!(out.contains("counters:"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(json_value(&text, "schema_version"), "1");
        assert_eq!(json_value(&text, "command"), "\"run\"");
        assert_eq!(json_value(&text, "program"), "\"fig1a\"");
        assert_eq!(json_value(&text, "seed"), "\"3\"");
        assert!(json_value(&text, "sim.data_writes").parse::<u64>().unwrap() >= 2, "{text}");
        json_value(&text, "sim.steps");
        json_value(&text, "trace.events");
        json_value(&text, "analysis.races"); // inline analysis is metered
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn analyze_metrics_pick_up_trace_context() {
        let trace_path = tmp("m-trace.bin");
        let m_path = tmp("m-analyze.json");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {trace_path}"))).unwrap();
        let out = run_cli(&argv(&format!("analyze {trace_path} --metrics {m_path}"))).unwrap();
        assert!(out.contains("metrics written to"), "{out}");
        let text = std::fs::read_to_string(&m_path).unwrap();
        assert_eq!(json_value(&text, "command"), "\"analyze\"");
        assert_eq!(json_value(&text, "program"), "\"fig1a\"");
        json_value(&text, "analysis.candidate_pairs");
        assert_eq!(json_value(&text, "analysis.sync_races"), "0", "fig1a has no sync events");
        json_value(&text, "analysis.hb_build");
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&m_path).ok();
    }

    #[test]
    fn check_stats_summary() {
        let out = run_cli(&argv("check fig1a --model wo --seeds 2 --stats")).unwrap();
        assert!(out.contains("check.seeds"), "{out}");
        assert!(out.contains("check.racy"), "{out}");
    }

    #[test]
    fn no_metrics_flags_no_metrics_output() {
        let out = run_cli(&argv("run fig1a")).unwrap();
        assert!(!out.contains("metrics written"), "{out}");
        assert!(!out.contains("counters:"), "{out}");
    }

    #[test]
    fn explore_hunts_and_dedups_races() {
        let out = run_cli(&argv("explore fig1a --seeds 0..12 --jobs 2")).unwrap();
        assert!(out.contains("campaign: fig1a (12 points)"), "{out}");
        assert!(out.contains("deduplicated race"), "fig1a is racy:\n{out}");
        assert!(out.contains("store-buffer/WO/p=0.3"), "{out}");
        assert!(out.contains("reproduce a finding"), "{out}");
    }

    #[test]
    fn explore_race_free_program() {
        let out = run_cli(&argv("explore producer-consumer --seeds 0..6 --jobs 2")).unwrap();
        assert!(out.contains("no data races found"), "{out}");
    }

    #[test]
    fn explore_repro_replays_one_seed() {
        // Find a racy seed, then replay it.
        let campaign = run_cli(&argv("explore fig1a --seeds 0..12 --jobs 2")).unwrap();
        let seed_word = campaign
            .split("(seed ")
            .nth(1)
            .expect("a finding names its first-reaching seed")
            .split(',')
            .next()
            .unwrap();
        let out =
            run_cli(&argv(&format!("explore fig1a --repro {seed_word} --seeds 0..12"))).unwrap();
        assert!(out.contains(&format!("replay of fig1a (seed {seed_word}")), "{out}");
        assert!(out.contains("race identities reached by this seed"), "{out}");
    }

    #[test]
    fn explore_report_and_metrics_files() {
        let report_path = tmp("campaign.json");
        let m_path = tmp("m-explore.json");
        let out = run_cli(&argv(&format!(
            "explore fig1a --seeds 0..8 --jobs 2 --report {report_path} --metrics {m_path} --stats"
        )))
        .unwrap();
        assert!(out.contains("campaign report written to"), "{out}");
        assert!(out.contains("explore.executions"), "--stats summary:\n{out}");
        let report = std::fs::read_to_string(&report_path).unwrap();
        assert_eq!(json_value(&report, "program"), "\"fig1a\"");
        assert_eq!(json_value(&report, "executions"), "8");
        assert_eq!(json_value(&report, "races"), "[", "fig1a is racy:\n{report}");
        let metrics = std::fs::read_to_string(&m_path).unwrap();
        assert_eq!(json_value(&metrics, "command"), "\"explore\"");
        assert_eq!(json_value(&metrics, "explore.executions"), "8");
        json_value(&metrics, "explore.campaign");
        std::fs::remove_file(&report_path).ok();
        std::fs::remove_file(&m_path).ok();
    }

    #[test]
    fn explore_budget_flags_bound_every_execution() {
        let out = run_cli(&argv("explore fig1a --seeds 0..4 --jobs 1 --budget 1")).unwrap();
        assert!(out.contains("4 budget-stopped"), "{out}");
    }

    #[test]
    fn analyze_salvage_matches_the_plain_report_on_a_torn_tail() {
        let bin_path = tmp("salvage.bin");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {bin_path}"))).unwrap();
        let full = run_cli(&argv(&format!("analyze {bin_path}"))).unwrap();
        // Tear 3 bytes off the tail: the sync section's checksum is
        // damaged, but its content is rebuilt from the event records,
        // so the salvaged analysis matches the intact one exactly.
        let len = std::fs::metadata(&bin_path).unwrap().len();
        let out =
            run_cli(&argv(&format!("analyze {bin_path} --salvage --inject truncate@{}", len - 3)))
                .unwrap();
        assert!(out.starts_with("salvage"), "{out}");
        assert!(out.ends_with(&full), "salvaged report diverged:\n{out}\nvs\n{full}");
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn analyze_salvage_reports_the_boundary_of_a_midstream_cut() {
        let bin_path = tmp("salvage-mid.bin");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {bin_path}"))).unwrap();
        let len = std::fs::metadata(&bin_path).unwrap().len();
        // Cut mid-stream: some events survive, some are lost.
        let out =
            run_cli(&argv(&format!("analyze {bin_path} --salvage --inject truncate@{}", len / 2)))
                .unwrap();
        assert!(out.contains("salvage boundaries:"), "{out}");
        assert!(out.contains("P0:"), "per-processor frontier:\n{out}");
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn salvage_rejects_json_traces() {
        let json_path = tmp("salvage.json");
        std::fs::write(&json_path, b"{\"meta\": {}}").unwrap();
        let err = run_cli(&argv(&format!("analyze {json_path} --salvage"))).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        std::fs::remove_file(&json_path).ok();
    }

    #[test]
    fn analyze_inject_flip_is_caught_not_crashed() {
        let bin_path = tmp("inject.bin");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {bin_path}"))).unwrap();
        // Strict decode reports the corruption as an error...
        let err = run_cli(&argv(&format!("analyze {bin_path} --inject flip@40.3"))).unwrap_err();
        assert!(err.to_string().contains("decode"), "{err}");
        // ...while salvage mode recovers the clean prefix.
        let out =
            run_cli(&argv(&format!("analyze {bin_path} --salvage --inject flip@40.3"))).unwrap();
        assert!(out.starts_with("salvage"), "{out}");
        // Bad plan syntax is a usage error.
        let err = run_cli(&argv(&format!("analyze {bin_path} --inject frob"))).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        std::fs::remove_file(&bin_path).ok();
    }

    #[test]
    fn explore_inject_contains_worker_panics() {
        let out =
            run_cli(&argv("explore fig1a --seeds 0..8 --jobs 2 --inject seed=1;panics=2")).unwrap();
        assert!(out.contains("2 contained failure(s):"), "{out}");
        assert!(out.contains("injected fault"), "{out}");
        assert!(out.contains("campaign: fig1a (8 points)"), "{out}");
    }

    #[test]
    fn submit_and_query_against_a_live_daemon() {
        let server =
            Server::bind(&Endpoint::parse("127.0.0.1:0").unwrap(), ServeConfig::default()).unwrap();
        let addr = server.endpoint().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let path = tmp("served.bin");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {path}"))).unwrap();
        let first = run_cli(&argv(&format!("submit --to {addr} {path}"))).unwrap();
        assert!(first.contains("ingested"), "{first}");
        let again = run_cli(&argv(&format!("submit --to {addr} {path}"))).unwrap();
        assert!(again.contains("duplicate"), "digest dedup:\n{again}");

        let races = run_cli(&argv(&format!("query --to {addr} races"))).unwrap();
        assert!(races.contains("hits="), "{races}");
        let traces = run_cli(&argv(&format!("query --to {addr} traces"))).unwrap();
        assert!(traces.contains("program=fig1a"), "{traces}");
        assert_eq!(run_cli(&argv(&format!("query --to {addr} ping"))).unwrap(), "pong\n");

        // Garbage is rejected with a typed error, not a crash.
        let junk = tmp("junk.bin");
        std::fs::write(&junk, b"\xff\xfe not a trace").unwrap();
        let out = run_cli(&argv(&format!("submit --to {addr} {junk}"))).unwrap();
        assert!(out.contains("REJECTED (decode:"), "{out}");
        assert_eq!(run_cli(&argv(&format!("query --to {addr} ping"))).unwrap(), "pong\n");

        let bye = run_cli(&argv(&format!("query --to {addr} shutdown"))).unwrap();
        assert_eq!(bye, "draining\n");
        let summary = daemon.join().unwrap();
        assert_eq!(summary.ingested, 1);
        assert_eq!(summary.deduped, 1);
        assert_eq!(summary.rejected, 1);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&junk).ok();
    }

    #[test]
    fn explore_sink_streams_racy_traces() {
        let server =
            Server::bind(&Endpoint::parse("127.0.0.1:0").unwrap(), ServeConfig::default()).unwrap();
        let addr = server.endpoint().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let plain = run_cli(&argv("explore fig1a --seeds 0..8 --jobs 2")).unwrap();
        let sunk =
            run_cli(&argv(&format!("explore fig1a --seeds 0..8 --jobs 2 --sink {addr}"))).unwrap();
        assert!(sunk.contains("sink "), "{sunk}");
        assert!(sunk.contains("submitted"), "{sunk}");
        // The report itself is unchanged by the sink.
        let report_part = sunk.split("sink ").next().unwrap();
        assert_eq!(report_part, plain.split("reproduce a finding").next().unwrap());

        let races = run_cli(&argv(&format!("query --to {addr} races"))).unwrap();
        assert!(races.contains("hits="), "the daemon saw the findings:\n{races}");
        run_cli(&argv(&format!("query --to {addr} shutdown"))).unwrap();
        let summary = daemon.join().unwrap();
        assert!(summary.ingested >= 1, "{summary}");

        // A dead sink fails fast, before simulating anything.
        let err = run_cli(&argv(&format!("explore fig1a --seeds 0..4 --sink {addr}")));
        assert!(err.is_err(), "sink gone, invocation must fail");
    }

    #[test]
    fn stream_against_a_live_daemon() {
        let server =
            Server::bind(&Endpoint::parse("127.0.0.1:0").unwrap(), ServeConfig::default()).unwrap();
        let addr = server.endpoint().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let out =
            run_cli(&argv(&format!("stream fig1a --to {addr} --model wo --seed 2 --chunk 64")))
                .unwrap();
        assert!(out.contains("opened fig1a-2"), "{out}");
        assert!(out.contains("closed "), "{out}");
        assert!(out.contains("match=yes"), "streamed and post-mortem keys must agree:\n{out}");

        // The same execution recorded post-hoc and SUBMITted
        // deduplicates against what the stream ingested: both paths
        // reassemble the identical trace, meta included.
        let path = tmp("streamed-twin.bin");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {path}"))).unwrap();
        let again = run_cli(&argv(&format!("submit --to {addr} {path}"))).unwrap();
        assert!(again.contains("duplicate"), "stream/submit digest parity:\n{again}");

        run_cli(&argv(&format!("query --to {addr} shutdown"))).unwrap();
        let summary = daemon.join().unwrap();
        assert_eq!(summary.stream_sessions, 1, "{summary}");
        assert!(summary.stream_events > 0, "{summary}");
        assert_eq!(summary.stream_crosscheck_failures, 0, "{summary}");
        assert!(summary.ingested >= 1, "{summary}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_flags_racy_programs_with_nonzero_exit() {
        let err = run_cli(&argv("lint fig1a")).unwrap_err();
        let CliError::LintFindings { output, findings } = err else { panic!("expected findings") };
        assert!(findings > 0);
        assert!(output.contains("verdict: MAY RACE"), "{output}");
        assert!(output.contains("m[0]"), "{output}");
    }

    #[test]
    fn lint_passes_statically_race_free_programs() {
        let out = run_cli(&argv("lint counter-locked")).unwrap();
        assert!(out.contains("verdict: statically race-free"), "{out}");
        assert!(out.contains("qualified locks"), "{out}");
    }

    #[test]
    fn lint_json_formats() {
        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint fig1a --format json")).unwrap_err()
        else {
            panic!("expected findings")
        };
        assert!(output.starts_with("{\n  \"program\": \"fig1a\","), "{output}");
        assert_eq!(json_value(&output, "keys"), "[", "fig1a has findings:\n{output}");

        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint fig1a counter-locked --format json")).unwrap_err()
        else {
            panic!("expected findings")
        };
        assert!(output.starts_with("[\n  {\n    \"program\": \"fig1a\","), "{output}");
        assert_eq!(output.matches("\"num_locations\": ").count(), 2, "one report per target");
    }

    #[test]
    fn lint_cycles_classifies_and_plans_repair() {
        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint fig1a --cycles")).unwrap_err()
        else {
            panic!("expected findings")
        };
        assert!(output.contains("cycle classification for 'fig1a'"), "{output}");
        assert!(output.contains("sc-also"), "{output}");
        assert!(output.contains("delay set:"), "{output}");
        assert!(output.contains("repair for 'fig1a'"), "{output}");
        assert!(output.contains("fence P0 before @1"), "{output}");

        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint fig1b --cycles")).unwrap_err()
        else {
            panic!("expected findings")
        };
        assert!(output.contains("weak-only (sync chain via m[2])"), "{output}");
        assert!(output.contains("no-op (nothing to fix)"), "{output}");
    }

    #[test]
    fn lint_cycles_json_uses_the_v2_envelope() {
        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint fig1a --cycles --format json")).unwrap_err()
        else {
            panic!("expected findings")
        };
        assert!(output.contains("\"version\": 2"), "{output}");
        assert!(output.contains("\"cycles\""), "{output}");
        assert!(output.contains("\"repair\""), "{output}");
        assert!(output.contains("\"program\": \"fig1a\""), "report fields stay flat:\n{output}");
        assert!(output.contains("\"sc-also\""), "{output}");

        // Without --cycles the v1 schema is untouched — no version
        // field, no envelope; existing consumers keep parsing.
        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint fig1a --format json")).unwrap_err()
        else {
            panic!("expected findings")
        };
        assert!(!output.contains("\"version\""), "{output}");
        assert!(!output.contains("\"cycles\""), "{output}");
    }

    #[test]
    fn lint_repair_writes_a_reparseable_race_free_program() {
        let path = tmp("fig1a-repaired.wmrd");
        let CliError::LintFindings { output, .. } =
            run_cli(&argv(&format!("lint fig1a --repair {path}"))).unwrap_err()
        else {
            panic!("fig1a itself still has findings")
        };
        assert!(output.contains("repaired program written to"), "{output}");
        let repaired = wmrd_sim::parse_asm(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(repaired.name(), "fig1a", "repair keeps the program name");
        // The written file is itself clean: every access became sync
        // or fence-separated, so re-linting it finds nothing.
        let relint = run_cli(&argv(&format!("lint {path}"))).unwrap();
        assert!(relint.contains("verdict: statically race-free"), "{relint}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_all_covers_the_catalog() {
        let CliError::LintFindings { output, .. } = run_cli(&argv("lint all")).unwrap_err() else {
            panic!("the catalog has racy entries")
        };
        assert!(output.contains("linted"), "{output}");
        for entry in catalog::all() {
            assert!(output.contains(entry.name), "missing {}:\n{output}", entry.name);
        }
    }

    #[test]
    fn lint_reads_assembly_files() {
        let path = tmp("racy.wmrd");
        std::fs::write(
            &path,
            "program tmp\nmemory 1\nproc\n  st 1, m[0]\n  halt\nproc\n  ld r0, m[0]\n  halt\n",
        )
        .unwrap();
        let err = run_cli(&argv(&format!("lint {path}"))).unwrap_err();
        assert!(matches!(err, CliError::LintFindings { findings: 1, .. }), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn asm_parse_errors_carry_line_and_column() {
        let path = tmp("broken.wmrd");
        std::fs::write(&path, "proc\n  frobnicate r0\n").unwrap();
        let err = run_cli(&argv(&format!("run {path}"))).unwrap_err();
        let text = err.to_string();
        assert!(matches!(err, CliError::Asm { .. }), "{text}");
        assert!(text.contains("line 2"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn lint_metrics_and_stats() {
        let m_path = tmp("m-lint.json");
        let out =
            run_cli(&argv(&format!("lint counter-locked --metrics {m_path} --stats"))).unwrap();
        assert!(out.contains("lint.programs"), "{out}");
        let text = std::fs::read_to_string(&m_path).unwrap();
        assert_eq!(json_value(&text, "command"), "\"lint\"");
        assert_eq!(json_value(&text, "lint.programs"), "1");
        assert_eq!(json_value(&text, "lint.race_free"), "1");
        json_value(&text, "lint.analysis");
        std::fs::remove_file(&m_path).ok();
    }

    #[test]
    fn predict_flags_predicted_races_with_nonzero_exit() {
        let err = run_cli(&argv("predict fig1a --model wo --seed 2")).unwrap_err();
        let CliError::PredictFindings { output, findings } = err else {
            panic!("expected predicted races")
        };
        assert!(findings > 0);
        assert!(output.contains("RACES PREDICTED"), "{output}");
        assert!(output.contains("predictive race report for 'fig1a'"), "{output}");
    }

    #[test]
    fn predict_passes_race_free_programs() {
        let out = run_cli(&argv("predict counter-locked")).unwrap();
        assert!(out.contains("verdict: predictively race-free"), "{out}");
    }

    #[test]
    fn predict_reads_trace_files_both_formats() {
        // A recorded trace and a `.wmrd` program file both work as
        // targets; the same execution yields the same report.
        let bin_path = tmp("predict-t.bin");
        let asm_path = tmp("predict-fig1a.wmrd");
        run_cli(&argv(&format!("run fig1a --model wo --seed 2 --trace {bin_path}"))).unwrap();
        run_cli(&argv(&format!("export fig1a {asm_path}"))).unwrap();
        let CliError::PredictFindings { output: from_bin, .. } =
            run_cli(&argv(&format!("predict {bin_path}"))).unwrap_err()
        else {
            panic!("expected predicted races")
        };
        assert!(from_bin.contains("predictive race report for 'fig1a'"), "{from_bin}");
        let CliError::PredictFindings { output: from_asm, .. } =
            run_cli(&argv(&format!("predict {asm_path} --model wo --seed 2"))).unwrap_err()
        else {
            panic!("expected predicted races")
        };
        assert_eq!(from_bin, from_asm, "trace and program inputs agree");
        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&asm_path).ok();
    }

    #[test]
    fn predict_shb_matches_the_observed_analysis() {
        // SHB is the hb1 baseline: predicted == observed, so nothing is
        // marked predicted-only.
        let CliError::PredictFindings { output, .. } =
            run_cli(&argv("predict fig1a --order shb --model wo --seed 2")).unwrap_err()
        else {
            panic!("expected predicted races")
        };
        assert!(output.contains("order shb"), "{output}");
        assert!(!output.contains("predicted-only"), "{output}");
    }

    #[test]
    fn predict_json_and_multi_target_summary() {
        let CliError::PredictFindings { output, .. } =
            run_cli(&argv("predict fig1a --format json --model wo --seed 2")).unwrap_err()
        else {
            panic!("expected predicted races")
        };
        assert!(output.starts_with("{\n  \"program\": \"fig1a\","), "{output}");
        assert_eq!(json_value(&output, "order"), "\"wcp\"");
        assert_eq!(json_value(&output, "keys"), "[", "fig1a has predicted races:\n{output}");

        let CliError::PredictFindings { output, .. } = run_cli(&argv("predict all")).unwrap_err()
        else {
            panic!("the catalog has racy entries")
        };
        assert!(output.contains("predicted over"), "{output}");
        for entry in catalog::all() {
            assert!(output.contains(entry.name), "missing {}:\n{output}", entry.name);
        }
    }

    #[test]
    fn predict_metrics_and_stats() {
        let m_path = tmp("m-predict.json");
        let out =
            run_cli(&argv(&format!("predict counter-locked --metrics {m_path} --stats"))).unwrap();
        assert!(out.contains("predict.traces"), "{out}");
        let text = std::fs::read_to_string(&m_path).unwrap();
        assert_eq!(json_value(&text, "command"), "\"predict\"");
        assert_eq!(json_value(&text, "order"), "\"wcp\"");
        assert_eq!(json_value(&text, "predict.traces"), "1");
        assert_eq!(json_value(&text, "predict.race_free"), "1");
        json_value(&text, "predict.analysis");
        std::fs::remove_file(&m_path).ok();
    }

    #[test]
    fn predict_is_deterministic() {
        let CliError::PredictFindings { output: first, .. } =
            run_cli(&argv("predict fig1a --model wo --seed 2")).unwrap_err()
        else {
            panic!("expected predicted races")
        };
        let CliError::PredictFindings { output: second, .. } =
            run_cli(&argv("predict fig1a --model wo --seed 2")).unwrap_err()
        else {
            panic!("expected predicted races")
        };
        assert_eq!(first, second, "same trace, same report, byte for byte");
    }

    #[test]
    fn explore_predict_cross_checks_the_campaign() {
        let out = run_cli(&argv("explore fig1a --seeds 0..12 --jobs 2 --predict")).unwrap();
        assert!(out.contains("predictive cross-check"), "{out}");
        assert!(out.contains("all reached by the campaign"), "{out}");
        assert!(!out.contains("soundness violation"), "{out}");
    }

    #[test]
    fn explore_prune_static_skips_race_free_programs() {
        let out =
            run_cli(&argv("explore counter-locked --seeds 0..16 --prune-static --stats")).unwrap();
        assert!(out.contains("campaign: counter-locked (16 points)"), "{out}");
        assert!(out.contains("pruned statically"), "{out}");
        assert!(!out.contains("executions:"), "nothing should have run:\n{out}");
        assert!(out.contains("lint.pruned_campaigns"), "{out}");
    }

    #[test]
    fn explore_prune_static_cross_checks_racy_programs() {
        let out = run_cli(&argv("explore fig1a --seeds 0..8 --jobs 2 --prune-static")).unwrap();
        assert!(out.contains("deduplicated race"), "the campaign still runs:\n{out}");
        assert!(out.contains("static cross-check"), "{out}");
        assert!(!out.contains("escaped the static"), "soundness violation:\n{out}");
    }

    #[test]
    fn io_errors_name_the_path() {
        let err = run_cli(&argv("analyze /nonexistent/trace.json")).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/trace.json"), "{err}");
        let err = run_cli(&argv("export fig1a /nonexistent/dir/out.wmrd")).unwrap_err();
        assert!(err.to_string().contains("/nonexistent/dir/out.wmrd"), "{err}");
    }

    #[test]
    fn missing_program_is_not_found() {
        assert!(matches!(run_cli(&argv("run no-such-thing")), Err(CliError::NotFound(_))));
        assert!(matches!(run_cli(&argv("show nope")), Err(CliError::NotFound(_))));
    }

    #[test]
    fn capture_list_names_every_workload() {
        let listing = run_cli(&argv("capture list")).unwrap();
        for w in wmrd_capture::workloads::all() {
            assert!(listing.contains(w.name), "{listing}");
        }
        assert!(listing.contains("racy"), "{listing}");
        assert!(listing.contains("clean"), "{listing}");
    }

    #[test]
    fn capture_unknown_workload_is_not_found() {
        assert!(matches!(run_cli(&argv("capture no-such-workload")), Err(CliError::NotFound(_))));
    }

    #[test]
    fn capture_racy_workload_reports_races_inline() {
        let out = run_cli(&argv("capture publish-racy --runs 2 --seed 5")).unwrap();
        assert!(out.contains("publish-racy seed=5:"), "{out}");
        assert!(out.contains("publish-racy seed=6:"), "{out}");
        assert!(out.contains("race "), "expected inline race keys:\n{out}");
        assert!(out.contains("captured 2 run(s)"), "{out}");
    }

    #[test]
    fn capture_clean_workload_is_race_free() {
        let out = run_cli(&argv("capture publish")).unwrap();
        assert!(out.contains("0 race key(s)"), "{out}");
        assert!(out.contains("captured 1 run(s): 0 distinct race key(s)"), "{out}");
    }

    #[test]
    fn capture_out_writes_analyzable_trace_files() {
        let prefix = tmp("cap");
        run_cli(&argv(&format!("capture seqlock-racy --seed 3 --out {prefix}"))).unwrap();
        let path = format!("{prefix}-seqlock-racy-3.trace");
        // The captured file round-trips through the stock analyzer.
        let report = run_cli(&argv(&format!("analyze {path}"))).unwrap();
        assert!(report.contains("race"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn capture_submits_v2_traces_to_a_live_daemon() {
        let server =
            Server::bind(&Endpoint::parse("127.0.0.1:0").unwrap(), ServeConfig::default()).unwrap();
        let addr = server.endpoint().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let out = run_cli(&argv(&format!("capture lazy-init-racy --sink {addr}"))).unwrap();
        assert!(out.contains("sink: "), "{out}");
        assert!(out.contains("1 delivered to sink"), "{out}");

        run_cli(&argv(&format!("query --to {addr} shutdown"))).unwrap();
        let summary = daemon.join().unwrap();
        assert_eq!(summary.ingested, 1);
    }

    #[test]
    fn capture_streams_wmrs_to_a_live_daemon() {
        let server =
            Server::bind(&Endpoint::parse("127.0.0.1:0").unwrap(), ServeConfig::default()).unwrap();
        let addr = server.endpoint().to_string();
        let daemon = std::thread::spawn(move || server.run().unwrap());

        let out =
            run_cli(&argv(&format!("capture actor-racy --format wmrs --chunk 32 --sink {addr}")))
                .unwrap();
        assert!(out.contains("sink: "), "{out}");
        assert!(out.contains("1 delivered to sink"), "{out}");

        run_cli(&argv(&format!("query --to {addr} shutdown"))).unwrap();
        let summary = daemon.join().unwrap();
        assert_eq!(summary.ingested, 1, "the CLOSEd stream was ingested");
    }

    /// A daemon that answers a WMRS session with `BUSY` gets the same
    /// treatment as a `BUSY` `SUBMIT`: reported per run, never fatal.
    #[test]
    fn capture_reports_a_busy_wmrs_sink_and_carries_on() {
        // No session slot (BUSY at STREAM), then no queue room (BUSY at
        // every CLOSE retry, which leaves the sealed session behind).
        for config in [
            ServeConfig { max_streams: 0, ..ServeConfig::default() },
            ServeConfig { queue_cap: 0, ..ServeConfig::default() },
        ] {
            let server = Server::bind(&Endpoint::parse("127.0.0.1:0").unwrap(), config).unwrap();
            let addr = server.endpoint().to_string();
            let daemon = std::thread::spawn(move || server.run().unwrap());

            let out = run_cli(&argv(&format!(
                "capture publish-racy --format wmrs --sink {addr} --runs 2"
            )))
            .unwrap();
            assert_eq!(out.matches("sink: BUSY (").count(), 2, "{out}");
            assert!(out.contains("0 delivered to sink"), "{out}");

            run_cli(&argv(&format!("query --to {addr} shutdown"))).unwrap();
            let summary = daemon.join().unwrap();
            assert_eq!(summary.ingested, 0, "{summary}");
        }
    }

    /// Where the shipped `.wmrd` examples live.
    fn example(name: &str) -> String {
        format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"))
    }

    #[test]
    fn help_documents_every_cli_surface() {
        let help = run_cli(&argv("help")).unwrap();
        for needle in
            ["--cycles", "wmrd predict", "--hw store-buffer|inval-queue|ooo", "wmrd capture"]
        {
            assert!(help.contains(needle), "wmrd help does not document `{needle}`");
        }
    }

    #[test]
    fn lint_passes_a_file_and_a_catalog_target_together() {
        let out =
            run_cli(&argv(&format!("lint {} counter-locked", example("spinlock.wmrd")))).unwrap();
        assert!(out.contains("linted 2 program(s): 0 with may-race findings"), "{out}");
    }

    #[test]
    fn lint_all_cycles_classifies_the_whole_catalog() {
        // Findings are the only failure: the catalog has racy entries,
        // and every entry gets its cycle classification.
        let CliError::LintFindings { output, .. } =
            run_cli(&argv("lint all --cycles")).unwrap_err()
        else {
            panic!("lint all --cycles must end in findings, nothing else")
        };
        for entry in catalog::all() {
            let header = format!("cycle classification for '{}'", entry.name);
            assert!(output.contains(&header), "missing {header}:\n{output}");
        }
    }

    #[test]
    fn predict_exit_status_from_executed_programs() {
        let out = run_cli(&argv("predict counter-locked --model wo")).unwrap();
        assert!(out.contains("verdict: predictively race-free"), "{out}");
        let err = run_cli(&argv("predict lazy-publish-racy --model wo --seed 2 --order wcp"))
            .unwrap_err();
        let CliError::PredictFindings { output, findings } = err else {
            panic!("lazy-publish-racy must predict a race")
        };
        assert!(findings > 0, "{output}");
        assert!(output.contains("verdict: RACES PREDICTED"), "{output}");
    }

    #[test]
    fn hw_flags_accept_ooo_and_reject_unknown_styles() {
        let out = run_cli(&argv("run fig1a --hw ooo --model wo")).unwrap();
        assert!(out.contains("ran fig1a on WO"), "{out}");
        let out = run_cli(&argv("check fig1b --hw ooo --seeds 4")).unwrap();
        assert!(out.contains("ooo), 4 seeded executions"), "{out}");
        assert!(out.contains("every execution satisfied Condition 3.4"), "{out}");
        let err = run_cli(&argv("run fig1a --hw rob --model wo")).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn capture_reports_the_races_of_a_racy_workload_at_seed_zero() {
        let out = run_cli(&argv("capture publish-racy --seed 0")).unwrap();
        assert!(out.contains("publish-racy seed=0:"), "{out}");
        assert!(out.contains("  race "), "expected inline race keys:\n{out}");
    }
}
