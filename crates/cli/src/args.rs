//! Argument parsing for `wmrd`.
//!
//! Each subcommand walks its arguments once, left to right, with a
//! `Cursor`. The flags that several subcommands share are parsed by one
//! piece of code each, so a flag reads, defaults and fails the same way
//! wherever it appears:
//!
//! * [`ExecOpts`]: `--model`, `--fidelity` and `--hw`, plus `--seed` on
//!   `run`, `predict` and `stream`: how one program execution runs.
//!   `check` takes the group without `--seed` (it has `--seeds`).
//! * [`MetricsOpts`]: `--metrics <file>` and `--stats`.
//! * `Cursor::number`: every integer flag, failing with "`--x` wants an
//!   integer"; `Cursor::at_least_one` where zero means nothing to do
//!   (`check --seeds`, `--chunk`).
//! * `Cursor::json_format`: `--format text|json` on `lint`, `predict`
//!   and `query`.
//!
//! Every parse failure is a [`CliError::Usage`] naming the flag or
//! value at fault.

use std::str::FromStr;

use wmrd_core::PairingPolicy;
use wmrd_predict::PredictOrder;
use wmrd_sim::{Fidelity, HwImpl, MemoryModel};

use crate::CliError;

/// How one program execution runs: the `--model`, `--fidelity`, `--hw`
/// and `--seed` flags. An SC execution runs on the SC machine; every
/// other model runs on the `hw` weak machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOpts {
    /// Memory model to execute under.
    pub model: MemoryModel,
    /// Conditioned (default) or raw hardware.
    pub fidelity: Fidelity,
    /// Weak-hardware implementation style.
    pub hw: HwImpl,
    /// Scheduler seed. `check` takes no `--seed` and leaves it 0.
    pub seed: u64,
}

impl ExecOpts {
    fn new(model: MemoryModel) -> Self {
        ExecOpts { model, fidelity: Fidelity::Conditioned, hw: HwImpl::StoreBuffer, seed: 0 }
    }

    /// Parses `flag` if it belongs to the group, returning whether it
    /// did; `takes_seed` says whether the command accepts `--seed`.
    fn parse_flag(
        &mut self,
        flag: &str,
        cur: &mut Cursor<'_>,
        takes_seed: bool,
    ) -> Result<bool, CliError> {
        match flag {
            "--model" => self.model = parse_model(cur.value_for(flag)?)?,
            "--fidelity" => self.fidelity = parse_fidelity(cur.value_for(flag)?)?,
            "--hw" => self.hw = parse_hw(cur.value_for(flag)?)?,
            "--seed" if takes_seed => self.seed = cur.number(flag)?,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// The `--metrics <file>` and `--stats` flags: where a command's
/// `RunMetrics` report goes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsOpts {
    /// Where to write the `RunMetrics` report (JSON).
    pub out: Option<String>,
    /// Print a human-readable metrics summary.
    pub stats: bool,
}

impl MetricsOpts {
    /// Parses `flag` if it belongs to the group, returning whether it did.
    fn parse_flag(&mut self, flag: &str, cur: &mut Cursor<'_>) -> Result<bool, CliError> {
        match flag {
            "--metrics" => self.out = Some(cur.owned(flag)?),
            "--stats" => self.stats = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Options for `wmrd run`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Catalog name or path to a `.wmrd` assembly file.
    pub program: String,
    /// How to execute it (default model: SC).
    pub exec: ExecOpts,
    /// Where to write the event trace (v2 binary).
    pub trace_out: Option<String>,
    /// Where to write the operation-level trace (JSON).
    pub ops_out: Option<String>,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
}

/// Options for `wmrd analyze`.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOpts {
    /// Binary (`WMRD`) trace file.
    pub trace: String,
    /// Salvage mode: recover the longest checksummed prefix of a
    /// damaged binary trace and analyze that.
    pub salvage: bool,
    /// Fault-plan syntax (see `wmrd_faults::FaultPlan::parse`) applied
    /// to the trace bytes before decoding.
    pub inject: Option<String>,
    /// Pairing policy.
    pub pairing: PairingPolicy,
    /// Also list withheld (non-first) races.
    pub show_all: bool,
    /// Render a per-processor timeline.
    pub timeline: bool,
    /// Write a Graphviz DOT rendering here.
    pub dot_out: Option<String>,
    /// Emit the report as JSON instead of text.
    pub json: bool,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
}

/// Options for `wmrd check`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOpts {
    /// Catalog name or path to a `.wmrd` assembly file.
    pub program: String,
    /// Model, fidelity and hardware to check (default model: WO).
    pub exec: ExecOpts,
    /// Number of seeded executions to check (at least one).
    pub seeds: u64,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
}

/// Options for `wmrd explore`.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOpts {
    /// Catalog name or path to a `.wmrd` assembly file.
    pub program: String,
    /// Half-open seed range (`start..end`).
    pub seeds: (u64, u64),
    /// Worker threads; `0` means one per available core.
    pub jobs: usize,
    /// Per-execution step budget (`None` = unbounded).
    pub budget: Option<u64>,
    /// Per-execution cycle budget (`None` = unbounded).
    pub cycle_budget: Option<u64>,
    /// Memory models to explore.
    pub models: Vec<MemoryModel>,
    /// Weak-hardware implementation styles to explore.
    pub hws: Vec<HwImpl>,
    /// Drain probabilities for the random weak scheduler.
    pub drain_probs: Vec<f64>,
    /// Conditioned (default) or raw hardware.
    pub fidelity: Fidelity,
    /// Pairing policy for the analysis.
    pub pairing: PairingPolicy,
    /// Lint the program first: skip the campaign when it is statically
    /// race-free, and cross-check dynamic findings against the static
    /// may-race set otherwise.
    pub prune_static: bool,
    /// Predict races from the campaign's first execution point and use
    /// the campaign as a soundness oracle: every predicted key must be
    /// reached by some seed.
    pub predict: bool,
    /// Replay this seed in full detail instead of running a campaign.
    pub repro: Option<u64>,
    /// Stream every racy trace to a running `wmrd serve` daemon at
    /// this endpoint (`<addr|unix:path>`).
    pub sink: Option<String>,
    /// Fault-plan syntax (see `wmrd_faults::FaultPlan::parse`)
    /// injecting worker panics into the campaign.
    pub inject: Option<String>,
    /// Where to write the campaign report (JSON).
    pub report_out: Option<String>,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
    /// Synthesize a fence/strengthening repair first, then verify it:
    /// the repaired program must run race-free and satisfy Condition
    /// 3.4 on every hardware backend over the seed range, and the
    /// *unrepaired* program is run under raw out-of-order hardware as
    /// an ablation.
    pub verify_repair: bool,
}

/// Options for `wmrd lint`.
#[derive(Debug, Clone, PartialEq)]
pub struct LintOpts {
    /// Catalog names or assembly (`.wmrd`) files; the single word `all`
    /// means the whole catalog.
    pub targets: Vec<String>,
    /// Emit JSON instead of text (`--format json`).
    pub json: bool,
    /// Run the critical-cycle delay-set analysis on top of the
    /// may-race report: classify every key as `sc-also` or
    /// `weak-only`, list the delay set, and show the synthesized
    /// repair plan. JSON output switches to the versioned v2 envelope.
    pub cycles: bool,
    /// Write the repaired program (fences inserted, sync ops
    /// strengthened) as `.wmrd` assembly to this path. Implies the
    /// cycle analysis and wants exactly one target.
    pub repair_out: Option<String>,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
}

/// Options for `wmrd predict`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictOpts {
    /// Catalog names, `.wmrd` assembly files, binary (`WMRD`) trace
    /// files, or the single word `all` (the whole catalog).
    pub targets: Vec<String>,
    /// Predictive partial order (`--order shb|wcp`).
    pub order: PredictOrder,
    /// How a program target is executed first (default model: WO).
    pub exec: ExecOpts,
    /// Pairing policy for so1 recovery.
    pub pairing: PairingPolicy,
    /// Emit JSON instead of text (`--format json`).
    pub json: bool,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
}

/// Options for `wmrd capture`.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureOpts {
    /// Capture workload name (see `wmrd capture list`) or `all`.
    pub workload: String,
    /// Captured runs per workload; seeds are `seed..seed+runs`.
    pub runs: u64,
    /// Base nudge-plan seed.
    pub seed: u64,
    /// Emit the operation-granular `WMRS` stream format instead of the
    /// event-level v2 binary (`--format v2|wmrs`).
    pub wmrs: bool,
    /// Write each run's trace to `<prefix>-<workload>-<seed>.<ext>`.
    pub out: Option<String>,
    /// Deliver each run to a live daemon: `SUBMIT` for v2 traces, a
    /// `STREAM`/`FEED`/`CLOSE` session for `WMRS` streams.
    pub sink: Option<String>,
    /// Chunk size in bytes (at least one) for `FEED` frames when
    /// streaming to `--sink` in `WMRS` format.
    pub chunk: usize,
    /// Metrics report and summary.
    pub metrics: MetricsOpts,
}

/// Options for `wmrd serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Listen endpoint (`<addr|unix:path>`).
    pub listen: String,
    /// Journal path for a durable catalog; `None` keeps it in memory.
    pub catalog: Option<String>,
    /// Analysis worker threads.
    pub workers: usize,
    /// Pending-analysis queue capacity (the backpressure bound).
    pub queue_cap: usize,
    /// Pairing policy for server-side analysis.
    pub pairing: PairingPolicy,
    /// Concurrent streaming-session slots; a `STREAM` beyond this cap
    /// is refused with `BUSY`.
    pub max_streams: usize,
}

/// Options for `wmrd submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitOpts {
    /// Daemon endpoint (`<addr|unix:path>`).
    pub to: String,
    /// Binary (`WMRD`) trace files to submit, in order.
    pub files: Vec<String>,
}

/// Options for `wmrd stream`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOpts {
    /// Daemon endpoint (`<addr|unix:path>`).
    pub to: String,
    /// Catalog name or path to a `.wmrd` assembly file.
    pub program: String,
    /// How to execute it (default model: WO).
    pub exec: ExecOpts,
    /// Chunk size in bytes (at least one) for `FEED` frames.
    pub chunk: usize,
    /// Session name sent with `STREAM`; defaults to
    /// `<program>-<seed>`.
    pub session: Option<String>,
}

/// Options for `wmrd query`.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOpts {
    /// Daemon endpoint (`<addr|unix:path>`).
    pub to: String,
    /// Query spec (`races`, `traces`, `key=…`, `program=…`, `model=…`,
    /// `since=…`) or a daemon control word (`stats`, `ping`, `compact`,
    /// `shutdown`).
    pub spec: String,
    /// Re-render race rows as JSON objects (`--format json`), with
    /// predicted-vs-observed provenance spelled out per key.
    pub json: bool,
}

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List catalog workloads.
    Catalog,
    /// Disassemble a workload.
    Show(String),
    /// Export a workload as `.wmrd` assembly.
    Export {
        /// Catalog name.
        name: String,
        /// Output path.
        path: String,
    },
    /// Run a program and optionally record traces.
    Run(RunOpts),
    /// Analyze a recorded trace.
    Analyze(AnalyzeOpts),
    /// Check Condition 3.4 on seeded executions.
    Check(CheckOpts),
    /// Hunt races across many seeded executions in parallel.
    Explore(ExploreOpts),
    /// Static may-race analysis over program text.
    Lint(LintOpts),
    /// Predictive race detection from a single recorded trace.
    Predict(PredictOpts),
    /// Run instrumented multithreaded workloads and capture their
    /// executions as traces.
    Capture(CaptureOpts),
    /// Run the race-analysis daemon over a persistent catalog.
    Serve(ServeOpts),
    /// Submit recorded traces to a running daemon.
    Submit(SubmitOpts),
    /// Execute a program and stream its events live to a daemon.
    Stream(StreamOpts),
    /// Query a running daemon's catalog.
    Query(QueryOpts),
    /// The Figure 2/3 walkthrough.
    Demo,
    /// Print usage.
    Help,
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn unknown_flag(flag: &str, command: &str) -> CliError {
    usage(format!("unknown flag `{flag}` for {command}"))
}

fn parse_model(s: &str) -> Result<MemoryModel, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "sc" => Ok(MemoryModel::Sc),
        "wo" => Ok(MemoryModel::Wo),
        "rcsc" => Ok(MemoryModel::RCsc),
        "drf0" => Ok(MemoryModel::Drf0),
        "drf1" => Ok(MemoryModel::Drf1),
        other => Err(usage(format!("unknown model `{other}` (expected sc|wo|rcsc|drf0|drf1)"))),
    }
}

fn parse_fidelity(s: &str) -> Result<Fidelity, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "conditioned" => Ok(Fidelity::Conditioned),
        "raw" => Ok(Fidelity::Raw),
        other => Err(usage(format!("unknown fidelity `{other}` (expected conditioned|raw)"))),
    }
}

fn parse_hw(s: &str) -> Result<HwImpl, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "store-buffer" => Ok(HwImpl::StoreBuffer),
        "inval-queue" => Ok(HwImpl::InvalQueue),
        "ooo" => Ok(HwImpl::Ooo),
        other => Err(usage(format!(
            "unknown hardware `{other}` (expected store-buffer|inval-queue|ooo)"
        ))),
    }
}

/// Parses `--seeds` syntax: `A..B` (half-open) or a bare count `N`
/// meaning `0..N`.
fn parse_seed_range(s: &str) -> Result<(u64, u64), CliError> {
    let bad = || usage(format!("--seeds wants `start..end` or a count, got `{s}`"));
    if let Some((a, b)) = s.split_once("..") {
        let start: u64 = a.parse().map_err(|_| bad())?;
        let end: u64 = b.parse().map_err(|_| bad())?;
        if start >= end {
            return Err(usage(format!("--seeds range `{s}` is empty")));
        }
        Ok((start, end))
    } else {
        let n: u64 = s.parse().map_err(|_| bad())?;
        if n == 0 {
            return Err(usage("--seeds wants at least one seed"));
        }
        Ok((0, n))
    }
}

/// Parses a comma-separated list with a per-item parser.
fn parse_list<T>(s: &str, item: impl Fn(&str) -> Result<T, CliError>) -> Result<Vec<T>, CliError> {
    s.split(',').map(|part| item(part.trim())).collect()
}

fn parse_order(s: &str) -> Result<PredictOrder, CliError> {
    PredictOrder::parse(s).ok_or_else(|| usage(format!("unknown order `{s}` (expected shb|wcp)")))
}

fn parse_pairing(s: &str) -> Result<PairingPolicy, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "by-role" => Ok(PairingPolicy::ByRole),
        "all-sync" => Ok(PairingPolicy::AllSync),
        other => Err(usage(format!("unknown pairing `{other}` (expected by-role|all-sync)"))),
    }
}

struct Cursor<'a> {
    args: &'a [String],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let v = self.args.get(self.pos).map(|s| s.as_str());
        if v.is_some() {
            self.pos += 1;
        }
        v
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, CliError> {
        self.next().ok_or_else(|| usage(format!("{flag} requires a value")))
    }

    fn owned(&mut self, flag: &str) -> Result<String, CliError> {
        self.value_for(flag).map(str::to_string)
    }

    /// The integer value of `flag`.
    fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        // `--repro` names what its integer is.
        let what = if flag == "--repro" { "a seed integer" } else { "an integer" };
        self.value_for(flag)?.parse().map_err(|_| usage(format!("{flag} wants {what}")))
    }

    /// The integer value of `flag`, which must not be zero; `unit` names
    /// one of what it counts.
    fn at_least_one<T: FromStr + Default + PartialEq>(
        &mut self,
        flag: &str,
        unit: &str,
    ) -> Result<T, CliError> {
        let n = self.number(flag)?;
        if n == T::default() {
            return Err(usage(format!("{flag} wants at least one {unit}")));
        }
        Ok(n)
    }

    /// `--format text|json`: whether the output is JSON.
    fn json_format(&mut self, flag: &str) -> Result<bool, CliError> {
        match self.value_for(flag)? {
            "text" => Ok(false),
            "json" => Ok(true),
            other => Err(usage(format!("unknown format `{other}` (expected text|json)"))),
        }
    }
}

/// Parses a full argument list (excluding the binary name).
///
/// # Errors
///
/// Returns [`CliError::Usage`] describing the problem.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut cur = Cursor { args, pos: 0 };
    let Some(cmd) = cur.next() else { return Ok(Command::Help) };
    match cmd {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "catalog" => Ok(Command::Catalog),
        "demo" => Ok(Command::Demo),
        "show" => Ok(Command::Show(cur.owned("show")?)),
        "export" => {
            let name = cur.owned("export")?;
            let path = cur.owned("export <name>")?;
            Ok(Command::Export { name, path })
        }
        "run" => {
            let mut opts = RunOpts {
                program: cur.owned("run")?,
                exec: ExecOpts::new(MemoryModel::Sc),
                trace_out: None,
                ops_out: None,
                metrics: MetricsOpts::default(),
            };
            while let Some(flag) = cur.next() {
                if opts.exec.parse_flag(flag, &mut cur, true)?
                    || opts.metrics.parse_flag(flag, &mut cur)?
                {
                    continue;
                }
                match flag {
                    "--trace" => opts.trace_out = Some(cur.owned(flag)?),
                    "--ops" => opts.ops_out = Some(cur.owned(flag)?),
                    other => return Err(unknown_flag(other, "run")),
                }
            }
            Ok(Command::Run(opts))
        }
        "analyze" => {
            let mut opts = AnalyzeOpts {
                trace: cur.owned("analyze")?,
                salvage: false,
                inject: None,
                pairing: PairingPolicy::ByRole,
                show_all: false,
                timeline: false,
                dot_out: None,
                json: false,
                metrics: MetricsOpts::default(),
            };
            while let Some(flag) = cur.next() {
                if opts.metrics.parse_flag(flag, &mut cur)? {
                    continue;
                }
                match flag {
                    "--pairing" => opts.pairing = parse_pairing(cur.value_for(flag)?)?,
                    "--salvage" => opts.salvage = true,
                    "--inject" => opts.inject = Some(cur.owned(flag)?),
                    "--all" => opts.show_all = true,
                    "--timeline" => opts.timeline = true,
                    "--dot" => opts.dot_out = Some(cur.owned(flag)?),
                    "--json" => opts.json = true,
                    other => return Err(unknown_flag(other, "analyze")),
                }
            }
            Ok(Command::Analyze(opts))
        }
        "check" => {
            let mut opts = CheckOpts {
                program: cur.owned("check")?,
                exec: ExecOpts::new(MemoryModel::Wo),
                seeds: 5,
                metrics: MetricsOpts::default(),
            };
            while let Some(flag) = cur.next() {
                if opts.exec.parse_flag(flag, &mut cur, false)?
                    || opts.metrics.parse_flag(flag, &mut cur)?
                {
                    continue;
                }
                match flag {
                    "--seeds" => opts.seeds = cur.at_least_one(flag, "seed")?,
                    other => return Err(unknown_flag(other, "check")),
                }
            }
            Ok(Command::Check(opts))
        }
        "explore" => {
            let mut opts = ExploreOpts {
                program: cur.owned("explore")?,
                seeds: (0, 100),
                jobs: 0,
                budget: None,
                cycle_budget: None,
                models: vec![MemoryModel::Wo],
                hws: vec![HwImpl::StoreBuffer],
                drain_probs: vec![0.3],
                fidelity: Fidelity::Conditioned,
                pairing: PairingPolicy::ByRole,
                prune_static: false,
                predict: false,
                repro: None,
                sink: None,
                inject: None,
                report_out: None,
                metrics: MetricsOpts::default(),
                verify_repair: false,
            };
            while let Some(flag) = cur.next() {
                if opts.metrics.parse_flag(flag, &mut cur)? {
                    continue;
                }
                match flag {
                    "--seeds" => opts.seeds = parse_seed_range(cur.value_for(flag)?)?,
                    "--jobs" => opts.jobs = cur.number(flag)?,
                    "--budget" => opts.budget = Some(cur.number(flag)?),
                    "--cycle-budget" => opts.cycle_budget = Some(cur.number(flag)?),
                    "--model" => opts.models = parse_list(cur.value_for(flag)?, parse_model)?,
                    "--hw" => opts.hws = parse_list(cur.value_for(flag)?, parse_hw)?,
                    "--drain" => {
                        opts.drain_probs = parse_list(cur.value_for(flag)?, |s| {
                            s.parse()
                                .map_err(|_| usage(format!("--drain wants numbers, got `{s}`")))
                        })?
                    }
                    "--fidelity" => opts.fidelity = parse_fidelity(cur.value_for(flag)?)?,
                    "--pairing" => opts.pairing = parse_pairing(cur.value_for(flag)?)?,
                    "--prune-static" => opts.prune_static = true,
                    "--predict" => opts.predict = true,
                    "--verify-repair" => opts.verify_repair = true,
                    "--repro" => opts.repro = Some(cur.number(flag)?),
                    "--sink" => opts.sink = Some(cur.owned(flag)?),
                    "--inject" => opts.inject = Some(cur.owned(flag)?),
                    "--report" => opts.report_out = Some(cur.owned(flag)?),
                    other => return Err(unknown_flag(other, "explore")),
                }
            }
            Ok(Command::Explore(opts))
        }
        "lint" => {
            let mut opts = LintOpts {
                targets: Vec::new(),
                json: false,
                cycles: false,
                repair_out: None,
                metrics: MetricsOpts::default(),
            };
            while let Some(arg) = cur.next() {
                if opts.metrics.parse_flag(arg, &mut cur)? {
                    continue;
                }
                match arg {
                    "--format" => opts.json = cur.json_format(arg)?,
                    "--cycles" => opts.cycles = true,
                    "--repair" => opts.repair_out = Some(cur.owned(arg)?),
                    flag if flag.starts_with("--") => return Err(unknown_flag(flag, "lint")),
                    target => opts.targets.push(target.to_string()),
                }
            }
            if opts.targets.is_empty() {
                return Err(usage("lint wants at least one target (catalog name, file, or `all`)"));
            }
            if opts.repair_out.is_some() && opts.targets.len() != 1 {
                return Err(usage(
                    "lint --repair wants exactly one target (it writes one repaired program)",
                ));
            }
            Ok(Command::Lint(opts))
        }
        "predict" => {
            let mut opts = PredictOpts {
                targets: Vec::new(),
                order: PredictOrder::Wcp,
                exec: ExecOpts::new(MemoryModel::Wo),
                pairing: PairingPolicy::ByRole,
                json: false,
                metrics: MetricsOpts::default(),
            };
            while let Some(arg) = cur.next() {
                if opts.exec.parse_flag(arg, &mut cur, true)?
                    || opts.metrics.parse_flag(arg, &mut cur)?
                {
                    continue;
                }
                match arg {
                    "--order" => opts.order = parse_order(cur.value_for(arg)?)?,
                    "--format" => opts.json = cur.json_format(arg)?,
                    "--pairing" => opts.pairing = parse_pairing(cur.value_for(arg)?)?,
                    flag if flag.starts_with("--") => return Err(unknown_flag(flag, "predict")),
                    target => opts.targets.push(target.to_string()),
                }
            }
            if opts.targets.is_empty() {
                return Err(usage(
                    "predict wants at least one target (catalog name, program or trace file, \
                     or `all`)",
                ));
            }
            Ok(Command::Predict(opts))
        }
        "capture" => {
            let mut opts = CaptureOpts {
                workload: String::new(),
                runs: 1,
                seed: 0,
                wmrs: false,
                out: None,
                sink: None,
                chunk: 4096,
                metrics: MetricsOpts::default(),
            };
            while let Some(arg) = cur.next() {
                if opts.metrics.parse_flag(arg, &mut cur)? {
                    continue;
                }
                match arg {
                    "--runs" => opts.runs = cur.number(arg)?,
                    "--seed" => opts.seed = cur.number(arg)?,
                    "--format" => match cur.value_for(arg)? {
                        "v2" => opts.wmrs = false,
                        "wmrs" => opts.wmrs = true,
                        other => {
                            return Err(usage(format!(
                                "unknown format `{other}` (expected v2|wmrs)"
                            )))
                        }
                    },
                    "--out" => opts.out = Some(cur.owned(arg)?),
                    "--sink" => opts.sink = Some(cur.owned(arg)?),
                    "--chunk" => opts.chunk = cur.at_least_one(arg, "byte")?,
                    flag if flag.starts_with("--") => return Err(unknown_flag(flag, "capture")),
                    name if opts.workload.is_empty() => opts.workload = name.to_string(),
                    extra => return Err(usage(format!("unexpected capture argument `{extra}`"))),
                }
            }
            if opts.workload.is_empty() {
                return Err(usage("capture wants a workload name, `all`, or `list`"));
            }
            if opts.runs == 0 {
                return Err(usage("--runs wants at least 1"));
            }
            Ok(Command::Capture(opts))
        }
        "serve" => {
            let mut opts = ServeOpts {
                listen: String::new(),
                catalog: None,
                workers: 2,
                queue_cap: 64,
                pairing: PairingPolicy::ByRole,
                max_streams: 4,
            };
            while let Some(flag) = cur.next() {
                match flag {
                    "--listen" => opts.listen = cur.owned(flag)?,
                    "--catalog" => opts.catalog = Some(cur.owned(flag)?),
                    "--workers" => opts.workers = cur.number(flag)?,
                    "--queue-cap" => opts.queue_cap = cur.number(flag)?,
                    "--max-streams" => opts.max_streams = cur.number(flag)?,
                    "--pairing" => opts.pairing = parse_pairing(cur.value_for(flag)?)?,
                    other => return Err(unknown_flag(other, "serve")),
                }
            }
            if opts.listen.is_empty() {
                return Err(usage("serve requires --listen <addr|unix:path>"));
            }
            Ok(Command::Serve(opts))
        }
        "submit" => {
            let mut to = None;
            let mut files = Vec::new();
            while let Some(arg) = cur.next() {
                match arg {
                    "--to" => to = Some(cur.owned(arg)?),
                    flag if flag.starts_with("--") => return Err(unknown_flag(flag, "submit")),
                    file => files.push(file.to_string()),
                }
            }
            let Some(to) = to else {
                return Err(usage("submit requires --to <addr|unix:path>"));
            };
            if files.is_empty() {
                return Err(usage("submit wants at least one trace file"));
            }
            Ok(Command::Submit(SubmitOpts { to, files }))
        }
        "stream" => {
            let mut opts = StreamOpts {
                to: String::new(),
                program: cur.owned("stream")?,
                exec: ExecOpts::new(MemoryModel::Wo),
                chunk: 4096,
                session: None,
            };
            while let Some(flag) = cur.next() {
                if opts.exec.parse_flag(flag, &mut cur, true)? {
                    continue;
                }
                match flag {
                    "--to" => opts.to = cur.owned(flag)?,
                    "--chunk" => opts.chunk = cur.at_least_one(flag, "byte")?,
                    "--session" => opts.session = Some(cur.owned(flag)?),
                    other => return Err(unknown_flag(other, "stream")),
                }
            }
            if opts.to.is_empty() {
                return Err(usage("stream requires --to <addr|unix:path>"));
            }
            Ok(Command::Stream(opts))
        }
        "query" => {
            let mut to = None;
            let mut spec = None;
            let mut json = false;
            while let Some(arg) = cur.next() {
                match arg {
                    "--to" => to = Some(cur.owned(arg)?),
                    "--format" => json = cur.json_format(arg)?,
                    flag if flag.starts_with("--") => return Err(unknown_flag(flag, "query")),
                    s if spec.is_none() => spec = Some(s.to_string()),
                    extra => return Err(usage(format!("unexpected query argument `{extra}`"))),
                }
            }
            let Some(to) = to else {
                return Err(usage("query requires --to <addr|unix:path>"));
            };
            let Some(spec) = spec else {
                return Err(usage(
                    "query wants a spec (races|traces|key=…|program=…|model=…|since=…|stats|ping|compact|shutdown)",
                ));
            };
            Ok(Command::Query(QueryOpts { to, spec, json }))
        }
        other => Err(usage(format!("unknown command `{other}` (try `wmrd help`)"))),
    }
}

/// The usage text.
pub(crate) const USAGE: &str = "\
wmrd — data-race detection on simulated weak memory systems

USAGE:
  wmrd catalog                         list built-in workloads
  wmrd show <name>                     disassemble a workload
  wmrd export <name> <file.wmrd>       write a workload as assembly
  wmrd run <name|file.wmrd> [flags]    execute and optionally record traces
      --model sc|wo|rcsc|drf0|drf1       memory model (default sc)
      --fidelity conditioned|raw         honour Condition 3.4 (default) or not
      --hw store-buffer|inval-queue|ooo  weak hardware style (default store-buffer)
      --seed <n>                         scheduler seed (default 0)
      --trace <file>                     write the event trace (v2 binary)
      --ops <file>                       write the operation trace (JSON)
      --metrics <file>                   write a RunMetrics report (JSON)
      --stats                            print a metrics summary
  wmrd analyze <trace-file> [flags]    post-mortem race analysis
      --pairing by-role|all-sync         so1 pairing policy (default by-role)
      --salvage                          recover the longest checksummed prefix
                                         of a damaged binary trace and analyze it
      --inject <plan>                    corrupt the trace bytes first (fault-plan
                                         syntax: seed=N;truncate@B;flip@B.T;...)
      --all                              also list withheld races
      --timeline                         per-processor timeline
      --dot <file>                       write a Graphviz rendering
      --json                             machine-readable report
      --metrics <file>                   write a RunMetrics report (JSON)
      --stats                            print a metrics summary
  wmrd check <name|file.wmrd> [flags]  check Condition 3.4 empirically
      --model, --fidelity, --hw, --seeds <n>, --metrics <file>, --stats
  wmrd explore <name|file.wmrd> [flags] parallel cross-execution race hunt
      --seeds A..B|N                     seed range (default 0..100)
      --jobs <n>                         worker threads (default: one per core)
      --budget <n>                       per-execution step budget
      --cycle-budget <n>                 per-execution cycle budget
      --model m1,m2                      memory models to cross (default wo)
      --hw h1,h2                         hardware styles to cross (default
                                         store-buffer; ooo = out-of-order pipeline)
      --drain p1,p2                      drain probabilities to cross (default 0.3)
      --fidelity conditioned|raw         honour Condition 3.4 (default) or not
      --pairing by-role|all-sync         so1 pairing policy (default by-role)
      --prune-static                     lint first: skip statically race-free
                                         programs, cross-check findings otherwise
      --predict                          predict races from the first execution
                                         point and check every predicted key is
                                         reached by some campaign seed
      --verify-repair                    synthesize a fence repair, then verify it:
                                         the repaired program must be race-free and
                                         Condition-3.4-clean on every backend over
                                         the seed range; the unrepaired program is
                                         run under raw ooo hardware as an ablation
      --repro <seed>                     replay one seed in full detail
      --sink <addr|unix:path>            stream racy traces to a running daemon
      --inject <plan>                    inject deterministic worker faults
                                         (fault-plan syntax: seed=N;panics=N;panic@I)
      --report <file>                    write the campaign report (JSON)
      --metrics <file>                   write a RunMetrics report (JSON)
      --stats                            print a metrics summary
  wmrd lint <target>... [flags]        static may-race analysis over program text
                                       targets: catalog names, assembly (.wmrd)
                                       files, or `all` (the whole catalog); exits
                                       non-zero on findings
      --format text|json                 output format (default text)
      --cycles                           critical-cycle delay-set analysis: classify
                                         each finding sc-also|weak-only, list the
                                         delay set and the synthesized repair plan
                                         (JSON switches to the versioned v2 envelope)
      --repair <file.wmrd>               write the repaired program (fences inserted,
                                         sync strengthened) as assembly; one target
      --metrics <file>                   write a RunMetrics report (JSON)
      --stats                            print a metrics summary
  wmrd predict <target>... [flags]     sound predictive race detection from a
                                       single recorded trace (SHB/WCP orders)
                                       targets: catalog names, assembly (.wmrd)
                                       files, binary trace files, or `all`;
                                       exits non-zero on predicted races
      --order shb|wcp                    predictive partial order (default wcp)
      --format text|json                 output format (default text)
      --model sc|wo|rcsc|drf0|drf1       model when executing a program (default wo)
      --fidelity conditioned|raw         honour Condition 3.4 (default) or not
      --hw store-buffer|inval-queue|ooo  weak hardware style (default store-buffer)
      --seed <n>                         scheduler seed for the one trace (default 0)
      --pairing by-role|all-sync         so1 pairing policy (default by-role)
      --metrics <file>                   write a RunMetrics report (JSON)
      --stats                            print a metrics summary
  wmrd capture <workload|all|list> [flags]
                                       run an instrumented multithreaded workload
                                       (real std::thread + atomics) and capture
                                       its execution as an analyzable trace;
                                       `list` prints the workload registry
      --runs <n>                         captured runs (default 1), one seed each
      --seed <n>                         base nudge-plan seed (default 0)
      --format v2|wmrs                   event-level binary trace (default) or the
                                         operation-granular WMRS stream format
      --out <prefix>                     write <prefix>-<workload>-<seed>.trace|.wmrs
      --sink <addr|unix:path>            deliver to a daemon: SUBMIT (v2) or a
                                         STREAM/FEED/CLOSE session (wmrs)
      --chunk <bytes>                    FEED chunk size for wmrs sinks (default 4096)
      --metrics <file>                   write a RunMetrics report (JSON)
      --stats                            print a metrics summary
  wmrd serve [flags]                   race-analysis daemon over a persistent catalog
      --listen <addr|unix:path>          listen endpoint (required)
      --catalog <file>                   journaled catalog path (default: in-memory)
      --workers <n>                      analysis threads (default 2)
      --queue-cap <n>                    pending-analysis bound; beyond it
                                         submissions get a typed BUSY (default 64)
      --max-streams <n>                  concurrent streaming sessions; beyond it
                                         STREAM gets a typed BUSY (default 4)
      --pairing by-role|all-sync         so1 pairing policy (default by-role)
  wmrd submit --to <addr|unix:path> <trace>...
                                       submit recorded traces for analysis
  wmrd stream <name|file.wmrd> --to <addr|unix:path> [flags]
                                       execute a program and stream its events
                                       live to a daemon (STREAM/FEED/CLOSE;
                                       see SERVING.md)
      --model sc|wo|rcsc|drf0|drf1       memory model (default wo)
      --fidelity conditioned|raw         honour Condition 3.4 (default) or not
      --hw store-buffer|inval-queue|ooo  weak hardware style (default store-buffer)
      --seed <n>                         scheduler seed (default 0)
      --chunk <bytes>                    FEED chunk size (default 4096)
      --session <name>                   session name (default <program>-<seed>)
  wmrd query --to <addr|unix:path> <spec>
                                       query the daemon's catalog; specs:
                                         races | traces | key=<addr>:P<a><R|W>[s]:P<b><R|W>[s]
                                         program=<name> | model=<name> | since=<digest>
                                         and control words stats|ping|compact|shutdown
      --format text|json                 race rows as JSON objects with
                                         observed/predicted provenance (default text)
  wmrd demo                            the paper's Figure 2/3 walkthrough

Metrics reports follow the schema documented in OBSERVABILITY.md.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(parse(&argv("catalog")).unwrap(), Command::Catalog);
        assert_eq!(parse(&argv("demo")).unwrap(), Command::Demo);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("show fig1a")).unwrap(), Command::Show("fig1a".into()));
        assert_eq!(
            parse(&argv("export fig1b out.wmrd")).unwrap(),
            Command::Export { name: "fig1b".into(), path: "out.wmrd".into() }
        );
    }

    #[test]
    fn parses_run_flags() {
        let cmd = parse(&argv(
            "run fig1a --model wo --fidelity raw --hw inval-queue --seed 9 --trace t.bin \
             --ops o.json --metrics m.json --stats",
        ))
        .unwrap();
        let Command::Run(opts) = cmd else { panic!("expected run") };
        assert_eq!(opts.program, "fig1a");
        assert_eq!(opts.exec.model, MemoryModel::Wo);
        assert_eq!(opts.exec.fidelity, Fidelity::Raw);
        assert_eq!(opts.exec.hw, HwImpl::InvalQueue);
        assert_eq!(opts.exec.seed, 9);
        assert_eq!(opts.trace_out.as_deref(), Some("t.bin"));
        assert_eq!(opts.ops_out.as_deref(), Some("o.json"));
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));
        assert!(opts.metrics.stats);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(opts) = parse(&argv("run fig1b")).unwrap() else { panic!("expected run") };
        assert_eq!(opts.exec.model, MemoryModel::Sc);
        assert_eq!(opts.exec.fidelity, Fidelity::Conditioned);
        assert_eq!(opts.exec.hw, HwImpl::StoreBuffer);
        assert_eq!(opts.exec.seed, 0);
        assert!(opts.trace_out.is_none());
        assert!(opts.metrics.out.is_none());
        assert!(!opts.metrics.stats);
    }

    #[test]
    fn parses_analyze_flags() {
        let cmd = parse(&argv(
            "analyze t.bin --pairing all-sync --all --timeline --dot g.dot --json \
             --metrics m.json --stats",
        ))
        .unwrap();
        let Command::Analyze(opts) = cmd else { panic!("expected analyze") };
        assert_eq!(opts.pairing, PairingPolicy::AllSync);
        assert!(opts.show_all && opts.timeline && opts.json);
        assert_eq!(opts.dot_out.as_deref(), Some("g.dot"));
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));
        assert!(opts.metrics.stats);
        assert!(!opts.salvage);
        assert!(opts.inject.is_none());
    }

    #[test]
    fn parses_salvage_and_inject() {
        let Command::Analyze(opts) =
            parse(&argv("analyze t.bin --salvage --inject truncate@100")).unwrap()
        else {
            panic!("expected analyze")
        };
        assert!(opts.salvage);
        assert_eq!(opts.inject.as_deref(), Some("truncate@100"));
        let Command::Explore(opts) =
            parse(&argv("explore fig1a --inject seed=3;panics=2")).unwrap()
        else {
            panic!("expected explore")
        };
        assert_eq!(opts.inject.as_deref(), Some("seed=3;panics=2"));
        assert!(matches!(parse(&argv("analyze t.bin --inject")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_check_flags() {
        let Command::Check(opts) =
            parse(&argv("check fig1a --model rcsc --seeds 12 --metrics m.json --stats")).unwrap()
        else {
            panic!("expected check")
        };
        assert_eq!(opts.exec.model, MemoryModel::RCsc);
        assert_eq!(opts.seeds, 12);
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));
        assert!(opts.metrics.stats);
    }

    #[test]
    fn explore_defaults() {
        let Command::Explore(opts) = parse(&argv("explore fig1a")).unwrap() else {
            panic!("expected explore")
        };
        assert_eq!(opts.seeds, (0, 100));
        assert_eq!(opts.jobs, 0, "0 means one worker per core");
        assert_eq!(opts.models, vec![MemoryModel::Wo]);
        assert_eq!(opts.hws, vec![HwImpl::StoreBuffer]);
        assert_eq!(opts.drain_probs, vec![0.3]);
        assert!(opts.budget.is_none() && opts.cycle_budget.is_none());
        assert!(opts.repro.is_none());
        assert!(!opts.prune_static);
    }

    #[test]
    fn parses_lint() {
        let Command::Lint(opts) = parse(&argv("lint fig1a")).unwrap() else {
            panic!("expected lint")
        };
        assert_eq!(opts.targets, vec!["fig1a".to_string()]);
        assert!(!opts.json && !opts.metrics.stats && opts.metrics.out.is_none());

        let Command::Lint(opts) =
            parse(&argv("lint all prog.wmrd --format json --metrics m.json --stats")).unwrap()
        else {
            panic!("expected lint")
        };
        assert_eq!(opts.targets, vec!["all".to_string(), "prog.wmrd".to_string()]);
        assert!(opts.json && opts.metrics.stats);
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));

        let Command::Lint(opts) = parse(&argv("lint x --format text")).unwrap() else {
            panic!("expected lint")
        };
        assert!(!opts.json);
        assert!(!opts.cycles && opts.repair_out.is_none(), "cycle analysis is opt-in");

        assert!(matches!(parse(&argv("lint")), Err(CliError::Usage(_))), "a target is required");
        assert!(matches!(parse(&argv("lint x --format yaml")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("lint x --bogus")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_lint_cycles_and_repair() {
        let Command::Lint(opts) = parse(&argv("lint fig1a --cycles")).unwrap() else {
            panic!("expected lint")
        };
        assert!(opts.cycles);
        assert!(opts.repair_out.is_none());

        let Command::Lint(opts) =
            parse(&argv("lint fig1a --cycles --repair out.wmrd --format json")).unwrap()
        else {
            panic!("expected lint")
        };
        assert!(opts.cycles && opts.json);
        assert_eq!(opts.repair_out.as_deref(), Some("out.wmrd"));

        assert!(
            matches!(parse(&argv("lint a b --repair out.wmrd")), Err(CliError::Usage(_))),
            "--repair wants exactly one target"
        );
        assert!(matches!(parse(&argv("lint x --repair")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_explore_prune_static() {
        let Command::Explore(opts) = parse(&argv("explore fig1a --prune-static")).unwrap() else {
            panic!("expected explore")
        };
        assert!(opts.prune_static);
        assert!(!opts.predict);
    }

    #[test]
    fn parses_explore_predict() {
        let Command::Explore(opts) = parse(&argv("explore fig1a --predict")).unwrap() else {
            panic!("expected explore")
        };
        assert!(opts.predict);
    }

    #[test]
    fn parses_explore_verify_repair() {
        let Command::Explore(opts) = parse(&argv("explore fig1a --verify-repair")).unwrap() else {
            panic!("expected explore")
        };
        assert!(opts.verify_repair);
        let Command::Explore(opts) = parse(&argv("explore fig1a")).unwrap() else {
            panic!("expected explore")
        };
        assert!(!opts.verify_repair, "repair verification is opt-in");
    }

    #[test]
    fn parses_predict() {
        let Command::Predict(opts) = parse(&argv("predict fig1a")).unwrap() else {
            panic!("expected predict")
        };
        assert_eq!(opts.targets, vec!["fig1a".to_string()]);
        assert_eq!(opts.order, PredictOrder::Wcp, "wcp is the default order");
        assert_eq!(opts.exec.model, MemoryModel::Wo);
        assert_eq!(opts.exec.seed, 0);
        assert!(!opts.json && !opts.metrics.stats && opts.metrics.out.is_none());

        let cmd = parse(&argv(
            "predict all t.bin --order shb --format json --model rcsc --fidelity raw \
             --hw inval-queue --seed 7 --pairing all-sync --metrics m.json --stats",
        ))
        .unwrap();
        let Command::Predict(opts) = cmd else { panic!("expected predict") };
        assert_eq!(opts.targets, vec!["all".to_string(), "t.bin".to_string()]);
        assert_eq!(opts.order, PredictOrder::Shb);
        assert!(opts.json && opts.metrics.stats);
        assert_eq!(opts.exec.model, MemoryModel::RCsc);
        assert_eq!(opts.exec.fidelity, Fidelity::Raw);
        assert_eq!(opts.exec.hw, HwImpl::InvalQueue);
        assert_eq!(opts.exec.seed, 7);
        assert_eq!(opts.pairing, PairingPolicy::AllSync);
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));

        assert!(matches!(parse(&argv("predict")), Err(CliError::Usage(_))), "target required");
        assert!(matches!(parse(&argv("predict x --order hb3")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("predict x --format yaml")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("predict x --bogus")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_capture() {
        let Command::Capture(opts) = parse(&argv("capture publish")).unwrap() else {
            panic!("expected capture")
        };
        assert_eq!(opts.workload, "publish");
        assert_eq!(opts.runs, 1);
        assert_eq!(opts.seed, 0);
        assert!(!opts.wmrs && !opts.metrics.stats);
        assert!(opts.out.is_none() && opts.sink.is_none() && opts.metrics.out.is_none());
        assert_eq!(opts.chunk, 4096);

        let cmd = parse(&argv(
            "capture all --runs 5 --seed 11 --format wmrs --out /tmp/cap --sink 127.0.0.1:900 \
             --chunk 64 --metrics m.json --stats",
        ))
        .unwrap();
        let Command::Capture(opts) = cmd else { panic!("expected capture") };
        assert_eq!(opts.workload, "all");
        assert_eq!(opts.runs, 5);
        assert_eq!(opts.seed, 11);
        assert!(opts.wmrs && opts.metrics.stats);
        assert_eq!(opts.out.as_deref(), Some("/tmp/cap"));
        assert_eq!(opts.sink.as_deref(), Some("127.0.0.1:900"));
        assert_eq!(opts.chunk, 64);
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));

        assert!(matches!(parse(&argv("capture")), Err(CliError::Usage(_))), "workload required");
        assert!(matches!(parse(&argv("capture a b")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("capture x --runs 0")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("capture x --format json")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("capture x --bogus")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_explore_flags() {
        let cmd = parse(&argv(
            "explore fig1a --seeds 5..25 --jobs 8 --budget 500 --cycle-budget 9000 \
             --model wo,rcsc --hw store-buffer,inval-queue --drain 0.1,0.5 \
             --fidelity raw --pairing all-sync --report r.json \
             --metrics m.json --stats",
        ))
        .unwrap();
        let Command::Explore(opts) = cmd else { panic!("expected explore") };
        assert_eq!(opts.seeds, (5, 25));
        assert_eq!(opts.jobs, 8);
        assert_eq!(opts.budget, Some(500));
        assert_eq!(opts.cycle_budget, Some(9000));
        assert_eq!(opts.models, vec![MemoryModel::Wo, MemoryModel::RCsc]);
        assert_eq!(opts.hws, vec![HwImpl::StoreBuffer, HwImpl::InvalQueue]);
        assert_eq!(opts.drain_probs, vec![0.1, 0.5]);
        assert_eq!(opts.fidelity, Fidelity::Raw);
        assert_eq!(opts.pairing, PairingPolicy::AllSync);
        assert_eq!(opts.report_out.as_deref(), Some("r.json"));
        assert_eq!(opts.metrics.out.as_deref(), Some("m.json"));
        assert!(opts.metrics.stats);
    }

    #[test]
    fn explore_seed_range_syntax() {
        let Command::Explore(opts) = parse(&argv("explore fig1a --seeds 64")).unwrap() else {
            panic!("expected explore")
        };
        assert_eq!(opts.seeds, (0, 64), "a bare count means 0..N");
        let Command::Explore(opts) = parse(&argv("explore fig1a --repro 17")).unwrap() else {
            panic!("expected explore")
        };
        assert_eq!(opts.repro, Some(17));
        assert!(matches!(parse(&argv("explore x --seeds 9..9")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --seeds 9..2")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --seeds 0")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --seeds a..b")), Err(CliError::Usage(_))));
    }

    #[test]
    fn parses_serve_flags() {
        let cmd = parse(&argv(
            "serve --listen unix:/tmp/wmrd.sock --catalog cat.journal --workers 4 \
             --queue-cap 128 --pairing all-sync",
        ))
        .unwrap();
        let Command::Serve(opts) = cmd else { panic!("expected serve") };
        assert_eq!(opts.listen, "unix:/tmp/wmrd.sock");
        assert_eq!(opts.catalog.as_deref(), Some("cat.journal"));
        assert_eq!(opts.workers, 4);
        assert_eq!(opts.queue_cap, 128);
        assert_eq!(opts.pairing, PairingPolicy::AllSync);

        let Command::Serve(opts) = parse(&argv("serve --listen 127.0.0.1:0")).unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(opts.workers, 2);
        assert_eq!(opts.queue_cap, 64);
        assert_eq!(opts.max_streams, 4);
        assert!(opts.catalog.is_none());

        let Command::Serve(opts) = parse(&argv("serve --listen :0 --max-streams 9")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(opts.max_streams, 9);
    }

    #[test]
    fn parses_stream_flags() {
        let cmd = parse(&argv(
            "stream fig1a --to unix:/tmp/w.sock --model rcsc --fidelity raw \
             --hw inval-queue --seed 7 --chunk 128 --session s1",
        ))
        .unwrap();
        let Command::Stream(opts) = cmd else { panic!("expected stream") };
        assert_eq!(opts.to, "unix:/tmp/w.sock");
        assert_eq!(opts.program, "fig1a");
        assert_eq!(opts.exec.model, MemoryModel::RCsc);
        assert_eq!(opts.exec.fidelity, Fidelity::Raw);
        assert_eq!(opts.exec.hw, HwImpl::InvalQueue);
        assert_eq!(opts.exec.seed, 7);
        assert_eq!(opts.chunk, 128);
        assert_eq!(opts.session.as_deref(), Some("s1"));
    }

    #[test]
    fn stream_defaults_and_rejections() {
        let Command::Stream(opts) = parse(&argv("stream fig1a --to 127.0.0.1:1")).unwrap() else {
            panic!("expected stream")
        };
        assert_eq!(opts.exec.model, MemoryModel::Wo);
        assert_eq!(opts.chunk, 4096);
        assert!(opts.session.is_none());

        assert!(matches!(parse(&argv("stream")), Err(CliError::Usage(_))), "program required");
        assert!(matches!(parse(&argv("stream fig1a")), Err(CliError::Usage(_))), "--to required");
        assert!(matches!(parse(&argv("stream x --to y:1 --chunk 0")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("stream x --to y:1 --bogus")), Err(CliError::Usage(_))));
        assert!(matches!(
            parse(&argv("serve --listen :0 --max-streams no")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn parses_submit_and_query() {
        let Command::Submit(opts) = parse(&argv("submit --to 127.0.0.1:7919 a.bin b.bin")).unwrap()
        else {
            panic!("expected submit")
        };
        assert_eq!(opts.to, "127.0.0.1:7919");
        assert_eq!(opts.files, vec!["a.bin".to_string(), "b.bin".to_string()]);

        let Command::Query(opts) = parse(&argv("query --to unix:/tmp/w.sock races")).unwrap()
        else {
            panic!("expected query")
        };
        assert_eq!(opts.to, "unix:/tmp/w.sock");
        assert_eq!(opts.spec, "races");
        assert!(!opts.json, "text is the default");

        let Command::Query(opts) = parse(&argv("query --to x:1 races --format json")).unwrap()
        else {
            panic!("expected query")
        };
        assert!(opts.json);
        assert!(matches!(
            parse(&argv("query --to x:1 races --format yaml")),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn explore_sink_flag() {
        let Command::Explore(opts) = parse(&argv("explore fig1a --sink unix:/tmp/w.sock")).unwrap()
        else {
            panic!("expected explore")
        };
        assert_eq!(opts.sink.as_deref(), Some("unix:/tmp/w.sock"));
    }

    #[test]
    fn serve_family_rejects_bad_input() {
        assert!(matches!(parse(&argv("serve")), Err(CliError::Usage(_))), "listen is required");
        assert!(matches!(parse(&argv("serve --workers four")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("serve --listen :0 --bogus")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("submit a.bin")), Err(CliError::Usage(_))), "--to required");
        assert!(matches!(parse(&argv("submit --to x:1")), Err(CliError::Usage(_))), "no files");
        assert!(matches!(parse(&argv("query --to x:1")), Err(CliError::Usage(_))), "no spec");
        assert!(matches!(parse(&argv("query --to x:1 races extra")), Err(CliError::Usage(_))));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(parse(&argv("frobnicate")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("run")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("run x --model tso")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("run x --seed banana")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("run x --bogus")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("analyze t --pairing weird")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("show")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("run x --fidelity maybe")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("run x --hw tso")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --model wo,tso")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --drain 0.3,high")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --jobs many")), Err(CliError::Usage(_))));
        assert!(matches!(parse(&argv("explore x --bogus")), Err(CliError::Usage(_))));
    }

    #[test]
    fn every_hw_variant_parses_on_every_surface() {
        // A new backend must reach every `--hw` surface; a variant that
        // parses on `run` but silently falls back to the default on
        // `explore --prune-static`/`--predict` would skew campaigns.
        for hw in HwImpl::ALL {
            let name = hw.to_string();

            let Command::Run(opts) = parse(&argv(&format!("run fig1a --hw {name}"))).unwrap()
            else {
                panic!("expected run")
            };
            assert_eq!(opts.exec.hw, hw, "run --hw {name}");

            let Command::Check(opts) = parse(&argv(&format!("check fig1a --hw {name}"))).unwrap()
            else {
                panic!("expected check")
            };
            assert_eq!(opts.exec.hw, hw, "check --hw {name}");

            let Command::Explore(opts) =
                parse(&argv(&format!("explore fig1a --hw {name} --prune-static --predict")))
                    .unwrap()
            else {
                panic!("expected explore")
            };
            assert_eq!(opts.hws, vec![hw], "explore --hw {name}");
            assert!(opts.prune_static && opts.predict, "flags survive --hw {name}");

            let Command::Predict(opts) =
                parse(&argv(&format!("predict fig1a --hw {name}"))).unwrap()
            else {
                panic!("expected predict")
            };
            assert_eq!(opts.exec.hw, hw, "predict --hw {name}");

            let Command::Stream(opts) =
                parse(&argv(&format!("stream fig1a --to unix:/tmp/w.sock --hw {name}"))).unwrap()
            else {
                panic!("expected stream")
            };
            assert_eq!(opts.exec.hw, hw, "stream --hw {name}");
        }
        // The list parser used by explore accepts every variant at once.
        let all = HwImpl::ALL.map(|h| h.to_string()).join(",");
        let Command::Explore(opts) = parse(&argv(&format!("explore fig1a --hw {all}"))).unwrap()
        else {
            panic!("expected explore")
        };
        assert_eq!(opts.hws, HwImpl::ALL.to_vec());
    }

    fn usage_message(args: &str) -> String {
        match parse(&argv(args)) {
            Err(CliError::Usage(message)) => message,
            other => panic!("`{args}` should be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn check_rejects_zero_seeds() {
        // Zero executions are no evidence that Condition 3.4 holds.
        assert_eq!(usage_message("check fig1b --seeds 0"), "--seeds wants at least one seed");
        assert_eq!(usage_message("explore fig1b --seeds 0"), "--seeds wants at least one seed");
        let Command::Check(opts) = parse(&argv("check fig1b --seeds 1")).unwrap() else {
            panic!("expected check")
        };
        assert_eq!(opts.seeds, 1);
    }

    #[test]
    fn chunk_zero_is_rejected_by_capture_and_stream_alike() {
        let want = "--chunk wants at least one byte";
        assert_eq!(usage_message("capture publish --format wmrs --chunk 0"), want);
        assert_eq!(usage_message("stream fig1a --to unix:/tmp/w.sock --chunk 0"), want);
        assert_eq!(usage_message("capture publish --chunk x"), "--chunk wants an integer");
        let Command::Capture(opts) = parse(&argv("capture publish --chunk 1")).unwrap() else {
            panic!("expected capture")
        };
        assert_eq!(opts.chunk, 1);
    }

    #[test]
    fn every_integer_flag_names_itself_when_malformed() {
        for (prefix, flag) in [
            ("run fig1a", "--seed"),
            ("check fig1a", "--seeds"),
            ("explore fig1a", "--jobs"),
            ("explore fig1a", "--budget"),
            ("explore fig1a", "--cycle-budget"),
            ("predict fig1a", "--seed"),
            ("capture publish", "--runs"),
            ("capture publish", "--seed"),
            ("capture publish", "--chunk"),
            ("serve --listen :0", "--workers"),
            ("serve --listen :0", "--queue-cap"),
            ("serve --listen :0", "--max-streams"),
            ("stream fig1a --to x:1", "--seed"),
            ("stream fig1a --to x:1", "--chunk"),
        ] {
            let message = usage_message(&format!("{prefix} {flag} -1"));
            assert_eq!(message, format!("{flag} wants an integer"), "{prefix} {flag}");
            let message = usage_message(&format!("{prefix} {flag}"));
            assert_eq!(message, format!("{flag} requires a value"), "{prefix} {flag}");
        }
        assert_eq!(usage_message("explore fig1a --repro x"), "--repro wants a seed integer");
    }

    #[test]
    fn seed_is_a_flag_only_where_a_single_execution_runs() {
        assert_eq!(usage_message("check fig1a --seed 3"), "unknown flag `--seed` for check");
        let Command::Run(opts) = parse(&argv("run fig1a --seed 3")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(opts.exec.seed, 3);
        assert_eq!(
            usage_message("stream fig1a --to x:1 --stats"),
            "unknown flag `--stats` for stream"
        );
    }
}
