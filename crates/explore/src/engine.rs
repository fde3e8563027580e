//! The campaign engine: parallel seeded executions, analyzed and folded
//! into one deterministic report.
//!
//! Work distribution is a shared atomic cursor over the spec's point
//! list: `jobs` worker threads (std threads — the workload is pure CPU
//! and the unit of work is a whole execution, so a work-stealing
//! runtime would buy nothing) claim points in order, run them on a
//! per-configuration [`CampaignRunner`] (machine reuse, no per-seed
//! rebuild), and deposit an outcome into the point's slot. The fold
//! over slots happens sequentially in spec order, which is what makes
//! the report independent of `jobs` and "first-reaching seed" well
//! defined.
//!
//! Workers degrade gracefully: each point runs under
//! [`catch_unwind`], so a panicking worker (injected via
//! [`CampaignSpec::faults`] or real) loses only its current point —
//! recorded as a [`ExecFailure`] in the report — and the sweep
//! continues on a rebuilt machine.
//!
//! Per execution the trace is consumed twice, cheaply: a
//! [`StreamDetector`] rides the sink pipeline as the fast path, and
//! only executions it flags pay for the full post-mortem — graph
//! construction, partitioning, first partitions. The fast path is
//! exact (its race keys equal the post-mortem's), so skipping the
//! post-mortem on an unflagged execution never hides a race.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use wmrd_core::{event_race_keys, extend_event_race_keys, PostMortem, RaceKey, StreamDetector};
use wmrd_sim::{
    run_weak_hw, CampaignRunner, HwImpl, MemoryModel, Program, RandomWeakSched, RunConfig, SimError,
};
use wmrd_trace::{metric_keys, Metrics, MultiSink, TraceBuilder, TraceSet};

use crate::observe::{CampaignObserver, NoObserver};
use crate::report::{CampaignReport, ExecFailure, RaceFinding};
use crate::spec::{CampaignPoint, CampaignSpec, ExecSpec};
use crate::ExploreError;

/// Everything one execution contributes to the fold.
#[derive(Debug, Clone)]
struct PointOutcome {
    exec: ExecSpec,
    budget_hit: bool,
    steps: u64,
    final_state: u64,
    racy: bool,
    postmortem: bool,
    keys: BTreeSet<RaceKey>,
    first_profile: Vec<RaceKey>,
}

/// The result of replaying one campaign point in full detail (the
/// `--repro` path).
#[derive(Debug)]
pub struct Replay {
    /// The execution's coordinates.
    pub exec: ExecSpec,
    /// `true` if the execution was stopped by a step or cycle budget.
    pub budget_hit: bool,
    /// The (possibly partial) event trace.
    pub trace: TraceSet,
    /// The full post-mortem analysis of the trace.
    pub report: wmrd_core::RaceReport,
    /// The execution-independent identities of the trace's data races.
    pub keys: BTreeSet<RaceKey>,
}

/// Runs a campaign over `program`, distributing points over `jobs`
/// worker threads.
///
/// The returned report depends only on `program` and `spec` — never on
/// `jobs` — and every finding's `first` coordinates reproduce the race
/// via [`replay`].
///
/// Failures after the pre-flight checks are *contained*, not fatal: a
/// worker panic (injected via [`CampaignSpec::faults`] or real), a
/// non-budget simulator error or a post-mortem rejection is caught,
/// itemized in [`CampaignReport::failures`] with a deterministic reason
/// string, and the sweep continues. Budget exhaustion
/// ([`SimError::StepLimit`] / [`SimError::CycleLimit`]) is not a
/// failure at all: it is counted and the partial trace analyzed like
/// any other.
///
/// # Errors
///
/// Returns [`ExploreError::InvalidSpec`] for a degenerate spec and
/// [`ExploreError::Sim`] if the program fails validation — the only
/// fatal, pre-flight errors.
pub fn run_campaign(
    program: &Program,
    spec: &CampaignSpec,
    jobs: usize,
    metrics: &Metrics,
) -> Result<CampaignReport, ExploreError> {
    run_campaign_observed(program, spec, jobs, metrics, &NoObserver)
}

/// [`run_campaign`], with a side-channel [`CampaignObserver`] that sees
/// every racy execution's trace as it is confirmed.
///
/// The observer cannot change the report: it is invoked after a point's
/// outcome is fully computed, and the fold never consults it. This is
/// how `wmrd explore --sink` streams findings to a `wmrd serve` daemon
/// without giving up report determinism.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn run_campaign_observed(
    program: &Program,
    spec: &CampaignSpec,
    jobs: usize,
    metrics: &Metrics,
    observer: &dyn CampaignObserver,
) -> Result<CampaignReport, ExploreError> {
    spec.validate()?;
    program.validate()?;
    let points = spec.points();
    let jobs = jobs.clamp(1, points.len());
    metrics.max_gauge(metric_keys::EXPLORE_JOBS, jobs as u64);
    // A `panics=N` scatter request needs the point count to pick its
    // victims; resolution is a pure function of (seed, count).
    let faults = spec.faults.resolve_scatter(points.len());
    if !faults.is_empty() {
        metrics.add(metric_keys::FAULTS_INJECTED, faults.points().len() as u64);
        metrics.add(metric_keys::FAULTS_WORKER_PANICS, faults.panic_count() as u64);
    }

    let program = Arc::new(program.clone());
    let slots: Mutex<Vec<Option<Result<PointOutcome, String>>>> =
        Mutex::new((0..points.len()).map(|_| None).collect());
    let cursor = AtomicUsize::new(0);

    metrics.time(metric_keys::EXPLORE_CAMPAIGN, || {
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| {
                    // One runner per hardware/model pair, built lazily and
                    // reused (reset, not rebuilt) across this worker's
                    // claimed seeds.
                    let mut runners: Vec<((HwImpl, MemoryModel), CampaignRunner)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(point) = points.get(i) else { break };
                        let result = catch_unwind(AssertUnwindSafe(|| {
                            if faults.panics_at(i) {
                                panic!("injected fault: worker panic at point {i}");
                            }
                            run_point(&program, point, spec, &mut runners, observer)
                        }));
                        let outcome = match result {
                            Ok(Ok(outcome)) => Ok(outcome),
                            Ok(Err(e)) => Err(e.to_string()),
                            Err(payload) => {
                                // The unwind may have torn through a
                                // machine mid-step; drop this worker's
                                // cache so later points rebuild clean.
                                runners.clear();
                                Err(panic_reason(payload.as_ref()))
                            }
                        };
                        slots.lock().unwrap()[i] = Some(outcome);
                    }
                });
            }
        });
    });

    let outcomes = slots.into_inner().unwrap();
    let report = fold(program.name(), &points, outcomes);
    if report.failed_executions > 0 {
        metrics.add(metric_keys::FAULTS_CONTAINED, report.failed_executions);
    }
    Ok(report)
}

/// Renders a panic payload as a deterministic reason string, so reports
/// stay byte-identical across worker counts even under injected panics.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// Runs one point on a (possibly reused) machine.
fn run_point(
    program: &Arc<Program>,
    point: &CampaignPoint,
    spec: &CampaignSpec,
    runners: &mut Vec<((HwImpl, MemoryModel), CampaignRunner)>,
    observer: &dyn CampaignObserver,
) -> Result<PointOutcome, ExploreError> {
    let exec = point.exec;
    let key = (exec.hw, exec.model);
    let runner = match runners.iter_mut().position(|(k, _)| *k == key) {
        Some(i) => &mut runners[i].1,
        None => {
            let runner = CampaignRunner::new(
                Arc::clone(program),
                exec.hw,
                exec.model,
                exec.fidelity,
                spec.config,
            )?;
            runners.push((key, runner));
            &mut runners.last_mut().expect("just pushed").1
        }
    };

    let mut sched = RandomWeakSched::new(exec.seed, exec.drain_prob);
    let mut sink = MultiSink::new(
        TraceBuilder::new(program.num_procs()),
        StreamDetector::new(program.num_procs(), spec.pairing),
    );
    let run = runner.run(&mut sched, &mut sink);
    let (builder, fast_path) = sink.into_inner();
    let (budget_hit, steps, mut final_state) = match run {
        Ok(out) => {
            // Settled shared memory is the schedule-coverage
            // fingerprint: schedules that produced different final
            // states certainly covered different behaviors.
            let mut h = DefaultHasher::new();
            out.final_memory.hash(&mut h);
            (false, out.steps, h.finish())
        }
        Err(SimError::StepLimit(_)) | Err(SimError::CycleLimit(_)) => (true, 0, 0),
        Err(e) => return Err(e.into()),
    };
    let mut trace = builder.finish();
    // Stamp provenance so the trace (and its digest) is
    // self-describing when it leaves the campaign via an observer.
    trace.meta.program = Some(program.name().to_string());
    trace.meta.model = Some(exec.model.to_string());
    trace.meta.seed = Some(exec.seed);
    if budget_hit {
        // No settled memory for a budget-stopped run; fingerprint the
        // partial trace's shape instead, tagged so it never collides
        // with a completed run's state.
        let mut h = DefaultHasher::new();
        u8::MAX.hash(&mut h);
        for p in trace.processors() {
            p.events().len().hash(&mut h);
        }
        final_state = h.finish();
    }

    let (racy, keys, first_profile, postmortem) = if !fast_path.race_keys().is_empty() {
        let report = PostMortem::new(&trace).pairing(spec.pairing).analyze()?;
        let keys = event_race_keys(&report.races, &trace);
        let mut profile = BTreeSet::new();
        for part in report.partitions.first_partitions() {
            for &ri in &part.races {
                extend_event_race_keys(&mut profile, &report.races[ri], &trace);
            }
        }
        (!report.is_race_free(), keys, profile.into_iter().collect(), true)
    } else {
        (false, BTreeSet::new(), Vec::new(), false)
    };
    if racy {
        observer.racy_execution(&exec, &trace);
    }

    Ok(PointOutcome { exec, budget_hit, steps, final_state, racy, postmortem, keys, first_profile })
}

/// Folds outcomes in spec order into the deterministic report.
/// Failed points become [`ExecFailure`] entries, never errors.
fn fold(
    program: &str,
    points: &[CampaignPoint],
    outcomes: Vec<Option<Result<PointOutcome, String>>>,
) -> CampaignReport {
    let mut report = CampaignReport {
        program: program.to_string(),
        points: points.len() as u64,
        ..CampaignReport::default()
    };
    let mut findings: BTreeMap<RaceKey, RaceFinding> = BTreeMap::new();
    let mut profiles: BTreeSet<Vec<RaceKey>> = BTreeSet::new();
    let mut final_states: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();

    for (slot, point) in outcomes.into_iter().zip(points) {
        let outcome = match slot.expect("every point claimed exactly once") {
            Ok(outcome) => outcome,
            Err(reason) => {
                report.failed_executions += 1;
                report.failures.push(ExecFailure {
                    index: point.index as u64,
                    exec: point.exec,
                    reason,
                });
                continue;
            }
        };
        report.executions += 1;
        report.total_steps += outcome.steps;
        if outcome.budget_hit {
            report.budget_hits += 1;
        }
        if outcome.postmortem {
            report.postmortems += 1;
        }
        if outcome.racy {
            report.racy_executions += 1;
            profiles.insert(outcome.first_profile.clone());
        }

        let label =
            format!("{}/{}/p={}", outcome.exec.hw, outcome.exec.model, outcome.exec.drain_prob);
        let row = report.coverage.entry(label.clone()).or_default();
        row.executions += 1;
        if outcome.budget_hit {
            row.budget_hits += 1;
        }
        if outcome.racy {
            row.racy += 1;
        }
        final_states.entry(label).or_default().insert(outcome.final_state);

        let profile_set: BTreeSet<&RaceKey> = outcome.first_profile.iter().collect();
        for key in outcome.keys {
            let in_first = profile_set.contains(&key);
            let finding = findings.entry(key).or_insert_with(|| RaceFinding {
                key,
                hits: 0,
                first_partition_hits: 0,
                first: outcome.exec,
            });
            finding.hits += 1;
            if in_first {
                finding.first_partition_hits += 1;
            }
        }
    }

    for (label, states) in final_states {
        report.coverage.get_mut(&label).expect("row exists").distinct_final_states =
            states.len() as u64;
    }
    report.races = findings.into_values().collect();
    report.first_partition_profiles = profiles.into_iter().collect();
    report
}

/// Re-executes one campaign point with full detail: the trace, the
/// complete post-mortem report and the race identities — everything
/// needed to debug a finding from its `first` coordinates.
///
/// Replay builds a fresh machine via the public runner entry points, so
/// it also serves as the independent check that the campaign's
/// machine-reuse path changed nothing.
///
/// # Errors
///
/// Same as [`run_campaign`], for a single point.
pub fn replay(
    program: &Program,
    exec: &ExecSpec,
    config: RunConfig,
    pairing: wmrd_core::PairingPolicy,
) -> Result<Replay, ExploreError> {
    let mut sched = RandomWeakSched::new(exec.seed, exec.drain_prob);
    let mut builder = TraceBuilder::new(program.num_procs());
    let run =
        run_weak_hw(exec.hw, program, exec.model, exec.fidelity, &mut sched, &mut builder, config);
    let budget_hit = match run {
        Ok(_) => false,
        Err(SimError::StepLimit(_)) | Err(SimError::CycleLimit(_)) => true,
        Err(e) => return Err(e.into()),
    };
    let mut trace = builder.finish();
    trace.meta.program = Some(program.name().to_string());
    trace.meta.model = Some(exec.model.to_string());
    trace.meta.seed = Some(exec.seed);
    let report = PostMortem::new(&trace).pairing(pairing).analyze()?;
    let keys = event_race_keys(&report.races, &trace);
    Ok(Replay { exec: *exec, budget_hit, trace, report, keys })
}
