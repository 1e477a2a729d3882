//! The compile service: Warp compilations as resilient jobs.
//!
//! This module holds the compiler-side vocabulary of the job engine
//! (DESIGN.md §10): the [`ServiceConfig`] knobs, the failure
//! classification, and the [`BatchReport`] summary. The engine itself
//! is the [`WorkerPool`](warp_service::WorkerPool) inside
//! [`CompileDaemon`], which threads each job's cancellation token and
//! budget knobs into [`SessionCtrl`](crate::SessionCtrl), so a deadline
//! or cancellation reaches every cooperative poll point in the
//! pipeline — pass boundaries, the skew enumeration, the simulator
//! cycle loop — and comes back as a structured [`CompileFailure`]
//! instead of a hang. A batch compile ([`compile_batch`], and through
//! it [`crate::compile_many`] and `w2c --corpus all`) is a short-lived
//! daemon client.
//!
//! Failure classification:
//!
//! - [`CompileFailure::Interrupted`] → [`FailureKind::Timeout`] — the
//!   job's own budget stopped it.
//! - [`CompileFailure::Diagnostics`], [`CompileFailure::TooLarge`], and
//!   [`CompileFailure::TimingOverflow`] → [`FailureKind::Permanent`] —
//!   deterministic for a given source, so retrying is pointless and the
//!   circuit breaker should count them.
//!
//! The compiler itself never produces transient failures; the
//! [`FailureKind::Transient`] path exists for service embeddings whose
//! job closures do I/O around the compile.

use crate::daemon::{CompileDaemon, DaemonConfig, DaemonReport};
use crate::{CompileFailure, CompileOptions, CompiledModule};
use std::fmt::Write as _;
use std::sync::Arc;
use warp_common::{Diagnostic, DiagnosticBag};
use warp_service::{effective_workers, ExecutorConfig, FailureKind, JobOutcome, ShutdownMode};

/// How the retry/breaker machinery should treat a [`CompileFailure`]:
/// budget interruptions are timeouts, everything else is permanent.
pub fn classify_failure(failure: &CompileFailure) -> FailureKind {
    match failure {
        CompileFailure::Interrupted { .. } => FailureKind::Timeout,
        CompileFailure::Diagnostics(_)
        | CompileFailure::TooLarge { .. }
        | CompileFailure::TimingOverflow { .. } => FailureKind::Permanent,
    }
}

/// Configuration of a [`CompileDaemon`]'s job engine: the generic
/// executor knobs plus the per-job pipeline budgets threaded into
/// [`SessionCtrl`](crate::SessionCtrl).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Queue, deadline, retry, and breaker parameters.
    pub exec: ExecutorConfig,
    /// Event budget for the exact skew enumeration (`0` = unlimited);
    /// see [`SessionCtrl::skew_max_events`](crate::SessionCtrl::skew_max_events).
    pub skew_max_events: u64,
    /// Cell-program size ceiling in cycles (`0` = unlimited); see
    /// [`SessionCtrl::max_cell_cycles`](crate::SessionCtrl::max_cell_cycles).
    pub max_cell_cycles: u64,
    /// Source-size ceiling in bytes (`0` = unlimited); see
    /// [`SessionCtrl::max_source_bytes`](crate::SessionCtrl::max_source_bytes).
    pub max_source_bytes: u64,
    /// Worker threads of the daemon's pool (`0` = one per available
    /// core).
    pub workers: usize,
    /// Heartbeat staleness (clock ticks) past which the daemon's
    /// supervisor declares a running job wedged and replaces its
    /// worker (`0` = supervision off, as in [`compile_batch`]).
    pub supervise_grace_ticks: u64,
    /// Real-time milliseconds between background supervisor scans
    /// (`0` = a small default).
    pub supervise_interval_ms: u64,
}

/// The outcome of one batch: the daemon's per-job reports in
/// submission order plus the breaker's quarantine list as of the end
/// of the batch. Modules stay in the cache's `Arc`s.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-job reports, in submission order.
    pub jobs: Vec<DaemonReport>,
    /// Names quarantined by the circuit breaker after this batch.
    pub quarantined: Vec<String>,
}

impl BatchReport {
    /// Jobs that produced a module (including degraded ones).
    pub fn succeeded(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_success()).count()
    }

    /// Successful jobs that degraded to conservative skew bounds.
    pub fn degraded(&self) -> usize {
        self.jobs.iter().filter(|j| j.outcome.is_degraded()).count()
    }

    /// Jobs rejected with diagnostics or a size ceiling (plus panics).
    pub fn failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| {
                matches!(
                    j.outcome,
                    JobOutcome::Failed { .. } | JobOutcome::Panicked { .. }
                )
            })
            .count()
    }

    /// Jobs stopped by their budget or external cancellation.
    pub fn timed_out(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::TimedOut { .. }))
            .count()
    }

    /// Jobs refused by the circuit breaker.
    pub fn quarantined_jobs(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Quarantined { .. }))
            .count()
    }

    /// Jobs the supervisor declared wedged (worker presumed lost).
    pub fn wedged(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Wedged { .. }))
            .count()
    }

    /// The job with the largest wall time, if any ran.
    pub fn slowest(&self) -> Option<&DaemonReport> {
        self.jobs.iter().max_by_key(|j| j.wall_ticks)
    }

    /// `true` when nothing timed out, panicked, or was quarantined —
    /// ordinary diagnostic failures are still "healthy" (the service
    /// did its job; the input was just wrong).
    pub fn is_healthy(&self) -> bool {
        self.timed_out() == 0
            && self.quarantined.is_empty()
            && self.quarantined_jobs() == 0
            && self.wedged() == 0
            && !self
                .jobs
                .iter()
                .any(|j| matches!(j.outcome, JobOutcome::Panicked { .. }))
    }

    /// A human-readable per-job table with a totals line: name,
    /// outcome, wall time in clock ticks (microseconds under the
    /// system clock), with the slowest job flagged.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "batch: {} ok ({} degraded), {} failed, {} timed out, {} quarantined, {} wedged",
            self.succeeded(),
            self.degraded(),
            self.failed(),
            self.timed_out(),
            self.quarantined_jobs(),
            self.wedged(),
        );
        let slowest = self.slowest().map(|j| j.id);
        let width = self
            .jobs
            .iter()
            .map(|j| j.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        for job in &self.jobs {
            let mark = if slowest == Some(job.id) && self.jobs.len() > 1 {
                "  <- slowest"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {:<11} {:>12} ticks{}",
                job.name,
                job.outcome.label(),
                job.wall_ticks,
                mark,
                width = width,
            );
        }
        if !self.quarantined.is_empty() {
            let _ = writeln!(out, "  quarantined names: {}", self.quarantined.join(", "));
        }
        out
    }

    /// Flattens the batch into per-program compile results in
    /// submission order — the [`crate::compile_many`] contract. Budget
    /// stops, panics, and quarantines become diagnostic-bearing
    /// failures. Each module is moved out of its `Arc`, which is free
    /// once the daemon (and its cache) is gone; only duplicate sources
    /// that share one `Arc` pay a clone.
    pub fn into_results(self) -> Vec<Result<CompiledModule, DiagnosticBag>> {
        self.jobs
            .into_iter()
            .map(|job| match job.outcome {
                JobOutcome::Success(s) => {
                    Ok(Arc::try_unwrap(s.value).unwrap_or_else(|shared| (*shared).clone()))
                }
                JobOutcome::Failed { error, .. } => Err(error.into_diagnostics()),
                JobOutcome::TimedOut { reason, .. } => {
                    let mut diags = DiagnosticBag::new();
                    diags.push(Diagnostic::error_global(format!(
                        "compilation interrupted: {reason}"
                    )));
                    Err(diags)
                }
                JobOutcome::Panicked { what, .. } => {
                    let mut diags = DiagnosticBag::new();
                    diags.push(Diagnostic::error_global(format!(
                        "internal compiler error: {what}"
                    )));
                    Err(diags)
                }
                JobOutcome::Quarantined {
                    consecutive_failures,
                } => {
                    let mut diags = DiagnosticBag::new();
                    diags.push(Diagnostic::error_global(format!(
                        "program quarantined by the circuit breaker after \
                         {consecutive_failures} consecutive failures"
                    )));
                    Err(diags)
                }
                JobOutcome::Wedged { stalled_for_ticks } => {
                    let mut diags = DiagnosticBag::new();
                    diags.push(Diagnostic::error_global(format!(
                        "compile job wedged: worker unresponsive for \
                         {stalled_for_ticks} ticks; presumed lost and replaced"
                    )));
                    Err(diags)
                }
            })
            .collect()
    }
}

/// Batch-compiles named sources on a short-lived, memory-only
/// [`CompileDaemon`] over the system clock: unbounded queue, no
/// deadline, no retry, no breaker, no supervision, one worker per
/// source up to the available cores. The daemon is shut down and
/// dropped before this returns, so the report holds the only
/// references to its modules. The engine behind [`crate::compile_many`]
/// and `w2c --corpus all`.
pub fn compile_batch(named_sources: Vec<(String, String)>, opts: &CompileOptions) -> BatchReport {
    let daemon = CompileDaemon::with_system_clock(
        opts.clone(),
        DaemonConfig {
            service: ServiceConfig {
                exec: ExecutorConfig {
                    queue_capacity: 0,
                    ..ExecutorConfig::default()
                },
                workers: effective_workers(0).min(named_sources.len().max(1)),
                ..ServiceConfig::default()
            },
            ..DaemonConfig::default()
        },
    );
    let ids: Vec<usize> = named_sources
        .into_iter()
        .map(|(name, source)| {
            daemon
                .submit(name, source)
                .id()
                .expect("an unbounded queue never sheds")
        })
        .collect();
    let jobs = daemon.wait(&ids);
    let quarantined = daemon.quarantined_names();
    daemon.shutdown(ShutdownMode::Drain);
    BatchReport { jobs, quarantined }
}
