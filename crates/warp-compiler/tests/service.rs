//! End-to-end tests of the compile daemon's job engine: budgets,
//! cancellation, graceful degradation, the circuit breaker, and load
//! shedding driven against the real pipeline on a deterministic clock
//! — no real sleeps, no wall-clock flakiness.
//!
//! The deterministic-time trick: a [`ManualClock`] with auto-advance
//! charges one tick per clock read, so "wall time" is the number of
//! cooperative cancellation checks a job performs (plus a few cache
//! bookkeeping reads). Every daemon here runs one worker, so no two
//! jobs ever read the shared clock concurrently. The Table 7-1 corpus
//! polls a handful of times per compile (eight pass boundaries plus a
//! few skew-enumeration polls — their timelines are under 10k events),
//! while the runaway program below enumerates millions of events and
//! polls hundreds of times. A deadline between the two kills only the
//! runaway, deterministically.

use std::sync::Arc;
use warp_common::{CancelReason, CancelToken, ManualClock};
use warp_compiler::{
    audit::{self, AuditOptions},
    corpus,
    daemon::{batch_report, CompileDaemon, DaemonConfig},
    BatchReport, CompileFailure, CompileOptions, ServiceConfig, Session, SessionCtrl,
};
use warp_service::{Admission, ExecutorConfig, FailureKind, JobOutcome, ShutdownMode};

/// A structurally valid two-cell program whose skew analysis must
/// enumerate two million I/O events — far beyond any deadline a test
/// arms, and far beyond the Table 7-1 corpus (whose timelines stay
/// under 10k events). It must be multi-cell: a single-cell array has
/// no interior queues and the skew pass skips the enumeration.
const RUNAWAY: &str = "module runaway (xs in, ys out) float xs[1000000]; float ys[1000000]; \
    cellprogram (cid : 0 : 1) begin function f begin float v; int i; \
    for i := 0 to 999999 do begin receive (L, X, v, xs[i]); send (R, X, v * 2.0, ys[i]); end; \
    end call f; end";

/// One tick per clock read: a job's budget is its poll count.
fn auto_clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::with_auto_advance(0, 1))
}

/// A one-worker, memory-only daemon on the auto-advancing clock.
fn daemon(service: ServiceConfig) -> CompileDaemon {
    CompileDaemon::new(
        CompileOptions::default(),
        DaemonConfig {
            service: ServiceConfig {
                workers: 1,
                ..service
            },
            ..DaemonConfig::default()
        },
        auto_clock(),
    )
}

fn with_exec(exec: ExecutorConfig) -> ServiceConfig {
    ServiceConfig {
        exec,
        ..ServiceConfig::default()
    }
}

/// Submits `(name, source)` pairs, all of which must be admitted.
fn submit_all(d: &CompileDaemon, jobs: &[(&str, &str)]) -> Vec<usize> {
    jobs.iter()
        .map(|(name, source)| d.submit(*name, *source).id().expect("admitted"))
        .collect()
}

/// Waits for `ids` and wraps their reports as one batch.
fn run(d: &CompileDaemon, ids: &[usize]) -> BatchReport {
    batch_report(d.wait(ids), d.quarantined_names())
}

/// The acceptance scenario: a pathological job submitted alongside the
/// full Table 7-1 corpus is killed by its budget with a structured
/// timeout report while every other job completes.
#[test]
fn runaway_job_is_killed_by_its_budget_while_the_corpus_completes() {
    // 200 polls of budget: corpus programs use ~a dozen each, the
    // runaway needs hundreds before its skew enumeration would finish.
    let d = daemon(with_exec(ExecutorConfig {
        queue_capacity: 16,
        deadline_ticks: 200,
        ..ExecutorConfig::default()
    }));
    // Sandwich the runaway between corpus programs: jobs before and
    // after it must be unaffected.
    let (first, rest) = corpus::TABLE_7_1.split_at(2);
    let mut jobs = first.to_vec();
    jobs.push(("runaway", RUNAWAY));
    jobs.extend_from_slice(rest);
    let ids = submit_all(&d, &jobs);

    let batch = run(&d, &ids);
    assert_eq!(batch.jobs.len(), 6);
    assert_eq!(batch.succeeded(), 5, "{}", batch.summary());
    assert_eq!(batch.timed_out(), 1, "{}", batch.summary());
    assert!(!batch.is_healthy());

    for job in &batch.jobs {
        if job.name == "runaway" {
            let JobOutcome::TimedOut { reason, attempts } = &job.outcome else {
                panic!("runaway must time out, got {}", job.outcome.label());
            };
            assert!(
                matches!(reason, CancelReason::DeadlineExceeded { .. }),
                "{reason}"
            );
            assert_eq!(*attempts, 1);
            assert!(job.wall_ticks >= 200, "the budget was consumed");
        } else {
            assert!(
                job.outcome.is_success(),
                "{} must complete, got {}",
                job.name,
                job.outcome.label()
            );
            assert!(!job.outcome.is_degraded());
        }
    }
    let summary = batch.summary();
    assert!(summary.contains("runaway"), "{summary}");
    assert!(summary.contains("timeout"), "{summary}");
    d.shutdown(ShutdownMode::Drain);
}

/// A deadline that expires mid-pass (inside the skew enumeration, not
/// at a pass boundary) comes back as a structured
/// [`CompileFailure::Interrupted`] naming the pass — not a hang, not a
/// generic diagnostic.
#[test]
fn deadline_exceeded_mid_pass_is_a_structured_timeout() {
    let clock = auto_clock();
    let token = CancelToken::with_deadline(clock, 50);
    let failure = Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            cancel: token,
            ..SessionCtrl::default()
        })
        .try_compile(RUNAWAY)
        .expect_err("a 50-poll budget cannot cover a 2M-event enumeration");
    let CompileFailure::Interrupted { pass, reason } = failure else {
        panic!("expected Interrupted, got {failure}");
    };
    assert_eq!(pass, "skew", "the enumeration is where the time goes");
    assert!(
        matches!(reason, CancelReason::DeadlineExceeded { deadline: 50, .. }),
        "{reason}"
    );
}

/// Cancelling a token before the session starts stops the pipeline at
/// the first pass boundary.
#[test]
fn cancelled_session_stops_at_the_first_checkpoint() {
    let token = CancelToken::new(auto_clock());
    token.cancel();
    let failure = Session::new(CompileOptions::default())
        .with_ctrl(SessionCtrl {
            cancel: token,
            ..SessionCtrl::default()
        })
        .try_compile(corpus::POLYNOMIAL)
        .expect_err("a cancelled token must stop the session");
    let CompileFailure::Interrupted { pass, reason } = failure else {
        panic!("expected Interrupted, got {failure}");
    };
    assert_eq!(pass, "frontend");
    assert_eq!(reason, CancelReason::Cancelled);
}

/// The cell-program size ceiling rejects an oversized loop nest before
/// the expensive analyses, with a structured report of the excess.
#[test]
fn size_ceiling_rejects_oversized_programs_as_permanent() {
    let d = daemon(ServiceConfig {
        max_cell_cycles: 10_000,
        ..ServiceConfig::default()
    });
    let ids = submit_all(&d, &[("runaway", RUNAWAY)]);
    let batch = run(&d, &ids);
    let JobOutcome::Failed { kind, error, .. } = &batch.jobs[0].outcome else {
        panic!("expected Failed, got {}", batch.jobs[0].outcome.label());
    };
    assert_eq!(*kind, FailureKind::Permanent, "size is deterministic");
    let CompileFailure::TooLarge {
        pass,
        what,
        size,
        limit,
    } = error
    else {
        panic!("expected TooLarge, got {error}");
    };
    assert_eq!(*pass, "cell-codegen");
    assert_eq!(*what, "cell cycles");
    assert_eq!(*limit, 10_000);
    assert!(*size > *limit);
    d.shutdown(ShutdownMode::Drain);
}

/// When the skew event budget runs out the compile still succeeds with
/// conservative closed-form bounds, the module is flagged `degraded`,
/// and the guarantee audit (which simulates at the claimed skew) still
/// passes — the bound is sound, just not claimed tight.
#[test]
fn degraded_skew_fallback_still_passes_the_guarantee_audit() {
    let d = daemon(ServiceConfig {
        skew_max_events: 8,
        ..ServiceConfig::default()
    });
    let ids = submit_all(&d, &[("conv1d", corpus::ONED_CONV)]);
    let batch = run(&d, &ids);
    assert_eq!(batch.succeeded(), 1, "{}", batch.summary());
    assert_eq!(batch.degraded(), 1, "{}", batch.summary());
    assert!(batch.is_healthy(), "degraded is not unhealthy");

    let JobOutcome::Success(success) = &batch.jobs[0].outcome else {
        panic!("expected success, got {}", batch.jobs[0].outcome.label());
    };
    let module = &success.value;
    assert!(module.skew.degraded);

    let report = audit::audit(module, &AuditOptions::default());
    assert!(report.passed(), "{report}");
    let tightness = report
        .checks
        .iter()
        .find(|c| c.name == "skew-tightness")
        .expect("the audit always reports skew-tightness");
    assert!(
        tightness.skipped,
        "a degraded bound is sound but not claimed tight: {}",
        tightness.detail
    );
    d.shutdown(ShutdownMode::Drain);
}

/// Three consecutive permanent failures trip the per-program breaker:
/// the fourth submission is refused without running the compiler, and
/// an operator reset reopens it.
#[test]
fn circuit_breaker_quarantines_a_repeatedly_failing_program() {
    const BROKEN: &str = "module broken (xs in) float xs[4]; \
        cellprogram (cid : 0 : 0) begin function f begin \
        this is not w2; end call f; end";
    let d = daemon(with_exec(ExecutorConfig {
        breaker_threshold: 3,
        ..ExecutorConfig::default()
    }));
    for round in 0..3 {
        let ids = submit_all(&d, &[("broken", BROKEN)]);
        let batch = run(&d, &ids);
        assert_eq!(batch.failed(), 1, "round {round}: {}", batch.summary());
    }
    assert!(d.is_quarantined("broken"));

    let ids = submit_all(&d, &[("broken", BROKEN)]);
    let batch = run(&d, &ids);
    assert_eq!(batch.quarantined_jobs(), 1, "{}", batch.summary());
    assert_eq!(batch.quarantined, vec!["broken".to_owned()]);
    assert!(!batch.is_healthy());

    assert!(d.reset_breaker("broken"));
    assert!(!d.is_quarantined("broken"));
    // A (fixed) program under the same name runs again after the reset.
    let ids = submit_all(&d, &[("broken", corpus::POLYNOMIAL)]);
    let batch = run(&d, &ids);
    assert_eq!(batch.succeeded(), 1, "{}", batch.summary());
    d.shutdown(ShutdownMode::Drain);
}

/// Load shedding at the admission boundary: a full queue rejects with a
/// retry hint instead of queueing unboundedly. Dispatch is paused so the
/// burst meets a quiescent queue.
#[test]
fn full_queue_sheds_load_with_a_retry_hint() {
    let d = daemon(with_exec(ExecutorConfig {
        queue_capacity: 2,
        retry_after_ticks: 777,
        ..ExecutorConfig::default()
    }));
    d.pause();
    let ids = submit_all(&d, &[("a", corpus::POLYNOMIAL), ("b", corpus::POLYNOMIAL)]);
    match d.submit("c", corpus::POLYNOMIAL) {
        Admission::Rejected { retry_after_ticks } => {
            assert_eq!(retry_after_ticks, 777);
        }
        Admission::Accepted { .. } => panic!("queue of 2 must shed the third job"),
    }
    assert_eq!(d.queue_len(), 2);
    d.resume();
    let batch = run(&d, &ids);
    assert_eq!(batch.succeeded(), 2);
    d.shutdown(ShutdownMode::Drain);
}
