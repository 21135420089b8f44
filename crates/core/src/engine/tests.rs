use super::*;
use crate::{ChatParams, GenerateParams, ResponsePayload};
use cp_dataset::Style;
use std::sync::{mpsc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

/// A service slow enough to keep jobs queued while the test pokes
/// at them. `Generate.rows == 0` selects the error path; everything
/// else echoes an empty payload after `delay`.
struct SlowService {
    delay: Duration,
}

impl PatternService for SlowService {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        thread::sleep(self.delay);
        match request {
            PatternRequest::Generate(p) if p.rows == 0 => {
                Err(Error::invalid_request("no rows to generate"))
            }
            _ => Ok(PatternResponse {
                payload: ResponsePayload::Generate(Vec::new()),
                timing: Timing::direct(self.delay.as_micros() as u64),
            }),
        }
    }
}

fn generate(seed: u64) -> PatternRequest {
    PatternRequest::Generate(GenerateParams {
        style: Style::Layer10001,
        rows: 4,
        cols: 4,
        count: 1,
        seed,
    })
}

fn slow_engine(workers: usize, queue_depth: usize) -> PatternEngine<SlowService> {
    PatternEngine::with_config(
        SlowService {
            delay: Duration::from_millis(30),
        },
        EngineConfig {
            workers,
            queue_depth,
            cache_capacity: 0,
        },
    )
    .expect("valid config")
}

#[test]
fn config_validation_rejects_zeros() {
    let service = SlowService {
        delay: Duration::ZERO,
    };
    let err = PatternEngine::with_config(
        service,
        EngineConfig {
            workers: 0,
            queue_depth: 1,
            cache_capacity: 0,
        },
    )
    .expect_err("zero workers rejected");
    assert!(matches!(err, Error::Config { .. }));
    let err = EngineConfig {
        workers: 2,
        queue_depth: 0,
        cache_capacity: 0,
    }
    .validate()
    .expect_err("a queue that holds nothing accepts nothing");
    assert!(matches!(err, Error::Config { .. }));
}

#[test]
fn submit_reports_queue_full() {
    // One worker sleeping, depth-1 queue: distinct-seed submits
    // must eventually find the queue occupied.
    let engine = slow_engine(1, 1);
    let first = engine.submit_blocking(generate(1));
    let second = engine.submit_blocking(generate(2));
    let mut saw_full = false;
    for seed in 3..100 {
        match engine.submit(generate(seed)) {
            Err(Error::QueueFull { depth }) => {
                assert_eq!(depth, 1);
                saw_full = true;
                break;
            }
            Ok(handle) => drop(handle.wait()),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(saw_full, "depth-1 queue never filled");
    first.wait().expect("first job completes");
    second.wait().expect("second job completes");
}

#[test]
fn queue_full_submit_does_not_disturb_coalescing_state() {
    // Fill the queue, fail a submit, then verify the same request
    // can be submitted (blocking) and completes: the rejected
    // lead's registration was rolled back.
    let engine = slow_engine(1, 1);
    let _running = engine.submit_blocking(generate(1));
    let _queued = engine.submit_blocking(generate(2));
    let mut rejected_seed = None;
    for seed in 3..100 {
        match engine.submit(generate(seed)) {
            Err(Error::QueueFull { .. }) => {
                rejected_seed = Some(seed);
                break;
            }
            Ok(handle) => drop(handle.wait()),
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    let seed = rejected_seed.expect("queue filled");
    let retry = engine.submit_blocking(generate(seed));
    retry.wait().expect("retried request executes");
}

#[test]
fn drop_cancels_queued_jobs() {
    let engine = slow_engine(1, 8);
    let _running = engine.submit_blocking(generate(1));
    let queued = engine.submit_blocking(generate(2));
    drop(engine);
    assert!(matches!(queued.wait(), Err(Error::Cancelled)));
}

#[test]
fn timing_records_queue_wait() {
    let engine = slow_engine(1, 8);
    let _first = engine.submit_blocking(generate(1));
    let second = engine.submit_blocking(generate(2));
    let response = second.wait().expect("completes");
    // The second job waited behind the 30 ms first job.
    assert!(
        response.timing.queue_micros >= 10_000,
        "queue wait was {} µs",
        response.timing.queue_micros
    );
    assert_eq!(
        response.timing.micros,
        response.timing.queue_micros + response.timing.exec_micros
    );
    assert!(!response.timing.coalesced, "no identical request in flight");
}

#[test]
fn errors_count_as_failed_in_stats() {
    let engine = slow_engine(2, 8);
    let bad = PatternRequest::Generate(GenerateParams {
        style: Style::Layer10001,
        rows: 0,
        cols: 4,
        count: 1,
        seed: 1,
    });
    assert!(engine.submit_blocking(bad).wait().is_err());
    engine.submit_blocking(generate(1)).wait().expect("ok");
    let stats = engine.stats();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn identical_queued_submissions_coalesce() {
    // One worker busy with seed 1; two identical seed-2 submits
    // queue behind it and must share one execution.
    let engine = slow_engine(1, 8);
    let busy = engine.submit_blocking(generate(1));
    let leader = engine.submit_blocking(generate(2));
    let waiter = engine.submit_blocking(generate(2));
    let a = leader.wait().expect("leader completes");
    let b = waiter.wait().expect("waiter completes");
    assert_eq!(a.payload, b.payload);
    assert!(!a.timing.coalesced, "leader ran the execution");
    assert!(b.timing.coalesced, "waiter attached to it");
    busy.wait().expect("busy completes");
    let stats = engine.stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn coalescing_survives_cache_disabled() {
    // cache_capacity is 0 in slow_engine: coalescing is in-flight
    // sharing, not cache replay, so it must still work.
    let engine = slow_engine(1, 8);
    let _busy = engine.submit_blocking(generate(7));
    let first = engine.submit_blocking(generate(8));
    let second = engine.submit_blocking(generate(8));
    first.wait().expect("completes");
    second.wait().expect("completes");
    let stats = engine.stats();
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.cache_hits, 0, "cache is disabled");
}

#[test]
fn the_default_is_one_queue_and_it_is_fifo_within_a_tenant() {
    let default = PatternEngine::new(SlowService {
        delay: Duration::ZERO,
    });
    assert_eq!(default.stats().queue_depths, [0]);
    // However many workers drain it, `Stats` reports the one depth.
    let wide = slow_engine(3, 8);
    let handles: Vec<JobHandle> = (0..6)
        .map(|seed| wide.submit_blocking(generate(seed)))
        .collect();
    assert_eq!(wide.stats().queue_depths.len(), 1);
    for handle in handles {
        handle.wait().expect("completes");
    }
    assert_eq!(wide.stats().completed, 6);
    assert_eq!(wide.stats().queue_depths, [0]);

    // One worker: what one tenant queued behind a running job
    // finishes in the order it was submitted.
    let (engine, open_gate) = gated_engine();
    let _running = engine.submit(generate(0)).expect("submits");
    let (sender, finished) = mpsc::channel();
    for seed in 1..=4 {
        let sender = sender.clone();
        let queued = engine.submit(generate(seed)).expect("submits");
        queued.on_done(move |_| sender.send(seed).expect("the test is listening"));
    }
    open_gate();
    assert_eq!(finished.iter().take(4).collect::<Vec<u64>>(), [1, 2, 3, 4]);
}

/// A service whose jobs block until the test opens the gate, so a
/// test decides which handles are still queued when it acts.
struct GatedService {
    open: Arc<(Mutex<bool>, Condvar)>,
    /// How many jobs have reached the gate, i.e. are running.
    started: (Mutex<usize>, Condvar),
}

impl GatedService {
    /// Blocks until `jobs` jobs have reached the gate.
    fn await_started(&self, jobs: usize) {
        let (started, arrived) = &self.started;
        let started = started.lock().expect("gate lock");
        let (started, _) = arrived
            .wait_timeout_while(started, Duration::from_secs(30), |started| *started < jobs)
            .expect("gate lock");
        assert!(*started >= jobs, "{jobs} jobs never reached the gate");
    }
}

impl PatternService for GatedService {
    fn execute(&self, _request: PatternRequest) -> Result<PatternResponse, Error> {
        *self.started.0.lock().expect("gate lock") += 1;
        self.started.1.notify_all();
        let (open, opened) = &*self.open;
        let mut open = open.lock().expect("gate lock");
        while !*open {
            open = opened.wait(open).expect("gate wait");
        }
        Ok(PatternResponse {
            payload: ResponsePayload::Generate(Vec::new()),
            timing: Timing::direct(0),
        })
    }
}

/// One worker over a [`GatedService`], plus the closure that opens
/// the gate.
fn gated_engine() -> (Arc<PatternEngine<GatedService>>, impl Fn()) {
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = PatternEngine::with_config(
        GatedService {
            open: Arc::clone(&gate),
            started: (Mutex::new(0), Condvar::new()),
        },
        EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 0,
        },
    )
    .expect("valid config");
    let open = move || {
        *gate.0.lock().expect("gate lock") = true;
        gate.1.notify_all();
    };
    (Arc::new(engine), open)
}

/// What an `on_done` callback saw: the result and the name of the
/// thread it ran on.
type Delivery = (Result<PatternResponse, Error>, Option<String>);

/// Registers a callback that reports its [`Delivery`] on a channel.
/// The callback owns the only sender, so a second `recv` failing
/// with a disconnect proves it ran once and was dropped.
fn deliver(handle: JobHandle) -> mpsc::Receiver<Delivery> {
    let (sender, receiver) = mpsc::channel();
    handle.on_done(move |result| {
        let _ = sender.send((result, thread::current().name().map(str::to_owned)));
    });
    receiver
}

fn on_a_worker(name: &Option<String>) -> bool {
    name.as_deref()
        .is_some_and(|name| name.starts_with("pattern-engine-"))
}

#[test]
fn on_done_of_a_finished_handle_runs_before_it_returns() {
    let here = thread::current().name().map(str::to_owned);
    let engine = PatternEngine::with_config(
        SlowService {
            delay: Duration::ZERO,
        },
        EngineConfig {
            workers: 1,
            queue_depth: 1,
            cache_capacity: 4,
        },
    )
    .expect("valid config");
    engine
        .submit_blocking(generate(1))
        .wait()
        .expect("executes");
    // A cache hit of that execution, then Stats: both handles are
    // finished when `submit` returns, so the delivery is already
    // in the channel when `deliver` returns.
    for (request, cached) in [(generate(1), true), (PatternRequest::Stats, false)] {
        let deliveries = deliver(engine.submit(request).expect("nothing is queued"));
        let (result, ran_on) = deliveries.try_recv().expect("ran before on_done returned");
        assert_eq!(result.expect("completes").timing.cached, cached);
        assert_eq!(ran_on, here, "a finished handle calls back on the caller");
        assert!(matches!(
            deliveries.try_recv(),
            Err(mpsc::TryRecvError::Disconnected)
        ));
    }
}

#[test]
fn on_done_of_a_queued_job_runs_once_on_the_worker() {
    let (engine, open_gate) = gated_engine();
    let _running = engine.submit(generate(1)).expect("submits");
    let queued = engine.submit(generate(2)).expect("submits");
    let deliveries = deliver(queued);
    assert!(deliveries.try_recv().is_err(), "nothing before completion");
    open_gate();
    let (result, ran_on) = deliveries.recv().expect("delivered");
    let response = result.expect("completes");
    assert!(!response.timing.coalesced);
    assert!(on_a_worker(&ran_on), "ran on {ran_on:?}");
    assert!(deliveries.recv().is_err(), "exactly one delivery");
    let stats = engine.stats();
    assert_eq!(stats.completed, 2, "counted before the callback ran");
}

#[test]
fn on_done_reaches_every_coalesced_waiter_with_its_own_timing() {
    let (engine, open_gate) = gated_engine();
    let _running = engine.submit(generate(1)).expect("submits");
    let leader = deliver(engine.submit(generate(2)).expect("submits"));
    let waiters: Vec<_> = (0..2)
        .map(|_| deliver(engine.submit(generate(2)).expect("submits")))
        .collect();
    open_gate();
    let (result, ran_on) = leader.recv().expect("leader delivered");
    assert!(!result.expect("completes").timing.coalesced);
    assert!(on_a_worker(&ran_on));
    for waiter in waiters {
        let (result, ran_on) = waiter.recv().expect("waiter delivered");
        let timing = result.expect("completes").timing;
        assert!(timing.coalesced, "a waiter's timing says so: {timing:?}");
        assert_eq!(timing.micros, timing.queue_micros + timing.exec_micros);
        assert!(on_a_worker(&ran_on));
        assert!(waiter.recv().is_err(), "exactly one delivery per waiter");
    }
    assert_eq!(engine.stats().coalesced, 2);
}

/// A [`GatedService`] whose reply records the time it spent at the
/// gate as a staged kind does, spread unevenly over three stages.
struct StagedService(GatedService);

impl PatternService for StagedService {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        let started = Instant::now();
        let response = self.0.execute(request)?;
        let micros = elapsed_micros(started);
        let mut stages = [0; crate::STAGES];
        stages[crate::Stage::Grid as usize] = micros / 3;
        stages[crate::Stage::Noise as usize] = micros / 7;
        stages[crate::Stage::Draws as usize] = micros - micros / 3 - micros / 7;
        Ok(PatternResponse {
            timing: Timing {
                stages,
                ..Timing::direct(micros)
            },
            ..response
        })
    }
}

#[test]
fn a_coalesced_waiters_stages_sum_to_its_micros() {
    let open = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = PatternEngine::with_config(
        StagedService(GatedService {
            open: Arc::clone(&open),
            started: (Mutex::new(0), Condvar::new()),
        }),
        EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 0,
        },
    )
    .expect("valid config");
    let leader = engine.submit(generate(1)).expect("submits");
    engine.core.service.0.await_started(1);
    // The waiter attaches well into the execution: its share of it is
    // scaled down.
    thread::sleep(Duration::from_millis(50));
    let waiter = engine.submit(generate(1)).expect("submits");
    thread::sleep(Duration::from_millis(20));
    *open.0.lock().expect("gate lock") = true;
    open.1.notify_all();
    let leader = leader.wait().expect("completes").timing;
    let waiter = waiter.wait().expect("completes").timing;
    assert!(waiter.coalesced && !leader.coalesced);
    assert!(waiter.exec_micros < leader.exec_micros, "{waiter:?}");
    for timing in [leader, waiter] {
        assert_eq!(
            timing.stages.iter().sum::<u64>(),
            timing.micros,
            "{timing:?}"
        );
    }
}

/// Answers with a 1 MiB topology — big enough that the cache copy's
/// deep clone takes measurable time — and records when `execute`
/// began.
struct BulkyService {
    began: Mutex<Option<Instant>>,
}

impl PatternService for BulkyService {
    fn execute(&self, _request: PatternRequest) -> Result<PatternResponse, Error> {
        let began = Instant::now();
        *self.began.lock().expect("began lock") = Some(began);
        // Filled to the last byte before the clock is read again: the
        // optimiser may not defer the fill past the read.
        let payload = std::hint::black_box(ResponsePayload::Generate(vec![
            cp_layout::squish::Topology::filled(1024, 1024, true),
        ]));
        Ok(PatternResponse {
            payload,
            timing: Timing::direct(elapsed_micros(began)),
        })
    }
}

/// `admit` and `queue` end where the execution begins: the cache copy
/// and the fan-out after it are nobody's queue wait. The allowance is
/// the service's own return and the engine's clock read after it, 2–9
/// µs on an unoptimised build; the two copies of the 1 MiB payload
/// that `queue` must not hold take 0.6–1.5 ms on either build.
#[test]
fn the_queue_stage_holds_only_the_queue() {
    let engine = PatternEngine::with_config(
        BulkyService {
            began: Mutex::new(None),
        },
        EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 8,
        },
    )
    .expect("valid config");
    // A first run faults the code in, so the one measured runs warm.
    engine.execute(generate(1)).expect("completes");
    let before = Instant::now();
    let timing = engine
        .submit(generate(2))
        .expect("submits")
        .wait()
        .expect("completes")
        .timing;
    let began = engine.core.service.began.lock().expect("began lock");
    let span = micros_between(before, began.expect("executed"));
    let waited =
        timing.stages[crate::Stage::Admit as usize] + timing.stages[crate::Stage::Queue as usize];
    assert!(
        waited <= span + 50,
        "admit + queue {waited} µs, submit to execution {span} µs: {timing:?}"
    );
}

#[test]
fn on_done_of_a_job_queued_at_engine_drop_reports_cancelled() {
    let here = thread::current().name().map(str::to_owned);
    let (engine, open_gate) = gated_engine();
    let running = deliver(engine.submit(generate(1)).expect("submits"));
    engine.core.service.await_started(1);
    let queued = deliver(engine.submit(generate(2)).expect("submits"));
    // Dropping fails the queued job, then joins the worker — which
    // is parked at the gate, so the gate is opened from the side,
    // once the queued job has heard. A drop that joined first would
    // leave the opener to time out instead.
    let engine = Arc::try_unwrap(engine).expect("sole owner");
    let opener = thread::spawn(move || {
        let heard = queued.recv_timeout(Duration::from_secs(30));
        open_gate();
        (heard, queued)
    });
    drop(engine);
    let (heard, queued) = opener.join().expect("opener finishes");
    let (result, ran_on) = heard.expect("the queued job heard before the drop joined");
    assert!(matches!(result, Err(Error::Cancelled)), "{result:?}");
    assert_eq!(ran_on, here, "the dropping thread delivers");
    assert!(queued.recv().is_err(), "exactly one delivery");
    // The running job was let finish.
    let (result, _) = running.recv().expect("delivered");
    result.expect("the running job completes");
}

#[test]
fn on_done_may_submit_the_identical_request_again() {
    // The callback runs outside the broker lock: re-admitting the
    // very key whose completion is being delivered must not
    // deadlock, and leads a fresh execution (the cache is off).
    let (engine, open_gate) = gated_engine();
    let (sender, resubmitted) = mpsc::channel();
    let again = Arc::clone(&engine);
    engine
        .submit(generate(1))
        .expect("submits")
        .on_done(move |result| {
            result.expect("first execution completes");
            let _ = sender.send(again.submit(generate(1)));
        });
    open_gate();
    let second = resubmitted
        .recv_timeout(Duration::from_secs(30))
        .expect("the callback returned")
        .expect("re-admitted");
    let response = second.wait().expect("second execution completes");
    assert!(!response.timing.cached && !response.timing.coalesced);
    assert_eq!(engine.stats().cache_misses, 2);
}

/// A service that panics on every request.
struct PanickingService;

impl PatternService for PanickingService {
    fn execute(&self, _request: PatternRequest) -> Result<PatternResponse, Error> {
        panic!("boom");
    }
}

#[test]
fn service_panic_becomes_internal_error_and_frees_the_key() {
    let engine = PatternEngine::with_config(
        PanickingService,
        EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 4,
        },
    )
    .expect("valid config");
    let err = engine
        .submit_blocking(generate(1))
        .wait()
        .expect_err("panicking service reports an error");
    assert!(matches!(err, Error::Internal { .. }), "{err:?}");
    assert!(err.to_string().contains("boom"), "{err}");
    // The key is not poisoned: an identical resubmit executes
    // again (and fails again) instead of hanging on a dead task.
    let err = engine
        .submit_blocking(generate(1))
        .wait()
        .expect_err("re-executes, does not hang");
    assert!(matches!(err, Error::Internal { .. }));
    let stats = engine.stats();
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.coalesced, 0, "nothing attached to a dead task");
}

#[test]
fn cache_key_skips_unseeded_chat_and_sessions() {
    use crate::broker::{ResultBroker, Work};
    use crate::routing::is_keyed;
    assert!(!is_keyed(&PatternRequest::Chat(ChatParams {
        request: "x".into(),
        seed: None,
    })));
    // Session requests are stateful: never keyed; the router
    // places them by their session id.
    let open = PatternRequest::SessionOpen(crate::SessionOpenParams {
        session: "s".into(),
        seed: Some(1),
    });
    let turn = PatternRequest::SessionTurn(crate::SessionTurnParams {
        session: "s".into(),
        utterance: "x".into(),
    });
    let close = PatternRequest::SessionClose(crate::SessionCloseParams {
        session: "s".into(),
    });
    for request in [&open, &turn, &close] {
        assert!(!is_keyed(request), "{request:?}");
    }
    assert!(is_keyed(&PatternRequest::Chat(ChatParams {
        request: "x".into(),
        seed: Some(1),
    })));
    let broker = ResultBroker::new(1);
    let key = |request| match broker.work(request) {
        Work::Keyed(key) => key,
        Work::Private(request) => panic!("seeded requests have keys: {request:?}"),
    };
    assert_eq!(
        key(generate(1)),
        key(generate(1)),
        "identical requests share a key"
    );
    assert_ne!(key(generate(1)), key(generate(2)));
}

/// An engine over [`SlowService`] with one tenant-quota override.
fn qos_engine(
    delay: Duration,
    tenant: &str,
    quota: cp_qos::TenantQuota,
) -> PatternEngine<SlowService> {
    let mut qos = QosConfig::new();
    qos.tenant_quotas.insert(tenant.to_owned(), quota);
    PatternEngine::with_qos(
        SlowService { delay },
        EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 0,
        },
        qos,
    )
    .expect("valid config")
}

fn tenant_row(stats: &EngineStats, tenant: &str) -> (u64, u64, u64) {
    stats
        .tenants
        .iter()
        .filter(|row| row.tenant == tenant)
        .fold((0, 0, 0), |acc, row| {
            (
                acc.0 + row.admitted,
                acc.1 + row.rejected,
                acc.2 + row.completed,
            )
        })
}

#[test]
fn qos_inflight_quota_rejects_with_retry_after_and_recovers() {
    let engine = qos_engine(
        Duration::from_millis(40),
        "flood",
        cp_qos::TenantQuota {
            max_inflight: 1,
            ..cp_qos::TenantQuota::default()
        },
    );
    let first = engine
        .submit_as(Some("flood"), generate(1))
        .expect("first fills the quota");
    let over = engine.submit_as(Some("flood"), generate(2));
    match over {
        Err(Error::Overloaded { retry_after_ms }) => assert!(retry_after_ms > 0),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Another tenant is untouched by the flooder's quota.
    engine
        .submit_as(Some("calm"), generate(3))
        .expect("other tenants admit")
        .wait()
        .expect("completes");
    first.wait().expect("quota holder completes");
    // The slot is free again once the job finished.
    engine
        .submit_as(Some("flood"), generate(4))
        .expect("slot released on completion")
        .wait()
        .expect("completes");
    let stats = engine.stats();
    let (admitted, rejected, completed) = tenant_row(&stats, "flood");
    assert_eq!(admitted, 2);
    assert_eq!(rejected, 1);
    assert_eq!(completed, 2);
    let (admitted, rejected, completed) = tenant_row(&stats, "calm");
    assert_eq!((admitted, rejected, completed), (1, 0, 1));
}

#[test]
fn qos_blocking_submit_surfaces_overloaded_as_failed_handle() {
    let engine = qos_engine(
        Duration::from_millis(40),
        "flood",
        cp_qos::TenantQuota {
            max_inflight: 1,
            ..cp_qos::TenantQuota::default()
        },
    );
    let first = engine
        .submit_as(Some("flood"), generate(1))
        .expect("admits");
    let over = engine.submit_blocking_as(Some("flood"), generate(2));
    assert!(matches!(over.wait(), Err(Error::Overloaded { .. })));
    first.wait().expect("completes");
}

/// Every way a session leaves the store — a close, TTL expiry, and
/// capacity eviction with no persist layer — hands its tenant's
/// in-flight slot back: the next open is admitted, and the gate holds
/// nothing for the tenant between requests.
#[test]
fn every_session_exit_leaves_its_tenant_admissible() {
    let system = crate::ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .max_sessions(1)
        .session_ttl(Duration::from_millis(200))
        .build()
        .expect("valid configuration");
    let mut qos = QosConfig::new();
    qos.apply_quota_flag("t:inflight=1").expect("spec");
    let engine = PatternEngine::with_qos(
        system,
        EngineConfig {
            workers: 1,
            queue_depth: 8,
            cache_capacity: 0,
        },
        qos,
    )
    .expect("valid config");
    let run = |step: &str, request: PatternRequest| {
        engine
            .submit_as(Some("t"), request)
            .unwrap_or_else(|error| panic!("{step}: refused {error:?}"))
            .wait()
            .unwrap_or_else(|error| panic!("{step}: failed {error:?}"));
        assert_eq!(engine.core.gate.inflight("t"), 0, "{step}");
    };
    let open = |id: &str| {
        PatternRequest::SessionOpen(crate::SessionOpenParams {
            session: id.into(),
            seed: Some(1),
        })
    };
    run("open a", open("a"));
    let close = PatternRequest::SessionClose(crate::SessionCloseParams {
        session: "a".into(),
    });
    run("close a", close);
    run("open b after a closed", open("b"));
    thread::sleep(Duration::from_millis(400));
    run("open c after b expired", open("c"));
    run("open d, evicting c", open("d"));
    run("open e after c was evicted", open("e"));
    let sessions = engine.stats();
    assert_eq!(sessions.sessions_open, 1, "{sessions:?}");
    assert_eq!(sessions.sessions_evicted, 3, "b, c and d: {sessions:?}");
}

#[test]
fn qos_turn_budget_rejects_burst_turns() {
    let turn = || {
        PatternRequest::SessionTurn(crate::SessionTurnParams {
            session: "s".into(),
            utterance: "x".into(),
        })
    };
    let engine = qos_engine(
        Duration::ZERO,
        "t",
        cp_qos::TenantQuota {
            turns_per_sec: 0.001,
            turn_burst: 1.0,
            ..cp_qos::TenantQuota::default()
        },
    );
    engine
        .submit_as(Some("t"), turn())
        .expect("budget covers one turn")
        .wait()
        .expect("turn runs");
    match engine.submit_as(Some("t"), turn()) {
        Err(Error::Overloaded { retry_after_ms }) => {
            assert!(retry_after_ms > 0, "refill hint present");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Generate does not consume turn tokens.
    engine
        .submit_as(Some("t"), generate(9))
        .expect("non-turn work unaffected")
        .wait()
        .expect("completes");
}

#[test]
fn qos_default_tenant_rows_accumulate_without_config() {
    let engine = slow_engine(2, 8);
    engine.submit_blocking(generate(1)).wait().expect("runs");
    let stats = engine.stats();
    let (admitted, rejected, completed) = tenant_row(&stats, cp_qos::DEFAULT_TENANT);
    assert_eq!((admitted, rejected, completed), (1, 0, 1));
    assert!(
        stats.tenants.iter().all(|row| row.lane == "standard"),
        "generate rides the standard lane: {:?}",
        stats.tenants
    );
}

/// The seed the accounting script's service holds at its gate.
const HOLD: u64 = 99;

/// The accounting script's service: a `Generate` at seed [`HOLD`]
/// waits at a [`GatedService`] gate, one with zero rows fails, and
/// everything else succeeds at once.
struct ScriptService(GatedService);

impl PatternService for ScriptService {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        match &request {
            PatternRequest::Generate(p) if p.seed == HOLD => self.0.execute(request),
            PatternRequest::Generate(p) if p.rows == 0 => {
                Err(Error::invalid_request("no rows to generate"))
            }
            _ => Ok(PatternResponse {
                payload: ResponsePayload::Generate(Vec::new()),
                timing: Timing::direct(0),
            }),
        }
    }
}

#[test]
fn every_accounting_path_counts_once_and_returns_every_grant() {
    let mut qos = QosConfig::new();
    qos.apply_quota_flag("bob:tps=0.001,burst=1")
        .expect("one turn, then an empty budget");
    let open = Arc::new((Mutex::new(false), Condvar::new()));
    let engine = PatternEngine::with_qos(
        ScriptService(GatedService {
            open: Arc::clone(&open),
            started: (Mutex::new(0), Condvar::new()),
        }),
        EngineConfig {
            workers: 1,
            queue_depth: 1,
            cache_capacity: 8,
        },
        qos,
    )
    .expect("valid config");
    let rows = |engine: &PatternEngine<ScriptService>| -> Vec<(String, String, u64, u64, u64)> {
        engine
            .stats()
            .tenants
            .into_iter()
            .map(|r| (r.tenant, r.lane, r.admitted, r.rejected, r.completed))
            .collect()
    };
    let standard_queue_micros = |engine: &PatternEngine<ScriptService>| {
        let stats = engine.stats();
        let row = stats
            .tenants
            .iter()
            .find(|r| r.tenant == "alice" && r.lane == "standard");
        row.expect("alice has a standard row").queue_micros
    };
    let turn = || {
        PatternRequest::SessionTurn(crate::SessionTurnParams {
            session: "s".into(),
            utterance: "x".into(),
        })
    };
    let alice = Some("alice");

    // An executed session turn (interactive), then a quota refusal.
    engine
        .submit_as(Some("bob"), turn())
        .expect("admits")
        .wait()
        .expect("runs");
    assert!(matches!(
        engine.submit_as(Some("bob"), turn()),
        Err(Error::Overloaded { .. })
    ));
    // Executed leaders in the standard and batch lanes, a cache hit
    // of the first, and a request the service fails.
    engine
        .submit_as(alice, generate(1))
        .expect("admits")
        .wait()
        .expect("runs");
    let before = standard_queue_micros(&engine);
    let hit = engine
        .submit_as(alice, generate(1))
        .expect("admits")
        .wait()
        .expect("hits");
    assert!(hit.timing.cached);
    assert_eq!(
        standard_queue_micros(&engine),
        before,
        "a cache hit adds no queue time"
    );
    let evaluate = PatternRequest::Evaluate(crate::EvaluateParams {
        topologies: Vec::new(),
        frame_nm: 512,
        seed: 1,
    });
    engine
        .submit_as(alice, evaluate)
        .expect("admits")
        .wait()
        .expect("runs");
    let failing = PatternRequest::Generate(GenerateParams {
        rows: 0,
        ..match generate(2) {
            PatternRequest::Generate(p) => p,
            _ => unreachable!(),
        }
    });
    assert!(engine
        .submit_as(alice, failing)
        .expect("admits")
        .wait()
        .is_err());

    // A leader held running, a coalesced waiter on it, a session
    // open queued behind it, and a submit the full queue refuses.
    let leader = engine.submit_as(alice, generate(HOLD)).expect("admits");
    engine.core.service.0.await_started(1);
    let waiter = engine.submit_as(alice, generate(HOLD)).expect("coalesces");
    let late_open = PatternRequest::SessionOpen(crate::SessionOpenParams {
        session: "late".into(),
        seed: Some(1),
    });
    let queued = engine.submit_as(alice, late_open).expect("queues");
    assert!(matches!(
        engine.submit_as(alice, generate(3)),
        Err(Error::QueueFull { depth: 1 })
    ));

    let owned = |rows: &[(&str, &str, u64, u64, u64)]| -> Vec<(String, String, u64, u64, u64)> {
        rows.iter()
            .map(|&(t, l, a, r, c)| (t.to_owned(), l.to_owned(), a, r, c))
            .collect()
    };
    // Sorted by tenant, then by lane *name*: batch < interactive <
    // standard. A QueueFull was admitted and never completes; a
    // coalesced waiter is admitted, the leader alone completes.
    assert_eq!(
        rows(&engine),
        owned(&[
            ("alice", "batch", 1, 0, 1),
            ("alice", "interactive", 1, 0, 0),
            ("alice", "standard", 6, 0, 3),
            ("bob", "interactive", 1, 1, 1),
        ])
    );
    assert_eq!(
        engine.core.gate.inflight("alice"),
        2,
        "the held leader and the queued open"
    );
    assert_eq!(engine.core.gate.inflight("bob"), 0);

    // Drop with the open still queued: it is cancelled, then the
    // held leader is let finish for its subscribers.
    let core = Arc::clone(&engine.core);
    let opener = thread::spawn(move || {
        let cancelled = queued.wait();
        *open.0.lock().expect("gate lock") = true;
        open.1.notify_all();
        cancelled
    });
    drop(engine);
    assert!(matches!(
        opener.join().expect("opener finishes"),
        Err(Error::Cancelled)
    ));
    leader.wait().expect("the held leader completes");
    assert!(waiter.wait().expect("its waiter hears").timing.coalesced);
    for tenant in ["alice", "bob"] {
        assert_eq!(core.gate.inflight(tenant), 0, "{tenant} holds no grant");
    }
}
