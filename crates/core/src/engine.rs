//! The job-oriented execution engine.
//!
//! [`PatternEngine`] wraps any [`PatternService`] in a pool of worker
//! threads over one bounded queue (`backend.rs`) behind a shared
//! result broker (the cache + coalescer layer), turning the blocking
//! trait into a submission API:
//!
//! * [`PatternEngine::submit`] enqueues a request and returns a
//!   [`JobHandle`] immediately (or [`Error::QueueFull`] when the
//!   bounded queue is at capacity);
//! * [`JobHandle::wait`] blocks for the result, and
//!   [`JobHandle::on_done`] has it delivered to a callback instead;
//! * the engine itself implements [`PatternService`]: `execute` is
//!   submit-and-wait.
//!
//! Because every request carries its own RNG seed, requests submitted
//! together and run in parallel return byte-identical payloads to
//! serial execution — independent of worker count and interleaving.
//!
//! Deterministic requests (everything except `Chat { seed: None }`)
//! flow through the result broker: completed results replay from a
//! request-level LRU cache, and identical requests submitted while one
//! is still queued or executing **coalesce** — they attach as waiters
//! to the single in-flight execution and all receive the same payload,
//! counted in [`EngineStats::coalesced`] and flagged in
//! `Timing.coalesced`. `Chat` with `seed: null` bypasses both, same
//! as the long-standing cache-bypass rule. [`Timing`] distinguishes
//! queue wait from execution time for every job.
//!
//! A submitted job ends one of two ways: a worker runs it and the
//! result reaches every handle on it, or the engine is dropped while
//! it is still queued and every handle on it gets [`Error::Cancelled`].
//! Dropping a handle ends nothing. The full semantics are documented
//! in `docs/ENGINE.md`.

mod stats;
#[cfg(test)]
mod tests;

pub use stats::{ConnCounters, EngineStats};

use crate::backend::{Backend, TaskFn};
use crate::broker::{Admission, Dispatch, ExecTask, JobShared, ResultBroker};
use crate::{Error, PatternRequest, PatternResponse, PatternService, ResponsePayload, Timing};
use cp_qos::{QosConfig, QosGate};
use stats::AtomicStats;
use std::sync::Arc;
use std::time::Instant;

/// Scale knobs of a [`PatternEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads executing jobs (≥ 1), all draining one queue.
    /// With more than one, turns of one session submitted without
    /// waiting for each reply may execute out of submission order;
    /// `docs/SESSIONS.md`, "Turn order".
    pub workers: usize,
    /// Bound of the submission queue (≥ 1); [`PatternEngine::submit`]
    /// reports [`Error::QueueFull`] beyond it.
    pub queue_depth: usize,
    /// Entries in the request-level result cache (0 disables caching;
    /// coalescing of in-flight requests stays active either way).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            workers: thread_count(),
            queue_depth: 256,
            cache_capacity: 128,
        }
    }
}

fn thread_count() -> usize {
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

impl EngineConfig {
    /// Checks the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `workers` or `queue_depth` is
    /// zero.
    pub(crate) fn validate(&self) -> Result<(), Error> {
        if self.workers == 0 {
            return Err(Error::config("engine needs at least 1 worker (got 0)"));
        }
        if self.queue_depth == 0 {
            return Err(Error::config("queue_depth must be at least 1 (got 0)"));
        }
        Ok(())
    }
}
/// A submitted job: wait for it, or have its result delivered to a
/// callback.
///
/// Several handles may share one backend execution (request
/// coalescing); each handle still gets its own result delivery and
/// its own [`Timing`]. Dropping the handle does not cancel anything;
/// the shared execution still runs (and a cacheable result still lands
/// in the cache).
#[must_use = "a JobHandle should be waited on or given an on_done callback"]
pub struct JobHandle {
    shared: Arc<JobShared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").finish_non_exhaustive()
    }
}

impl JobHandle {
    fn done(result: Result<PatternResponse, Error>) -> JobHandle {
        JobHandle {
            shared: JobShared::finished(result),
        }
    }

    /// Blocks until the job finishes and returns its result.
    ///
    /// # Errors
    ///
    /// Returns whatever the underlying service reported (including
    /// [`Error::Internal`] when the service panicked), or
    /// [`Error::Cancelled`] when the engine was dropped with the job
    /// still queued. [`Error::QueueFull`] never reaches a handle: an
    /// accepted submission always resolves to a result — waiters can
    /// only coalesce onto executions whose dispatch already succeeded.
    pub fn wait(self) -> Result<PatternResponse, Error> {
        self.shared.wait()
    }

    /// Delivers the result to `on_done` instead of to a waiting
    /// thread. The callback runs exactly once, with what
    /// [`JobHandle::wait`] would have returned, on the thread that
    /// finishes the job: an engine worker — or, for a handle that is
    /// already finished (a cache hit, `Stats`, a job that completed in
    /// the meantime), the calling thread, before this returns. A job
    /// still queued when the engine is dropped reports
    /// [`Error::Cancelled`] from the dropping thread, before the drop
    /// waits for the jobs still running. No engine lock is held around
    /// the call, so the callback may submit to the same engine; on a
    /// worker it delays that worker's next job, so it must not block.
    pub fn on_done(self, on_done: impl FnOnce(Result<PatternResponse, Error>) + Send + 'static) {
        self.shared.on_done(Box::new(on_done));
    }
}

/// Service + broker + stats + QoS gate: everything the backend's task
/// closure needs.
struct EngineCore<S> {
    service: S,
    broker: Arc<ResultBroker>,
    stats: Arc<AtomicStats>,
    /// Per-tenant admission control and the accounting behind
    /// [`EngineStats::tenants`]; a slot admitted in `submit_inner` is
    /// returned once the task leaves the system: here when it ran, by
    /// the engine's `Drop` when it was still queued then.
    gate: Arc<QosGate>,
}

impl<S: PatternService> EngineCore<S> {
    /// Executes one task the backend scheduled and fans the result out
    /// to its subscribers (the leader plus any coalesced waiters): QoS
    /// completion, broker completion (which caches a payload),
    /// per-subscriber timing and stats.
    fn run_task(&self, task: &Arc<ExecTask>) {
        let request = task.claim();
        let started = Instant::now();
        // A panicking service must not poison the broker: without the
        // catch, `complete` would never run, the key would stay
        // registered, and every future identical submission would
        // coalesce onto the dead task and hang. Convert the panic into
        // an error result instead (and keep the worker thread alive).
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.service.execute(request)
        }))
        .unwrap_or_else(|panic| Err(Error::internal(panic_message(panic.as_ref()))));
        // Every subscriber's total ends here: the cache copy, the gate
        // and the broker below are bookkeeping, not anyone's queue
        // wait.
        let finished = Instant::now();
        // The cache copy is deep-cloned here, outside the broker lock;
        // `complete` only moves the Arc under it.
        let cache_copy = match (&result, task.is_keyed()) {
            (Ok(response), true) => Some(Arc::new(response.payload.clone())),
            _ => None,
        };
        // The in-flight slot goes back, with the leader's completion and
        // queue wait, before any subscriber hears — a client that
        // retries on its reply finds the slot free.
        self.gate.complete(
            task.tenant(),
            task.lane(),
            micros_between(task.submitted_at(), started),
        );
        let subscribers = self.broker.complete(task, cache_copy);
        for (job, coalesced) in subscribers {
            let shared = match &result {
                Ok(response) => {
                    // Each handle's timing runs from its own
                    // submission to the execution's end, so a waiter
                    // that attached mid-execution reports zero queue
                    // wait and only the slice of the shared execution
                    // it actually overlapped with (one that attached
                    // after the end reports 0 µs). The execution's time
                    // is the one its reply carries, not timed again.
                    let total = micros_between(job.submitted_at, finished);
                    let exec_share = response.timing.micros.min(total);
                    let queue_micros = total - exec_share;
                    let admit_micros = micros_between(job.submitted_at, job.admitted_at);
                    let timing = Timing {
                        coalesced,
                        ..Timing::queued(queue_micros, exec_share)
                    };
                    let timing = timing.staged(admit_micros, &response.timing.stages);
                    Ok(PatternResponse {
                        payload: response.payload.clone(),
                        timing,
                    })
                }
                Err(error) => Err(error.clone()),
            };
            let ok = shared.is_ok();
            job.finish(shared, || {
                self.stats.add(if ok {
                    &self.stats.completed
                } else {
                    &self.stats.failed
                });
            });
        }
    }
}

fn elapsed_micros(since: Instant) -> u64 {
    micros_between(since, Instant::now())
}

fn micros_between(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

/// Best-effort rendering of a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        format!("service panicked: {message}")
    } else if let Some(message) = panic.downcast_ref::<String>() {
        format!("service panicked: {message}")
    } else {
        String::from("service panicked")
    }
}

/// A parallel, caching, coalescing executor over any
/// [`PatternService`].
///
/// See the [module docs](self) for the full story and `docs/ENGINE.md`
/// for the scheduler. The engine is `Sync`: submit from as many
/// threads as you like. Dropping it stops the workers after their
/// current job and cancels everything still queued.
pub struct PatternEngine<S: PatternService + Send + Sync + 'static> {
    core: Arc<EngineCore<S>>,
    backend: Backend,
    config: EngineConfig,
    /// Transport-connection telemetry, updated by whatever server
    /// fronts this engine and reported through [`PatternEngine::stats`].
    conn: Arc<ConnCounters>,
}

impl<S: PatternService + Send + Sync + 'static> std::fmt::Debug for PatternEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternEngine")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl<S: PatternService + Send + Sync + 'static> PatternEngine<S> {
    /// Wraps `service` with the default [`EngineConfig`].
    #[must_use]
    pub fn new(service: S) -> PatternEngine<S> {
        PatternEngine::with_config(service, EngineConfig::default())
            .expect("default config is valid")
    }

    /// Wraps `service` with an explicit configuration and no QoS
    /// limits (an unlimited default quota).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration is invalid.
    pub fn with_config(service: S, config: EngineConfig) -> Result<PatternEngine<S>, Error> {
        PatternEngine::with_qos(service, config, QosConfig::default())
    }

    /// Wraps `service` with an explicit configuration **and** a
    /// multi-tenant QoS policy: per-tenant admission quotas
    /// ([`QosConfig::default_quota`] / overrides).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when the configuration is invalid.
    pub fn with_qos(
        service: S,
        config: EngineConfig,
        qos: QosConfig,
    ) -> Result<PatternEngine<S>, Error> {
        config.validate()?;
        let core = Arc::new(EngineCore {
            service,
            broker: Arc::new(ResultBroker::new(config.cache_capacity)),
            stats: Arc::new(AtomicStats::default()),
            gate: Arc::new(QosGate::new(qos)),
        });
        let run: TaskFn = {
            let core = Arc::clone(&core);
            Arc::new(move |task| core.run_task(task))
        };
        let backend = Backend::new(&config, run);
        Ok(PatternEngine {
            core,
            backend,
            config,
            conn: Arc::new(ConnCounters::default()),
        })
    }

    /// A snapshot of the activity counters, including the live depth
    /// of the queue and the wrapped service's session gauges.
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        let mut stats = self.core.stats.snapshot(
            vec![self.backend.queue_depth()],
            self.core.service.session_stats(),
            self.core.gate.stats(),
        );
        self.conn.fill(&mut stats);
        stats
    }

    /// The engine's transport-connection counters. A server fronting
    /// this engine clones the `Arc` and records connects/disconnects;
    /// the numbers surface in [`PatternEngine::stats`] (and therefore
    /// in `Stats` over the wire).
    #[must_use]
    pub fn conn_counters(&self) -> Arc<ConnCounters> {
        Arc::clone(&self.conn)
    }

    /// Submits a request without blocking.
    ///
    /// Cache hits complete immediately (the returned handle is already
    /// finished), identical in-flight requests coalesce onto
    /// the existing execution, and anything else is dispatched to the
    /// backend.
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] when the bounded queue is at
    /// capacity (the request is not enqueued; retry or use
    /// [`PatternEngine::submit_blocking`]) and [`Error::Overloaded`]
    /// when the default tenant's QoS quota refuses the admission.
    pub fn submit(&self, request: PatternRequest) -> Result<JobHandle, Error> {
        self.submit_as(None, request)
    }

    /// [`PatternEngine::submit`] on behalf of a tenant (`None` = the
    /// QoS default tenant): the tenant's quota gates admission, its
    /// lane/tenant identity drives weighted-fair dequeue, and the
    /// request lands in that tenant's [`EngineStats::tenants`] rows.
    ///
    /// # Errors
    ///
    /// [`Error::Overloaded`] (with a retry-after hint) when the
    /// tenant's quota refuses the request; [`Error::QueueFull`] when
    /// the bounded queue is at capacity.
    pub fn submit_as(
        &self,
        tenant: Option<&str>,
        request: PatternRequest,
    ) -> Result<JobHandle, Error> {
        self.submit_inner(tenant.unwrap_or(cp_qos::DEFAULT_TENANT), request, false)
    }

    /// Submits a request, blocking until queue space is available
    /// (the back-pressure path batch drivers want). A QoS quota
    /// rejection does not block — it surfaces as an already-failed
    /// handle carrying [`Error::Overloaded`].
    pub fn submit_blocking(&self, request: PatternRequest) -> JobHandle {
        self.submit_blocking_as(None, request)
    }

    /// [`PatternEngine::submit_blocking`] on behalf of a tenant
    /// (`None` = the QoS default tenant).
    pub fn submit_blocking_as(&self, tenant: Option<&str>, request: PatternRequest) -> JobHandle {
        self.submit_inner(tenant.unwrap_or(cp_qos::DEFAULT_TENANT), request, true)
            .unwrap_or_else(|error| JobHandle::done(Err(error)))
    }

    fn submit_inner(
        &self,
        tenant: &str,
        request: PatternRequest,
        block: bool,
    ) -> Result<JobHandle, Error> {
        let submitted_at = Instant::now();
        // Stats is answered inline from the live counters — it never
        // queues behind real work (a stats poll during a drain must
        // not wait for a diffusion job) and is exempt from the
        // counters themselves, so polling does not perturb what it
        // measures.
        if matches!(request, PatternRequest::Stats) {
            let started = Instant::now();
            let snapshot = self.stats();
            return Ok(JobHandle::done(Ok(PatternResponse {
                payload: ResponsePayload::Stats(snapshot),
                timing: Timing::direct(elapsed_micros(started)),
            })));
        }
        let stats = &self.core.stats;
        // QoS admission happens before the broker sees the request: a
        // tenant over quota is refused with a typed retry-after hint
        // and costs the system nothing. The gate counts the admission
        // or refusal as it decides. On success the in-flight slot is
        // held until the task leaves the system — returned below for
        // cache hits, coalesced waiters and dispatch rejections, by
        // `run_task` for executed tasks, and by `Drop` for drained
        // ones.
        let class = request.admit_class();
        if let Err(rejection) = self.core.gate.try_admit(tenant, class) {
            return Err(Error::overloaded(rejection.retry_after_ms));
        }
        let work = self.core.broker.work(request);
        // Non-blocking submits dispatch *inside* admission: a try-push
        // into a bounded queue never blocks and never re-enters the
        // broker, and doing it there means a QueueFull rejection can
        // never strand a coalesced waiter — nobody can attach to a task
        // whose dispatch has not succeeded. Blocking dispatch must stay
        // outside the broker lock (waiting for queue space while
        // holding it would deadlock against worker completions), and
        // it waits for room, so it cannot fail.
        let try_dispatch = |task| self.backend.try_dispatch(task);
        let in_admission: Option<Dispatch<'_>> = if block { None } else { Some(&try_dispatch) };
        match self
            .core
            .broker
            .admit(work, tenant, class.lane, submitted_at, in_admission)
        {
            Admission::CacheHit(payload) => {
                stats.add(&stats.submitted);
                stats.add(&stats.cache_hits);
                stats.add(&stats.completed);
                // The request never reaches the executor: the slot
                // frees immediately and the hit counts as a completed
                // request with zero queue wait.
                self.core.gate.complete(tenant, class.lane, 0);
                Ok(JobHandle::done(Ok(PatternResponse {
                    // Deep clone outside the broker lock.
                    payload: ResponsePayload::clone(&payload),
                    timing: Timing::cache_hit(elapsed_micros(submitted_at)),
                })))
            }
            Admission::Coalesced(job) => {
                stats.add(&stats.submitted);
                stats.add(&stats.coalesced);
                // The leader's slot covers the execution; a waiter
                // holds nothing while it waits.
                self.core.gate.release(tenant);
                Ok(JobHandle { shared: job })
            }
            Admission::Rejected(error) => {
                self.core.gate.release(tenant);
                Err(error)
            }
            Admission::Lead { task, job } => {
                if block {
                    self.backend.dispatch(Arc::clone(&task));
                }
                stats.add(&stats.submitted);
                if task.is_keyed() {
                    stats.add(&stats.cache_misses);
                }
                Ok(JobHandle { shared: job })
            }
        }
    }
}

impl<S: PatternService + Send + Sync + 'static> Drop for PatternEngine<S> {
    fn drop(&mut self) {
        // Anything still queued will never run: fail its subscribers
        // and return the in-flight slot its leader holds — before waiting
        // for the jobs still running, so no queued job's fate hangs on
        // how long those take.
        for task in self.backend.stop() {
            self.core.gate.release(task.tenant());
            for (job, _) in self.core.broker.reject(&task) {
                job.finish(Err(Error::Cancelled), || {
                    self.core.stats.add(&self.core.stats.cancelled);
                });
            }
        }
        self.backend.join();
    }
}

/// The engine is itself a service: `execute` is submit-and-wait.
impl<S: PatternService + Send + Sync + 'static> PatternService for PatternEngine<S> {
    fn execute(&self, request: PatternRequest) -> Result<PatternResponse, Error> {
        self.submit_blocking(request).wait()
    }

    fn session_stats(&self) -> crate::session::SessionStats {
        self.core.service.session_stats()
    }
}
