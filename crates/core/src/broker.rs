//! The result broker: one map from request key to the key's execution
//! or its cached result, in front of the execution backend.
//!
//! The broker sits between [`PatternEngine`](crate::PatternEngine)
//! submission and the [`Backend`](crate::backend::Backend) that
//! actually runs jobs. Every keyed request (anything except
//! `Chat { seed: None }`, the session requests and `Stats`, see
//! [`is_keyed`](crate::routing::is_keyed)) is admitted through
//! [`ResultBroker::admit`], which looks its key up once and resolves it
//! one of three ways:
//!
//! 1. **Cache hit** — a completed identical request left its payload in
//!    the key's entry; the submitter gets it immediately.
//! 2. **Coalesced** — an identical request is already queued or
//!    executing; the submitter attaches to that [`ExecTask`] as a
//!    waiter and will receive a clone of the same payload when the one
//!    shared execution finishes.
//! 3. **Lead** — the key has no entry; a fresh [`ExecTask`] is
//!    dispatched to a backend and becomes the key's running entry.
//!
//! A task ends one of two ways: a worker runs it and fans the result
//! out to every subscriber ([`ResultBroker::complete`]), or the engine
//! is dropped with it still queued and every subscriber hears
//! [`Error::Cancelled`] ([`ResultBroker::reject`]).
//!
//! A key's entry is running or cached, never both, and completion
//! turns the one into the other in place under the lock, so a
//! concurrent identical submit either coalesces onto the live task or
//! hits the cache — it can never find neither and re-execute. Cached
//! entries are evicted least recently used first, by the order of an
//! ordered map of their last uses; capacity 0 caches nothing, and
//! coalescing still runs.
//!
//! A key is hashed once a submit, before that lock ([`Key`]); under
//! it, the map compares hashes, and the requests where two match.

use crate::cache::{Key, KeyMap};
use crate::{Error, PatternRequest, PatternResponse, ResponsePayload};
use cp_qos::Lane;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What [`JobHandle::on_done`](crate::JobHandle::on_done) registers.
pub(crate) type DoneFn = Box<dyn FnOnce(Result<PatternResponse, Error>) + Send>;

/// Lifecycle of one submitter's view of a job.
pub(crate) enum JobState {
    /// The result has not been delivered to this handle yet. `Some`
    /// once the handle was consumed by `on_done`: the result then goes
    /// to the callback instead of being parked for `wait`.
    Pending(Option<DoneFn>),
    /// Finished; `wait` returns immediately. `Some` until `wait` takes
    /// it. Boxed: a response dwarfs the `Pending` variant every live
    /// handle carries.
    Done(Option<Box<Result<PatternResponse, Error>>>),
}

/// The state one [`JobHandle`](crate::JobHandle) observes. Each
/// submitter gets its own `JobShared`, even when several of them share
/// one execution, so each gets its own delivery and its own timing.
pub(crate) struct JobShared {
    state: Mutex<JobState>,
    done: Condvar,
    /// When this submitter handed the request in (per-handle, so a
    /// coalesced waiter's queue time starts at its own submission).
    pub(crate) submitted_at: Instant,
    /// When its admission ended: the gate, the key and the broker's
    /// look-up lie between the two.
    pub(crate) admitted_at: Instant,
}

impl JobShared {
    /// A job still waiting for its result, submitted at `submitted_at`
    /// and admitted now.
    pub(crate) fn pending(submitted_at: Instant) -> Arc<JobShared> {
        Arc::new(JobShared {
            state: Mutex::new(JobState::Pending(None)),
            done: Condvar::new(),
            submitted_at,
            admitted_at: Instant::now(),
        })
    }

    /// A job born finished (cache hits, `Stats`).
    pub(crate) fn finished(result: Result<PatternResponse, Error>) -> Arc<JobShared> {
        let now = Instant::now();
        Arc::new(JobShared {
            state: Mutex::new(JobState::Done(Some(Box::new(result)))),
            done: Condvar::new(),
            submitted_at: now,
            admitted_at: now,
        })
    }

    /// Publishes `result`. Every pending job is finished exactly once,
    /// by the fan-out of its execution or by the engine's drop.
    /// `counted` runs under the job lock *before* any waiter can
    /// observe the result — this is what keeps stats counters
    /// consistent with what `wait` returned. A registered `on_done`
    /// callback takes the result instead, on this thread, after the
    /// job lock is released.
    pub(crate) fn finish(&self, result: Result<PatternResponse, Error>, counted: impl FnOnce()) {
        let mut state = self.state.lock().expect("job lock");
        let JobState::Pending(on_done) = &mut *state else {
            unreachable!("a job is finished once");
        };
        let on_done = on_done.take();
        counted();
        match on_done {
            Some(on_done) => {
                *state = JobState::Done(None);
                drop(state);
                on_done(result);
            }
            None => {
                *state = JobState::Done(Some(Box::new(result)));
                self.done.notify_all();
            }
        }
    }

    /// Hands the result to `on_done` exactly once: right here when the
    /// job already finished, otherwise from whichever thread finishes
    /// it — in both cases outside the job lock.
    pub(crate) fn on_done(&self, on_done: DoneFn) {
        let mut state = self.state.lock().expect("job lock");
        match &mut *state {
            JobState::Pending(slot) => *slot = Some(on_done),
            JobState::Done(result) => {
                let result = result
                    .take()
                    .expect("on_done consumes the handle, so the result is untaken");
                drop(state);
                on_done(*result);
            }
        }
    }

    /// Blocks until finished and takes the result.
    pub(crate) fn wait(&self) -> Result<PatternResponse, Error> {
        let mut state = self.state.lock().expect("job lock");
        loop {
            if let JobState::Done(result) = &mut *state {
                return *result
                    .take()
                    .expect("wait consumes the handle, so the result is untaken");
            }
            state = self.done.wait(state).expect("job lock");
        }
    }
}

/// One subscriber of a task: the handle to notify, plus whether it
/// coalesced onto an execution another submitter started (`true`) or
/// is the leader that triggered it (`false`).
type Subscriber = (Arc<JobShared>, bool);

/// What [`ResultBroker::admit`] dispatches a fresh task with.
pub(crate) type Dispatch<'a> = &'a dyn Fn(Arc<ExecTask>) -> Result<(), Error>;

struct TaskState {
    /// An unkeyed task's request, taken by the worker that runs it (a
    /// keyed task's is its key's).
    request: Option<PatternRequest>,
    subscribers: Vec<Subscriber>,
}

/// One shared execution: a request, the tenant and lane it was
/// admitted under, and every submitter waiting on the result. This
/// is the unit the [`Backend`](crate::backend::Backend) queues and
/// runs.
pub(crate) struct ExecTask {
    /// Shared with the broker's entry for it: one allocation of the
    /// request.
    key: Option<Key>,
    tenant: String,
    /// The leading request's lane: where the task queues, and where
    /// its completion is counted.
    lane: Lane,
    /// When the leader was submitted: its queue wait is the tenant's.
    submitted_at: Instant,
    state: Mutex<TaskState>,
}

impl std::fmt::Debug for ExecTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock().expect("task lock");
        f.debug_struct("ExecTask")
            .field("key", &self.key)
            .field("subscribers", &state.subscribers.len())
            .finish()
    }
}

impl ExecTask {
    fn new(work: Work, tenant: &str, lane: Lane, leader: Arc<JobShared>) -> Arc<ExecTask> {
        let (key, request) = match work {
            Work::Keyed(key) => (Some(key), None),
            Work::Private(request) => (None, Some(request)),
        };
        Arc::new(ExecTask {
            key,
            tenant: tenant.to_owned(),
            lane,
            submitted_at: leader.submitted_at,
            state: Mutex::new(TaskState {
                request,
                subscribers: vec![(leader, false)],
            }),
        })
    }

    /// The tenant whose submission leads this execution (QoS
    /// accounting and fair queuing).
    pub(crate) fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The lane the leading request was admitted under.
    pub(crate) fn lane(&self) -> Lane {
        self.lane
    }

    /// When the leading request was submitted.
    pub(crate) fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    /// The request to execute: a copy of a keyed task's, whose key
    /// the broker's entry shares, or an unkeyed task's own. A task
    /// leaves the queue once, so it is claimed once.
    pub(crate) fn claim(&self) -> PatternRequest {
        match &self.key {
            Some(key) => PatternRequest::clone(key.request()),
            None => self
                .state
                .lock()
                .expect("task lock")
                .request
                .take()
                .expect("a task is claimed once"),
        }
    }

    /// Adds a coalesced waiter. Caller must hold the broker lock (this
    /// is what makes attach-vs-complete race-free).
    fn attach(&self, job: Arc<JobShared>) {
        self.state
            .lock()
            .expect("task lock")
            .subscribers
            .push((job, true));
    }

    /// Drains everyone subscribed.
    fn take_subscribers(&self) -> Vec<Subscriber> {
        std::mem::take(&mut self.state.lock().expect("task lock").subscribers)
    }

    /// Whether this task is registered with the broker (cacheable and
    /// coalescable) or a private unkeyed execution.
    pub(crate) fn is_keyed(&self) -> bool {
        self.key.is_some()
    }
}

/// What a submission asks the broker for: a keyed request, cached and
/// coalesced under its key, or an unkeyed one, executed privately.
pub(crate) enum Work {
    /// A keyed request ([`is_keyed`](crate::routing::is_keyed)).
    Keyed(Key),
    /// Any other request.
    Private(PatternRequest),
}

/// How [`ResultBroker::admit`] resolved a submission. The broker
/// creates the [`JobShared`] itself so the cache-hit fast path
/// allocates nothing.
pub(crate) enum Admission {
    /// A completed identical request left this payload in the cache
    /// (behind an `Arc`; the caller deep-clones outside the lock).
    CacheHit(Arc<ResponsePayload>),
    /// Attached as a waiter to this already-in-flight task.
    Coalesced(Arc<JobShared>),
    /// A fresh task: already dispatched when the caller passed a
    /// dispatcher, for the caller to dispatch otherwise.
    Lead {
        /// The new execution.
        task: Arc<ExecTask>,
        /// The leader's handle state.
        job: Arc<JobShared>,
    },
    /// The dispatcher refused the task (`QueueFull`). Nothing was
    /// registered and — because the broker lock was held across the
    /// dispatch attempt — no waiter can have attached, so only the
    /// submitter sees this error.
    Rejected(Error),
}

/// A key's one state: its execution is queued or running, or its
/// payload is cached. A key is never both.
enum Entry {
    /// Identical submits attach to this execution.
    Running(Arc<ExecTask>),
    /// A completed payload (behind `Arc`, so a hit or an insert is a
    /// pointer clone under the lock; the deep clone happens at the call
    /// sites, outside it), last used at `tick`.
    Cached {
        payload: Arc<ResponsePayload>,
        tick: u64,
    },
}

struct BrokerState {
    /// Request key → its execution or its cached payload.
    entries: KeyMap<Entry>,
    /// The cached keys by last use, least recent first: the eviction
    /// order.
    recency: BTreeMap<u64, Key>,
    /// The last use handed out.
    tick: u64,
}

/// The shared result layer: cache + coalescer under one lock.
pub(crate) struct ResultBroker {
    state: Mutex<BrokerState>,
    /// Cached entries at most; 0 caches nothing.
    capacity: usize,
    /// Hashes every key, outside the lock; keyed per process.
    hasher: RandomState,
}

impl ResultBroker {
    pub(crate) fn new(cache_capacity: usize) -> ResultBroker {
        ResultBroker {
            state: Mutex::new(BrokerState {
                entries: KeyMap::default(),
                recency: BTreeMap::new(),
                tick: 0,
            }),
            capacity: cache_capacity,
            hasher: RandomState::new(),
        }
    }

    /// What `request` asks for: a keyed request is hashed here, once,
    /// so [`admit`](Self::admit) hashes nothing under the lock.
    pub(crate) fn work(&self, request: PatternRequest) -> Work {
        if crate::routing::is_keyed(&request) {
            Work::Keyed(Key::new(&self.hasher, request))
        } else {
            Work::Private(request)
        }
    }

    /// Resolves one submission. Unkeyed requests ([`Work::Private`])
    /// always lead a private task — they bypass the cache *and* the
    /// coalescer.
    ///
    /// When `dispatch` is `Some`, it is invoked for a fresh lead task
    /// *inside the admission critical section*, keyed or not; on
    /// failure nothing is registered, so no concurrent identical
    /// submit can ever coalesce onto an undispatched task (the
    /// [`Admission::Rejected`] outcome affects only this submitter).
    /// Callers must only pass dispatchers that cannot block and cannot
    /// re-enter the broker (a bounded-queue try-push qualifies; running
    /// the task there would not — it would deadlock in
    /// [`ResultBroker::complete`]). `submitted_at` is when the submitter
    /// handed the request in.
    pub(crate) fn admit(
        &self,
        work: Work,
        tenant: &str,
        lane: Lane,
        submitted_at: Instant,
        dispatch: Option<Dispatch<'_>>,
    ) -> Admission {
        let lead = |work| {
            let job = JobShared::pending(submitted_at);
            let task = ExecTask::new(work, tenant, lane, Arc::clone(&job));
            match dispatch.map_or(Ok(()), |dispatch| dispatch(Arc::clone(&task))) {
                Ok(()) => Admission::Lead { task, job },
                Err(error) => Admission::Rejected(error),
            }
        };
        let key = match work {
            Work::Keyed(key) => key,
            // Nothing coalesces onto a private task: no lock to take.
            private @ Work::Private(_) => return lead(private),
        };
        let mut state = self.state.lock().expect("broker lock");
        let state = &mut *state;
        match state.entries.get_mut(&key) {
            Some(Entry::Cached { payload, tick }) => {
                let cached = state
                    .recency
                    .remove(&*tick)
                    .expect("a cached key has a use");
                state.tick += 1;
                *tick = state.tick;
                state.recency.insert(*tick, cached);
                return Admission::CacheHit(Arc::clone(payload));
            }
            Some(Entry::Running(task)) => {
                let job = JobShared::pending(submitted_at);
                task.attach(Arc::clone(&job));
                return Admission::Coalesced(job);
            }
            None => {}
        }
        let admission = lead(Work::Keyed(key.clone()));
        if let Admission::Lead { task, .. } = &admission {
            // Safe even though a worker may already be running the
            // task: completion also needs the broker lock, so the
            // entry is there before `complete` can look.
            state.entries.insert(key, Entry::Running(Arc::clone(task)));
        }
        admission
    }

    /// Completes an executed task and returns every subscriber to
    /// notify. A successful payload turns the key's running entry into
    /// a cached one, evicting the least recently used cached key when
    /// the cache is full; an error, or a cache of capacity 0, removes
    /// the entry. A concurrent identical submit sees the task or the
    /// payload, never neither.
    pub(crate) fn complete(
        &self,
        task: &Arc<ExecTask>,
        ok_payload: Option<Arc<ResponsePayload>>,
    ) -> Vec<Subscriber> {
        let mut state = self.state.lock().expect("broker lock");
        let state = &mut *state;
        if let Some(key) = &task.key {
            let running = match ok_payload.filter(|_| self.capacity > 0) {
                Some(payload) => {
                    if state.recency.len() == self.capacity {
                        let (_, oldest) = state.recency.pop_first().expect("a full cache");
                        state.entries.remove(&oldest);
                    }
                    state.tick += 1;
                    state.recency.insert(state.tick, key.clone());
                    let cached = Entry::Cached {
                        payload,
                        tick: state.tick,
                    };
                    state
                        .entries
                        .get_mut(key)
                        .map(|entry| std::mem::replace(entry, cached))
                }
                None => state.entries.remove(key),
            };
            debug_assert!(
                matches!(running, Some(Entry::Running(current)) if Arc::ptr_eq(&current, task))
            );
        }
        task.take_subscribers()
    }

    /// Retires a task that will never run (still queued when the
    /// engine is dropped): removes its entry and returns everyone
    /// attached, for the caller to fail.
    pub(crate) fn reject(&self, task: &Arc<ExecTask>) -> Vec<Subscriber> {
        self.complete(task, None)
    }

    /// Number of keys with a live execution.
    #[cfg(test)]
    pub(crate) fn inflight_len(&self) -> usize {
        let state = self.state.lock().expect("broker lock");
        state
            .entries
            .values()
            .filter(|entry| matches!(entry, Entry::Running(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenerateParams;
    use cp_dataset::Style;

    /// Tenant and lane for admissions whose QoS fields are
    /// irrelevant to the property under test.
    const T: &str = "test-tenant";
    const L: Lane = Lane::Standard;

    fn request(seed: u64) -> PatternRequest {
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 4,
            cols: 4,
            count: 1,
            seed,
        })
    }

    /// Submits `request(seed)`, keyed as the engine keys it.
    fn admit(broker: &ResultBroker, seed: u64) -> Admission {
        broker.admit(broker.work(request(seed)), T, L, Instant::now(), None)
    }

    /// Submits `request(seed)` under a key whose hash is `hash`.
    fn admit_hashed(broker: &ResultBroker, hash: u64, seed: u64) -> Admission {
        let key = Key::with_hash(hash, request(seed));
        broker.admit(Work::Keyed(key), T, L, Instant::now(), None)
    }

    fn payload() -> ResponsePayload {
        ResponsePayload::Generate(Vec::new())
    }

    #[test]
    fn identical_submissions_coalesce_onto_one_task() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, .. } = admit(&broker, 1) else {
            panic!("first submission leads");
        };
        let Admission::Coalesced(waiter) = admit(&broker, 1) else {
            panic!("second identical submission coalesces");
        };
        // Completion delivers to both, caches the payload, clears the key.
        let subscribers = broker.complete(&task, Some(Arc::new(payload())));
        assert_eq!(subscribers.len(), 2);
        assert!(!subscribers[0].1, "leader is not coalesced");
        assert!(subscribers[1].1, "waiter is coalesced");
        assert!(Arc::ptr_eq(&subscribers[1].0, &waiter));
        assert_eq!(broker.inflight_len(), 0);
        assert!(matches!(admit(&broker, 1), Admission::CacheHit(_)));
    }

    #[test]
    fn unkeyed_requests_never_share_a_task() {
        let broker = ResultBroker::new(8);
        let private = || Work::Private(request(1));
        let first = broker.admit(private(), T, L, Instant::now(), None);
        let second = broker.admit(private(), T, L, Instant::now(), None);
        assert!(matches!(first, Admission::Lead { .. }));
        assert!(matches!(second, Admission::Lead { .. }));
        assert_eq!(broker.inflight_len(), 0, "unkeyed tasks are unregistered");
    }

    #[test]
    fn a_refused_dispatch_registers_nothing() {
        let broker = ResultBroker::new(8);
        let full: Dispatch<'_> = &|_| Err(Error::QueueFull { depth: 1 });
        for work in [broker.work(request(1)), Work::Private(request(1))] {
            assert!(matches!(
                broker.admit(work, T, L, Instant::now(), Some(full)),
                Admission::Rejected(Error::QueueFull { depth: 1 })
            ));
        }
        assert_eq!(broker.inflight_len(), 0);
        // Nothing to coalesce onto: the next identical submit leads.
        assert!(matches!(admit(&broker, 1), Admission::Lead { .. }));
    }

    #[test]
    fn texts_that_share_a_hash_neither_coalesce_nor_hit() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, .. } = admit_hashed(&broker, 7, 1) else {
            panic!("first submission leads");
        };
        let Admission::Lead { task: other, .. } = admit_hashed(&broker, 7, 2) else {
            panic!("another request under the same hash coalesced");
        };
        assert_eq!(broker.inflight_len(), 2);
        assert_eq!(broker.complete(&task, Some(Arc::new(payload()))).len(), 1);
        assert!(matches!(
            admit_hashed(&broker, 7, 2),
            Admission::Coalesced(_)
        ));
        assert_eq!(broker.complete(&other, None).len(), 2);
        // Seed 1 is cached, seed 2 failed: only seed 1 hits.
        assert!(matches!(
            admit_hashed(&broker, 7, 2),
            Admission::Lead { .. }
        ));
        assert!(matches!(
            admit_hashed(&broker, 7, 1),
            Admission::CacheHit(_)
        ));
    }

    #[test]
    fn reject_returns_every_attached_subscriber() {
        let broker = ResultBroker::new(8);
        let Admission::Lead { task, .. } = admit(&broker, 1) else {
            panic!("leads");
        };
        let _ = admit(&broker, 1);
        let subscribers = broker.reject(&task);
        assert_eq!(subscribers.len(), 2);
        assert_eq!(broker.inflight_len(), 0);
    }

    /// Leads `request(seed)` and completes it with a payload.
    fn cached(broker: &ResultBroker, seed: u64) {
        let Admission::Lead { task, .. } = admit(broker, seed) else {
            panic!("seed {seed} leads");
        };
        broker.complete(&task, Some(Arc::new(payload())));
    }

    /// The number of keys in the broker's one map.
    fn entries(broker: &ResultBroker) -> usize {
        broker.state.lock().expect("broker lock").entries.len()
    }

    #[test]
    fn evicts_least_recently_used() {
        let broker = ResultBroker::new(2);
        cached(&broker, 1);
        cached(&broker, 2);
        // A hit refreshes "a": "b" is now the least recently used.
        assert!(matches!(admit(&broker, 1), Admission::CacheHit(_)));
        cached(&broker, 3);
        assert_eq!(entries(&broker), 2);
        assert!(
            matches!(admit(&broker, 2), Admission::Lead { .. }),
            "the least recently used key was evicted"
        );
        assert!(matches!(admit(&broker, 1), Admission::CacheHit(_)));
        assert!(matches!(admit(&broker, 3), Admission::CacheHit(_)));
    }

    #[test]
    fn zero_capacity_caches_nothing_and_still_coalesces() {
        let broker = ResultBroker::new(0);
        let Admission::Lead { task, .. } = admit(&broker, 1) else {
            panic!("leads");
        };
        assert!(matches!(admit(&broker, 1), Admission::Coalesced(_)));
        assert_eq!(broker.complete(&task, Some(Arc::new(payload()))).len(), 2);
        assert_eq!(entries(&broker), 0);
        assert!(matches!(admit(&broker, 1), Admission::Lead { .. }));
    }

    #[test]
    fn single_entry_cache_churns_correctly() {
        let broker = ResultBroker::new(1);
        for i in 0..100 {
            cached(&broker, i);
            assert_eq!(entries(&broker), 1);
            assert!(matches!(admit(&broker, i), Admission::CacheHit(_)));
            if i > 0 {
                let Admission::Lead { task, .. } = admit(&broker, i - 1) else {
                    panic!("seed {} was evicted", i - 1);
                };
                broker.complete(&task, None);
            }
        }
    }

    #[test]
    fn the_broker_holds_a_key_at_most_twice_and_eviction_frees_it() {
        let broker = ResultBroker::new(1);
        let Work::Keyed(key) = broker.work(request(1)) else {
            panic!("a Generate is keyed");
        };
        let watch = Arc::downgrade(key.request());
        let Admission::Lead { task, .. } =
            broker.admit(Work::Keyed(key), T, L, Instant::now(), None)
        else {
            panic!("leads");
        };
        assert_eq!(watch.strong_count(), 2, "running: the map's and the task's");
        broker.complete(&task, Some(Arc::new(payload())));
        drop(task);
        assert_eq!(watch.strong_count(), 2, "cached: the map's and its use's");
        // A hit keeps the stored key; the offered duplicate goes.
        assert!(matches!(admit(&broker, 1), Admission::CacheHit(_)));
        assert_eq!(watch.strong_count(), 2);
        // Eviction releases both: the key is freed.
        cached(&broker, 2);
        assert_eq!(watch.strong_count(), 0, "evicted key still allocated");
    }

    /// Seeded admit, complete (ok and err) and reject sequences over a
    /// key space twice `capacity` (plus two), keyed by `key` from a
    /// key's number, against a model in which a key is absent, running
    /// (with its task and its subscriber count) or cached (with its
    /// payload, least recently used first), checking the broker's map
    /// and eviction order after every step.
    fn matches_the_model(capacity: usize, key: impl Fn(&ResultBroker, u64) -> Key) {
        const OPS: u64 = 10_000;
        let broker = ResultBroker::new(capacity);
        let mut running: Vec<(Key, Arc<ExecTask>, usize)> = Vec::new();
        let mut cached: Vec<(Key, Arc<ResponsePayload>)> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for op in 0..OPS {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let draw = state >> 33;
            if op % 2 == 0 || running.is_empty() {
                let key = key(&broker, draw % (2 * capacity as u64 + 2));
                let admission = broker.admit(Work::Keyed(key.clone()), T, L, Instant::now(), None);
                if let Some(at) = cached.iter().position(|(k, _)| *k == key) {
                    let hit = cached.remove(at);
                    let Admission::CacheHit(payload) = admission else {
                        panic!("op {op}: a cached key missed");
                    };
                    assert!(Arc::ptr_eq(&payload, &hit.1), "op {op}: another payload");
                    cached.push(hit);
                } else if let Some(live) = running.iter_mut().find(|(k, ..)| *k == key) {
                    assert!(matches!(admission, Admission::Coalesced(_)), "op {op}");
                    live.2 += 1;
                } else {
                    let Admission::Lead { task, .. } = admission else {
                        panic!("op {op}: an absent key did not lead");
                    };
                    running.push((key, task, 1));
                }
            } else {
                let at = (draw % running.len() as u64) as usize;
                let (key, task, subscribers) = running.swap_remove(at);
                let done = match (draw >> 8) % 4 {
                    0 => broker.reject(&task),
                    1 => broker.complete(&task, None),
                    _ => {
                        let payload = Arc::new(payload());
                        if capacity > 0 {
                            if cached.len() == capacity {
                                cached.remove(0);
                            }
                            cached.push((key, Arc::clone(&payload)));
                        }
                        broker.complete(&task, Some(payload))
                    }
                };
                assert_eq!(done.len(), subscribers, "op {op}");
            }
            let state = broker.state.lock().expect("broker lock");
            assert_eq!(state.entries.len(), running.len() + cached.len(), "op {op}");
            assert!(
                state.recency.values().eq(cached.iter().map(|(k, _)| k)),
                "op {op}: another eviction order"
            );
            for (k, task, _) in &running {
                assert!(
                    matches!(&state.entries[k], Entry::Running(t) if Arc::ptr_eq(t, task)),
                    "op {op}"
                );
            }
            for (k, payload) in &cached {
                assert!(
                    matches!(&state.entries[k], Entry::Cached { payload: p, .. } if Arc::ptr_eq(p, payload)),
                    "op {op}"
                );
            }
        }
    }

    #[test]
    fn the_broker_matches_the_model_at_every_capacity() {
        for capacity in [0, 1, 3, 128] {
            matches_the_model(capacity, |broker, n| match broker.work(request(n)) {
                Work::Keyed(key) => key,
                Work::Private(_) => unreachable!("a Generate is keyed"),
            });
        }
    }

    /// The same, with every key sharing its hash with one other: half
    /// the look-ups meet the other text under their hash first.
    #[test]
    fn colliding_keys_match_the_model_at_every_capacity() {
        for capacity in [0, 1, 3, 128] {
            matches_the_model(capacity, |_, n| Key::with_hash(n / 2, request(n)));
        }
    }
}
