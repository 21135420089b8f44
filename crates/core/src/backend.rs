//! Where a [`PatternEngine`](crate::PatternEngine) runs its jobs: one
//! bounded queue drained by [`EngineConfig::workers`](crate::EngineConfig)
//! threads (`docs/ENGINE.md`, "Scheduler").
//!
//! The backend schedules tasks; everything about *what* a task does
//! (service execution, caching, coalescing fan-out, stats) lives in
//! the engine closure it is constructed with, so it is pure scheduling
//! policy. Spreading work over more than one queue is the router's
//! job (`chatpattern-router`, one serve process a shard).
//!
//! Workers dequeue **weighted-fair**, not FIFO: every task carries the
//! tenant and the lane the engine's one [`cp_qos::QosGate`] admitted
//! its leading request under, and the queue is a
//! [`cp_qos::FairQueue`] over those lanes — lanes
//! share by [`cp_qos::LaneWeights`] credits and tenants round-robin
//! within a lane, so one flooding tenant cannot starve everyone else's
//! queued work. The queue counts nothing: what a tenant was admitted,
//! refused and served is the gate's entry for it.

use crate::broker::ExecTask;
use crate::{EngineConfig, Error};
use cp_qos::{FairQueue, LaneWeights};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// What the backend runs for every task it schedules. The engine builds
/// this once (service execution + broker completion + stats) and hands
/// it over at construction.
pub(crate) type TaskFn = Arc<dyn Fn(&Arc<ExecTask>) + Send + Sync>;

struct QueueState {
    /// Weighted-fair across lanes, round-robin across tenants, FIFO
    /// within a tenant — see [`cp_qos::FairQueue`].
    tasks: FairQueue<Arc<ExecTask>>,
    shutdown: bool,
}

/// The bounded queue and the condvars its workers and blocked
/// dispatchers park on.
struct Queue {
    state: Mutex<QueueState>,
    /// Signalled when a task is pushed or shutdown begins (workers wait).
    task_ready: Condvar,
    /// Signalled when a task is popped (blocking dispatchers wait).
    space_ready: Condvar,
}

/// The engine's scheduler: one queue and the worker threads draining it.
pub(crate) struct Backend {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl Backend {
    /// Spawns `config.workers` threads (`pattern-engine-{i}`) over one
    /// queue `config.queue_depth` deep.
    pub(crate) fn new(config: &EngineConfig, run: TaskFn) -> Backend {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                tasks: FairQueue::new(config.queue_depth, LaneWeights::default()),
                shutdown: false,
            }),
            task_ready: Condvar::new(),
            space_ready: Condvar::new(),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                let run = Arc::clone(&run);
                thread::Builder::new()
                    .name(format!("pattern-engine-{i}"))
                    .spawn(move || worker_loop(&queue, &run))
                    .expect("spawn engine worker")
            })
            .collect();
        Backend { queue, workers }
    }

    /// Schedules one task, waiting for queue space (back-pressure).
    pub(crate) fn dispatch(&self, task: Arc<ExecTask>) {
        let mut state = self.queue.state.lock().expect("queue lock");
        while state.tasks.is_full() {
            state = self.queue.space_ready.wait(state).expect("queue lock");
        }
        self.push(state, task);
    }

    /// Schedules one task if the queue has room; reports
    /// [`Error::QueueFull`] otherwise, and the task was not accepted.
    pub(crate) fn try_dispatch(&self, task: Arc<ExecTask>) -> Result<(), Error> {
        let state = self.queue.state.lock().expect("queue lock");
        if state.tasks.is_full() {
            return Err(Error::QueueFull {
                depth: state.tasks.capacity(),
            });
        }
        self.push(state, task);
        Ok(())
    }

    fn push(&self, mut state: MutexGuard<'_, QueueState>, task: Arc<ExecTask>) {
        let queued = Arc::clone(&task);
        state
            .tasks
            .push(task.lane(), task.tenant(), queued)
            .map_err(|_| ())
            .expect("room was checked under the queue lock");
        drop(state);
        self.queue.task_ready.notify_one();
    }

    /// Jobs currently waiting in the queue. Feeds
    /// [`EngineStats::queue_depths`](crate::EngineStats).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.state.lock().expect("queue lock").tasks.len()
    }

    /// Stops accepting work and returns every task that never ran, so
    /// the caller can fail its subscribers without waiting for the
    /// jobs still running. Each worker exits after its current job.
    pub(crate) fn stop(&self) -> Vec<Arc<ExecTask>> {
        let drained = {
            let mut state = self.queue.state.lock().expect("queue lock");
            state.shutdown = true;
            state.tasks.drain()
        };
        self.queue.task_ready.notify_all();
        drained
    }

    /// Waits for every worker to exit (after [`Backend::stop`]).
    pub(crate) fn join(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(queue: &Queue, run: &TaskFn) {
    loop {
        let task = {
            let mut state = queue.state.lock().expect("queue lock");
            loop {
                if let Some(task) = state.tasks.pop() {
                    queue.space_ready.notify_one();
                    break task;
                }
                if state.shutdown {
                    return;
                }
                state = queue.task_ready.wait(state).expect("queue lock");
            }
        };
        run(&task);
    }
}
