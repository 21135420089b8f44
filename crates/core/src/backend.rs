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
//! QoS lane and tenant of its leading request, and the queue is a
//! [`cp_qos::FairQueue`] — lanes share by [`cp_qos::LaneWeights`]
//! credits and tenants round-robin within a lane, so one flooding
//! tenant cannot starve everyone else's queued work.

use crate::broker::ExecTask;
use crate::{EngineConfig, Error};
use cp_qos::{FairQueue, LaneWeights};
use std::sync::{Arc, Condvar, Mutex};
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
    pub(crate) fn new(config: &EngineConfig, weights: LaneWeights, run: TaskFn) -> Backend {
        let queue = Arc::new(Queue {
            state: Mutex::new(QueueState {
                tasks: FairQueue::new(config.queue_depth, weights),
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

    /// Schedules one task. With `block` set, waits for queue space
    /// (back-pressure); otherwise reports [`Error::QueueFull`] when the
    /// queue is at capacity and the task was not accepted.
    pub(crate) fn dispatch(&self, task: Arc<ExecTask>, block: bool) -> Result<(), Error> {
        {
            let mut state = self.queue.state.lock().expect("queue lock");
            while state.tasks.is_full() {
                if !block {
                    return Err(Error::QueueFull {
                        depth: state.tasks.capacity(),
                    });
                }
                state = self.queue.space_ready.wait(state).expect("queue lock");
            }
            let lane = task.lane();
            let tenant = task.tenant().to_owned();
            state
                .tasks
                .push(lane, &tenant, task)
                .map_err(|_| ())
                .expect("space was awaited under the queue lock");
        }
        self.queue.task_ready.notify_one();
        Ok(())
    }

    /// Jobs currently waiting in the queue. Feeds
    /// [`EngineStats::queue_depths`](crate::EngineStats).
    pub(crate) fn queue_depth(&self) -> usize {
        self.queue.state.lock().expect("queue lock").tasks.len()
    }

    /// Stops accepting work, joins all workers, and returns every task
    /// that never ran so the caller can fail its subscribers.
    pub(crate) fn shutdown(&mut self) -> Vec<Arc<ExecTask>> {
        let drained = {
            let mut state = self.queue.state.lock().expect("queue lock");
            state.shutdown = true;
            state.tasks.drain()
        };
        self.queue.task_ready.notify_all();
        self.queue.space_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        drained
    }
}

fn worker_loop(queue: &Queue, run: &TaskFn) {
    loop {
        let task = {
            let mut state = queue.state.lock().expect("queue lock");
            loop {
                if let Some((task, _queued_for)) = state.tasks.pop() {
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
