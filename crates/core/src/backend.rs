//! Where a [`PatternEngine`](crate::PatternEngine) runs its jobs.
//!
//! [`EngineConfig::backend`](crate::EngineConfig) picks a
//! [`BackendKind`]; `docs/ENGINE.md` has the matrix.
//!
//! The backend schedules tasks; everything about *what* a task does
//! (service execution, caching, coalescing fan-out, stats) lives in
//! the engine closure it is constructed with, so it is pure scheduling
//! policy. A task goes to the shard its route — a stable hash of the
//! request key ([`crate::routing`]) — selects, so repeated identical
//! requests land on the same shard and stay cache-hot there.
//!
//! Workers dequeue **weighted-fair**, not FIFO: every task carries the
//! QoS lane and tenant of its leading request, and each shard's queue
//! is a [`cp_qos::FairQueue`] — lanes share by [`cp_qos::LaneWeights`]
//! credits and tenants round-robin within a lane, so one flooding
//! tenant cannot starve everyone else's queued work.

use crate::broker::ExecTask;
use crate::{EngineConfig, Error};
use cp_qos::{FairQueue, LaneWeights};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

/// Which execution strategy an engine runs
/// ([`EngineConfig::backend`](crate::EngineConfig)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Serial, zero threads: `submit` executes the job on the caller's
    /// thread and returns an already-finished handle. `workers` and
    /// `queue_depth` are unused at runtime (validation still requires
    /// them ≥ 1, so one config passes for any backend); `QueueFull`
    /// never happens.
    Inline,
    /// `shards` independent bounded queues (each `queue_depth` deep),
    /// each with its own slice of the `workers` threads (`workers`
    /// must be ≥ `shards` so every shard can drain its queue). Jobs
    /// are routed by request-key hash, so identical and repeated
    /// requests stay shard-local. `shards: 1` — one queue feeding
    /// every worker — is the default.
    Sharded {
        /// Number of independent queue+worker groups (≥ 1, ≤ workers).
        shards: usize,
    },
}

impl BackendKind {
    /// The name in `chatpattern-serve --stats` lines and bench output.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Inline => "inline",
            BackendKind::Sharded { .. } => "sharded",
        }
    }
}

/// What the backend runs for every task it schedules. The engine builds
/// this once (service execution + broker completion + stats) and hands
/// it over at construction.
pub(crate) type TaskFn = Arc<dyn Fn(&Arc<ExecTask>) + Send + Sync>;

struct ShardQueue {
    /// Weighted-fair across lanes, round-robin across tenants, FIFO
    /// within a tenant — see [`cp_qos::FairQueue`].
    tasks: FairQueue<Arc<ExecTask>>,
    shutdown: bool,
}

/// One bounded queue and the condvars its workers and blocked
/// dispatchers park on.
struct Shard {
    queue: Mutex<ShardQueue>,
    /// Signalled when a task is pushed or shutdown begins (workers wait).
    task_ready: Condvar,
    /// Signalled when a task is popped (blocking dispatchers wait).
    space_ready: Condvar,
}

/// The engine's scheduler: a pool of queues, each drained by its own
/// worker threads — or, with no queue at all
/// ([`BackendKind::Inline`]), the submitting thread itself.
pub(crate) struct Backend {
    run: TaskFn,
    /// Empty for [`BackendKind::Inline`].
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
}

impl Backend {
    /// Worker `i` (thread `pattern-engine-{i}`) drains shard
    /// `i % shards`: the `workers` threads split as evenly as possible.
    /// A [validated](EngineConfig::validate) config has `workers >=
    /// shards >= 1`, so every shard gets at least one worker without
    /// oversubscribing the configured thread count.
    pub(crate) fn new(config: &EngineConfig, weights: LaneWeights, run: TaskFn) -> Backend {
        let shards: Vec<Arc<Shard>> = match config.backend {
            BackendKind::Inline => Vec::new(),
            BackendKind::Sharded { shards } => (0..shards)
                .map(|_| {
                    Arc::new(Shard {
                        queue: Mutex::new(ShardQueue {
                            tasks: FairQueue::new(config.queue_depth, weights),
                            shutdown: false,
                        }),
                        task_ready: Condvar::new(),
                        space_ready: Condvar::new(),
                    })
                })
                .collect(),
        };
        let workers = shards
            .iter()
            .cycle()
            .take(config.workers)
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let run = Arc::clone(&run);
                thread::Builder::new()
                    .name(format!("pattern-engine-{i}"))
                    .spawn(move || worker_loop(&shard, &run))
                    .expect("spawn engine worker")
            })
            .collect();
        Backend {
            run,
            shards,
            workers,
        }
    }

    /// Schedules one task. With `block` set, waits for queue space
    /// (back-pressure); otherwise reports [`Error::QueueFull`] when the
    /// target queue is at capacity and the task was not accepted.
    /// Inline, the task has run by the time this returns.
    pub(crate) fn dispatch(&self, task: Arc<ExecTask>, block: bool) -> Result<(), Error> {
        if self.shards.is_empty() {
            (self.run)(&task);
            return Ok(());
        }
        let index = usize::try_from(task.route() % self.shards.len() as u64)
            .expect("shard index fits usize");
        let shard = &self.shards[index];
        {
            let mut queue = shard.queue.lock().expect("queue lock");
            while queue.tasks.is_full() {
                if !block {
                    return Err(Error::QueueFull {
                        depth: queue.tasks.capacity(),
                    });
                }
                queue = shard.space_ready.wait(queue).expect("queue lock");
            }
            let lane = task.lane();
            let tenant = task.tenant().to_owned();
            queue
                .tasks
                .push(lane, &tenant, task)
                .map_err(|_| ())
                .expect("space was awaited under the queue lock");
        }
        shard.task_ready.notify_one();
        Ok(())
    }

    /// Jobs currently waiting in each queue, one entry per shard (none
    /// inline). Feeds [`EngineStats::queue_depths`](crate::EngineStats).
    pub(crate) fn queue_depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|shard| shard.queue.lock().expect("queue lock").tasks.len())
            .collect()
    }

    /// Stops accepting work, joins all workers, and returns every task
    /// that never ran so the caller can fail its subscribers.
    pub(crate) fn shutdown(&mut self) -> Vec<Arc<ExecTask>> {
        let mut drained = Vec::new();
        for shard in &self.shards {
            {
                let mut queue = shard.queue.lock().expect("queue lock");
                queue.shutdown = true;
                drained.extend(queue.tasks.drain());
            }
            shard.task_ready.notify_all();
            shard.space_ready.notify_all();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        drained
    }
}

fn worker_loop(shard: &Shard, run: &TaskFn) {
    loop {
        let task = {
            let mut queue = shard.queue.lock().expect("queue lock");
            loop {
                if let Some((task, _queued_for)) = queue.tasks.pop() {
                    shard.space_ready.notify_one();
                    break task;
                }
                if queue.shutdown {
                    return;
                }
                queue = shard.task_ready.wait(queue).expect("queue lock");
            }
        };
        run(&task);
    }
}
