//! What a `Stats` reply carries ([`EngineStats`]) and the counters behind it.

use cp_qos::TenantLaneStats;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters describing engine activity since construction.
///
/// Serializable: a [`Stats`](crate::PatternRequest::Stats) request
/// returns this struct over the wire, and the `chatpattern-router`
/// merges one per worker into a fleet view with [`EngineStats::merge`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Jobs accepted by `submit`/`submit_blocking` (cache hits and
    /// coalesced waiters included).
    pub submitted: u64,
    /// Jobs whose result was delivered successfully (cache hits and
    /// coalesced waiters included).
    pub completed: u64,
    /// Jobs whose result was an error.
    pub failed: u64,
    /// Jobs still queued when the engine was dropped, failed with
    /// [`Cancelled`](crate::Error::Cancelled).
    pub cancelled: u64,
    /// Requests served straight from the result cache.
    pub cache_hits: u64,
    /// Cacheable requests that started a backend execution.
    pub cache_misses: u64,
    /// Requests that attached to an identical in-flight execution
    /// instead of starting their own (for keyed submissions,
    /// `cache_hits + cache_misses + coalesced` partitions them).
    pub coalesced: u64,
    /// Chat sessions currently open in the wrapped service (a gauge;
    /// zero for services without session support).
    pub sessions_open: u64,
    /// Sessions destroyed: expired or evicted by the stores' one exit
    /// with no persist layer attached, or lost to a panicking turn.
    pub sessions_evicted: u64,
    /// Sessions spilled to the persist layer on capacity eviction or
    /// TTL expiry (instead of being destroyed).
    pub sessions_spilled: u64,
    /// Spilled sessions rehydrated by a later turn, snapshot or close.
    pub sessions_restored: u64,
    /// Warm sessions snapshotted ahead of any eviction by the
    /// spill-ahead writer on the turn-count trigger
    /// (`spill_ahead_turns`). Absent on the wire from older peers —
    /// defaults to zero.
    #[serde(default)]
    pub sessions_spilled_ahead: u64,
    /// Session turns executed.
    pub turns: u64,
    /// Jobs currently waiting to execute, one entry per queue: one
    /// from a process, one a worker in the router's merged fleet view.
    pub queue_depths: Vec<usize>,
    /// Per-(tenant, lane) QoS accounting rows, sorted by tenant then
    /// lane name. Empty until the first tagged (or default-tenant)
    /// submission; [`EngineStats::merge`] sums matching rows across a
    /// fleet.
    pub tenants: Vec<TenantLaneStats>,
    /// Transport connections currently open against this engine (a
    /// gauge; zero unless a server attached [`ConnCounters`]). Absent
    /// on the wire from older peers — defaults to zero.
    #[serde(default)]
    pub connections_live: u64,
    /// High-water mark of concurrently open transport connections.
    /// Under [`EngineStats::merge`] this is the *sum* of per-worker
    /// peaks — an upper bound on the fleet-wide simultaneous peak.
    #[serde(default)]
    pub connections_peak: u64,
    /// Connections that ended normally: peer EOF, reset, or a write to
    /// a vanished peer.
    #[serde(default)]
    pub disconnects_clean: u64,
    /// Connections the event-loop transport killed because their
    /// outbound queue exceeded its high-water mark (a slow reader
    /// accumulating unread replies).
    #[serde(default)]
    pub disconnects_backpressure: u64,
}

impl EngineStats {
    /// Stats for a bare service that hosts sessions but no engine
    /// (every engine counter zero, the session gauges filled in) —
    /// what a direct [`PatternRequest::Stats`] against a
    /// [`ChatPattern`](crate::ChatPattern) reports.
    #[must_use]
    pub(crate) fn from_sessions(sessions: crate::session::SessionStats) -> EngineStats {
        EngineStats {
            sessions_open: sessions.open,
            sessions_evicted: sessions.evicted,
            sessions_spilled: sessions.spilled,
            sessions_restored: sessions.restored,
            sessions_spilled_ahead: sessions.spilled_ahead,
            turns: sessions.turns,
            ..EngineStats::default()
        }
    }

    /// Folds another snapshot into this one: counters add, and
    /// `queue_depths` concatenates (one entry per queue across the
    /// whole fleet). This is how the router builds its fleet view out
    /// of per-worker snapshots.
    pub fn merge(&mut self, other: &EngineStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.failed += other.failed;
        self.cancelled += other.cancelled;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.coalesced += other.coalesced;
        self.sessions_open += other.sessions_open;
        self.sessions_evicted += other.sessions_evicted;
        self.sessions_spilled += other.sessions_spilled;
        self.sessions_restored += other.sessions_restored;
        self.sessions_spilled_ahead += other.sessions_spilled_ahead;
        self.turns += other.turns;
        self.queue_depths.extend_from_slice(&other.queue_depths);
        self.tenants = cp_qos::merge_rows(&[&self.tenants, &other.tenants]);
        self.connections_live += other.connections_live;
        self.connections_peak += other.connections_peak;
        self.disconnects_clean += other.disconnects_clean;
        self.disconnects_backpressure += other.disconnects_backpressure;
    }
}

/// Transport-connection telemetry: live/peak gauges plus disconnect
/// reasons, kept engine-side so a [`Stats`](crate::PatternRequest::Stats)
/// request (and the router's fleet fan-in) reports them like any other
/// counter. Servers call [`ConnCounters::connected`] /
/// `disconnected_*`; the engine folds the numbers into
/// [`EngineStats`].
#[derive(Debug, Default)]
pub struct ConnCounters {
    live: AtomicU64,
    peak: AtomicU64,
    clean: AtomicU64,
    backpressure: AtomicU64,
}

impl ConnCounters {
    /// One connection accepted.
    pub fn connected(&self) {
        let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// One connection ended normally (EOF, reset, vanished peer).
    pub fn disconnected_clean(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.clean.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection was killed for exceeding its outbound
    /// high-water mark (event-loop back-pressure).
    pub fn disconnected_backpressure(&self) {
        self.live.fetch_sub(1, Ordering::Relaxed);
        self.backpressure.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds the current counter values into a stats snapshot.
    pub(crate) fn fill(&self, stats: &mut EngineStats) {
        stats.connections_live = self.live.load(Ordering::Relaxed);
        stats.connections_peak = self.peak.load(Ordering::Relaxed);
        stats.disconnects_clean = self.clean.load(Ordering::Relaxed);
        stats.disconnects_backpressure = self.backpressure.load(Ordering::Relaxed);
    }
}

#[derive(Default)]
pub(crate) struct AtomicStats {
    pub(super) submitted: AtomicU64,
    pub(super) completed: AtomicU64,
    pub(super) failed: AtomicU64,
    pub(super) cancelled: AtomicU64,
    pub(super) cache_hits: AtomicU64,
    pub(super) cache_misses: AtomicU64,
    pub(super) coalesced: AtomicU64,
}

impl AtomicStats {
    pub(super) fn snapshot(
        &self,
        queue_depths: Vec<usize>,
        sessions: crate::session::SessionStats,
        tenants: Vec<TenantLaneStats>,
    ) -> EngineStats {
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            queue_depths,
            tenants,
            ..EngineStats::from_sessions(sessions)
        }
    }

    pub(super) fn add(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}
