//! `cp_qos` — multi-tenant quality of service for the ChatPattern
//! fleet.
//!
//! A shared serving fleet needs more than a single bounded FIFO: one
//! chatty tenant must not be able to monopolize every worker, and an
//! overloaded tenant should get a typed *retry-after* signal instead
//! of an ever-growing queue. This crate is the policy layer the engine
//! and backends plug into:
//!
//! * [`Lane`] — the three priority classes (interactive chat >
//!   generate/extend > batch evaluation);
//! * [`LaneWeights`] — how many dequeues each lane gets per
//!   weighted-fair cycle (`--lane-weights`);
//! * [`TenantQuota`] / [`QosConfig`] — per-tenant admission limits:
//!   concurrent jobs, open sessions and a token-bucket turn budget
//!   (`--tenant-quota`);
//! * [`QosGate`] — the admission gate itself: `try_admit` either
//!   reserves capacity or answers with a [`Rejection`] carrying
//!   `retry_after_ms`;
//! * [`FairQueue`] — a bounded, lane-aware, tenant-round-robin queue
//!   the engine's workers drain instead of a plain `VecDeque`, so a
//!   flood from one tenant cannot starve the rest;
//! * [`TenantLedger`] / [`TenantLaneStats`] — per-(tenant, lane)
//!   admitted/rejected/completed/queue-time counters that surface in
//!   `EngineStats` and merge across a router fleet.
//!
//! End to end, the quota-retry loop runs through a real router fleet in
//! `tests/router.rs`
//! (`tenants_over_quota_retry_to_completion_and_the_fleet_ledger_agrees`)
//! and against one engine in `tests/qos.rs`.
//!
//! The crate is deliberately engine-agnostic: it never sees a
//! `PatternRequest` (the engine classifies requests into a [`Lane`]),
//! so the same primitives can gate any executor.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// The tenant every un-tagged request is accounted to. Wire envelopes
/// without a `tenant` field land here, which keeps pre-QoS clients
/// working unchanged.
pub const DEFAULT_TENANT: &str = "default";

/// Retry hint handed out when a quota rejection has no natural
/// deadline (concurrent-job and open-session caps free up whenever
/// some in-flight work finishes; turn budgets compute an exact
/// refill time instead).
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

// ------------------------------------------------------------------ lanes

/// Priority class of a request. Lower discriminant = higher priority.
///
/// The engine classifies every request: chat turns and session
/// operations are `Interactive` (a human is waiting mid-conversation),
/// one-shot generation work is `Standard`, and evaluation sweeps are
/// `Batch`. Dequeue order is weighted-fair, not strict — see
/// [`FairQueue`] — so even `Batch` makes progress under interactive
/// load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Lane {
    /// Chat turns and session operations: a user is waiting.
    Interactive,
    /// Generate / extend / modify / legalize: one-shot foreground work.
    Standard,
    /// Evaluation and other offline sweeps.
    Batch,
}

/// Number of lanes — the fixed size of every per-lane array.
pub const LANE_COUNT: usize = 3;

/// Every lane, in strict priority order (the order [`FairQueue`]
/// scans within one credit cycle).
pub const LANES: [Lane; LANE_COUNT] = [Lane::Interactive, Lane::Standard, Lane::Batch];

impl Lane {
    /// Stable lowercase name, used in stats rows and flag parsing.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lane::Interactive => "interactive",
            Lane::Standard => "standard",
            Lane::Batch => "batch",
        }
    }

    /// Position in [`LANES`] / every per-lane array.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Dequeues granted to each lane per weighted-fair cycle.
///
/// Weights are clamped to at least 1 so no lane can be configured
/// into total starvation: over any full cycle every non-empty lane is
/// served at least once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneWeights {
    /// Credits for [`Lane::Interactive`] per cycle.
    pub interactive: u32,
    /// Credits for [`Lane::Standard`] per cycle.
    pub standard: u32,
    /// Credits for [`Lane::Batch`] per cycle.
    pub batch: u32,
}

impl Default for LaneWeights {
    fn default() -> LaneWeights {
        LaneWeights {
            interactive: 4,
            standard: 2,
            batch: 1,
        }
    }
}

impl LaneWeights {
    /// The per-lane credit array, in [`LANES`] order, each at least 1.
    #[must_use]
    pub fn credits(&self) -> [u32; LANE_COUNT] {
        [
            self.interactive.max(1),
            self.standard.max(1),
            self.batch.max(1),
        ]
    }

    /// Sum of all (clamped) weights — one full fair cycle.
    #[must_use]
    pub fn cycle(&self) -> u32 {
        self.credits().iter().sum()
    }

    /// Parses a `--lane-weights` spec: either bare
    /// `"INTERACTIVE,STANDARD,BATCH"` (e.g. `"4,2,1"`) or named
    /// `"interactive=4,standard=2,batch=1"` (any subset overrides the
    /// default).
    pub fn parse(spec: &str) -> Result<LaneWeights, String> {
        let mut weights = LaneWeights::default();
        let parts: Vec<&str> = spec.split(',').map(str::trim).collect();
        let named = parts.iter().any(|p| p.contains('='));
        if !named {
            if parts.len() != 3 {
                return Err(format!(
                    "lane weights need 3 comma-separated numbers or name=value pairs, got {spec:?}"
                ));
            }
            weights.interactive = parse_u32("interactive weight", parts[0])?;
            weights.standard = parse_u32("standard weight", parts[1])?;
            weights.batch = parse_u32("batch weight", parts[2])?;
            return Ok(weights);
        }
        for part in parts {
            if part.is_empty() {
                continue;
            }
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("lane weight {part:?} is not name=value"))?;
            let value = parse_u32(name.trim(), value.trim())?;
            match name.trim() {
                "interactive" => weights.interactive = value,
                "standard" => weights.standard = value,
                "batch" => weights.batch = value,
                other => {
                    return Err(format!(
                        "unknown lane {other:?} (expected interactive, standard or batch)"
                    ))
                }
            }
        }
        Ok(weights)
    }
}

fn parse_u32(name: &str, value: &str) -> Result<u32, String> {
    value
        .parse::<u32>()
        .map_err(|_| format!("{name} needs an unsigned integer, got {value:?}"))
}

// ----------------------------------------------------------------- quotas

/// Admission limits for one tenant. Zero always means *unlimited*, so
/// the default quota admits everything — QoS is opt-in per deployment.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct TenantQuota {
    /// Maximum concurrently executing/queued jobs (leaders only;
    /// cache hits and coalesced followers do not occupy a slot).
    pub max_inflight: u64,
    /// Maximum concurrently open sessions.
    pub max_sessions: u64,
    /// Sustained chat/session-turn rate (token bucket refill, per
    /// second).
    pub turns_per_sec: f64,
    /// Token-bucket burst capacity; zero defaults to
    /// `max(1, turns_per_sec)`.
    pub turn_burst: f64,
}

impl TenantQuota {
    /// Effective burst size of the turn bucket.
    #[must_use]
    pub fn burst(&self) -> f64 {
        if self.turn_burst > 0.0 {
            self.turn_burst
        } else {
            self.turns_per_sec.max(1.0)
        }
    }

    /// Parses a quota spec: comma-separated `name=value` pairs with
    /// names `inflight`, `sessions`, `tps` (turns per second) and
    /// `burst`, e.g. `"inflight=4,sessions=8,tps=2,burst=4"`. Omitted
    /// fields stay unlimited.
    pub fn parse(spec: &str) -> Result<TenantQuota, String> {
        let mut quota = TenantQuota::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("quota field {part:?} is not name=value"))?;
            match name.trim() {
                "inflight" => {
                    quota.max_inflight = value.trim().parse::<u64>().map_err(|_| {
                        format!("inflight needs an unsigned integer, got {value:?}")
                    })?;
                }
                "sessions" => {
                    quota.max_sessions = value.trim().parse::<u64>().map_err(|_| {
                        format!("sessions needs an unsigned integer, got {value:?}")
                    })?;
                }
                "tps" => {
                    quota.turns_per_sec = parse_rate("tps", value.trim())?;
                }
                "burst" => {
                    quota.turn_burst = parse_rate("burst", value.trim())?;
                }
                other => {
                    return Err(format!(
                        "unknown quota field {other:?} (expected inflight, sessions, tps or burst)"
                    ))
                }
            }
        }
        Ok(quota)
    }
}

fn parse_rate(name: &str, value: &str) -> Result<f64, String> {
    let rate = value
        .parse::<f64>()
        .map_err(|_| format!("{name} needs a number, got {value:?}"))?;
    if rate < 0.0 || !rate.is_finite() {
        return Err(format!("{name} must be a finite non-negative number"));
    }
    Ok(rate)
}

/// The whole QoS policy of one engine: a default quota, per-tenant
/// overrides and the lane weights.
#[derive(Debug, Clone, Default)]
pub struct QosConfig {
    /// Quota applied to tenants without an explicit override.
    pub default_quota: TenantQuota,
    /// Per-tenant overrides (full replacement, not merge).
    pub tenant_quotas: HashMap<String, TenantQuota>,
    /// Weighted-fair dequeue credits.
    pub lane_weights: LaneWeights,
}

impl QosConfig {
    /// A config with default (unlimited) quotas and default weights.
    #[must_use]
    pub fn new() -> QosConfig {
        QosConfig {
            default_quota: TenantQuota::default(),
            tenant_quotas: HashMap::new(),
            lane_weights: LaneWeights::default(),
        }
    }

    /// The effective quota of a tenant.
    #[must_use]
    pub fn quota_for(&self, tenant: &str) -> TenantQuota {
        self.tenant_quotas
            .get(tenant)
            .copied()
            .unwrap_or(self.default_quota)
    }

    /// Applies one `--tenant-quota` flag value: either `"SPEC"`
    /// (sets the default quota) or `"TENANT:SPEC"` (overrides one
    /// tenant), where SPEC is [`TenantQuota::parse`] syntax. The flag
    /// is repeatable; later values win.
    pub fn apply_quota_flag(&mut self, flag: &str) -> Result<(), String> {
        match flag.split_once(':') {
            Some((tenant, spec)) => {
                let tenant = tenant.trim();
                if tenant.is_empty() {
                    return Err("tenant name before ':' is empty".to_owned());
                }
                let quota = TenantQuota::parse(spec)?;
                self.tenant_quotas.insert(tenant.to_owned(), quota);
            }
            None => self.default_quota = TenantQuota::parse(flag)?,
        }
        Ok(())
    }
}

// ------------------------------------------------------------------- gate

/// Why an admission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant's concurrent-job quota is exhausted.
    Inflight,
    /// The tenant's open-session cap is reached.
    Sessions,
    /// The tenant's turn budget (token bucket) is empty.
    TurnBudget,
}

/// A refused admission, with the hint clients should wait before
/// retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Milliseconds the caller should back off before retrying.
    pub retry_after_ms: u64,
    /// Which quota refused the request.
    pub reason: RejectReason,
}

/// What the admission of one request costs, beyond one in-flight slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitClass {
    /// Consumes one token from the tenant's turn budget (chat turns).
    pub consumes_turn: bool,
    /// Reserves one open-session slot (session open/restore).
    pub opens_session: bool,
}

struct TokenBucket {
    tokens: f64,
    last_refill: Instant,
}

impl TokenBucket {
    fn try_take(&mut self, now: Instant, quota: &TenantQuota) -> Result<(), u64> {
        let burst = quota.burst();
        let elapsed = now.duration_since(self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + elapsed * quota.turns_per_sec).min(burst);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            return Ok(());
        }
        let deficit = 1.0 - self.tokens;
        let secs = deficit / quota.turns_per_sec.max(f64::MIN_POSITIVE);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let millis = (secs * 1000.0).ceil().min(3_600_000.0) as u64;
        Err(millis.max(1))
    }
}

struct TenantState {
    inflight: u64,
    sessions: u64,
    bucket: TokenBucket,
}

/// The admission gate: per-tenant in-flight counts, open-session
/// reservations and turn token buckets behind one mutex.
///
/// Call [`QosGate::try_admit`] before handing a request to the
/// executor; on success the in-flight slot (and, for session-opening
/// requests, a session reservation) is held until the matching
/// [`QosGate::release`] / [`QosGate::release_session`].
pub struct QosGate {
    config: QosConfig,
    tenants: std::sync::Mutex<HashMap<String, TenantState>>,
}

impl QosGate {
    /// A gate enforcing `config`.
    #[must_use]
    pub fn new(config: QosConfig) -> QosGate {
        QosGate {
            config,
            tenants: std::sync::Mutex::new(HashMap::new()),
        }
    }

    /// The policy this gate enforces.
    #[must_use]
    pub fn config(&self) -> &QosConfig {
        &self.config
    }

    /// Admits or refuses one request for `tenant`. On success one
    /// in-flight slot is reserved (plus a session slot when
    /// `class.opens_session`); the caller must pair it with
    /// [`QosGate::release`] once the request leaves the system.
    pub fn try_admit(&self, tenant: &str, class: AdmitClass) -> Result<(), Rejection> {
        let quota = self.config.quota_for(tenant);
        let mut tenants = self.tenants.lock().expect("qos gate lock");
        let state = tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| TenantState {
                inflight: 0,
                sessions: 0,
                bucket: TokenBucket {
                    tokens: quota.burst(),
                    last_refill: Instant::now(),
                },
            });
        if quota.max_inflight > 0 && state.inflight >= quota.max_inflight {
            return Err(Rejection {
                retry_after_ms: DEFAULT_RETRY_AFTER_MS,
                reason: RejectReason::Inflight,
            });
        }
        if class.opens_session && quota.max_sessions > 0 && state.sessions >= quota.max_sessions {
            return Err(Rejection {
                retry_after_ms: DEFAULT_RETRY_AFTER_MS,
                reason: RejectReason::Sessions,
            });
        }
        if class.consumes_turn && quota.turns_per_sec > 0.0 {
            if let Err(retry_after_ms) = state.bucket.try_take(Instant::now(), &quota) {
                return Err(Rejection {
                    retry_after_ms,
                    reason: RejectReason::TurnBudget,
                });
            }
        }
        state.inflight += 1;
        if class.opens_session {
            state.sessions += 1;
        }
        Ok(())
    }

    /// Returns the in-flight slot of an admitted request.
    pub fn release(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("qos gate lock");
        if let Some(state) = tenants.get_mut(tenant) {
            state.inflight = state.inflight.saturating_sub(1);
        }
    }

    /// Returns a session reservation: call when a session-opening
    /// request fails (or is abandoned), and when a session closes.
    pub fn release_session(&self, tenant: &str) {
        let mut tenants = self.tenants.lock().expect("qos gate lock");
        if let Some(state) = tenants.get_mut(tenant) {
            state.sessions = state.sessions.saturating_sub(1);
        }
    }

    /// Current (inflight, sessions) gauges of a tenant, for tests and
    /// diagnostics.
    #[must_use]
    pub fn gauges(&self, tenant: &str) -> (u64, u64) {
        let tenants = self.tenants.lock().expect("qos gate lock");
        tenants
            .get(tenant)
            .map_or((0, 0), |s| (s.inflight, s.sessions))
    }
}

// ------------------------------------------------------------ fair queue

struct LaneQueue<T> {
    tenants: HashMap<String, VecDeque<(T, Instant)>>,
    /// Round-robin order over tenants with queued work.
    order: VecDeque<String>,
    len: usize,
}

impl<T> LaneQueue<T> {
    fn new() -> LaneQueue<T> {
        LaneQueue {
            tenants: HashMap::new(),
            order: VecDeque::new(),
            len: 0,
        }
    }

    fn push(&mut self, tenant: &str, item: T) {
        match self.tenants.get_mut(tenant) {
            Some(queue) => queue.push_back((item, Instant::now())),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back((item, Instant::now()));
                self.tenants.insert(tenant.to_owned(), queue);
                self.order.push_back(tenant.to_owned());
            }
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<(T, Instant)> {
        let tenant = self.order.pop_front()?;
        let queue = self.tenants.get_mut(&tenant).expect("tenant has a queue");
        let entry = queue.pop_front().expect("queued tenant is non-empty");
        self.len -= 1;
        if queue.is_empty() {
            self.tenants.remove(&tenant);
        } else {
            // One item per visit: round-robin across tenants.
            self.order.push_back(tenant);
        }
        Some(entry)
    }
}

/// A bounded, lane-aware, tenant-fair queue.
///
/// * **Across lanes** dequeue is weighted deficit round-robin: each
///   lane holds `weight` credits per cycle; the highest-priority
///   non-empty lane with credit left is served, and when every
///   non-empty lane is out of credit the cycle resets. A saturated
///   queue therefore serves lanes in their weight ratio, and any
///   non-empty lane waits at most one cycle
///   ([`LaneWeights::cycle`] pops) between services — no starvation.
/// * **Within a lane** tenants are served round-robin, one item per
///   visit, so a tenant with 1000 queued jobs and a tenant with 1
///   alternate instead of the flood going first.
/// * **Within a tenant** order is strict FIFO.
///
/// `pop` also reports how long the item waited, which feeds the
/// per-tenant queue-time stats.
pub struct FairQueue<T> {
    lanes: [LaneQueue<T>; LANE_COUNT],
    weights: [u32; LANE_COUNT],
    credits: [u32; LANE_COUNT],
    capacity: usize,
    len: usize,
}

impl<T> FairQueue<T> {
    /// A queue holding at most `capacity` items across all lanes.
    #[must_use]
    pub fn new(capacity: usize, weights: LaneWeights) -> FairQueue<T> {
        let credits = weights.credits();
        FairQueue {
            lanes: [LaneQueue::new(), LaneQueue::new(), LaneQueue::new()],
            weights: credits,
            credits,
            capacity,
            len: 0,
        }
    }

    /// Items currently queued, across all lanes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the queue is at capacity.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// The configured bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues an item, or hands it back when the queue is full.
    pub fn push(&mut self, lane: Lane, tenant: &str, item: T) -> Result<(), T> {
        if self.is_full() {
            return Err(item);
        }
        self.lanes[lane.index()].push(tenant, item);
        self.len += 1;
        Ok(())
    }

    /// Dequeues the next item by weighted-fair order, with the time
    /// it spent queued.
    pub fn pop(&mut self) -> Option<(T, Duration)> {
        if self.len == 0 {
            return None;
        }
        loop {
            for index in 0..LANE_COUNT {
                if self.lanes[index].len > 0 && self.credits[index] > 0 {
                    self.credits[index] -= 1;
                    let (item, queued_at) = self.lanes[index].pop().expect("lane is non-empty");
                    self.len -= 1;
                    return Some((item, queued_at.elapsed()));
                }
            }
            // Every non-empty lane is out of credit: start a new cycle.
            self.credits = self.weights;
        }
    }

    /// Removes and returns every queued item (shutdown drain), in
    /// fair-dequeue order.
    pub fn drain(&mut self) -> Vec<T> {
        let mut items = Vec::with_capacity(self.len);
        while let Some((item, _)) = self.pop() {
            items.push(item);
        }
        items
    }
}

// ------------------------------------------------------------------ stats

/// One per-(tenant, lane) accounting row, as surfaced in
/// `EngineStats` and merged across a fleet.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantLaneStats {
    /// Tenant name.
    pub tenant: String,
    /// Lane name ([`Lane::name`]).
    pub lane: String,
    /// Requests admitted past the QoS gate.
    pub admitted: u64,
    /// Requests refused with `Overloaded`.
    pub rejected: u64,
    /// Leader executions finished (success or error).
    pub completed: u64,
    /// Total microseconds completed leaders spent queued.
    pub queue_micros: u64,
}

/// Merges stats rows from many sources, summing by (tenant, lane) and
/// returning rows sorted by tenant then lane name — the deterministic
/// shape `EngineStats::merge` and the router's fleet view rely on.
#[must_use]
pub fn merge_rows(sources: &[&[TenantLaneStats]]) -> Vec<TenantLaneStats> {
    let mut merged: HashMap<(String, String), TenantLaneStats> = HashMap::new();
    for rows in sources {
        for row in *rows {
            let entry = merged
                .entry((row.tenant.clone(), row.lane.clone()))
                .or_insert_with(|| TenantLaneStats {
                    tenant: row.tenant.clone(),
                    lane: row.lane.clone(),
                    ..TenantLaneStats::default()
                });
            entry.admitted += row.admitted;
            entry.rejected += row.rejected;
            entry.completed += row.completed;
            entry.queue_micros += row.queue_micros;
        }
    }
    let mut rows: Vec<TenantLaneStats> = merged.into_values().collect();
    rows.sort_by(|a, b| (&a.tenant, &a.lane).cmp(&(&b.tenant, &b.lane)));
    rows
}

#[derive(Default)]
struct LedgerRow {
    admitted: u64,
    rejected: u64,
    completed: u64,
    queue_micros: u64,
}

/// Thread-safe per-(tenant, lane) counters. The engine records
/// admissions/rejections, the backends record queue time and
/// completions, and `EngineStats` snapshots the whole ledger.
#[derive(Default)]
pub struct TenantLedger {
    rows: std::sync::Mutex<HashMap<(String, Lane), LedgerRow>>,
}

impl TenantLedger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> TenantLedger {
        TenantLedger::default()
    }

    fn with_row(&self, tenant: &str, lane: Lane, update: impl FnOnce(&mut LedgerRow)) {
        let mut rows = self.rows.lock().expect("ledger lock");
        let row = rows.entry((tenant.to_owned(), lane)).or_default();
        update(row);
    }

    /// Counts one admitted request.
    pub fn record_admitted(&self, tenant: &str, lane: Lane) {
        self.with_row(tenant, lane, |row| row.admitted += 1);
    }

    /// Counts one `Overloaded` rejection.
    pub fn record_rejected(&self, tenant: &str, lane: Lane) {
        self.with_row(tenant, lane, |row| row.rejected += 1);
    }

    /// Counts one finished leader execution and the time it waited in
    /// a backend queue.
    pub fn record_completed(&self, tenant: &str, lane: Lane, queue_micros: u64) {
        self.with_row(tenant, lane, |row| {
            row.completed += 1;
            row.queue_micros += queue_micros;
        });
    }

    /// The current rows, sorted by tenant then lane name.
    #[must_use]
    pub fn snapshot(&self) -> Vec<TenantLaneStats> {
        let rows = self.rows.lock().expect("ledger lock");
        let mut snapshot: Vec<TenantLaneStats> = rows
            .iter()
            .map(|((tenant, lane), row)| TenantLaneStats {
                tenant: tenant.clone(),
                lane: lane.name().to_owned(),
                admitted: row.admitted,
                rejected: row.rejected,
                completed: row.completed,
                queue_micros: row.queue_micros,
            })
            .collect();
        snapshot.sort_by(|a, b| (&a.tenant, &a.lane).cmp(&(&b.tenant, &b.lane)));
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_names_and_order_are_stable() {
        assert_eq!(LANES.map(Lane::name), ["interactive", "standard", "batch"]);
        assert!(Lane::Interactive < Lane::Standard && Lane::Standard < Lane::Batch);
        for (index, lane) in LANES.iter().enumerate() {
            assert_eq!(lane.index(), index);
        }
    }

    #[test]
    fn lane_weights_parse_both_syntaxes() {
        let bare = LaneWeights::parse("5,3,2").expect("bare parses");
        assert_eq!(
            bare,
            LaneWeights {
                interactive: 5,
                standard: 3,
                batch: 2
            }
        );
        let named = LaneWeights::parse("batch=7, interactive=9").expect("named parses");
        assert_eq!(named.interactive, 9);
        assert_eq!(named.standard, LaneWeights::default().standard);
        assert_eq!(named.batch, 7);
        assert!(LaneWeights::parse("1,2").is_err());
        assert!(LaneWeights::parse("express=1").is_err());
        // A zero weight is clamped at use, never a starved lane.
        let zeroed = LaneWeights::parse("0,0,0").expect("zeros parse");
        assert_eq!(zeroed.credits(), [1, 1, 1]);
    }

    #[test]
    fn quota_parse_round_trips_fields() {
        let quota = TenantQuota::parse("inflight=4, sessions=8, tps=2.5, burst=5").expect("parses");
        assert_eq!(quota.max_inflight, 4);
        assert_eq!(quota.max_sessions, 8);
        assert!((quota.turns_per_sec - 2.5).abs() < 1e-9);
        assert!((quota.burst() - 5.0).abs() < 1e-9);
        assert!(TenantQuota::parse("inflight=x").is_err());
        assert!(TenantQuota::parse("widgets=1").is_err());
        assert_eq!(
            TenantQuota::parse("").expect("empty = unlimited"),
            TenantQuota::default()
        );
    }

    #[test]
    fn qos_config_flag_sets_default_and_overrides() {
        let mut config = QosConfig::new();
        config.apply_quota_flag("inflight=2").expect("default spec");
        config
            .apply_quota_flag("alice:inflight=9,tps=1")
            .expect("tenant spec");
        assert_eq!(config.quota_for("bob").max_inflight, 2);
        assert_eq!(config.quota_for("alice").max_inflight, 9);
        assert!(config.apply_quota_flag(":inflight=1").is_err());
    }

    #[test]
    fn gate_enforces_inflight_quota() {
        let mut config = QosConfig::new();
        config.apply_quota_flag("t1:inflight=2").expect("spec");
        let gate = QosGate::new(config);
        let class = AdmitClass::default();
        gate.try_admit("t1", class).expect("first admit");
        gate.try_admit("t1", class).expect("second admit");
        let rejection = gate.try_admit("t1", class).expect_err("third refused");
        assert_eq!(rejection.reason, RejectReason::Inflight);
        assert!(rejection.retry_after_ms > 0);
        // Another tenant is untouched by t1's quota.
        gate.try_admit("t2", class).expect("other tenant admits");
        gate.release("t1");
        gate.try_admit("t1", class).expect("slot freed");
    }

    #[test]
    fn gate_enforces_session_cap_and_release() {
        let mut config = QosConfig::new();
        config.apply_quota_flag("sessions=1").expect("spec");
        let gate = QosGate::new(config);
        let opens = AdmitClass {
            opens_session: true,
            ..AdmitClass::default()
        };
        gate.try_admit("t", opens).expect("first session");
        let rejection = gate.try_admit("t", opens).expect_err("cap reached");
        assert_eq!(rejection.reason, RejectReason::Sessions);
        // Plain requests still pass — only the session slot is gone.
        gate.try_admit("t", AdmitClass::default())
            .expect("plain ok");
        gate.release_session("t");
        gate.try_admit("t", opens).expect("slot returned");
    }

    #[test]
    fn gate_turn_budget_reports_refill_time() {
        let mut config = QosConfig::new();
        config.apply_quota_flag("tps=1,burst=1").expect("spec");
        let gate = QosGate::new(config);
        let turn = AdmitClass {
            consumes_turn: true,
            ..AdmitClass::default()
        };
        gate.try_admit("t", turn).expect("burst token");
        let rejection = gate.try_admit("t", turn).expect_err("budget empty");
        assert_eq!(rejection.reason, RejectReason::TurnBudget);
        // 1 token/s and an empty bucket: the refill hint is ~1s.
        assert!(rejection.retry_after_ms > 500 && rejection.retry_after_ms <= 1000);
    }

    #[test]
    fn turn_budget_retry_hint_never_rounds_to_zero() {
        // A microscopic deficit must not produce retry_after_ms == 0 —
        // a zero hint invites clients into an immediate-retry busy
        // loop. Both rounding paths are pinned: a sub-millisecond wait
        // ceils up to 1, and an f64-underflow wait (deficit / rate
        // rounding to 0.0 seconds) hits the explicit >= 1 clamp.
        let now = Instant::now();
        let quota = TenantQuota {
            turns_per_sec: 10_000.0,
            turn_burst: 1.0,
            ..TenantQuota::default()
        };
        let mut bucket = TokenBucket {
            tokens: 1.0 - 1e-6,
            last_refill: now,
        };
        // `now` again: zero elapsed time, so no refill masks the case.
        let wait = bucket.try_take(now, &quota).expect_err("short a token");
        assert_eq!(wait, 1, "sub-millisecond waits round up, not down");

        let quota = TenantQuota {
            turns_per_sec: f64::MAX,
            turn_burst: 1.0,
            ..TenantQuota::default()
        };
        let mut bucket = TokenBucket {
            tokens: 1.0 - f64::EPSILON / 2.0,
            last_refill: now,
        };
        let wait = bucket.try_take(now, &quota).expect_err("short a token");
        assert!(wait >= 1, "underflowed waits clamp to >= 1 ms, got {wait}");
    }

    #[test]
    fn fair_queue_is_fifo_per_tenant_and_round_robin_across() {
        let mut queue = FairQueue::new(16, LaneWeights::default());
        for index in 0..3 {
            queue
                .push(Lane::Standard, "a", format!("a{index}"))
                .expect("fits");
        }
        queue
            .push(Lane::Standard, "b", "b0".to_owned())
            .expect("fits");
        let order: Vec<String> = std::iter::from_fn(|| queue.pop().map(|(item, _)| item)).collect();
        // Tenants alternate; a's items stay in submission order.
        assert_eq!(order, ["a0", "b0", "a1", "a2"]);
    }

    #[test]
    fn fair_queue_shares_by_lane_weights() {
        let weights = LaneWeights {
            interactive: 2,
            standard: 1,
            batch: 1,
        };
        let mut queue = FairQueue::new(64, weights);
        for index in 0..8 {
            queue
                .push(Lane::Interactive, "chat", format!("i{index}"))
                .expect("fits");
            queue
                .push(Lane::Batch, "eval", format!("b{index}"))
                .expect("fits");
        }
        let order: Vec<String> = std::iter::from_fn(|| queue.pop().map(|(item, _)| item)).collect();
        // Per cycle: 2 interactive, then (standard empty) 1 batch.
        assert_eq!(order[..6], ["i0", "i1", "b0", "i2", "i3", "b1"]);
        // Once interactive drains, batch still finishes.
        assert_eq!(order.len(), 16);
        assert_eq!(order.last().map(String::as_str), Some("b7"));
    }

    #[test]
    fn fair_queue_bounds_and_drain() {
        let mut queue = FairQueue::new(2, LaneWeights::default());
        queue.push(Lane::Batch, "t", 1).expect("fits");
        queue.push(Lane::Interactive, "t", 2).expect("fits");
        assert!(queue.is_full());
        assert_eq!(queue.push(Lane::Standard, "t", 3), Err(3));
        let drained = queue.drain();
        assert_eq!(drained, vec![2, 1]);
        assert!(queue.is_empty());
    }

    #[test]
    fn ledger_snapshot_is_sorted_and_merges() {
        let ledger = TenantLedger::new();
        ledger.record_admitted("zeta", Lane::Interactive);
        ledger.record_admitted("alpha", Lane::Batch);
        ledger.record_rejected("alpha", Lane::Batch);
        ledger.record_completed("alpha", Lane::Batch, 250);
        let snapshot = ledger.snapshot();
        assert_eq!(snapshot.len(), 2);
        assert_eq!(snapshot[0].tenant, "alpha");
        assert_eq!(snapshot[0].lane, "batch");
        assert_eq!(snapshot[0].rejected, 1);
        assert_eq!(snapshot[0].queue_micros, 250);
        assert_eq!(snapshot[1].tenant, "zeta");

        let merged = merge_rows(&[&snapshot, &snapshot]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].admitted, 2);
        assert_eq!(merged[0].queue_micros, 500);
    }

    #[test]
    fn stats_rows_serialize_round_trip() {
        let row = TenantLaneStats {
            tenant: "alice".to_owned(),
            lane: Lane::Interactive.name().to_owned(),
            admitted: 3,
            rejected: 1,
            completed: 2,
            queue_micros: 777,
        };
        let json = serde_json::to_string(&row).expect("serializes");
        let back: TenantLaneStats = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, row);
    }
}
