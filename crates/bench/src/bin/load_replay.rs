//! `cp_load` — replay load generator proving the multi-tenant QoS
//! subsystem end to end. Spawns a real `chatpattern-router` fleet
//! (release binaries from this target directory) with a per-tenant
//! in-flight quota and weighted lane credits, then replays a
//! synthetic mixed workload over TCP: every tenant runs a multi-turn
//! chat session (interactive lane), pipelined generate/extend/
//! legalize bursts (standard lane) and a closing library evaluation
//! (batch lane), with the per-tenant operation counts skewed by a
//! Zipf distribution so heavy tenants overrun their quota while
//! light tenants stay inside it. Typed `Overloaded` / `QueueFull`
//! rejections are retried after their `retry_after_ms` hint — the
//! generator is a well-behaved client of the back-pressure contract.
//!
//! Prints per-tenant p50/p95/p99 latency, rejection counts, a Jain
//! fairness index over per-tenant mean service rates, and the
//! fleet-merged per-tenant stats rows, and fails (non-zero exit) when
//! an operation does not complete or the fleet's ledger disagrees with
//! what the clients saw; it records nothing.
//!
//! Scale with `CP_WINDOW`/`CP_TRAIN`/`CP_STEPS` (model size) and:
//! `CP_LOAD_TENANTS` (default 4), `CP_LOAD_OPS` (total standard-lane
//! burst operations across tenants, default 36), `CP_LOAD_BURST`
//! (pipelined burst size, default 6), `CP_LOAD_ZIPF` (skew exponent,
//! default 1.0), `CP_LOAD_WORKERS` (fleet size, default 2),
//! `CP_LOAD_TURNS` (session turns per tenant, default 2),
//! `CP_LOAD_QUOTA` (default-tenant quota spec, default `inflight=3`),
//! `CP_LOAD_LANE_WEIGHTS` (default `4,2,1`).

use chatpattern_core::qos::{jain_index, DEFAULT_RETRY_AFTER_MS, DEFAULT_TENANT};
use chatpattern_core::wire::{RequestEnvelope, ResponseEnvelope, WireOutcome};
use chatpattern_core::{
    EngineStats, EvaluateParams, ExtendParams, GenerateParams, LegalizeParams, PatternRequest,
    ResponsePayload, SessionCloseParams, SessionOpenParams, SessionTurnParams,
};
use cp_bench::BenchConfig;
use cp_dataset::Style;
use cp_extend::ExtensionMethod;
use cp_net::{ClientConfig, NdjsonClient};
use cp_squish::Topology;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Hard cap on re-submissions of one operation: a quota that never
/// frees is a bug, not back-pressure, and must fail loudly.
const MAX_RETRIES_PER_OP: usize = 1000;

struct LoadConfig {
    tenants: usize,
    total_ops: usize,
    burst: usize,
    zipf: f64,
    fleet_workers: usize,
    turns: usize,
    quota: String,
    lane_weights: String,
}

impl LoadConfig {
    fn from_env() -> LoadConfig {
        let get = |name: &str, default: usize| {
            std::env::var(name)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        LoadConfig {
            tenants: get("CP_LOAD_TENANTS", 4).max(1),
            total_ops: get("CP_LOAD_OPS", 36).max(1),
            burst: get("CP_LOAD_BURST", 6).max(1),
            zipf: std::env::var("CP_LOAD_ZIPF")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(1.0),
            fleet_workers: get("CP_LOAD_WORKERS", 2).max(1),
            turns: get("CP_LOAD_TURNS", 2),
            quota: std::env::var("CP_LOAD_QUOTA").unwrap_or_else(|_| "inflight=3".to_owned()),
            lane_weights: std::env::var("CP_LOAD_LANE_WEIGHTS")
                .unwrap_or_else(|_| "4,2,1".to_owned()),
        }
    }

    /// Zipf allocation of the standard-lane burst budget: tenant `i`
    /// gets a share proportional to `1 / (i + 1)^zipf`, at least 1.
    fn allocate_ops(&self) -> Vec<usize> {
        let weights: Vec<f64> = (0..self.tenants)
            .map(|i| 1.0 / ((i + 1) as f64).powf(self.zipf))
            .collect();
        let sum: f64 = weights.iter().sum();
        weights
            .iter()
            .map(|w| (((self.total_ops as f64) * w / sum).round() as usize).max(1))
            .collect()
    }
}

/// Locates a workspace binary next to this executable (they share a
/// target directory); `CHATPATTERN_<NAME>_BIN` overrides.
fn sibling_binary(name: &str) -> Option<std::path::PathBuf> {
    if let Ok(path) = std::env::var(format!(
        "CHATPATTERN_{}_BIN",
        name.replace('-', "_").to_uppercase()
    )) {
        let path = std::path::PathBuf::from(path);
        return path.is_file().then_some(path);
    }
    let path = std::env::current_exe().ok()?.with_file_name(name);
    path.is_file().then_some(path)
}

/// Spawns the router fleet with QoS flags and returns
/// `(child, address)` once the router announces itself.
fn spawn_fleet(
    cfg: &BenchConfig,
    load: &LoadConfig,
) -> Result<(std::process::Child, String), String> {
    let router = sibling_binary("chatpattern-router").ok_or("chatpattern-router not built")?;
    let serve = sibling_binary("chatpattern-serve").ok_or("chatpattern-serve not built")?;
    let mut command = Command::new(router);
    command.args([
        "--listen",
        "127.0.0.1:0",
        "--workers",
        &load.fleet_workers.to_string(),
        "--serve-bin",
    ]);
    command.arg(serve);
    for arg in [
        "--window",
        &cfg.window.to_string(),
        "--training-patterns",
        &cfg.train.to_string(),
        "--diffusion-steps",
        &cfg.steps.to_string(),
        "--workers",
        "2",
        "--seed",
        &cfg.seed.to_string(),
        "--tenant-quota",
        &load.quota,
        "--lane-weights",
        &load.lane_weights,
    ] {
        command.args(["--serve-arg", arg]);
    }
    let mut child = command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("router spawn failed: {e}"))?;
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        match lines.next() {
            Some(Ok(line)) => {
                if let Some(addr) = line.strip_prefix("chatpattern-router: listening on ") {
                    break addr.trim().to_owned();
                }
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("router exited before announcing its address".to_owned());
            }
        }
    };
    std::thread::spawn(move || for _ in lines.by_ref() {});
    Ok((child, addr))
}

/// What one tenant's replay thread measured.
struct TenantOutcome {
    tenant: String,
    ops: usize,
    overloaded: u64,
    queue_full: u64,
    retries: u64,
    latencies_micros: Vec<u64>,
    elapsed: Duration,
}

struct TenantClient {
    client: NdjsonClient,
    tenant: String,
    next_id: u64,
    overloaded: u64,
    queue_full: u64,
    retries: u64,
    latencies_micros: Vec<u64>,
}

impl TenantClient {
    fn envelope(&mut self, request: PatternRequest) -> RequestEnvelope {
        let id = self.next_id;
        self.next_id += 1;
        RequestEnvelope {
            id: serde_json::to_value(&id),
            tenant: Some(self.tenant.clone()),
            request,
        }
    }

    /// Counts a typed back-pressure rejection and returns the retry
    /// hint, or `None` when the error is not a back-pressure kind.
    fn note_rejection(&mut self, kind: &str, retry_after_ms: Option<u64>) -> Option<u64> {
        match kind {
            "Overloaded" => self.overloaded += 1,
            "QueueFull" => self.queue_full += 1,
            _ => return None,
        }
        Some(retry_after_ms.unwrap_or(DEFAULT_RETRY_AFTER_MS))
    }

    /// One closed-loop request, retried through back-pressure until it
    /// completes; records the latency of the successful attempt.
    fn call_retrying(&mut self, request: PatternRequest) -> Result<ResponsePayload, String> {
        for _ in 0..MAX_RETRIES_PER_OP {
            let envelope = self.envelope(request.clone());
            let started = Instant::now();
            self.client
                .send(&envelope)
                .map_err(|e| format!("tenant {}: send failed: {e}", self.tenant))?;
            let reply: ResponseEnvelope = self
                .client
                .recv()
                .map_err(|e| format!("tenant {}: recv failed: {e}", self.tenant))?;
            match reply.outcome {
                WireOutcome::Ok(response) => {
                    self.latencies_micros
                        .push(started.elapsed().as_micros() as u64);
                    return Ok(response.payload);
                }
                WireOutcome::Err(error) => {
                    let Some(hint) = self.note_rejection(&error.kind, error.retry_after_ms) else {
                        return Err(format!(
                            "tenant {}: unexpected wire error {} ({})",
                            self.tenant, error.kind, error.message
                        ));
                    };
                    self.retries += 1;
                    std::thread::sleep(Duration::from_millis(hint));
                }
            }
        }
        Err(format!(
            "tenant {}: request still rejected after {MAX_RETRIES_PER_OP} retries",
            self.tenant
        ))
    }

    /// Replays one pipelined burst: all requests in flight at once,
    /// rejected ones re-sent (after the longest hint in the batch)
    /// until every operation has completed.
    fn burst(&mut self, requests: Vec<PatternRequest>) -> Result<Vec<ResponsePayload>, String> {
        let mut payloads = Vec::with_capacity(requests.len());
        let mut outstanding: HashMap<u64, (PatternRequest, Instant)> = HashMap::new();
        let mut rounds = 0usize;
        let mut pending = requests;
        while !pending.is_empty() {
            rounds += 1;
            if rounds > MAX_RETRIES_PER_OP {
                return Err(format!(
                    "tenant {}: burst still rejected after {MAX_RETRIES_PER_OP} rounds",
                    self.tenant
                ));
            }
            for request in pending.drain(..) {
                let envelope = self.envelope(request.clone());
                let id = envelope.id.as_u64().expect("numeric id");
                self.client
                    .send(&envelope)
                    .map_err(|e| format!("tenant {}: send failed: {e}", self.tenant))?;
                outstanding.insert(id, (request, Instant::now()));
            }
            let mut hint = 0u64;
            while !outstanding.is_empty() {
                let reply: ResponseEnvelope = self
                    .client
                    .recv()
                    .map_err(|e| format!("tenant {}: recv failed: {e}", self.tenant))?;
                let id = reply
                    .id
                    .as_u64()
                    .ok_or_else(|| format!("tenant {}: non-numeric reply id", self.tenant))?;
                let (request, sent) = outstanding
                    .remove(&id)
                    .ok_or_else(|| format!("tenant {}: unknown reply id {id}", self.tenant))?;
                match reply.outcome {
                    WireOutcome::Ok(response) => {
                        self.latencies_micros
                            .push(sent.elapsed().as_micros() as u64);
                        payloads.push(response.payload);
                    }
                    WireOutcome::Err(error) => {
                        let Some(h) = self.note_rejection(&error.kind, error.retry_after_ms) else {
                            return Err(format!(
                                "tenant {}: unexpected wire error {} ({})",
                                self.tenant, error.kind, error.message
                            ));
                        };
                        hint = hint.max(h);
                        self.retries += 1;
                        pending.push(request);
                    }
                }
            }
            if !pending.is_empty() {
                std::thread::sleep(Duration::from_millis(hint));
            }
        }
        Ok(payloads)
    }
}

/// One tenant's full replay: session dialog, seeded mixed bursts, and
/// a closing batch evaluation.
fn run_tenant(
    addr: &str,
    index: usize,
    cfg: &BenchConfig,
    load: &LoadConfig,
    ops: usize,
) -> Result<TenantOutcome, String> {
    let tenant = format!("t{index}");
    let started = Instant::now();
    let client = NdjsonClient::connect(addr, ClientConfig::default())
        .map_err(|e| format!("tenant {tenant}: dial failed: {e}"))?;
    let mut tc = TenantClient {
        client,
        tenant: tenant.clone(),
        next_id: 0,
        overloaded: 0,
        queue_full: 0,
        retries: 0,
        latencies_micros: Vec::new(),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (0x10ad << 16) ^ index as u64);
    let mut expected = 0usize;

    // Interactive lane: a short multi-turn chat session.
    let session = format!("load-{tenant}");
    let utterance = format!(
        "Generate 1 pattern, topology size {w}*{w}, physical size {f}nm x {f}nm, \
         style Layer-10001.",
        w = cfg.window,
        f = cfg.frame_nm(cfg.window),
    );
    tc.call_retrying(PatternRequest::SessionOpen(SessionOpenParams {
        session: session.clone(),
        seed: Some(index as u64),
    }))?;
    expected += 1;
    for _ in 0..load.turns {
        tc.call_retrying(PatternRequest::SessionTurn(SessionTurnParams {
            session: session.clone(),
            utterance: utterance.clone(),
        }))?;
        expected += 1;
    }
    tc.call_retrying(PatternRequest::SessionClose(SessionCloseParams {
        session: session.clone(),
    }))?;
    expected += 1;

    // Seed topology for the extend / legalize / evaluate operations.
    let seed_base = (index as u64) << 20;
    let payload = tc.call_retrying(PatternRequest::Generate(GenerateParams {
        style: Style::Layer10001,
        rows: cfg.window,
        cols: cfg.window,
        count: 1,
        seed: seed_base,
    }))?;
    expected += 1;
    let ResponsePayload::Generate(mut topologies) = payload else {
        return Err(format!(
            "tenant {tenant}: generate returned a non-generate payload"
        ));
    };
    let seed_topology: Topology = topologies
        .pop()
        .ok_or_else(|| format!("tenant {tenant}: generate returned no topology"))?;

    // Standard lane: pipelined mixed bursts. Distinct seeds per
    // operation keep the requests out of the cache and the in-flight
    // coalescer — the load must be real executions.
    let mut remaining = ops;
    let mut op_seed = seed_base;
    while remaining > 0 {
        let n = remaining.min(load.burst);
        remaining -= n;
        let requests: Vec<PatternRequest> = (0..n)
            .map(|_| {
                op_seed += 1;
                match rng.gen_range(0..10u32) {
                    0..=5 => PatternRequest::Generate(GenerateParams {
                        style: Style::Layer10001,
                        rows: cfg.window,
                        cols: cfg.window,
                        count: 1,
                        seed: op_seed,
                    }),
                    6..=7 => PatternRequest::Extend(ExtendParams {
                        seed_topology: seed_topology.clone(),
                        rows: cfg.window * 3 / 2,
                        cols: cfg.window * 3 / 2,
                        method: ExtensionMethod::OutPainting,
                        style: Style::Layer10001,
                        seed: op_seed,
                    }),
                    _ => PatternRequest::Legalize(LegalizeParams {
                        topology: seed_topology.clone(),
                        width_nm: cfg.frame_nm(cfg.window),
                        height_nm: cfg.frame_nm(cfg.window),
                        seed: op_seed,
                    }),
                }
            })
            .collect();
        expected += n;
        tc.burst(requests)?;
    }

    // Batch lane: one library evaluation over the seed topology.
    tc.call_retrying(PatternRequest::Evaluate(EvaluateParams {
        topologies: vec![seed_topology],
        frame_nm: cfg.frame_nm(cfg.window),
        seed: seed_base,
    }))?;
    expected += 1;

    if tc.latencies_micros.len() != expected {
        return Err(format!(
            "tenant {tenant}: completed {} of {expected} operations",
            tc.latencies_micros.len()
        ));
    }
    Ok(TenantOutcome {
        tenant,
        ops: expected,
        overloaded: tc.overloaded,
        queue_full: tc.queue_full,
        retries: tc.retries,
        latencies_micros: tc.latencies_micros,
        elapsed: started.elapsed(),
    })
}

fn percentile(sorted_micros: &[u64], q: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let idx = (((sorted_micros.len() - 1) as f64) * q).round() as usize;
    sorted_micros[idx]
}

/// Fetches the fleet-merged engine stats through the router.
fn fleet_stats(addr: &str) -> Result<EngineStats, String> {
    let mut client = NdjsonClient::connect(addr, ClientConfig::default())
        .map_err(|e| format!("stats dial failed: {e}"))?;
    let reply = client
        .call(&RequestEnvelope {
            id: serde_json::to_value(&0u64),
            tenant: None,
            request: PatternRequest::Stats,
        })
        .map_err(|e| format!("stats call failed: {e}"))?;
    match reply.outcome {
        WireOutcome::Ok(response) => match response.payload {
            ResponsePayload::Stats(stats) => Ok(stats),
            other => Err(format!("stats returned a non-stats payload {other:?}")),
        },
        WireOutcome::Err(error) => Err(format!("stats errored: {}", error.message)),
    }
}

fn main() {
    let cfg = BenchConfig::from_env();
    let load = LoadConfig::from_env();
    cfg.print_banner("QoS replay load generator: multi-tenant mixed workload over a router fleet");
    println!(
        "fleet: {} worker(s), quota {:?} per tenant, lane weights {}",
        load.fleet_workers, load.quota, load.lane_weights
    );
    println!(
        "load: {} tenant(s), {} burst ops (Zipf s={}), burst {}, {} session turn(s) each",
        load.tenants, load.total_ops, load.zipf, load.burst, load.turns
    );

    let (mut child, addr) = match spawn_fleet(&cfg, &load) {
        Ok(spawned) => spawned,
        Err(reason) => {
            eprintln!("load_replay: cannot run: {reason}");
            std::process::exit(1);
        }
    };
    let allocation = load.allocate_ops();
    let wall = Instant::now();
    let outcomes: Vec<Result<TenantOutcome, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = allocation
            .iter()
            .enumerate()
            .map(|(index, &ops)| {
                let addr = addr.as_str();
                let cfg = &cfg;
                let load = &load;
                scope.spawn(move || run_tenant(addr, index, cfg, load, ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let wall_millis = wall.elapsed().as_secs_f64() * 1e3;

    let mut failed = false;
    let mut tenants = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(tenant) => tenants.push(tenant),
            Err(reason) => {
                eprintln!("load_replay FAILED: {reason}");
                failed = true;
            }
        }
    }
    let stats = if failed {
        let _ = child.kill();
        let _ = child.wait();
        std::process::exit(1);
    } else {
        let stats = fleet_stats(&addr);
        // Graceful teardown takes the spawned workers down too.
        if let Ok(mut client) = NdjsonClient::connect(&addr, ClientConfig::default()) {
            let _ = client.send_line(r#"{"id":"load-bye","control":"Shutdown"}"#);
            let _ = client.recv_line();
        }
        let _ = child.wait();
        stats.unwrap_or_else(|reason| {
            eprintln!("load_replay FAILED: {reason}");
            std::process::exit(1);
        })
    };

    println!("\nper-tenant latency (closed-loop over the fleet):");
    let mut rates = Vec::new();
    let mut total_overloaded = 0u64;
    let mut total_queue_full = 0u64;
    let mut total_retries = 0u64;
    let mut total_ops = 0usize;
    for outcome in &mut tenants {
        outcome.latencies_micros.sort_unstable();
        let p50 = percentile(&outcome.latencies_micros, 0.50);
        let p95 = percentile(&outcome.latencies_micros, 0.95);
        let p99 = percentile(&outcome.latencies_micros, 0.99);
        #[allow(clippy::cast_precision_loss)]
        let mean_micros = outcome.latencies_micros.iter().sum::<u64>() as f64
            / outcome.latencies_micros.len() as f64;
        // Service rate seen by this tenant's requests: the fairness
        // claim is that per-request service is tenant-independent.
        rates.push(1e6 / mean_micros.max(1.0));
        total_overloaded += outcome.overloaded;
        total_queue_full += outcome.queue_full;
        total_retries += outcome.retries;
        total_ops += outcome.ops;
        println!(
            "  {:<4} {:3} ops  p50 {:7} us  p95 {:7} us  p99 {:7} us  \
             {} overloaded, {} queue-full, {} retries, {:.1} ms wall",
            outcome.tenant,
            outcome.ops,
            p50,
            p95,
            p99,
            outcome.overloaded,
            outcome.queue_full,
            outcome.retries,
            outcome.elapsed.as_secs_f64() * 1e3,
        );
    }
    let fairness = jain_index(&rates);
    #[allow(clippy::cast_precision_loss)]
    let rps = total_ops as f64 / (wall_millis / 1e3);
    println!(
        "\ntotal: {total_ops} ops in {wall_millis:.1} ms ({rps:.1} ops/s), \
         {total_overloaded} overloaded + {total_queue_full} queue-full rejections, \
         {total_retries} retries"
    );
    println!("fairness (Jain index over per-tenant mean service rates): {fairness:.3}");

    // The fleet-merged per-tenant rows are the server-side half of the
    // proof: every tenant must have been accounted, and the ledger's
    // rejection counts must match what the clients saw on the wire.
    let mut fleet_rejected = 0u64;
    println!("\nfleet-merged tenant rows (router Stats):");
    for row in &stats.tenants {
        println!(
            "  tenant={} lane={} admitted={} rejected={} completed={} queue_micros={}",
            row.tenant, row.lane, row.admitted, row.rejected, row.completed, row.queue_micros
        );
        if row.tenant != DEFAULT_TENANT {
            fleet_rejected += row.rejected;
        }
    }
    for outcome in &tenants {
        let admitted: u64 = stats
            .tenants
            .iter()
            .filter(|r| r.tenant == outcome.tenant)
            .map(|r| r.admitted)
            .sum();
        assert!(
            admitted >= outcome.ops as u64,
            "fleet rows must account tenant {} ({admitted} admitted < {} ops)",
            outcome.tenant,
            outcome.ops
        );
    }
    assert_eq!(
        fleet_rejected, total_overloaded,
        "the fleet ledger's rejection count must match the typed Overloaded replies"
    );
}
