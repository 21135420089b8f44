//! The two wire workloads: one seeded request mix sent to a real
//! `chatpattern-serve` child, or — byte for byte the same stream —
//! through a real `chatpattern-router` in front of serve workers.

use crate::common::{check_delivered, Env, Loaded, Tally, QUALITY_SEED};
use crate::inproc::EngineTimes;
use crate::procs::{LineClient, Server};
use crate::rounds::{run_rounds, Pace, Round, Slice};
use crate::stats::{mix, percentile, Fnv, Zipf};
use chatpattern::dataset::Style;
use chatpattern::squish::{Region, Topology};
use chatpattern::{
    ChatPattern, EngineStats, EvaluateParams, GenerateParams, LegalizeParams, ModifyParams,
    PatternRequest, PatternService, RequestEnvelope, ResponseEnvelope, ResponsePayload,
    WireOutcome,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Requests each connection keeps outstanding.
const PIPELINE: usize = 4;
/// Uploaded topologies the Legalize / Modify / Evaluate requests draw on.
const POOL: usize = 32;
/// Popular `Generate` keys (Zipf-ranked).
const HOT_KEYS: usize = 64;
/// Topologies per `Evaluate` library.
const EVALUATE_LIBRARY: usize = 8;
/// One reply in this many is compared byte for byte with the
/// in-process result of the same request.
const COMPARE_EVERY: u64 = 50;
/// The server's result-cache size (`--cache-capacity`).
const CACHE_CAPACITY: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Legalize,
    HotGenerate,
    UniqueGenerate,
    Modify,
    Evaluate,
    Stats,
}

/// The mix, as one block of twenty requests: 40 % Legalize, 25 % hot
/// Generate, 15 % unique Generate, 10 % Modify, 5 % Evaluate, 5 % Stats.
/// Every block holds exactly these, in a seeded order — a mix drawn
/// request by request would make the share of 24 ms requests, and
/// with it the throughput, wander from seed to seed.
const BLOCK: [Kind; 20] = {
    use Kind::{Evaluate, HotGenerate, Legalize, Modify, Stats, UniqueGenerate};
    [
        Legalize,
        Legalize,
        Legalize,
        Legalize,
        Legalize,
        Legalize,
        Legalize,
        Legalize,
        HotGenerate,
        HotGenerate,
        HotGenerate,
        HotGenerate,
        HotGenerate,
        UniqueGenerate,
        UniqueGenerate,
        UniqueGenerate,
        Modify,
        Modify,
        Evaluate,
        Stats,
    ]
};

/// The seeded request stream. Request `i` is a pure function of
/// `(seed, i)`, so any connection can build it and both wire
/// workloads send the identical stream. The uploaded topologies and
/// the popular keys are the same for every seed (a site's library and
/// its favourites do not change with the visitor); which of them a
/// request names, the order of kinds and every request seed follow the
/// seed — `QUALITY_SEED` inside the quality prefix, `--seed` after it.
pub struct Mix {
    seed: u64,
    prefix: u64,
    window: usize,
    frame_nm: i64,
    pool: Vec<Topology>,
    pool_json: Vec<String>,
    placeholder_json: String,
    /// Popularity of the hot keys.
    popularity: Zipf,
}

impl Mix {
    /// Uploaded topologies come from an in-process reference system
    /// (the same model configuration the server runs).
    pub fn new(env: &Env, reference: &ChatPattern) -> Result<Mix, String> {
        let window = env.scale.window;
        let mut pool = Vec::with_capacity(POOL);
        for p in 0..POOL as u64 {
            let style = Style::ALL[(p % 2) as usize];
            let mut generated = reference
                .generate(style, window, window, 1, mix(QUALITY_SEED, 9_000_000 + p))
                .map_err(|e| format!("cannot generate pool topology {p}: {e}"))?;
            pool.push(generated.remove(0));
        }
        let to_json = |t: &Topology| {
            serde_json::to_string(t).map_err(|e| format!("cannot serialize a topology: {e}"))
        };
        let pool_json = pool.iter().map(to_json).collect::<Result<_, _>>()?;
        Ok(Mix {
            seed: env.seed,
            prefix: env.scale.prefix_requests as u64,
            window,
            frame_nm: env.scale.frame_nm(1),
            pool,
            pool_json,
            placeholder_json: to_json(&placeholder())?,
            popularity: Zipf::new(HOT_KEYS),
        })
    }

    /// Seeded draw number `lane` of request `index`.
    fn draw(&self, index: u64, lane: u64) -> u64 {
        let master = if index < self.prefix {
            QUALITY_SEED
        } else {
            self.seed
        };
        mix(master, index * 4 + lane)
    }

    /// The kind of request `index`: its block's seeded shuffle of
    /// [`BLOCK`] (Fisher–Yates on the block's own draws).
    pub fn kind(&self, index: u64) -> Kind {
        let len = BLOCK.len() as u64;
        let first = index / len * len;
        let mut order = BLOCK;
        for k in (1..BLOCK.len()).rev() {
            let j = self.draw(first, 3 + 4 * k as u64) % (k as u64 + 1);
            order.swap(k, j as usize);
        }
        order[(index - first) as usize]
    }

    fn pool_index(&self, index: u64) -> usize {
        (self.draw(index, 1) % POOL as u64) as usize
    }

    /// Zipf(1.0)-ranked popular key of request `index`.
    fn hot_rank(&self, index: u64) -> usize {
        // Draws are below 2^53: the top 42 bits make a uniform [0, 1).
        let u = (self.draw(index, 1) >> 11) as f64 / (1u64 << 42) as f64;
        self.popularity.rank(u)
    }

    /// The central half of the window (a quarter of its cells).
    pub fn modify_region(&self) -> Region {
        let w = self.window;
        Region::new(w / 4, w / 4, w - w / 4, w - w / 4)
    }

    fn generate(&self, seed: u64, style: usize) -> PatternRequest {
        PatternRequest::Generate(GenerateParams {
            style: Style::ALL[style % 2],
            rows: self.window,
            cols: self.window,
            count: 1,
            seed,
        })
    }

    /// Request `index` with `topology(pool index)` in every topology
    /// position.
    fn request_with(&self, index: u64, topology: impl Fn(usize) -> Topology) -> PatternRequest {
        let p = self.pool_index(index);
        let seed = self.draw(index, 2);
        match self.kind(index) {
            Kind::Legalize => PatternRequest::Legalize(LegalizeParams {
                topology: topology(p),
                width_nm: self.frame_nm,
                height_nm: self.frame_nm,
                seed,
            }),
            Kind::HotGenerate => {
                let rank = self.hot_rank(index);
                self.generate(mix(QUALITY_SEED, 20_000_000 + rank as u64), rank)
            }
            Kind::UniqueGenerate => self.generate(seed, p),
            Kind::Modify => PatternRequest::Modify(ModifyParams {
                known: topology(p),
                region: self.modify_region(),
                style: Style::ALL[p % 2],
                seed,
            }),
            Kind::Evaluate => PatternRequest::Evaluate(EvaluateParams {
                topologies: (0..EVALUATE_LIBRARY)
                    .map(|k| topology((p + k) % POOL))
                    .collect(),
                frame_nm: self.frame_nm,
                seed,
            }),
            Kind::Stats => PatternRequest::Stats,
        }
    }

    /// The typed request (what the reference system executes).
    pub fn request(&self, index: u64) -> PatternRequest {
        self.request_with(index, |p| self.pool[p].clone())
    }

    /// The wire line, newline-terminated. Small parts go through the
    /// product's serializer; the 33 KB topologies are spliced in from
    /// their cached JSON so building a line costs one copy — the load
    /// generator must not compete with the server for the CPUs.
    pub fn line(&self, index: u64) -> String {
        let envelope = RequestEnvelope {
            id: serde_json::to_value(&index),
            tenant: None,
            request: self.request_with(index, |_| placeholder()),
        };
        let skeleton = serde_json::to_string(&envelope).expect("the serializer is infallible");
        let p = self.pool_index(index);
        let splices = skeleton.matches(&self.placeholder_json).count();
        let mut line = String::with_capacity(skeleton.len() + splices * self.pool_json[p].len());
        let mut rest = skeleton.as_str();
        let mut k = 0;
        while let Some(at) = rest.find(&self.placeholder_json) {
            line.push_str(&rest[..at]);
            line.push_str(&self.pool_json[(p + k) % POOL]);
            rest = &rest[at + self.placeholder_json.len()..];
            k += 1;
        }
        line.push_str(rest);
        line.push('\n');
        line
    }

    /// Setup self-check: the spliced line of every kind must be the
    /// very bytes the product's serializer gives for the typed request.
    pub fn check_lines(&self) -> Result<(), String> {
        let mut seen = Vec::new();
        for index in 0..2_000 {
            let kind = self.kind(index);
            if seen.contains(&kind) {
                continue;
            }
            seen.push(kind);
            let typed = serde_json::to_string(&RequestEnvelope {
                id: serde_json::to_value(&index),
                tenant: None,
                request: self.request(index),
            })
            .expect("the serializer is infallible");
            if self.line(index).trim_end() != typed {
                return Err(format!(
                    "spliced {kind:?} line differs from the serialized request"
                ));
            }
            if seen.len() == 6 {
                return Ok(());
            }
        }
        Err(format!("the mix never produced every kind (saw {seen:?})"))
    }
}

fn placeholder() -> Topology {
    Topology::filled(1, 1, false)
}

/// The flags the harness passes to the product binaries — nothing
/// else (README.md pins this list).
pub fn serve_args(env: &Env, workers: usize) -> Vec<String> {
    let mut args = vec!["--listen".to_owned(), "127.0.0.1:0".to_owned()];
    args.extend(engine_flags(env, workers));
    args
}

fn engine_flags(env: &Env, workers: usize) -> Vec<String> {
    let mut flags = env.scale.serve_flags();
    flags.extend(
        [
            "--workers",
            &workers.to_string(),
            "--cache-capacity",
            &CACHE_CAPACITY.to_string(),
        ]
        .map(str::to_owned),
    );
    flags
}

/// One serve child per CPU with one engine thread each: the same
/// engine threads in total as `serve_tcp_mixed`.
pub fn router_args(env: &Env) -> Vec<String> {
    let mut args = vec![
        "--listen".to_owned(),
        "127.0.0.1:0".to_owned(),
        "--workers".to_owned(),
        env.cpus.to_string(),
    ];
    for flag in engine_flags(env, 1) {
        args.push("--serve-arg".to_owned());
        args.push(flag);
    }
    args
}

pub fn spawn_server(env: &Env, via_router: bool) -> Result<Server, String> {
    if via_router {
        Server::spawn(
            "chatpattern-router",
            &router_args(env),
            Some("{\"id\":0,\"control\":\"Shutdown\"}\n"),
        )
    } else {
        Server::spawn("chatpattern-serve", &serve_args(env, env.cpus), None)
    }
}

/// The numeric id a reply line carries, without parsing the line.
fn reply_id(line: &str) -> Option<u64> {
    let digits = line.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// A reply kept for validation after the clock stops.
struct Reply {
    round: usize,
    index: u64,
    latency_ms: f64,
    arrived: Instant,
    request_bytes: usize,
    line: String,
}

/// One slice on one closed-loop connection: keeps [`PIPELINE`]
/// requests outstanding until the deadline, then drains. Latency is
/// stamped the moment a reply line arrives; nothing is parsed on the
/// clock.
fn connection(
    env: &Env,
    mix: &Mix,
    client: &mut LineClient,
    next: &AtomicU64,
    (round, deadline): (usize, Instant),
    tally: &mut Tally,
    replies: &mut Vec<Reply>,
) -> Result<(), String> {
    let mut sent: Vec<(u64, Instant, usize)> = Vec::with_capacity(PIPELINE);
    loop {
        while sent.len() < PIPELINE && Instant::now() < deadline {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let line = mix.line(index);
            tally.attempted += 1;
            sent.push((index, Instant::now(), line.len()));
            client.send(&line)?;
        }
        if sent.is_empty() {
            return Ok(());
        }
        let line = client.recv()?;
        let arrived = Instant::now();
        let Some(at) = reply_id(&line).and_then(|id| sent.iter().position(|s| s.0 == id)) else {
            tally.fail(format!(
                "a reply does not answer an outstanding request: {:.80}",
                line
            ));
            continue;
        };
        let (index, sent_at, request_bytes) = sent.swap_remove(at);
        env.tracer
            .record("op.request", index, None, sent_at, arrived);
        replies.push(Reply {
            round,
            index,
            latency_ms: (arrived - sent_at).as_secs_f64() * 1e3,
            arrived,
            request_bytes,
            line,
        });
    }
}

/// What validating one connection's replies yields.
#[derive(Default)]
struct Checked {
    tally: Tally,
    times: EngineTimes,
    /// Per round: latency (ms) of the validated replies, and when
    /// the round's last reply arrived.
    rounds: Vec<(Vec<f64>, Option<Instant>)>,
    outside_engine_ms: Vec<f64>,
    request_bytes: usize,
    reply_bytes: usize,
    samples: u64,
    /// What the replies inside the quality prefix delivered.
    prefix: Vec<(u64, PrefixReply)>,
}

/// One reply of the quality prefix.
#[derive(Clone)]
struct PrefixReply {
    payload_digest: u64,
    /// For a `Legalize`: whether it came back DRC-clean.
    legal: Option<bool>,
    /// For a `Generate`: the topology.
    generated: Option<Topology>,
}

/// The payload JSON inside an `Ok` reply line.
fn payload_json(line: &str) -> Option<&str> {
    let start = line.find("\"payload\":")? + "\"payload\":".len();
    let end = line.rfind(",\"timing\":")?;
    line.get(start..end)
}

fn validate(
    env: &Env,
    mix: &Mix,
    reference: &ChatPattern,
    replies: Vec<Reply>,
    checked: &mut Checked,
) {
    let shape = (mix.window, mix.window);
    for reply in replies {
        let index = reply.index;
        let kind = mix.kind(index);
        checked.request_bytes += reply.request_bytes;
        checked.reply_bytes += reply.line.len();
        if checked.rounds.len() <= reply.round {
            checked.rounds.resize(reply.round + 1, (Vec::new(), None));
        }
        let last_arrived = &mut checked.rounds[reply.round].1;
        *last_arrived = (*last_arrived).max(Some(reply.arrived));
        let envelope: ResponseEnvelope = match serde_json::from_str(&reply.line) {
            Ok(envelope) => envelope,
            Err(error) => {
                checked
                    .tally
                    .fail(format!("reply {index} does not parse: {error}"));
                continue;
            }
        };
        let in_prefix = (index as usize) < env.scale.prefix_requests;
        let response = match envelope.outcome {
            WireOutcome::Ok(response) => response,
            // Illegal at this frame: a quality outcome, not a failure.
            WireOutcome::Err(error) if kind == Kind::Legalize && error.kind == "Legalize" => {
                if in_prefix {
                    checked.prefix.push((
                        index,
                        PrefixReply {
                            payload_digest: 0,
                            legal: Some(false),
                            generated: None,
                        },
                    ));
                }
                continue;
            }
            WireOutcome::Err(error) => {
                checked.tally.fail(format!(
                    "request {index} ({kind:?}): {}: {}",
                    error.kind, error.message
                ));
                continue;
            }
        };
        let mut generated = None;
        let verdict = match (kind, &response.payload) {
            (Kind::Legalize, ResponsePayload::Legalize(pattern)) => {
                check_delivered(pattern, shape, mix.frame_nm, reference.rules())
            }
            (Kind::HotGenerate | Kind::UniqueGenerate, ResponsePayload::Generate(t))
                if t.len() == 1 && t[0].shape() == shape =>
            {
                generated = Some(t[0].clone());
                Ok(())
            }
            (Kind::Modify, ResponsePayload::Modify(t)) if t.shape() == shape => {
                let known = &mix.pool[mix.pool_index(index)];
                let region = mix.modify_region();
                let kept = t.iter().all(|(r, c, v)| {
                    let inside = (region.row0()..region.row1()).contains(&r)
                        && (region.col0()..region.col1()).contains(&c);
                    inside || v == known.get(r, c)
                });
                if kept {
                    Ok(())
                } else {
                    Err("Modify changed cells outside its region".to_owned())
                }
            }
            (Kind::Evaluate, ResponsePayload::Evaluate(stats))
                if stats.total == EVALUATE_LIBRARY =>
            {
                Ok(())
            }
            (Kind::Stats, ResponsePayload::Stats(_)) => Ok(()),
            (_, other) => Err(format!("answered {:.120}", format!("{other:?}"))),
        };
        if let Err(reason) = verdict {
            checked
                .tally
                .fail(format!("request {index} ({kind:?}): {reason}"));
            continue;
        }
        let payload = payload_json(&reply.line).unwrap_or("");
        if index % COMPARE_EVERY == 7 && kind != Kind::Stats {
            let expected = reference
                .execute(mix.request(index))
                .map(|r| serde_json::to_string(&r.payload).expect("the serializer is infallible"));
            if expected.as_deref() != Ok(payload) {
                checked.tally.fail(format!(
                    "request {index} ({kind:?}): wire payload differs from the in-process result"
                ));
                continue;
            }
        }
        if in_prefix {
            // Stats payloads are counters, different on every run.
            let payload_digest = if kind == Kind::Stats {
                0
            } else {
                crate::stats::fnv1a(payload.as_bytes())
            };
            checked.prefix.push((
                index,
                PrefixReply {
                    payload_digest,
                    legal: (kind == Kind::Legalize).then_some(true),
                    generated,
                },
            ));
        }
        if kind != Kind::Stats {
            checked.times.push(&response.timing);
        }
        if matches!(kind, Kind::UniqueGenerate | Kind::Modify)
            || (kind == Kind::HotGenerate && !response.timing.cached && !response.timing.coalesced)
        {
            checked.samples += 1;
        }
        checked
            .outside_engine_ms
            .push(reply.latency_ms - response.timing.micros as f64 / 1e3);
        checked.rounds[reply.round].0.push(reply.latency_ms);
    }
}

/// The in-band `Stats` request, as a wire line.
pub const STATS_LINE: &str = "{\"id\":0,\"request\":\"Stats\"}\n";

/// Engine counters over the wire (fleet-merged behind a router).
pub fn wire_stats(client: &mut LineClient) -> Result<EngineStats, String> {
    let line = client.round_trip(STATS_LINE)?;
    let envelope: ResponseEnvelope =
        serde_json::from_str(&line).map_err(|e| format!("Stats reply does not parse: {e}"))?;
    match envelope.outcome {
        WireOutcome::Ok(response) => match response.payload {
            ResponsePayload::Stats(stats) => Ok(stats),
            other => Err(format!("Stats answered {other:?}")),
        },
        WireOutcome::Err(error) => Err(format!("Stats failed: {}", error.message)),
    }
}

/// Max over mean of the per-worker completed counts (router `Fleet`
/// control line).
fn shard_skew(client: &mut LineClient) -> Result<f64, String> {
    let line = client.round_trip("{\"id\":0,\"control\":\"Fleet\"}\n")?;
    let value: serde_json::Value =
        serde_json::from_str(&line).map_err(|e| format!("Fleet reply does not parse: {e}"))?;
    let completed: Vec<f64> = value["control"]["Fleet"]["workers"]
        .as_array()
        .ok_or("Fleet reply has no workers")?
        .iter()
        .filter_map(|w| w["stats"]["completed"].as_f64())
        .collect();
    let mean = completed.iter().sum::<f64>() / completed.len().max(1) as f64;
    Ok(completed.iter().fold(0.0f64, |a, &b| a.max(b)) / mean.max(1.0))
}

/// One connection's state across the rounds.
struct Connection {
    client: LineClient,
    tally: Tally,
    replies: Vec<Reply>,
}

pub fn tcp_mixed(env: &Env, via_router: bool) -> Result<Loaded, String> {
    let mut loaded = Loaded::default();
    let reference = env
        .scale
        .builder()
        .build()
        .map_err(|e| format!("reference build failed: {e}"))?;
    let mix = Mix::new(env, &reference)?;
    mix.check_lines()?;
    let server = spawn_server(env, via_router)?;
    let mut connections = (0..env.cpus)
        .map(|_| {
            Ok(Connection {
                client: LineClient::connect(&server.addr)?,
                tally: Tally::default(),
                replies: Vec::new(),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let next = AtomicU64::new(0);
    let mut threads_peak = 0.0f64;
    let slice = |round: usize, deadline: Instant| {
        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = connections
                .iter_mut()
                .map(|c| {
                    let (mix, next) = (&mix, &next);
                    scope.spawn(move || {
                        connection(
                            env,
                            mix,
                            &mut c.client,
                            next,
                            (round, deadline),
                            &mut c.tally,
                            &mut c.replies,
                        )
                    })
                })
                .collect();
            // The main thread only keeps time: one thread-count sample
            // of the server in the middle of the slice.
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()) / 2);
            threads_peak = threads_peak.max(server.threads());
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("connection thread panicked"))
        })?;
        Ok(started)
    };
    // A set-up spawns a whole second server (spawn to `listening on`)
    // while the first one idles, and stops it again.
    let setup = || Ok(spawn_server(env, via_router)?.listen_ms / 1e3);
    let rounds = run_rounds(env, Pace::Timed, setup, slice)?;

    // Off the clock from here: every reply is parsed and validated.
    let mut tally = Tally::default();
    let mut times = EngineTimes::default();
    let mut outside = Vec::new();
    let mut prefix: Vec<Option<PrefixReply>> = vec![None; env.scale.prefix_requests];
    let (mut request_bytes, mut reply_bytes, mut samples) = (0usize, 0usize, 0u64);
    let mut slices: Vec<(Vec<f64>, Option<Instant>)> = vec![(Vec::new(), None); rounds.len()];
    let validated: Vec<Checked> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .map(|c| {
                let (mix, reference) = (&mix, &reference);
                scope.spawn(move || {
                    let mut checked = Checked {
                        tally: c.tally,
                        ..Checked::default()
                    };
                    validate(env, mix, reference, c.replies, &mut checked);
                    checked
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("validation thread panicked"))
            .collect()
    });
    for checked in validated {
        tally.merge(checked.tally);
        times.merge(checked.times);
        outside.extend(checked.outside_engine_ms);
        request_bytes += checked.request_bytes;
        reply_bytes += checked.reply_bytes;
        samples += checked.samples;
        for (slice, (latencies_ms, last_arrived)) in slices.iter_mut().zip(checked.rounds) {
            slice.0.extend(latencies_ms);
            slice.1 = slice.1.max(last_arrived);
        }
        for (index, reply) in checked.prefix {
            prefix[index as usize] = Some(reply);
        }
    }
    loaded.rounds = rounds
        .into_iter()
        .zip(slices)
        .map(|(round, (latencies_ms, last_arrived))| Round {
            slowdown: round.slowdown,
            setup_s: round.setup_s,
            slice: Slice {
                ops: latencies_ms.len() as u64,
                wall_s: last_arrived.map_or(0.0, |last| (last - round.slice).as_secs_f64()),
                latencies_ms,
            },
        })
        .collect();
    let all_ms: Vec<f64> = loaded
        .rounds
        .iter()
        .flat_map(|r| r.slice.latencies_ms.iter().copied())
        .collect();

    // Quality over the fixed prefix: Legalize replies that came back
    // DRC-clean, and the diversity of the generated topologies.
    let done: Vec<&PrefixReply> = prefix.iter().flatten().collect();
    let legalized = done.iter().filter(|p| p.legal.is_some()).count();
    let legal = done.iter().filter(|p| p.legal == Some(true)).count();
    loaded.legality_rate = legal as f64 / legalized.max(1) as f64;
    loaded.diversity_bits =
        chatpattern::metrics::diversity(done.iter().filter_map(|p| p.generated.as_ref()));
    loaded.payload_digest = if done.len() == prefix.len() {
        done.iter()
            .fold(Fnv::new(), |mut f, p| *f.u64(p.payload_digest))
            .0
    } else {
        0
    };

    let mut control = LineClient::connect(&server.addr)?;
    times.fill(&wire_stats(&mut control)?, &mut loaded);
    let replies = all_ms.len().max(1) as f64;
    loaded.layer.extend([
        ("serve.outside_engine_ms", crate::stats::median(&outside)),
        ("serve.threads_peak", threads_peak),
        ("core.wire.req_kb", request_bytes as f64 / replies / 1024.0),
        ("core.wire.reply_kb", reply_bytes as f64 / replies / 1024.0),
        ("cp_diffusion.samples", samples as f64),
        (
            if via_router {
                "router.req_ms_p99"
            } else {
                "serve.req_ms_p99"
            },
            percentile(&all_ms, 99.0),
        ),
    ]);
    if via_router {
        loaded
            .layer
            .insert("router.shard_skew", shard_skew(&mut control)?);
    }
    loaded.peak_rss_mb = server.peak_rss_mb();
    loaded.tally = tally;
    Ok(loaded)
}
