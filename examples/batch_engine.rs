//! The job-oriented engine: parallel batches, job handles, the result
//! cache, in-flight request coalescing, and the stats counters.
//!
//! ```sh
//! cargo run --release --example batch_engine
//! ```

use chatpattern::dataset::Style;
use chatpattern::{
    BackendKind, ChatPattern, EngineConfig, Error, GenerateParams, PatternEngine, PatternRequest,
    PatternService, ResponsePayload,
};

fn generate(seed: u64) -> PatternRequest {
    PatternRequest::Generate(GenerateParams {
        style: if seed.is_multiple_of(2) {
            Style::Layer10001
        } else {
            Style::Layer10003
        },
        rows: 16,
        cols: 16,
        count: 1,
        seed,
    })
}

fn main() -> Result<(), Error> {
    let system = std::sync::Arc::new(
        ChatPattern::builder()
            .window(16)
            .training_patterns(8)
            .diffusion_steps(6)
            .seed(1)
            .build()?,
    );

    // Wrap the system in a 4-worker engine — one queue feeding all of
    // them — with a small result cache. Swap `backend` for
    // `BackendKind::Inline` (serial, zero threads) or
    // `BackendKind::Sharded { shards: 2 }` (per-shard queues,
    // key-affine routing) without touching anything else.
    let engine = PatternEngine::with_config(
        std::sync::Arc::clone(&system),
        EngineConfig {
            backend: BackendKind::Sharded { shards: 1 },
            workers: 4,
            queue_depth: 64,
            cache_capacity: 32,
        },
    )?;

    // A 32-request batch: execute_many fans the jobs across the pool;
    // per-request seeds keep the results identical to serial execution.
    let responses = engine.execute_many((0..32).map(generate).collect());
    let produced: usize = responses
        .iter()
        .filter_map(|r| match r {
            Ok(response) => match &response.payload {
                ResponsePayload::Generate(topologies) => Some(topologies.len()),
                _ => None,
            },
            Err(_) => None,
        })
        .sum();
    println!("batch of 32 produced {produced} topologies across 4 workers");

    // Individual submission: a handle per job, waited out of order.
    let early = engine.submit(generate(100))?;
    let late = engine.submit(generate(101))?;
    let late_response = late.wait()?;
    let early_response = early.wait()?;
    println!(
        "out-of-order wait: job 101 exec {} µs (queued {} µs), job 100 exec {} µs",
        late_response.timing.exec_micros,
        late_response.timing.queue_micros,
        early_response.timing.exec_micros,
    );

    // Replaying a seed-identical request hits the LRU cache.
    let replay = engine.submit(generate(777))?.wait()?;
    assert!(!replay.timing.cached, "first execution is a miss");
    let hit = engine.submit(generate(777))?.wait()?;
    assert!(hit.timing.cached, "identical request replays");
    println!(
        "cache: miss took {} µs, hit took {} µs",
        replay.timing.exec_micros, hit.timing.exec_micros
    );

    // Identical requests submitted while one is still in flight
    // coalesce: one backend execution, every handle gets the payload.
    let burst: Vec<_> = (0..4)
        .map(|_| engine.submit_blocking(generate(999)))
        .collect();
    let mut coalesced_replies = 0;
    for handle in burst {
        let response = handle.wait()?;
        coalesced_replies += usize::from(response.timing.coalesced);
    }
    println!(
        "coalescing: 4 identical submits, {} attached to the shared execution",
        coalesced_replies
    );

    let stats = engine.stats();
    println!(
        "stats: submitted={} completed={} failed={} cancelled={} hits={} misses={} \
         coalesced={} queue_depths={:?}",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.cancelled,
        stats.cache_hits,
        stats.cache_misses,
        stats.coalesced,
        stats.queue_depths,
    );
    Ok(())
}
