//! Multi-tenant QoS acceptance suite (ISSUE 7).
//!
//! * **Fairness under flood** — a tenant bursting far past its
//!   in-flight quota collects typed `Overloaded` rejections (with a
//!   retry hint), while a well-behaved tenant on the same engine
//!   completes every request with zero rejections and bounded delay.
//! * **Typed back-pressure over the wire** — the same behaviour
//!   through `cp_net`: an over-quota tenant's envelope is answered
//!   immediately with `kind: "Overloaded"` and `retry_after_ms`, and
//!   the reply arrives *before* the in-flight work finishes (nothing
//!   blocks the connection reader).
//!
//! The weighted-fair queue under the lanes is model-checked separately
//! (`tests/proptest_invariants.rs`), and `tests/router.rs`
//! (`tenants_over_quota_retry_to_completion_and_the_fleet_ledger_agrees`)
//! replays the quota-retry loop through a real router fleet. CI runs
//! this suite inside `cargo test` and again on one CPU (`taskset -c
//! 0`); `cargo test --test qos` names a QoS regression.

use chatpattern::qos::{QosConfig, TenantQuota, DEFAULT_RETRY_AFTER_MS};
use chatpattern::{
    EngineConfig, Error, GenerateParams, PatternEngine, PatternRequest, PatternResponse,
    PatternService, RequestEnvelope, ResponsePayload, SessionStats, Timing, WireOutcome,
};
use cp_dataset::Style;
use cp_net::{ClientConfig, EngineHandler, EventLoopConfig, EventLoopServer, NdjsonClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A service that just sleeps: QoS behaviour without model-build cost.
struct SleepService {
    delay: Duration,
}

impl PatternService for SleepService {
    fn execute(&self, _request: PatternRequest) -> Result<PatternResponse, Error> {
        std::thread::sleep(self.delay);
        Ok(PatternResponse {
            payload: ResponsePayload::Generate(Vec::new()),
            timing: Timing::direct(self.delay.as_micros() as u64),
        })
    }

    fn session_stats(&self) -> SessionStats {
        SessionStats::default()
    }
}

fn generate(seed: u64) -> PatternRequest {
    PatternRequest::Generate(GenerateParams {
        style: Style::Layer10001,
        rows: 8,
        cols: 8,
        count: 1,
        seed,
    })
}

fn quota_engine(delay: Duration, tenant: &str, quota: TenantQuota) -> PatternEngine<SleepService> {
    let mut qos = QosConfig::new();
    qos.tenant_quotas.insert(tenant.to_owned(), quota);
    PatternEngine::with_qos(
        SleepService { delay },
        EngineConfig {
            workers: 2,
            queue_depth: 64,
            cache_capacity: 0,
        },
        qos,
    )
    .expect("valid config")
}

#[test]
fn flooding_tenant_throttled_calm_tenant_unharmed() {
    let engine = quota_engine(
        Duration::from_millis(15),
        "flood",
        TenantQuota {
            max_inflight: 2,
            ..TenantQuota::default()
        },
    );

    // The flood: 20 submissions against an in-flight quota of 2.
    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    for seed in 0..20 {
        match engine.submit_as(Some("flood"), generate(seed)) {
            Ok(handle) => accepted.push(handle),
            Err(Error::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "rejections carry a retry hint");
                rejected += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert!(rejected > 0, "the burst must overrun the quota");
    assert_eq!(accepted.len() as u64 + rejected, 20);

    // The calm tenant, mid-flood: every request admitted, served and
    // done within a bound that is generous against scheduler noise
    // but far below a starved queue's worst case.
    for seed in 100..105 {
        let started = Instant::now();
        let handle = engine
            .submit_as(Some("calm"), generate(seed))
            .expect("calm tenant is never rejected");
        handle.wait().expect("calm tenant request completes");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "calm tenant delay must stay bounded"
        );
    }
    for handle in accepted {
        handle.wait().expect("admitted flood work still completes");
    }

    let stats = engine.stats();
    let row = |tenant: &str| {
        stats
            .tenants
            .iter()
            .filter(|r| r.tenant == tenant)
            .fold((0u64, 0u64, 0u64), |a, r| {
                (a.0 + r.admitted, a.1 + r.rejected, a.2 + r.completed)
            })
    };
    let (f_admitted, f_rejected, f_completed) = row("flood");
    assert_eq!(f_rejected, rejected);
    assert_eq!(f_admitted, f_completed, "every admitted flood job ran");
    let (c_admitted, c_rejected, c_completed) = row("calm");
    assert_eq!((c_admitted, c_rejected, c_completed), (5, 0, 5));
}

#[test]
fn overloaded_surfaces_typed_over_the_wire_without_blocking() {
    let engine = Arc::new(quota_engine(
        Duration::from_millis(300),
        "flood",
        TenantQuota {
            max_inflight: 1,
            ..TenantQuota::default()
        },
    ));
    let server = EventLoopServer::bind("127.0.0.1:0", EventLoopConfig::default()).expect("binds");
    let addr = server.local_addr().to_string();
    let handle = server
        .spawn(Arc::new(EngineHandler::new(engine)))
        .expect("loop starts");

    let mut client = NdjsonClient::connect(&addr, ClientConfig::default()).expect("connects");
    let envelope = |id: u64, tenant: &str, seed: u64| RequestEnvelope {
        id: serde_json::to_value(&id),
        tenant: Some(tenant.to_owned()),
        request: generate(seed),
    };
    // Pipeline: one slow job fills the quota, then an over-quota
    // request and a calm tenant's request.
    let started = Instant::now();
    client.send(&envelope(1, "flood", 1)).expect("sends");
    client.send(&envelope(2, "flood", 2)).expect("sends");
    client.send(&envelope(3, "calm", 3)).expect("sends");

    // First reply must be the typed rejection for id 2 — answered
    // while the 300 ms job is still running, proving the reader was
    // not blocked behind it.
    let first = client.recv().expect("receives");
    assert_eq!(first.id.as_u64(), Some(2));
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "the rejection must not wait for the in-flight job"
    );
    match first.outcome {
        WireOutcome::Err(error) => {
            assert_eq!(error.kind, "Overloaded");
            assert_eq!(
                error.retry_after_ms,
                Some(DEFAULT_RETRY_AFTER_MS),
                "inflight rejections use the default backoff hint"
            );
        }
        WireOutcome::Ok(_) => panic!("over-quota request must fail"),
    }

    // The calm tenant and the in-flight flood job both complete Ok.
    let mut ok_ids = Vec::new();
    for _ in 0..2 {
        let reply = client.recv().expect("receives");
        match reply.outcome {
            WireOutcome::Ok(_) => ok_ids.push(reply.id.as_u64().expect("numeric id")),
            WireOutcome::Err(error) => panic!("unexpected wire error {error:?}"),
        }
    }
    ok_ids.sort_unstable();
    assert_eq!(ok_ids, vec![1, 3]);
    handle.shutdown();
}
