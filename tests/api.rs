//! Tests of the unified `PatternService` request/response API and the
//! workspace-wide error type, exercised through the facade crate the
//! way an external caller would.

use chatpattern::dataset::Style;
use chatpattern::extend::ExtensionMethod;
use chatpattern::squish::{Region, Topology};
use chatpattern::{
    ChatParams, ChatPattern, Error, EvaluateParams, ExtendParams, GenerateParams, LegalizeParams,
    ModifyParams, PatternRequest, PatternResponse, PatternService, ResponsePayload,
    MAX_REQUEST_CELLS,
};

fn small_system(seed: u64) -> ChatPattern {
    ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(seed)
        .build()
        .expect("valid configuration")
}

#[test]
fn every_request_variant_survives_a_json_round_trip() {
    let topology = Topology::from_fn(6, 6, |r, c| (r * c) % 3 == 0);
    let requests = vec![
        PatternRequest::Chat(ChatParams {
            request: "Generate 4 patterns at 16*16, style Layer-10001.".into(),
            seed: None,
        }),
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 16,
            cols: 16,
            count: 3,
            seed: 11,
        }),
        PatternRequest::Extend(ExtendParams {
            seed_topology: topology.clone(),
            rows: 32,
            cols: 32,
            method: ExtensionMethod::OutPainting,
            style: Style::Layer10003,
            seed: 12,
        }),
        PatternRequest::Modify(ModifyParams {
            known: topology.clone(),
            region: Region::new(1, 1, 4, 4),
            style: Style::Layer10003,
            seed: 13,
        }),
        PatternRequest::Legalize(LegalizeParams {
            topology: topology.clone(),
            width_nm: 400,
            height_nm: 400,
            seed: 14,
        }),
        PatternRequest::Evaluate(EvaluateParams {
            topologies: vec![topology],
            frame_nm: 400,
            seed: 15,
        }),
    ];
    for request in requests {
        let wire = serde_json::to_string(&request).expect("serializes");
        let back: PatternRequest = serde_json::from_str(&wire).expect("parses");
        assert_eq!(back, request, "round trip changed {wire}");
    }
}

#[test]
fn responses_round_trip_with_timing_metadata() {
    let system = small_system(1);
    let response = system
        .execute(PatternRequest::Generate(GenerateParams {
            style: Style::Layer10003,
            rows: 16,
            cols: 16,
            count: 2,
            seed: 5,
        }))
        .expect("generation succeeds");
    assert!(response.timing.micros > 0, "diffusion takes time");
    let wire = serde_json::to_string(&response).expect("serializes");
    let back: PatternResponse = serde_json::from_str(&wire).expect("parses");
    assert_eq!(back, response);
}

#[test]
fn chat_request_equals_direct_chat() {
    let system = small_system(2);
    let text = "Generate 2 patterns, topology size 16*16, physical size 512nm x 512nm, \
                style Layer-10001.";
    let direct = system.chat_with_seed(text, 9).expect("direct chat runs");
    let served = system
        .execute(PatternRequest::Chat(ChatParams {
            request: text.into(),
            seed: Some(9),
        }))
        .expect("served chat runs");
    let ResponsePayload::Chat(outcome) = served.payload else {
        panic!("wrong payload");
    };
    assert_eq!(outcome.summary, direct.summary);
    assert_eq!(outcome.library, direct.library);
    assert_eq!(outcome.tool_calls, direct.tool_calls);
    assert!(outcome.render_transcript().contains("Final Answer"));
}

#[test]
fn builder_rejections_are_config_errors() {
    for (result, label) in [
        (ChatPattern::builder().window(0).build(), "window 0"),
        (ChatPattern::builder().window(3).build(), "window 3"),
        (ChatPattern::builder().diffusion_steps(0).build(), "steps 0"),
        (
            ChatPattern::builder().training_patterns(0).build(),
            "train 0",
        ),
    ] {
        match result {
            Err(Error::Config { message }) => {
                assert!(!message.is_empty(), "{label}: empty message")
            }
            other => panic!("{label}: expected Config error, got {other:?}"),
        }
    }
}

#[test]
fn error_display_and_conversions_cover_the_workspace() {
    use chatpattern::agent::RequirementError;
    use chatpattern::legalize::{FailureKind, LegalizeFailure};

    let requirement: Error = RequirementError::new("empty request").into();
    assert!(requirement.to_string().contains("empty request"));

    let legalize: Error = LegalizeFailure {
        kind: FailureKind::AreaUnsatisfiable,
        region: Region::new(0, 0, 2, 2),
        needed: 400,
        available: 300,
        log: "area".into(),
    }
    .into();
    assert!(legalize.to_string().contains("unsatisfiable"));

    let system = small_system(4);
    // `?` folds every subsystem failure into the workspace error.
    fn uses_question_mark(system: &ChatPattern) -> Result<(), Error> {
        system.generate(Style::Layer10001, 0, 16, 1, 1)?;
        Ok(())
    }
    assert!(matches!(
        uses_question_mark(&system),
        Err(Error::InvalidRequest { .. })
    ));
}

#[test]
fn invalid_service_requests_fail_without_panicking() {
    let system = small_system(5);
    let topology = Topology::filled(8, 8, true);
    let cases = vec![
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 0,
            cols: 16,
            count: 1,
            seed: 1,
        }),
        // Sizes no reply line could carry: a failed 9 TB allocation
        // (the process aborted), a product that wraps, a count that
        // takes a deliverable size past the cap.
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 3_000_000,
            cols: 3_000_000,
            count: 1,
            seed: 1,
        }),
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: usize::MAX / 2 + 1,
            cols: usize::MAX / 2 + 1,
            count: 1,
            seed: 1,
        }),
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 16,
            cols: 16,
            count: MAX_REQUEST_CELLS / 256 + 1,
            seed: 1,
        }),
        PatternRequest::Extend(ExtendParams {
            seed_topology: topology.clone(),
            rows: 3_000_000,
            cols: 3_000_000,
            method: ExtensionMethod::OutPainting,
            style: Style::Layer10001,
            seed: 2,
        }),
        PatternRequest::Extend(ExtendParams {
            seed_topology: topology.clone(),
            rows: 4,
            cols: 4,
            method: ExtensionMethod::InPainting,
            style: Style::Layer10001,
            seed: 2,
        }),
        // In-painting requires a window-sized seed; this 8x8 seed under
        // a 16-cell window must be rejected, not panic in cp_extend.
        PatternRequest::Extend(ExtendParams {
            seed_topology: topology.clone(),
            rows: 32,
            cols: 32,
            method: ExtensionMethod::InPainting,
            style: Style::Layer10001,
            seed: 2,
        }),
        PatternRequest::Modify(ModifyParams {
            known: topology.clone(),
            region: Region::new(0, 0, 99, 99),
            style: Style::Layer10001,
            seed: 3,
        }),
        PatternRequest::Legalize(LegalizeParams {
            topology: topology.clone(),
            width_nm: -5,
            height_nm: 100,
            seed: 4,
        }),
        PatternRequest::Evaluate(EvaluateParams {
            topologies: vec![topology],
            frame_nm: 0,
            seed: 5,
        }),
        PatternRequest::Chat(ChatParams {
            request: "  ".into(),
            seed: None,
        }),
    ];
    for request in cases {
        let label = format!("{request:?}");
        match system.execute(request) {
            Err(Error::InvalidRequest { .. } | Error::Requirement(_)) => {}
            other => panic!("expected a validation error for {label}, got {other:?}"),
        }
    }
    // The direct path refuses before it samples anything.
    let err = system
        .generate(Style::Layer10001, 3_000_000, 3_000_000, 1, 1)
        .unwrap_err();
    assert!(matches!(err, Error::InvalidRequest { .. }), "{err:?}");
}

/// The cap is what one reply line can carry at two bytes a cell, and
/// the paper's largest target — 8× the 128 window — is well inside it.
#[test]
fn the_request_cell_cap_is_the_reply_line_cap() {
    assert_eq!(
        2 * MAX_REQUEST_CELLS,
        chatpattern::net::DEFAULT_MAX_LINE_BYTES
    );
    let system = ChatPattern::builder()
        .window(128)
        .training_patterns(4)
        .diffusion_steps(1)
        .seed(6)
        .build()
        .expect("valid configuration");
    let seed = system
        .generate(Style::Layer10001, 128, 128, 1, 1)
        .expect("generates")
        .remove(0);
    let extended = system
        .extend(
            &seed,
            1024,
            1024,
            ExtensionMethod::InPainting,
            Style::Layer10001,
            2,
        )
        .expect("8x extends");
    assert_eq!(extended.shape(), (1024, 1024));
}

#[test]
fn direct_requests_serve_repeatably_and_keep_their_contracts() {
    let system = small_system(6);
    let known = system
        .generate(Style::Layer10003, 16, 16, 1, 24)
        .expect("generates")
        .remove(0);
    let region = Region::new(4, 4, 12, 12);
    let extend = |method| {
        PatternRequest::Extend(ExtendParams {
            seed_topology: known.clone(),
            rows: 64,
            cols: 64,
            method,
            style: Style::Layer10003,
            seed: 25,
        })
    };
    let requests = vec![
        PatternRequest::Generate(GenerateParams {
            style: Style::Layer10001,
            rows: 16,
            cols: 16,
            count: 1,
            seed: 21,
        }),
        PatternRequest::Evaluate(EvaluateParams {
            topologies: system
                .generate(Style::Layer10003, 16, 16, 3, 22)
                .expect("generates"),
            frame_nm: 512,
            seed: 23,
        }),
        PatternRequest::Modify(ModifyParams {
            known: known.clone(),
            region,
            style: Style::Layer10003,
            seed: 26,
        }),
        extend(ExtensionMethod::OutPainting),
        extend(ExtensionMethod::InPainting),
    ];
    let batch: Vec<_> = requests
        .iter()
        .cloned()
        .map(|r| system.execute(r))
        .collect();
    assert_eq!(batch.len(), 5);
    let mut payloads = Vec::new();
    for (served, request) in batch.into_iter().zip(requests) {
        let served = served.expect("batch entry succeeds");
        let solo = system.execute(request).expect("solo entry succeeds");
        assert_eq!(served.payload, solo.payload);
        payloads.push(served.payload);
    }
    // A served Modify regenerates its region and keeps every other
    // cell bit for bit.
    let ResponsePayload::Modify(modified) = &payloads[2] else {
        panic!("wrong payload");
    };
    for (r, c) in (0..16).flat_map(|r| (0..16).map(move |c| (r, c))) {
        if !region.contains(r, c) {
            assert_eq!(modified.get(r, c), known.get(r, c), "cell ({r},{c})");
        }
    }
    // Both extension methods grow the pattern 4x into layouts that
    // all legalize.
    let extended: Vec<Topology> = payloads[3..]
        .iter()
        .map(|payload| match payload {
            ResponsePayload::Extend(topology) => topology.clone(),
            other => panic!("wrong payload {other:?}"),
        })
        .collect();
    let ResponsePayload::Evaluate(stats) = system
        .execute(PatternRequest::Evaluate(EvaluateParams {
            topologies: extended,
            frame_nm: 64 * 16,
            seed: 27,
        }))
        .expect("evaluates")
        .payload
    else {
        panic!("wrong payload");
    };
    assert_eq!((stats.total, stats.legal), (2, 2), "{stats:?}");
}
