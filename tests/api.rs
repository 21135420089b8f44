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
fn generate_many_is_deterministic_and_order_free() {
    let system = small_system(3);
    let requests: Vec<GenerateParams> = (0..4u64)
        .map(|i| GenerateParams {
            style: if i % 2 == 0 {
                Style::Layer10001
            } else {
                Style::Layer10003
            },
            rows: 16,
            cols: 16,
            count: 2,
            seed: 100 + i,
        })
        .collect();
    let first = system.generate_many(&requests).expect("generates");
    let second = system.generate_many(&requests).expect("generates");
    assert_eq!(first, second, "same seeds must give the same library");

    // Reversing the batch must not change any individual result: each
    // request owns its seed stream (the fan-out property that makes the
    // batch safely parallelizable).
    let reversed: Vec<GenerateParams> = requests.iter().rev().copied().collect();
    let mut reversed_out = system.generate_many(&reversed).expect("generates");
    reversed_out.reverse();
    assert_eq!(first, reversed_out);
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
        (
            ChatPattern::builder().styles(Vec::new()).build(),
            "no styles",
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
    use chatpattern::agent::{RequirementError, ToolError};
    use chatpattern::legalize::{FailureKind, LegalizeFailure};

    let tool: Error = ToolError::new("missing 'ids'").into();
    assert!(tool.to_string().contains("missing 'ids'"));

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
    let sliver =
        chatpattern::squish::SquishPattern::new(Topology::from_ascii("1."), vec![10, 40], vec![50]);
    let drc = system
        .drc_check(&sliver)
        .expect_err("sliver violates width");
    assert!(drc.to_string().contains("design-rule violations"));

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
    // The batch path refuses before it samples anything.
    let oversize = GenerateParams {
        style: Style::Layer10001,
        rows: 3_000_000,
        cols: 3_000_000,
        count: 1,
        seed: 1,
    };
    let err = system.generate_many(&[oversize]).unwrap_err();
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
fn execute_many_matches_sequential_execution() {
    let system = small_system(6);
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
    ];
    let batch = system.execute_many(requests.clone());
    assert_eq!(batch.len(), 2);
    for (served, request) in batch.into_iter().zip(requests) {
        let served = served.expect("batch entry succeeds");
        let solo = system.execute(request).expect("solo entry succeeds");
        assert_eq!(served.payload, solo.payload);
    }
}
