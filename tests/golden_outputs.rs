//! Golden output pins (ROADMAP aim 3): digests of what the system
//! produces for fixed seeds, hard-coded from the commit before the
//! denoise step became table-driven (ISSUE 13) — the 4× and 80×72
//! `Extend` pins and the two corner `Modify` pins from the commit
//! before `modify` read only the draws it uses (ISSUE 17).
//!
//! Every sampler, denoiser, extension or RNG change must leave these
//! untouched: an optimisation is allowed to change how long an answer
//! takes, never the answer. A digest that moves means the change is not
//! output-neutral — do not re-pin it without saying so in CHANGES.md.
//!
//! The scale (window 32, 8 steps, 16 training patterns) keeps the whole
//! file affordable in a debug build; the full-scale equivalent is the
//! benchmark's `payload_digest`.

use chatpattern::dataset::Style;
use chatpattern::extend::ExtensionMethod;
use chatpattern::squish::{Region, Topology};
use chatpattern::{
    ChatPattern, ExtendParams, GenerateParams, ModifyParams, PatternRequest, PatternService,
    ResponsePayload, SessionCloseParams, SessionOpenParams, SessionTurnParams,
};

const WINDOW: usize = 32;

fn system() -> ChatPattern {
    ChatPattern::builder()
        .window(WINDOW)
        .diffusion_steps(8)
        .training_patterns(16)
        .seed(7)
        .build()
        .expect("valid configuration")
}

/// FNV-1a, 64 bit.
fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_topologies<'a>(topologies: impl IntoIterator<Item = &'a Topology>) -> u64 {
    let mut digest = FNV_OFFSET;
    for t in topologies {
        fnv1a(&mut digest, &(t.rows() as u64).to_le_bytes());
        fnv1a(&mut digest, &(t.cols() as u64).to_le_bytes());
        fnv1a(&mut digest, t.as_bytes());
    }
    digest
}

fn payload(system: &ChatPattern, request: PatternRequest) -> ResponsePayload {
    system.execute(request).expect("request succeeds").payload
}

fn generate(system: &ChatPattern, style: Style, seed: u64) -> Vec<Topology> {
    let ResponsePayload::Generate(topologies) = payload(
        system,
        PatternRequest::Generate(GenerateParams {
            style,
            rows: WINDOW,
            cols: WINDOW,
            count: 2,
            seed,
        }),
    ) else {
        panic!("wrong payload");
    };
    topologies
}

#[test]
fn generate_outputs_are_pinned() {
    let system = system();
    let pins = [
        (Style::Layer10001, 11, 0xa93c_066e_4904_5241_u64),
        (Style::Layer10001, 12, 0xbce6_c936_19b9_26b1),
        (Style::Layer10003, 11, 0xba99_e92b_64e8_be01),
        (Style::Layer10003, 12, 0x05c9_b5e9_fadd_b3c9),
    ];
    let got = pins.map(|(style, seed, _)| digest_topologies(&generate(&system, style, seed)));
    assert_eq!(got, pins.map(|(_, _, pin)| pin), "Generate: {got:#018x?}");
}

#[test]
fn modify_output_is_pinned() {
    let system = system();
    let known = generate(&system, Style::Layer10003, 21).remove(0);
    let quarter = WINDOW / 4;
    // The central half; then regions holding the first and the last
    // cell of the window (the first and the last run of the mask).
    let pins = [
        (
            Region::new(quarter, quarter, 3 * quarter, 3 * quarter),
            0xff44_8467_6ef7_bbd9_u64,
        ),
        (
            Region::new(0, 0, 2 * quarter, 3 * quarter),
            0x5253_6161_16fb_9c91,
        ),
        (
            Region::new(quarter, 2 * quarter, WINDOW, WINDOW),
            0xbe61_aaed_057e_d155,
        ),
    ];
    let got = pins.map(|(region, _)| {
        let ResponsePayload::Modify(modified) = payload(
            &system,
            PatternRequest::Modify(ModifyParams {
                known: known.clone(),
                region,
                style: Style::Layer10003,
                seed: 22,
            }),
        ) else {
            panic!("wrong payload");
        };
        assert_ne!(modified, known, "{region:?} was regenerated");
        digest_topologies([&modified])
    });
    assert_eq!(got, pins.map(|(_, pin)| pin), "Modify: {got:#018x?}");
}

#[test]
fn extend_outputs_are_pinned() {
    use ExtensionMethod::{InPainting, OutPainting};
    let system = system();
    let seed_topology = generate(&system, Style::Layer10001, 31).remove(0);
    // 2×; 4× (interior windows, all three in-painting seam passes);
    // a non-multiple, non-square target (the last window of each axis
    // clamps, rows of the mask stop lining up with keystream blocks).
    let pins = [
        (
            OutPainting,
            2 * WINDOW,
            2 * WINDOW,
            0x8657_cb08_c66a_77c5_u64,
        ),
        (InPainting, 2 * WINDOW, 2 * WINDOW, 0x5b10_362e_1b30_7691),
        (OutPainting, 4 * WINDOW, 4 * WINDOW, 0xd8f2_0552_67e7_ab05),
        (InPainting, 4 * WINDOW, 4 * WINDOW, 0x3768_5711_b0ca_1a95),
        (OutPainting, 80, 72, 0x309c_178e_ce10_c205),
        (InPainting, 80, 72, 0x3a08_f57e_71ee_33cd),
    ];
    let got = pins.map(|(method, rows, cols, _)| {
        let ResponsePayload::Extend(extended) = payload(
            &system,
            PatternRequest::Extend(ExtendParams {
                seed_topology: seed_topology.clone(),
                rows,
                cols,
                method,
                style: Style::Layer10001,
                seed: 32,
            }),
        ) else {
            panic!("wrong payload");
        };
        assert_eq!(extended.shape(), (rows, cols));
        digest_topologies([&extended])
    });
    assert_eq!(got, pins.map(|(.., pin)| pin), "Extend: {got:#018x?}");
}

#[test]
fn three_turn_chat_is_pinned() {
    const TURNS: [&str; 3] = [
        "Generate 2 patterns, topology size 32*32, physical size 1024nm x 1024nm, \
         style Layer-10003.",
        "Now make them denser.",
        "1 more pattern.",
    ];
    let system = system();
    payload(
        &system,
        PatternRequest::SessionOpen(SessionOpenParams {
            session: "golden".into(),
            seed: Some(41),
        }),
    );
    let mut digest = FNV_OFFSET;
    for utterance in TURNS {
        let ResponsePayload::SessionTurn(turn) = payload(
            &system,
            PatternRequest::SessionTurn(SessionTurnParams {
                session: "golden".into(),
                utterance: utterance.into(),
            }),
        ) else {
            panic!("wrong payload");
        };
        fnv1a(&mut digest, turn.summary.as_bytes());
        fnv1a(&mut digest, &(turn.tool_calls as u64).to_le_bytes());
        let library = serde_json::to_string(&turn.library).expect("serializes");
        fnv1a(&mut digest, library.as_bytes());
    }
    let ResponsePayload::SessionClose(outcome) = payload(
        &system,
        PatternRequest::SessionClose(SessionCloseParams {
            session: "golden".into(),
        }),
    ) else {
        panic!("wrong payload");
    };
    assert!(!outcome.library.is_empty(), "the dialog produced patterns");
    fnv1a(&mut digest, outcome.render_transcript().as_bytes());
    assert_eq!(digest, 0x77a1_a6c6_16dd_5d50, "3-turn chat: {digest:#018x}");
}
