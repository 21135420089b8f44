//! Golden output pins (ROADMAP aim 3): digests of what the system
//! produces for fixed seeds, hard-coded from the commit before the
//! denoise step became table-driven (ISSUE 13) — the 4× and 80×72
//! `Extend` pins and the two corner `Modify` pins from the commit
//! before `modify` read only the draws it uses (ISSUE 17).
//! The legalize pins are from the commit before the legalizer moved to
//! row runs.
//!
//! Every sampler, denoiser, extension, legalizer or RNG change must leave these
//! untouched: an optimisation is allowed to change how long an answer
//! takes, never the answer. A digest that moves means the change is not
//! output-neutral — do not re-pin it without saying so in CHANGES.md.
//!
//! The scale (window 32, 8 steps, 16 training patterns) keeps the whole
//! file affordable in a debug build; the full-scale equivalent is the
//! benchmark's `payload_digest`.

use chatpattern::dataset::Style;
use chatpattern::extend::ExtensionMethod;
use chatpattern::squish::{Region, SquishPattern, Topology};
use chatpattern::{
    ChatPattern, Error, ExtendParams, GenerateParams, ModifyParams, PatternRequest, PatternService,
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
        (Style::Layer10001, 11, 0x56f7_4cd1_3d8b_e2a3_u64),
        (Style::Layer10001, 12, 0x8cfb_2d4e_5a80_80ac),
        (Style::Layer10003, 11, 0xd8e9_7a29_80f7_7735),
        (Style::Layer10003, 12, 0x35bf_976d_88bf_d4d5),
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
            0x27cf_34c1_6416_586d_u64,
        ),
        (
            Region::new(0, 0, 2 * quarter, 3 * quarter),
            0xa3be_9956_f82c_464d,
        ),
        (
            Region::new(quarter, 2 * quarter, WINDOW, WINDOW),
            0xec1e_87f7_14d0_6b25,
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
            0xd0a2_1ff2_4ddd_c02b_u64,
        ),
        (InPainting, 2 * WINDOW, 2 * WINDOW, 0x1b9f_779f_d865_18b8),
        (OutPainting, 4 * WINDOW, 4 * WINDOW, 0xebe6_265c_4574_479d),
        (InPainting, 4 * WINDOW, 4 * WINDOW, 0x8dd8_c3f5_9947_49b8),
        (OutPainting, 80, 72, 0x5313_4f63_e98f_a7ca),
        (InPainting, 80, 72, 0xdc80_03a2_ab7c_1427),
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
    assert_eq!(digest, 0x6fde_8279_f7ad_59f3, "3-turn chat: {digest:#018x}");
}

fn digest_geometry(digest: &mut u64, pattern: &SquishPattern) {
    for delta in [pattern.dx(), pattern.dy()] {
        fnv1a(digest, &(delta.len() as u64).to_le_bytes());
        for d in delta {
            fnv1a(digest, &d.to_le_bytes());
        }
    }
}

fn render_failure(outcome: Result<SquishPattern, Error>) -> String {
    let Err(Error::Legalize(f)) = outcome else {
        panic!("expected a legalization failure, got {outcome:?}");
    };
    format!(
        "{:?} | {} | needed {} | available {} | {}",
        f.kind, f.region, f.needed, f.available, f.log
    )
}

/// The legalizer's geometry vectors and its explainable failures: the
/// `Generate` samples above in their 1× frame (16 nm a cell), a 4×
/// extension in its 4× frame, one frame too small for a sample, and one
/// polygon whose minimum area the slack cannot buy.
#[test]
fn legalize_outputs_are_pinned() {
    const FRAME: i64 = 16 * WINDOW as i64;
    let system = system();
    let mut digest = FNV_OFFSET;
    let mut samples = Vec::new();
    for (style, seed) in [
        (Style::Layer10001, 11),
        (Style::Layer10001, 12),
        (Style::Layer10003, 11),
        (Style::Layer10003, 12),
    ] {
        samples.extend(generate(&system, style, seed));
    }
    for (i, t) in samples.iter().enumerate() {
        let pattern = system
            .legalize(t, FRAME, FRAME, 100 + i as u64)
            .expect("a 1x sample legalizes");
        digest_geometry(&mut digest, &pattern);
    }
    let ResponsePayload::Extend(extended) = payload(
        &system,
        PatternRequest::Extend(ExtendParams {
            seed_topology: samples[0].clone(),
            rows: 4 * WINDOW,
            cols: 4 * WINDOW,
            method: ExtensionMethod::OutPainting,
            style: Style::Layer10001,
            seed: 32,
        }),
    ) else {
        panic!("wrong payload");
    };
    let pattern = system
        .legalize(&extended, 4 * FRAME, 4 * FRAME, 120)
        .expect("the 4x extension legalizes");
    digest_geometry(&mut digest, &pattern);
    assert_eq!(
        digest, 0x6e4d_da2a_114c_b683,
        "Legalize geometry: {digest:#018x}"
    );

    let infeasible = render_failure(system.legalize(&samples[0], FRAME / 4, FRAME, 121));
    assert_eq!(
        infeasible,
        "Infeasible { axis: X } | rows 27..28, cols 14..18 | needed 139 | available 128 | \
         axis x: minimal extent 139 nm exceeds frame 128 nm; binding region rows 27..28, \
         cols 14..18 (bound 40 nm)"
    );
    let dot = Topology::from_ascii(
        "........
         .11..1..
         .11.....
         ....111.",
    );
    let area = render_failure(system.legalize(&dot, 132, 136, 122));
    assert_eq!(
        area,
        "AreaUnsatisfiable | rows 1..2, cols 5..6 | needed 3200 | available 2695 | \
         component 1 area 2695 nm\u{b2} < minimum 3200 nm\u{b2} and the slack budget is exhausted"
    );
}
