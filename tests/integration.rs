//! Integration tests spanning the whole workspace: the paper's headline
//! behaviours exercised through the public facade.

use chatpattern::core::ChatPattern;
use chatpattern::dataset::Style;
use chatpattern::diffusion::Mask;
use chatpattern::drc::check_pattern;
use chatpattern::extend::ExtensionMethod;
use chatpattern::squish::{Region, Topology};

fn small_system(seed: u64) -> ChatPattern {
    ChatPattern::builder()
        .window(16)
        .training_patterns(12)
        .diffusion_steps(8)
        .seed(seed)
        .build()
        .expect("valid configuration")
}

#[test]
fn conditional_generation_separates_styles() {
    let system = small_system(1);
    let dense: f64 = system
        .generate(Style::Layer10001, 16, 16, 6, 2)
        .expect("generates")
        .iter()
        .map(Topology::density)
        .sum::<f64>()
        / 6.0;
    let sparse: f64 = system
        .generate(Style::Layer10003, 16, 16, 6, 2)
        .expect("generates")
        .iter()
        .map(Topology::density)
        .sum::<f64>()
        / 6.0;
    assert!(
        dense > sparse + 0.05,
        "style condition must separate densities: {dense:.3} vs {sparse:.3}"
    );
}

#[test]
fn legalized_patterns_are_drc_clean() {
    let system = small_system(2);
    let mut clean = 0;
    for seed in 0..8u64 {
        let topo = system
            .generate(Style::Layer10003, 16, 16, 1, seed)
            .expect("generates")
            .remove(0);
        if let Ok(pattern) = system.legalize(&topo, 512, 512, seed) {
            assert!(
                check_pattern(&pattern, system.rules()).is_clean(),
                "legalizer output failed independent DRC"
            );
            clean += 1;
        }
    }
    assert!(clean >= 6, "only {clean}/8 legalized at a generous frame");
}

#[test]
fn extension_reaches_any_size_and_keeps_the_seed() {
    let system = small_system(3);
    let seed_topo = system
        .generate(Style::Layer10003, 16, 16, 1, 4)
        .expect("generates")
        .remove(0);
    for (rows, cols) in [(32, 32), (48, 32), (40, 56)] {
        let big = system
            .extend(
                &seed_topo,
                rows,
                cols,
                ExtensionMethod::OutPainting,
                Style::Layer10003,
                9,
            )
            .expect("extends");
        assert_eq!(big.shape(), (rows, cols));
        for r in 0..16 {
            for c in 0..16 {
                assert_eq!(big.get(r, c), seed_topo.get(r, c), "seed cell ({r},{c})");
            }
        }
    }
}

#[test]
fn modification_is_bit_exact_outside_the_mask() {
    let system = small_system(4);
    let original = system
        .generate(Style::Layer10001, 16, 16, 1, 5)
        .expect("generates")
        .remove(0);
    let mask = Mask::keep_outside(16, 16, Region::new(4, 4, 12, 12));
    let modified = system
        .modify(&original, &mask, Style::Layer10001, 6)
        .expect("modifies");
    for r in 0..16 {
        for c in 0..16 {
            if mask.keeps(r, c) {
                assert_eq!(original.get(r, c), modified.get(r, c));
            }
        }
    }
}

#[test]
fn agent_session_delivers_requested_library_end_to_end() {
    let system = small_system(5);
    let report = system
        .chat(
            "Generate 4 patterns, topology size 16*16, physical size 512nm x 512nm, \
             style Layer-10001.",
        )
        .expect("parses and runs");
    assert_eq!(report.library.len(), 4, "summary: {}", report.summary);
    let transcript = report.render_transcript();
    assert!(transcript.contains("# Requirement - subtask 1"));
    assert!(transcript.contains("Action: topology_gen"));
    assert!(transcript.contains("Action: legalize"));
    assert!(transcript.contains("Final Answer"));
}

#[test]
fn agent_extends_beyond_window_via_documentation() {
    let system = small_system(6);
    let report = system
        .chat(
            "Generate 2 patterns, topology size 32*32, physical size 1024nm x 1024nm, \
             style Layer-10003.",
        )
        .expect("parses and runs");
    assert_eq!(report.library.len(), 2, "summary: {}", report.summary);
    let transcript = report.render_transcript();
    assert!(transcript.contains("Action: get_documentation"));
    assert!(transcript.contains("Action: topology_extension"));
    for p in &report.library {
        assert_eq!(p.topology().shape(), (32, 32));
    }
}

#[test]
fn evaluation_pipeline_reports_table1_style_stats() {
    let system = small_system(7);
    let lib = system
        .generate(Style::Layer10003, 16, 16, 10, 8)
        .expect("generates");
    let stats = system.evaluate(lib.iter(), 512, 9).expect("evaluates");
    assert_eq!(stats.total, 10);
    assert!(stats.legal >= 7, "legality too low: {stats:?}");
    assert!(stats.diversity >= 0.0);
}
