//! Quickstart: build a small ChatPattern system and ask it, in English,
//! for a pattern library — through the one typed service entry point.
//!
//! Run with `cargo run --release --example quickstart`.

use chatpattern::{
    ChatParams, ChatPattern, Error, PatternRequest, PatternService, ResponsePayload,
};

fn main() -> Result<(), Error> {
    // Small CPU-friendly configuration; `ChatPatternBuilder` lists its
    // defaults against the paper's scale (window 128, 1000 steps).
    // `build` validates the configuration instead of panicking.
    let system = ChatPattern::builder()
        .window(32)
        .training_patterns(24)
        .diffusion_steps(8)
        .seed(7)
        .build()?;

    let response = system.execute(PatternRequest::Chat(ChatParams {
        request: "Generate 5 patterns, topology size 32*32, physical size 1024nm x 1024nm, \
                  style Layer-10003."
            .into(),
        seed: None,
    }))?;

    let ResponsePayload::Chat(outcome) = response.payload else {
        unreachable!("Chat requests produce Chat payloads");
    };
    println!("agent summary: {}", outcome.summary);
    println!("library size:  {}", outcome.library.len());
    println!("served in:     {} µs", response.timing.micros);
    for (i, pattern) in outcome.library.iter().enumerate() {
        println!(
            "pattern {i}: {}x{} cells, {} nm wide, drawn area {} nm²",
            pattern.topology().rows(),
            pattern.topology().cols(),
            pattern.physical_width(),
            pattern.drawn_area(),
        );
    }
    Ok(())
}
