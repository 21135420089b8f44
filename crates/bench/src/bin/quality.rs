//! Measures the paper's quality numbers — Table 1, Figure 10, the
//! Figure 4 agent request and §4.2 mistake recovery — at the scale the
//! `CP_*` variables give, prints the tables and writes them to
//! `BENCH_QUALITY.json` in the working directory (run it from the
//! repository root to re-record the committed file).
//!
//! With `--check` nothing is written: the run is held against the file
//! and the exit status is 1 when a row moved (any count unequal, any
//! float off by more than 1e-6, a row or ordering on one side only) or
//! when the orderings that fail are not exactly the file's `known_red`,
//! and 2 when the file was recorded at another scale, which is refused
//! rather than compared. `docs/ENGINE.md`, "Quality", says what each
//! red result asks for.

use cp_bench::quality::{measure, Quality, FILE};
use cp_bench::BenchConfig;

const USAGE: &str = "usage: quality [--check]";

fn refuse(complaint: &str) -> ! {
    eprintln!("quality: {complaint}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args == ["--check"];
    if !check && !args.is_empty() {
        refuse(&format!("unknown arguments {args:?}; {USAGE}"));
    }
    let cfg = BenchConfig::from_env().unwrap_or_else(|complaint| refuse(&complaint));
    // Read before measuring: a file that cannot be compared is refused
    // at once, not after the run.
    let recorded = check.then(|| {
        let text = std::fs::read_to_string(FILE).map_err(|e| e.to_string());
        let parsed =
            text.and_then(|text| serde_json::from_str::<Quality>(&text).map_err(|e| e.to_string()));
        let recorded = parsed.unwrap_or_else(|reason| {
            eprintln!("check FAILED: cannot read {FILE}: {reason}");
            std::process::exit(1);
        });
        if let Err(reason) = recorded.recorded_at(&cfg) {
            refuse(&format!("{reason}; not compared"));
        }
        recorded
    });

    cfg.print_banner("Quality: Table 1, Figure 10 and the agent tasks");
    let run = measure(&cfg);
    print!("{}", run.tables());
    let Some(recorded) = recorded else {
        std::fs::write(FILE, run.render()).unwrap_or_else(|e| panic!("write {FILE}: {e}"));
        println!("\nwrote {FILE} ({} known red)", run.known_red.len());
        return;
    };
    let complaints = run.check(&recorded);
    if complaints.is_empty() {
        println!(
            "\ncheck: {} rows, {} agent rows and {} orderings agree with {FILE} ({} known red)",
            run.rows.len(),
            run.agent.len(),
            run.orderings.len(),
            recorded.known_red.len()
        );
        return;
    }
    eprintln!("\ncheck FAILED against {FILE}:");
    for complaint in &complaints {
        eprintln!("  {complaint}");
    }
    eprintln!(
        "a row that moved on purpose: re-record with `quality` and show the diff; \
         known_red changes only with the ordering it names"
    );
    std::process::exit(1);
}
