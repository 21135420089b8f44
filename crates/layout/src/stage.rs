//! Where one request's time goes: a fixed list of [`Stage`]s and a
//! clock per thread that charges the time between two stage boundaries
//! to the stage that was open.
//!
//! The executor of a request calls [`start`]; the pipeline marks each
//! stage it enters with [`enter`], or with [`scope`] where it must hand
//! the stage it found back to its caller (a model call inside an
//! extension, a legalization); [`finish`] returns the microseconds of
//! every stage. Between `start` and `finish` each nanosecond is charged
//! to exactly one stage: the time before the first boundary to the
//! first stage entered, the time after the last one to the stage still
//! open. There is no catch-all stage, so a request whose work is not on
//! this list (a chat turn, an evaluation) is not recorded at all.
//!
//! A boundary is one clock read and sits at a phase of a reverse step
//! or of a legalization, never inside a loop over runs or cells. With
//! no record running on the thread, a boundary reads one thread-local
//! flag and returns.

use std::cell::RefCell;
use std::time::Instant;

/// One stage of a request, in the order a request meets them; a
/// stage's index is its place in [`Stage::ALL`] and in a reply's
/// `timing.stages`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission: the QoS gate, the request key, the cache look-up and
    /// the dispatch into the queue (all of a cache hit).
    Admit,
    /// Waiting in the engine's queue for a worker.
    Queue,
    /// Denoise: drawing (or fitting) a model call's reduced grid, its
    /// input reduced to it and the chain's buffers.
    Grid,
    /// Denoise: the chain's fully-noised start.
    Noise,
    /// Denoise: the denoiser's prediction, every step.
    PredictX0,
    /// Denoise: the step's draw thresholds from the prediction.
    Thresholds,
    /// Denoise: the step's draws and compares; for a modification also
    /// the forward noise of the kept cells and the seeks between runs.
    Draws,
    /// Denoise: the reduced result written over the fine cells.
    WriteBack,
    /// Free-size extension outside its model calls: window placement,
    /// masks and stitching.
    ExtendWindows,
    /// Legalize: the width and space bounds of both axes.
    Bounds,
    /// Legalize: the longest-path sweep over the bounds, both axes.
    Sweep,
    /// Legalize: the connected-component labels.
    Labels,
    /// Legalize: the minimum-area repair passes.
    AreaRepair,
    /// Legalize: the slack split into the geometry vectors.
    Slack,
    /// The squish pattern assembled from the topology and its geometry
    /// vectors.
    SquishEncode,
}

/// The number of stages.
pub const STAGES: usize = Stage::ALL.len();

impl Stage {
    /// Every stage, in index order.
    pub const ALL: [Stage; 15] = [
        Stage::Admit,
        Stage::Queue,
        Stage::Grid,
        Stage::Noise,
        Stage::PredictX0,
        Stage::Thresholds,
        Stage::Draws,
        Stage::WriteBack,
        Stage::ExtendWindows,
        Stage::Bounds,
        Stage::Sweep,
        Stage::Labels,
        Stage::AreaRepair,
        Stage::Slack,
        Stage::SquishEncode,
    ];
}

/// The running record of a thread.
struct Record {
    /// When the last boundary was; `None` while no record runs.
    since: Option<Instant>,
    /// The stage the time since then is charged to.
    open: Option<Stage>,
    nanos: [u64; STAGES],
}

thread_local! {
    static RECORD: RefCell<Record> = const {
        RefCell::new(Record {
            since: None,
            open: None,
            nanos: [0; STAGES],
        })
    };
}

/// Starts a record on this thread, dropping any unfinished one.
pub fn start() {
    RECORD.with_borrow_mut(|record| {
        *record = Record {
            since: Some(Instant::now()),
            open: None,
            nanos: [0; STAGES],
        };
    });
}

/// A stage boundary: the time since the last one goes to the stage
/// open until now (to `stage` if none was), and `stage` opens. Returns
/// the stage that was open.
fn boundary(stage: Stage) -> Option<Stage> {
    RECORD.with_borrow_mut(|record| {
        let since = record.since?;
        let now = Instant::now();
        let open = record.open.unwrap_or(stage);
        record.nanos[open as usize] += nanos(now - since);
        record.since = Some(now);
        record.open.replace(stage)
    })
}

/// Enters `stage`: the time since the last boundary goes to the stage
/// open until now (to `stage` if none was), and `stage` opens.
pub fn enter(stage: Stage) {
    boundary(stage);
}

/// Enters `stage` until the returned guard drops, which enters the
/// stage open before (if one was; if none was, the last stage entered
/// stays open).
#[must_use = "the scope ends when the guard drops"]
pub fn scope(stage: Stage) -> Scope {
    Scope {
        outer: boundary(stage),
    }
}

/// The guard of [`scope`].
#[derive(Debug)]
pub struct Scope {
    outer: Option<Stage>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if let Some(outer) = self.outer {
            enter(outer);
        }
    }
}

/// Ends this thread's record: the microseconds of each stage, rounded
/// so that they sum to the record's whole microseconds (all zero when
/// no record ran or no stage was entered).
#[must_use]
pub fn finish() -> [u64; STAGES] {
    RECORD.with_borrow_mut(|record| {
        if let (Some(since), Some(open)) = (record.since, record.open) {
            record.nanos[open as usize] += nanos(since.elapsed());
        }
        record.since = None;
        record.open = None;
        // Rounded on the running sum, so the rounding never adds up.
        let (mut total, mut whole) = (0u64, 0u64);
        std::mem::take(&mut record.nanos).map(|nanos| {
            total += nanos;
            let micros = total / 1000 - whole;
            whole += micros;
            micros
        })
    })
}

fn nanos(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn spin(micros: u64) {
        let until = Instant::now() + Duration::from_micros(micros);
        while Instant::now() < until {}
    }

    #[test]
    fn every_moment_of_a_record_goes_to_one_stage() {
        let started = Instant::now();
        start();
        spin(300);
        enter(Stage::Grid);
        spin(300);
        {
            let _scope = scope(Stage::Draws);
            spin(300);
            enter(Stage::WriteBack);
            spin(300);
        }
        spin(300);
        let stages = finish();
        let whole = u64::try_from(started.elapsed().as_micros()).unwrap();
        // Before the first boundary: charged to the first stage entered.
        assert!(stages[Stage::Grid as usize] >= 900, "{stages:?}");
        assert!(stages[Stage::Draws as usize] >= 300, "{stages:?}");
        assert!(stages[Stage::WriteBack as usize] >= 300, "{stages:?}");
        // Every spun microsecond is charged, and no more than passed.
        let sum: u64 = stages.iter().sum();
        assert!((1500..=whole).contains(&sum), "{sum} of {whole}");
        // The record is over, and what it charged with it: boundaries
        // are free and charge nothing.
        enter(Stage::Noise);
        assert_eq!(finish(), [0; STAGES]);
    }

    #[test]
    fn a_scope_without_an_outer_stage_leaves_its_last_stage_open() {
        start();
        {
            let _scope = scope(Stage::Bounds);
            enter(Stage::SquishEncode);
        }
        spin(300);
        let stages = finish();
        assert!(stages[Stage::SquishEncode as usize] >= 300, "{stages:?}");
    }

    #[test]
    fn the_rounding_keeps_the_whole() {
        RECORD.with_borrow_mut(|record| {
            record.since = Some(Instant::now() + Duration::from_secs(3600));
            record.open = Some(Stage::Admit);
            record.nanos = [999; STAGES];
        });
        // The open stage gains nothing from a clock read before `since`.
        let stages = finish();
        assert_eq!(stages.iter().sum::<u64>(), 999 * STAGES as u64 / 1000);
        assert!(stages.iter().all(|&micros| micros <= 1));
    }

    #[test]
    fn every_stage_is_at_its_index() {
        for (index, stage) in Stage::ALL.into_iter().enumerate() {
            assert_eq!(stage as usize, index);
        }
    }
}
