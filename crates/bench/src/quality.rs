//! The paper's quality numbers as data: Table 1 (legality and
//! diversity, fixed size and 2× / 4× / 8× free size, against the four
//! baselines), Figure 10 (In- against Out-Painting — the 2× rows of the
//! free block), the Figure 4 agent request and §4.2 mistake recovery.
//!
//! [`measure`] computes every number once into a [`Quality`]: [`Row`]s,
//! [`AgentRow`]s and the [`Ordering`]s Table 1 reports, each evaluated
//! to holds / fails. The `quality` binary prints [`Quality::tables`]
//! from those rows and writes [`Quality::render`] to [`FILE`];
//! `quality --check` measures again and holds the result against the
//! committed file with [`Quality::check`]. `docs/ENGINE.md`, "Quality",
//! has the schema, the orderings by name and how to re-record.
//!
//! Every generator is seeded from `CP_SEED` plus a fixed offset, so two
//! runs at one scale produce the same file byte for byte.

use crate::BenchConfig;
use chatpattern_core::ChatPattern;
use cp_agent::SessionReport;
use cp_baselines::{concat_extend, Cae, DiffPattern, Generator, LayouTransformer, LegalGan, Vcae};
use cp_dataset::{DatasetBuilder, Style};
use cp_diffusion::PatternSampler;
use cp_extend::{extend, ExtensionMethod};
use cp_layout::drc::{check_pattern, DesignRules};
use cp_layout::geom::Axis;
use cp_layout::legalize::Legalizer;
use cp_layout::squish::{complexity, Complexity, SquishPattern, Topology};
use cp_metrics::{entropy_bits, entropy_interval, legality, wasserstein_1};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// The recorded file, at the repository root.
pub const FILE: &str = "BENCH_QUALITY.json";

/// Floats of a run and of the file agree when they are this close.
const TOLERANCE: f64 = 1e-6;

const REAL: &str = "Real Patterns";
const DIFFPATTERN: &str = "DiffPattern";
const CONCAT: &str = "DiffPattern w/ Concat";
const CHATPATTERN: &str = "ChatPattern";
/// The row of both styles' topologies taken as one library.
const POOLED: &str = "pooled";
const STYLES: [Style; 2] = [Style::Layer10001, Style::Layer10003];
const METHODS: [ExtensionMethod; 2] = [ExtensionMethod::OutPainting, ExtensionMethod::InPainting];

/// One method on one style at one size: a cell pair of Table 1 and what
/// explains it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// `fixed` (window-size) or `free` (2× / 4× / 8× the window).
    pub section: String,
    /// The paper's name of the method.
    pub method: String,
    /// `Layer-10001`, `Layer-10003` or `pooled`.
    pub style: String,
    /// Side of the square topologies, in cells.
    pub size: usize,
    /// Topologies evaluated.
    pub samples: usize,
    /// How many came out DRC-clean; diversity and the `cx` / `cy`
    /// statistics are taken over these.
    pub legal: usize,
    /// `legal / samples` (Eq. 7); `null` for real patterns, which are
    /// never legalized.
    pub legality: Option<f64>,
    /// Entropy of the `(cx, cy)` distribution in bits (Eq. 8).
    pub diversity: f64,
    /// Mean of `cx`, the scan lines along x minus one.
    pub cx_mean: f64,
    /// Standard deviation of `cx`.
    pub cx_std: f64,
    /// Mean of `cy`.
    pub cy_mean: f64,
    /// Standard deviation of `cy`.
    pub cy_std: f64,
    /// The frame the topologies are legalized into, per side.
    pub frame_nm: i64,
    /// Distinct `(cx, cy)` classes among the legal topologies.
    #[serde(default)]
    pub distinct: usize,
    /// The low end of a 90 % bootstrap interval on `diversity`
    /// (`cp_metrics::entropy_interval`: a fixed seed, so a run repeats
    /// it exactly).
    #[serde(default)]
    pub diversity_lo: f64,
    /// The high end of that interval.
    #[serde(default)]
    pub diversity_hi: f64,
    /// Every legal topology is a class of its own: `diversity` is
    /// log₂ `legal`, the most that many samples can show, so the row
    /// cannot tell more diverse from as diverse.
    #[serde(default)]
    pub at_ceiling: bool,
    /// Wasserstein-1 distance from this row's `cx` values to those of the
    /// Real Patterns row of the same style and size (`0` on that row;
    /// `null` where either has no topology).
    #[serde(default)]
    pub w1_cx: Option<f64>,
    /// The same for `cy`.
    #[serde(default)]
    pub w1_cy: Option<f64>,
    /// The largest minimal legal width among the `samples` topologies:
    /// above `frame_nm`, that topology cannot legalize. `null` where
    /// nothing is legalized into the frame (real patterns, assemblies
    /// of already-legal tiles).
    pub extent_x_nm: Option<i64>,
    /// The same along y.
    pub extent_y_nm: Option<i64>,
    /// Mean share of drawn cells in a measured topology (for DiffPattern
    /// w/ Concatenation, in the minimal form of a clean assembly).
    #[serde(default)]
    pub density: f64,
    /// Wasserstein-1 distance from this row's per-topology densities to
    /// those of the Real Patterns row of the same style and size, both in
    /// thousandths (`null` where either has no topology).
    #[serde(default)]
    pub w1_density: Option<f64>,
    /// Mean number of value changes along a row of a measured topology:
    /// the cells that differ from the cell before them.
    #[serde(default)]
    pub row_changes: f64,
    /// The same along a column.
    #[serde(default)]
    pub col_changes: f64,
}

/// One agent task: what was asked for and what it took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AgentRow {
    /// `figure4` (the paper's running request) or `mistake_recovery`
    /// (§4.2: drops forbidden, the frame shrunk until legalization
    /// fails and the agent has to repair).
    pub task: String,
    /// Patterns requested.
    pub asked: usize,
    /// Patterns in the delivered library.
    pub delivered: usize,
    /// Tool calls the agent made.
    pub tool_calls: usize,
    /// How many of them were `topology_modification`.
    pub modification_calls: usize,
    /// `mistake_recovery`: the nm per cell at which a repair was first
    /// needed (`null`: never, down to 7); `null` for `figure4`.
    pub nm_per_cell: Option<i64>,
}

/// One relation Table 1 reports between two of its numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ordering {
    /// What is claimed, of which method, where.
    pub name: String,
    /// ChatPattern's number.
    pub left: f64,
    /// What it is held against.
    pub right: f64,
    /// Whether the relation in the name holds between the two.
    pub holds: bool,
    /// Whether it holds beyond the noise of the samples: diversities are
    /// compared by their bootstrap intervals, and an ordering whose
    /// intervals overlap is [`Resolution::Unresolved`].
    #[serde(default)]
    pub resolution: Resolution,
}

/// What an [`Ordering`]'s numbers can say about its relation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Resolution {
    /// It holds with the whole interval of each side.
    Holds,
    /// It fails with the whole interval of each side.
    Fails,
    /// The intervals overlap: more samples could tip it either way.
    #[default]
    Unresolved,
}

impl Resolution {
    /// `left ≥ right` (`>` when `strict`) between two intervals, each
    /// `(lo, hi)`; a point is an interval of one value.
    fn of(left: (f64, f64), right: (f64, f64), strict: bool) -> Resolution {
        let above = |a: f64, b: f64| if strict { a > b } else { a >= b };
        if above(left.0, right.1) {
            Resolution::Holds
        } else if !above(left.1, right.0) {
            Resolution::Fails
        } else {
            Resolution::Unresolved
        }
    }
}

/// Everything one run measures, and the content of [`FILE`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Quality {
    /// The scale the numbers were taken at.
    pub header: BenchConfig,
    /// Table 1, a row a method, style and size.
    pub rows: Vec<Row>,
    /// The agent block.
    pub agent: Vec<AgentRow>,
    /// Every ordering, holding or not.
    pub orderings: Vec<Ordering>,
    /// Names of the orderings that fail and are known to.
    pub known_red: Vec<String>,
}

/// Where a block of rows sits in the table.
struct Block {
    section: &'static str,
    size: usize,
    frame_nm: i64,
    /// The Real Patterns complexities and densities (in thousandths) of
    /// this block, by style name: what a row's `w1_cx` / `w1_cy` /
    /// `w1_density` are measured against.
    real: Vec<(&'static str, Vec<Complexity>, Vec<u32>)>,
}

impl Block {
    /// A row over `measured`, the topologies whose complexities count.
    fn row<'a>(
        &self,
        method: &str,
        style: &str,
        samples: usize,
        legality: Option<f64>,
        extents: Option<(i64, i64)>,
        measured: impl Iterator<Item = &'a Topology>,
    ) -> Row {
        let measured: Vec<&Topology> = measured.collect();
        let complexities: Vec<Complexity> = measured.iter().copied().map(complexity).collect();
        let densities = permille_densities(&measured);
        let changes: Vec<(f64, f64)> = measured.iter().copied().map(value_changes).collect();
        let mut histogram = HashMap::new();
        for c in &complexities {
            *histogram.entry(*c).or_insert(0usize) += 1;
        }
        let (cx_mean, cx_std) = mean_and_std(complexities.iter().map(|c| f64::from(c.cx)));
        let (cy_mean, cy_std) = mean_and_std(complexities.iter().map(|c| f64::from(c.cy)));
        let (diversity_lo, diversity_hi) = entropy_interval(&complexities);
        let real = self.real.iter().find(|(name, ..)| *name == style);
        let w1 = |axis: fn(&Complexity) -> u32| {
            let values = |of: &[Complexity]| of.iter().map(axis).collect::<Vec<u32>>();
            real.and_then(|(_, real, _)| wasserstein_1(&values(&complexities), &values(real)))
        };
        Row {
            section: self.section.to_owned(),
            method: method.to_owned(),
            style: style.to_owned(),
            size: self.size,
            samples,
            legal: complexities.len(),
            legality,
            // One class is `-1 · log2 1`, a negative zero: store `0`.
            diversity: entropy_bits(&histogram) + 0.0,
            distinct: histogram.len(),
            diversity_lo,
            diversity_hi,
            at_ceiling: !complexities.is_empty() && histogram.len() == complexities.len(),
            w1_cx: w1(|c| c.cx),
            w1_cy: w1(|c| c.cy),
            cx_mean,
            cx_std,
            cy_mean,
            cy_std,
            frame_nm: self.frame_nm,
            extent_x_nm: extents.map(|(x, _)| x),
            extent_y_nm: extents.map(|(_, y)| y),
            density: mean_and_std(measured.iter().map(|t| t.density())).0,
            w1_density: real.and_then(|(_, _, real)| wasserstein_1(&densities, real)),
            row_changes: mean_and_std(changes.iter().map(|c| c.0)).0,
            col_changes: mean_and_std(changes.iter().map(|c| c.1)).0,
        }
    }

    /// The largest minimal legal width and height among `library`.
    fn extents(library: &[&Topology], rules: &DesignRules) -> (i64, i64) {
        let legalizer = Legalizer::new(*rules);
        let extent = |axis| {
            let minimal = |t: &&Topology| {
                let solved = legalizer.solve_axis(t, axis, i64::MAX / 4);
                solved.map_or(0, |solution| solution.total)
            };
            library.iter().map(minimal).max().unwrap_or(0)
        };
        (extent(Axis::X), extent(Axis::Y))
    }

    /// A generated library exactly as Table 1 evaluates one: a single
    /// legalization attempt each (no selection), then diversity over
    /// the legal survivors.
    fn legalized(
        &self,
        method: &str,
        style: &str,
        library: &[&Topology],
        rules: &DesignRules,
        seed: u64,
    ) -> Row {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let report = legality(library.iter().copied(), self.frame_nm, rules, &mut rng);
        self.row(
            method,
            style,
            report.total(),
            Some(report.ratio()),
            Some(Block::extents(library, rules)),
            report.legal_topologies(),
        )
    }

    /// Both styles and the pooled row of one method, seeded as the
    /// table always was: `seed`, `seed + 1`, `seed + 2`.
    fn legalized_styles(
        &self,
        method: &str,
        libraries: &[Vec<Topology>; 2],
        rules: &DesignRules,
        seed: u64,
    ) -> Vec<Row> {
        let rows = (seed..).zip(per_style(libraries));
        rows.map(|(seed, (style, library))| self.legalized(method, style, &library, rules, seed))
            .collect()
    }
}

/// Mean and population standard deviation; `(0, 0)` of nothing.
fn mean_and_std(values: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = values.clone().count();
    if n == 0 {
        return (0.0, 0.0);
    }
    let mean = values.clone().sum::<f64>() / n as f64;
    let variance = values.map(|v| (v - mean) * (v - mean)).sum::<f64>() / n as f64;
    (mean, variance.sqrt())
}

/// Each topology's share of drawn cells, in whole thousandths.
fn permille_densities(topologies: &[&Topology]) -> Vec<u32> {
    let permille = |t: &&Topology| (t.density() * 1000.0).round() as u32;
    topologies.iter().map(permille).collect()
}

/// How often a row of `topology` changes value, on average, and how often
/// a column does.
fn value_changes(topology: &Topology) -> (f64, f64) {
    let (rows, cols) = (topology.rows(), topology.cols());
    let changes = |lines: usize, cells: usize, at: &dyn Fn(usize, usize) -> bool| {
        let line = |l: usize| (1..cells).filter(|&i| at(l, i) != at(l, i - 1)).count();
        (0..lines).map(line).sum::<usize>() as f64 / lines.max(1) as f64
    };
    (
        changes(rows, cols, &|r, c| topology.get(r, c)),
        changes(cols, rows, &|c, r| topology.get(r, c)),
    )
}

/// The libraries of the two styles and of both pooled, each under the
/// name its row carries.
fn per_style(libraries: &[Vec<Topology>; 2]) -> [(&'static str, Vec<&Topology>); 3] {
    let [a, b] = libraries;
    [
        (STYLES[0].name(), a.iter().collect()),
        (STYLES[1].name(), b.iter().collect()),
        (POOLED, a.iter().chain(b).collect()),
    ]
}

/// Real patterns: raw topologies, never legalized, but with the minimal
/// extents they would legalize to. Their complexities and densities
/// become the block's reference for every row's `w1_cx` / `w1_cy` /
/// `w1_density`.
fn reference_rows(
    block: &mut Block,
    libraries: &[Vec<Topology>; 2],
    rules: &DesignRules,
) -> Vec<Row> {
    let styles = per_style(libraries);
    block.real = styles
        .iter()
        .map(|(style, all)| {
            let complexities = all.iter().copied().map(complexity).collect();
            (*style, complexities, permille_densities(all))
        })
        .collect();
    let rows = styles.into_iter().map(|(style, all)| {
        let extents = Some(Block::extents(&all, rules));
        block.row(REAL, style, all.len(), None, extents, all.iter().copied())
    });
    rows.collect()
}

/// Runs every experiment at `cfg`'s scale.
///
/// # Panics
///
/// Panics when `cfg` describes an invalid system (see
/// `BenchConfig::build_system`).
#[must_use]
pub fn measure(cfg: &BenchConfig) -> Quality {
    let system = cfg.build_system();
    let rules = *system.rules();
    let train = STYLES.map(|style| {
        let dataset = system.datasets().iter().find(|d| d.style() == style);
        dataset.map_or_else(Vec::new, |d| d.topologies().cloned().collect())
    });
    // DiffPattern: one unconditional model per style.
    let diffpattern = train
        .each_ref()
        .map(|data| DiffPattern::fit(data, cfg.steps, cfg.window));

    let mut rows = fixed_block(cfg, &system, &rules, &train, &diffpattern);
    for scale in [2usize, 4, 8] {
        rows.extend(free_block(cfg, &system, &rules, &diffpattern, scale));
    }
    let mut quality = Quality {
        header: *cfg,
        orderings: orderings(&rows, cfg.window),
        rows,
        agent: agent_block(cfg, &system),
        known_red: Vec::new(),
    };
    quality.known_red = quality.failing().map(str::to_owned).collect();
    quality
}

/// The fixed-size block: window-size topologies of every method.
fn fixed_block(
    cfg: &BenchConfig,
    system: &ChatPattern,
    rules: &DesignRules,
    train: &[Vec<Topology>; 2],
    diffpattern: &[DiffPattern; 2],
) -> Vec<Row> {
    let mut block = Block {
        section: "fixed",
        size: cfg.window,
        frame_nm: cfg.frame_nm(cfg.window),
        real: Vec::new(),
    };
    let mut rows = reference_rows(&mut block, train, rules);

    // One generator feeds the four baselines in turn. The first three
    // are trained on Layer-10001 only, like the paper's.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed + 100);
    let train_a = &train[0];
    let legal_gan = LegalGan::fit(train_a);
    let latent = 12.min(cfg.train / 2);
    let cae = Cae::fit(train_a, latent);
    let vcae = Vcae::fit(train_a, latent);
    let transformer = LayouTransformer::fit(train_a, 1.0);
    let mut sample = |generator: &dyn Generator| {
        generator.generate_library(cfg.samples, cfg.window, cfg.window, &mut rng)
    };
    let repaired = |library: Vec<Topology>| -> Vec<Topology> {
        let repair = |topology| legal_gan.legalize_topology(topology);
        library.iter().map(repair).collect()
    };
    let single_style = [
        ("CAE+LegalGAN", repaired(sample(&cae))),
        ("VCAE+LegalGAN", repaired(sample(&vcae))),
        ("LayouTransformer", sample(&transformer)),
    ];
    for (offset, (method, library)) in (1u64..).zip(&single_style) {
        let library: Vec<&Topology> = library.iter().collect();
        let style = STYLES[0].name();
        rows.push(block.legalized(method, style, &library, rules, cfg.seed + offset));
    }
    let libraries = [sample(&diffpattern[0]), sample(&diffpattern[1])];
    rows.extend(block.legalized_styles(DIFFPATTERN, &libraries, rules, cfg.seed + 4));

    // ChatPattern: one conditional model over the union dataset.
    let libraries = [(STYLES[0], 5), (STYLES[1], 6)].map(|(style, offset)| {
        let (side, seed) = (cfg.window, cfg.seed + offset);
        let library = system.generate(style, side, side, cfg.samples, seed);
        library.expect("bench generation parameters are valid")
    });
    rows.extend(block.legalized_styles(CHATPATTERN, &libraries, rules, cfg.seed + 7));
    rows
}

/// One free-size block: `scale ×` the window per side.
fn free_block(
    cfg: &BenchConfig,
    system: &ChatPattern,
    rules: &DesignRules,
    diffpattern: &[DiffPattern; 2],
    scale: usize,
) -> Vec<Row> {
    let size = cfg.window * scale;
    let mut block = Block {
        section: "free",
        size,
        frame_nm: cfg.frame_nm(size),
        real: Vec::new(),
    };
    // Fewer samples at the biggest sizes: extension cost is quadratic
    // in scale.
    let samples = (cfg.samples / scale).max(8);

    // Real references: dataset windows scaled up like the paper's
    // 4x/16x/64x larger map splits, at the dataset's native 16 nm/cell
    // (they are never legalized, so the frame does not apply to them).
    let reference = |style: Style, seed: u64| -> Vec<Topology> {
        DatasetBuilder::new(style)
            .patch_nm(cfg.frame_nm(size))
            .topology_size(size)
            .count(samples.min(32))
            .seed(seed)
            .build()
            .topologies()
            .cloned()
            .collect()
    };
    let references = [
        reference(STYLES[0], cfg.seed + 20),
        reference(STYLES[1], cfg.seed + 21),
    ];
    let mut rows = reference_rows(&mut block, &references, rules);

    // DiffPattern w/ Concatenation: stitch already-legalized tiles.
    // Seam geometry is frozen — no legalization can repair a stitched
    // pattern — so legality is the DRC-clean fraction of the assemblies
    // that could be built at all, and diversity is measured over the
    // clean survivors' minimal topologies.
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed + 30 + scale as u64);
    let legalizer = Legalizer::new(*rules);
    let tile_frame = cfg.frame_nm(cfg.window);
    let mut assembled = [0usize; 2];
    let clean = [0, 1].map(|style| {
        let layouts = (0..samples).filter_map(|_| {
            let generator = &diffpattern[style];
            concat_extend(
                generator, cfg.window, scale, scale, tile_frame, &legalizer, 4, &mut rng,
            )
        });
        let minimal = layouts.map(|layout| SquishPattern::from_layout(&layout).minimized());
        let minimal: Vec<SquishPattern> = minimal.collect();
        assembled[style] = minimal.len();
        let clean = minimal
            .iter()
            .filter(|squish| check_pattern(squish, rules).is_clean());
        clean.map(|squish| squish.topology().clone()).collect()
    });
    let assembled = [assembled[0], assembled[1], assembled[0] + assembled[1]];
    for (assembled, (style, clean)) in assembled.into_iter().zip(per_style(&clean)) {
        let legality = clean.len() as f64 / assembled.max(1) as f64;
        let clean = clean.iter().copied();
        rows.push(block.row(CONCAT, style, assembled, Some(legality), None, clean));
    }

    // ChatPattern: a window-size sample extended to the target size,
    // by each method from generators of its own (Out-Painting is the
    // agent's documented default and keeps the seeds it always had).
    for (method, stream, evaluation) in [(METHODS[0], 50, 60), (METHODS[1], 70, 80)] {
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed + stream + scale as u64);
        let libraries = STYLES.map(|style| {
            (0..samples)
                .map(|_| {
                    let model = system.model();
                    let style = Some(style.id());
                    let seed_topology = model.generate(cfg.window, cfg.window, style, &mut rng);
                    extend(model, &seed_topology, size, size, method, style, &mut rng)
                })
                .collect()
        });
        let method = format!("{CHATPATTERN} ({method})");
        rows.extend(block.legalized_styles(&method, &libraries, rules, cfg.seed + evaluation));
    }
    rows
}

/// The agent block: Figure 4's request and §4.2's forced recovery.
fn agent_block(cfg: &BenchConfig, system: &ChatPattern) -> Vec<AgentRow> {
    let row = |task: &str, asked: usize, report: &SessionReport| AgentRow {
        task: task.to_owned(),
        asked,
        delivered: report.library.len(),
        tool_calls: report.tool_calls,
        modification_calls: report
            .render_transcript()
            .matches("Action: topology_modification")
            .count(),
        nm_per_cell: None,
    };

    // The paper's request, scaled: sizes {2L, 3L} instead of {200, 500},
    // a small total count, physical size = frame at three windows.
    let asked = 8;
    let request = format!(
        "Generate a layout pattern library, there are {asked} layout patterns in total. \
         The physical size fixed as {frame}nm * {frame}nm. The topology size should be chosen \
         from {two}*{two} and {three}*{three}. They should be in style of 'Layer-10001'.",
        frame = cfg.frame_nm(cfg.window * 3),
        two = cfg.window * 2,
        three = cfg.window * 3,
    );
    let report = system
        .chat(&request)
        .expect("the Figure-4 request parses into requirements");
    let figure4 = row("figure4", asked, &report);

    // §4.2: legalization fails repeatedly in the same region; the agent
    // in-paints that area with the same style and legalizes again
    // instead of dropping the pattern. Forced by forbidding drops and
    // shrinking the frame until legalization genuinely fails.
    let asked = 3;
    let mut recovery = None;
    for per_cell in [12i64, 11, 10, 9, 8, 7] {
        let request = format!(
            "Generate {asked} patterns, topology size {0}*{0}, physical size {1}nm x {1}nm, \
             style Layer-10001. Do not drop failed patterns.",
            cfg.window,
            (cfg.window as i64) * per_cell,
        );
        let report = system
            .chat_with_seed(&request, cfg.seed + per_cell as u64)
            .expect("the recovery request parses into requirements");
        let attempt = row("mistake_recovery", asked, &report);
        let repaired = attempt.modification_calls > 0;
        recovery = Some(AgentRow {
            nm_per_cell: repaired.then_some(per_cell),
            ..attempt
        });
        if repaired {
            break;
        }
    }
    vec![figure4, recovery.expect("at least one frame is tried")]
}

/// The orderings Table 1 reports, per style, over `rows`.
fn orderings(rows: &[Row], window: usize) -> Vec<Ordering> {
    let find = |section: &str, size: usize, method: &str, style: &str| {
        rows.iter().find(|row| {
            row.section == section && row.size == size && row.method == method && row.style == style
        })
    };
    let mut orderings = Vec::new();
    // `left ≥ right` (`>` when strict), by the points and by the
    // intervals.
    let mut claim = |name: String, left: (f64, (f64, f64)), right: (f64, (f64, f64)), strict| {
        let holds = if strict {
            left.0 > right.0
        } else {
            left.0 >= right.0
        };
        orderings.push(Ordering {
            name,
            left: left.0,
            right: right.0,
            holds,
            resolution: Resolution::of(left.1, right.1, strict),
        });
    };
    let point = |value: f64| (value, (value, value));
    let diversity = |row: &Row| (row.diversity, (row.diversity_lo, row.diversity_hi));
    for style in STYLES.map(Style::name) {
        let Some(ours) = find("fixed", window, CHATPATTERN, style) else {
            continue;
        };
        let baselines = rows.iter().filter(|row| {
            row.section == "fixed"
                && row.style == style
                && row.method != REAL
                && row.method != CHATPATTERN
        });
        for baseline in baselines {
            let (left, right) = (
                ours.legality.unwrap_or(0.0),
                baseline.legality.unwrap_or(0.0),
            );
            let name = format!(
                "fixed legality: ChatPattern >= {} ({style})",
                baseline.method
            );
            claim(name, point(left), point(right), false);
        }
        if let Some(baseline) = find("fixed", window, DIFFPATTERN, style) {
            let name = format!("fixed diversity: ChatPattern >= DiffPattern ({style})");
            claim(name, diversity(ours), diversity(baseline), false);
        }
    }
    for scale in [2usize, 4, 8] {
        for method in METHODS.map(|method| format!("{CHATPATTERN} ({method})")) {
            for style in STYLES.map(Style::name) {
                let Some(ours) = find("free", window * scale, &method, style) else {
                    continue;
                };
                // Every sample legal, as a count: the ratio is a float.
                let name = format!("free {scale}x legality: {method} = 100% ({style})");
                let all = point(if ours.legal == ours.samples { 1.0 } else { 0.0 });
                claim(
                    name,
                    (ours.legality.unwrap_or(0.0), all.1),
                    point(1.0),
                    false,
                );
                let name = format!("free {scale}x diversity: {method} > 0 ({style})");
                claim(name, diversity(ours), point(0.0), true);
            }
        }
    }
    orderings
}

/// Whether a field of a run and of the file agree: numbers within
/// [`TOLERANCE`] (which holds counts to equality), the rest equal.
fn agree(now: &serde_json::Value, was: &serde_json::Value) -> bool {
    match (now.as_f64(), was.as_f64()) {
        (Some(now), Some(was)) => (now - was).abs() <= TOLERANCE,
        _ => now == was,
    }
}

/// Holds the run's items against the file's, matched by `key`.
fn compare<T: Serialize>(
    what: &str,
    run: &[T],
    file: &[T],
    key: impl Fn(&T) -> String,
    complaints: &mut Vec<String>,
) {
    let mut recorded: BTreeMap<String, serde_json::Value> = file
        .iter()
        .map(|item| (key(item), serde_json::to_value(item)))
        .collect();
    for item in run {
        let key = key(item);
        let Some(was) = recorded.remove(&key) else {
            complaints.push(format!(
                "{what} {key}: measured by this run, not in the file"
            ));
            continue;
        };
        let now = serde_json::to_value(item);
        for (field, now) in now.as_object().into_iter().flatten() {
            let was = &was[field.as_str()];
            if !agree(now, was) {
                complaints.push(format!(
                    "{what} {key}: {field} is {now}, the file has {was}"
                ));
            }
        }
    }
    for key in recorded.keys() {
        complaints.push(format!(
            "{what} {key}: in the file, not measured by this run"
        ));
    }
}

impl Quality {
    /// The text of [`FILE`]: one JSON object, an item a line so that a
    /// re-record shows in a diff as the rows that moved.
    #[must_use]
    pub fn render(&self) -> String {
        fn lines<T: Serialize>(items: &[T]) -> String {
            let lines: Vec<String> = items
                .iter()
                .map(|item| serde_json::to_string(item).expect("plain data serializes"))
                .collect();
            lines.join(",\n")
        }
        format!(
            "{{\"header\":{},\n\"rows\":[\n{}\n],\n\"agent\":[\n{}\n],\n\"orderings\":[\n{}\n],\n\
             \"known_red\":[\n{}\n]}}\n",
            serde_json::to_string(&self.header).expect("plain data serializes"),
            lines(&self.rows),
            lines(&self.agent),
            lines(&self.orderings),
            lines(&self.known_red),
        )
    }

    /// Whether this file was recorded at `scale` — the only scale a run
    /// can be held against it at.
    ///
    /// # Errors
    ///
    /// Says both scales when they differ.
    pub fn recorded_at(&self, scale: &BenchConfig) -> Result<(), String> {
        if self.header == *scale {
            return Ok(());
        }
        let recorded = self.header;
        Err(format!(
            "{FILE} was recorded at {recorded:?}, this run is at {scale:?}"
        ))
    }

    /// Names of the orderings that fail in this run beyond the noise of
    /// their samples ([`Resolution::Fails`]).
    fn failing(&self) -> impl Iterator<Item = &str> {
        let failing =
            (self.orderings.iter()).filter(|ordering| ordering.resolution == Resolution::Fails);
        failing.map(|ordering| ordering.name.as_str())
    }

    /// Holds this run against a `file` [`Quality::recorded_at`] its
    /// scale: every count equal, every float within 1e-6, every row and
    /// ordering on both sides, and the orderings that fail exactly the
    /// file's `known_red`. One complaint a difference, each naming its
    /// row or ordering; none when the two agree.
    #[must_use]
    pub fn check(&self, file: &Quality) -> Vec<String> {
        let mut complaints = Vec::new();
        let key = |row: &Row| format!("{}/{}/{}/{}", row.section, row.size, row.method, row.style);
        compare("row", &self.rows, &file.rows, key, &mut complaints);
        let task = |row: &AgentRow| row.task.clone();
        compare("agent row", &self.agent, &file.agent, task, &mut complaints);
        let name = |ordering: &Ordering| ordering.name.clone();
        let (run, recorded) = (&self.orderings, &file.orderings);
        compare("ordering", run, recorded, name, &mut complaints);

        let failing: BTreeSet<&str> = self.failing().collect();
        let listed: BTreeSet<&str> = file.known_red.iter().map(String::as_str).collect();
        for name in failing.difference(&listed) {
            complaints.push(format!("ordering {name}: fails and is not in known_red"));
        }
        for name in listed.difference(&failing) {
            complaints.push(format!(
                "ordering {name}: is in known_red and does not fail in this run — \
                 shorten the list"
            ));
        }
        complaints
    }

    /// The tables in the paper's column layout (legality and diversity
    /// of Layer-10001, of Layer-10003 and of both pooled; a method that
    /// has one style has one pair), the agent block and the orderings,
    /// printed from the rows.
    #[must_use]
    pub fn tables(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        let mut previous: Option<&Row> = None;
        for row in &self.rows {
            let block = |row: &Row| (row.section.clone(), row.size);
            let new_block = previous.is_none_or(|previous| block(previous) != block(row));
            if new_block {
                let (section, size) = (&row.section, row.size);
                lines.push(format!("\n--- {section}-size ({size}x{size}) ---"));
                lines.push(format!(
                    "{:<28} {:>7} {:>7}   {:>7} {:>7}   {:>7} {:>7}",
                    "Method", "10001-L", "10001-H", "10003-L", "10003-H", "Tot-L", "Tot-H"
                ));
                lines.push("-".repeat(82));
            }
            if new_block || previous.is_some_and(|previous| previous.method != row.method) {
                lines.push(format!("{:<26}", row.method));
            }
            let legality = row.legality.map(|v| format!("{:.2}%", v * 100.0));
            let legality = legality.unwrap_or("/".to_owned());
            let cell = format!("   {legality:>7} {:7.3}", row.diversity);
            lines.last_mut().expect("a label is pushed").push_str(&cell);
            previous = Some(row);
        }

        lines.push("\n--- agent (Figure 4 request; §4.2 mistake recovery) ---".to_owned());
        lines.push(format!(
            "{:<18} {:>5} {:>9} {:>10} {:>13} {:>7}",
            "Task", "asked", "delivered", "tool calls", "modifications", "nm/cell"
        ));
        for row in &self.agent {
            lines.push(format!(
                "{:<18} {:>5} {:>9} {:>10} {:>13} {:>7}",
                row.task,
                row.asked,
                row.delivered,
                row.tool_calls,
                row.modification_calls,
                row.nm_per_cell.map_or("/".to_owned(), |nm| nm.to_string()),
            ));
        }

        lines.push("\n--- orderings ---".to_owned());
        for ordering in &self.orderings {
            let resolution = match ordering.resolution {
                Resolution::Holds => "holds",
                Resolution::Fails => "FAILS",
                Resolution::Unresolved if ordering.holds => "open (holds)",
                Resolution::Unresolved => "open (fails)",
            };
            lines.push(format!(
                "{resolution:<12} {} ({:.3} against {:.3})",
                ordering.name, ordering.left, ordering.right,
            ));
        }
        lines.join("\n").trim_start().to_owned() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A measured row, of two topologies with `cx` 2 and 4 and `cy` 2.
    fn row(method: &str, diversity: f64) -> Row {
        let block = Block {
            section: "fixed",
            size: 64,
            frame_nm: 1024,
            real: Vec::new(),
        };
        let library = ["1...\n....", "1.1.\n...."].map(Topology::from_ascii);
        let (style, extents) = (STYLES[0].name(), Some((968, 1001)));
        let row = block.row(method, style, 2, Some(1.0), extents, library.iter());
        assert_eq!((row.legal, row.diversity), (2, 1.0));
        assert_eq!(
            (row.cx_mean, row.cx_std, row.cy_mean, row.cy_std),
            (3.0, 1.0, 2.0, 0.0)
        );
        assert_eq!((row.distinct, row.at_ceiling), (2, true));
        assert_eq!((row.density, row.w1_density), (0.1875, None));
        assert_eq!((row.row_changes, row.col_changes), (1.0, 0.375));
        // Intervals a fifth of a bit wide about the given diversity.
        Row {
            diversity,
            diversity_lo: diversity - 0.1,
            diversity_hi: diversity + 0.1,
            ..row
        }
    }

    /// A two-row file: ChatPattern below DiffPattern, and known to be.
    fn recorded() -> Quality {
        let rows = vec![row(DIFFPATTERN, 3.853), row(CHATPATTERN, 3.545)];
        let orderings = orderings(&rows, 64);
        let names: Vec<&str> = orderings.iter().map(|o| o.name.as_str()).collect();
        let diversity = "fixed diversity: ChatPattern >= DiffPattern (Layer-10001)";
        let legality = "fixed legality: ChatPattern >= DiffPattern (Layer-10001)";
        assert_eq!(names, [legality, diversity]);
        assert!(orderings[0].holds && !orderings[1].holds);
        let resolutions = orderings.iter().map(|o| o.resolution);
        let resolutions: Vec<Resolution> = resolutions.collect();
        assert_eq!(resolutions, [Resolution::Holds, Resolution::Fails]);
        Quality {
            header: BenchConfig::default(),
            rows,
            agent: vec![AgentRow {
                task: "figure4".to_owned(),
                asked: 8,
                delivered: 8,
                tool_calls: 12,
                modification_calls: 0,
                nm_per_cell: None,
            }],
            orderings,
            known_red: vec![diversity.to_owned()],
        }
    }

    #[test]
    fn an_unchanged_run_passes_and_a_float_within_tolerance_does_too() {
        let file = recorded();
        assert_eq!(file.check(&file), [""; 0]);
        let mut run = recorded();
        run.rows[1].cx_mean += 1e-7;
        assert_eq!(run.check(&file), [""; 0]);
    }

    #[test]
    fn overlapping_intervals_leave_an_ordering_unresolved_and_out_of_known_red() {
        let mut rows = vec![row(DIFFPATTERN, 3.6), row(CHATPATTERN, 3.545)];
        let orderings = orderings(&rows, 64);
        assert!(!orderings[1].holds);
        assert_eq!(orderings[1].resolution, Resolution::Unresolved);
        // A diversity of zero is "> 0" only when its interval says so.
        let open = Resolution::of((0.0, 0.4), (0.0, 0.0), true);
        assert_eq!(open, Resolution::Unresolved);
        let zero = Resolution::of((0.0, 0.0), (0.0, 0.0), true);
        assert_eq!(zero, Resolution::Fails);
        rows[1].diversity_lo = 3.75;
        assert_eq!(super::orderings(&rows, 64)[1].resolution, Resolution::Holds);
        let mut file = recorded();
        file.orderings[1].resolution = Resolution::Unresolved;
        file.known_red.clear();
        assert_eq!(file.failing().count(), 0);
    }

    #[test]
    fn a_real_row_is_its_own_reference_and_others_are_measured_against_it() {
        let mut block = Block {
            section: "fixed",
            size: 64,
            frame_nm: 1024,
            real: Vec::new(),
        };
        let real = ["1...\n....", "1.1.\n...."]
            .map(Topology::from_ascii)
            .to_vec();
        let rules = DesignRules::default();
        let rows = reference_rows(&mut block, &[real, Vec::new()], &rules);
        assert_eq!((rows[0].w1_cx, rows[0].w1_cy), (Some(0.0), Some(0.0)));
        assert_eq!(rows[0].w1_density, Some(0.0));
        assert!(rows[0].extent_x_nm.is_some_and(|x| x > 0), "{:?}", rows[0]);
        assert_eq!(rows[1].w1_cx, None, "no real topology of that style");
        // cx 2 and 4 real; 4 and 4 generated: half the mass moves 2.
        let wider = [Topology::from_ascii("1.1.\n....")];
        let row = block.row(
            CHATPATTERN,
            STYLES[0].name(),
            2,
            None,
            None,
            wider.iter().chain(&wider),
        );
        assert_eq!((row.w1_cx, row.w1_cy), (Some(1.0), Some(0.0)));
        // Densities 125 and 250 real, 250 and 250 generated: half moves 125.
        assert_eq!(row.w1_density, Some(62.5));
        assert_eq!((row.distinct, row.at_ceiling), (1, false));
    }

    #[test]
    fn a_float_off_by_a_thousandth_fails_and_names_the_row() {
        let file = recorded();
        let mut run = recorded();
        run.rows[1].cx_std += 1e-3;
        let expected = format!(
            "row fixed/64/ChatPattern/Layer-10001: cx_std is {}, the file has 1",
            run.rows[1].cx_std
        );
        assert_eq!(run.check(&file), [expected]);
        // A count is held to equality by the same rule.
        run.rows[1].cx_std -= 1e-3;
        run.agent[0].tool_calls = 13;
        let expected = "agent row figure4: tool_calls is 13, the file has 12";
        assert_eq!(run.check(&file), [expected]);
    }

    #[test]
    fn a_failing_ordering_outside_known_red_fails_and_is_named() {
        let mut file = recorded();
        let red = file.known_red.pop().expect("one known red");
        let expected = format!("ordering {red}: fails and is not in known_red");
        assert_eq!(recorded().check(&file), [expected]);
    }

    #[test]
    fn a_listed_ordering_that_holds_now_asks_for_a_shorter_list() {
        let mut file = recorded();
        let holding = file.orderings[0].name.clone();
        file.known_red.push(holding.clone());
        let complaints = recorded().check(&file);
        assert_eq!(complaints.len(), 1, "{complaints:?}");
        assert!(complaints[0].starts_with(&format!("ordering {holding}: is in known_red")));
        assert!(
            complaints[0].ends_with("shorten the list"),
            "{complaints:?}"
        );
    }

    #[test]
    fn a_row_on_one_side_only_fails_either_way() {
        let full = recorded();
        let mut short = recorded();
        short.rows.remove(0);
        let key = "row fixed/64/DiffPattern/Layer-10001";
        let missing_from_file = format!("{key}: measured by this run, not in the file");
        assert_eq!(full.check(&short), [missing_from_file]);
        let missing_from_run = format!("{key}: in the file, not measured by this run");
        assert_eq!(short.check(&full), [missing_from_run]);
    }

    #[test]
    fn a_file_from_another_scale_is_refused_not_compared() {
        let file = recorded();
        assert_eq!(file.recorded_at(&BenchConfig::default()), Ok(()));
        let other = BenchConfig {
            samples: 39,
            ..BenchConfig::default()
        };
        let reason = file.recorded_at(&other).expect_err("39 is not 40");
        assert!(reason.contains("samples: 40") && reason.contains("samples: 39"));
    }

    #[test]
    fn a_recorded_file_round_trips_byte_for_byte() {
        let mut file = recorded();
        // Awkward floats: a negative-zero entropy stored as `0`, a
        // whole number, one with no short decimal form.
        file.rows[0].diversity = -0.0_f64 + 0.0;
        file.rows[0].cx_mean = 128.0;
        file.rows[1].legality = Some(1.0 / 3.0);
        let text = file.render();
        assert!(text.contains("\"diversity\":0,"), "{text}");
        let back: Quality = serde_json::from_str(&text).expect("own text parses");
        assert_eq!(back, file);
        assert_eq!(back.render(), text);
        // An item a line, so a re-record diffs as the rows that moved.
        for row in &file.rows {
            let json = serde_json::to_string(row).expect("serializes");
            assert!(text.lines().any(|line| line.trim_end_matches(',') == json));
        }
    }

    #[test]
    fn tables_print_zero_entropy_without_a_sign() {
        let mut file = recorded();
        file.rows[1].diversity = -0.0_f64 + 0.0;
        let tables = file.tables();
        let line = tables.lines().find(|line| line.starts_with(CHATPATTERN));
        let line = line.expect("ChatPattern row printed");
        assert!(line.contains("100.00%   0.000"), "{line}");
        assert!(!tables.contains("-0.000"), "{tables}");
        assert!(tables.contains("FAILS        fixed diversity: ChatPattern >= DiffPattern"));
    }
}
