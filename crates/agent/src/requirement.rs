//! Requirement auto-formatting (paper §3.1 and §4.2).
//!
//! Translates free-form natural-language requests into the paper's
//! standard requirement list: one [`Requirement`] per sub-task, each with
//! a Basic part (topology size, physical size, style, count) and an
//! Advanced part (extension method, drop-allowed, time limitation).
//! Requests naming several topology sizes or styles are factorized into
//! one sub-task per combination, exactly like the running example of
//! Figure 4 (100k patterns over sizes {200², 500²} → two 50k sub-tasks).

use cp_dataset::Style;
use cp_extend::ExtensionMethod;
use cp_layout::squish::{fits_one_request, MAX_REQUEST_CELLS};
use serde::{Deserialize, Serialize};

/// Why a natural-language request could not be turned into a usable
/// requirement list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequirementError {
    message: String,
}

impl RequirementError {
    /// Creates an error with a message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> RequirementError {
        RequirementError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RequirementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "requirement parsing failed: {}", self.message)
    }
}

impl std::error::Error for RequirementError {}

/// One structured sub-task of a user request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Requirement {
    /// Topology matrix size `(rows, cols)`.
    pub topology_size: (usize, usize),
    /// Physical pattern size in nm `(width, height)`.
    pub physical_size_nm: (i64, i64),
    /// Pattern style (the diffusion condition).
    pub style: Style,
    /// Number of legal patterns to deliver.
    pub count: usize,
    /// Requested extension method (`None` = let the agent choose from
    /// its experience documents).
    pub extension_method: Option<ExtensionMethod>,
    /// Whether failed topologies may simply be dropped.
    pub drop_allowed: bool,
    /// Optional free-text time limitation.
    pub time_limit: Option<String>,
}

impl Requirement {
    /// Renders the paper's requirement-list template for sub-task `index`
    /// (1-based).
    #[must_use]
    pub(crate) fn render(&self, index: usize) -> String {
        format!(
            "# Requirement - subtask {index}\n\
             ## Basic Part: Topology Size: [{}, {}], Physical Size: [{}, {}] nm, \
             Style: {}, Count: {},\n\
             ## Advanced Part: Extension Method: {} (Default: Out), \
             Drop Allowed: {} (Default: True), Time Limitation: {} (Default: None).",
            self.topology_size.0,
            self.topology_size.1,
            self.physical_size_nm.0,
            self.physical_size_nm.1,
            self.style,
            self.count,
            self.extension_method.map_or("Out", ExtensionMethod::name),
            if self.drop_allowed { "True" } else { "False" },
            self.time_limit.as_deref().unwrap_or("None"),
        )
    }
}

/// [`parse`] of a first turn: `parse(request, None)`.
///
/// # Errors
///
/// As [`parse`].
///
/// # Example
///
/// ```
/// use cp_agent::auto_format;
/// let reqs = auto_format(
///     "Generate a layout pattern library, there are 100k layout patterns \
///      in total. The physical size fixed as 1.5um * 1.5um. The topology \
///      size should be chosen from 200*200 and 500*500. They should be in \
///      style of 'Layer-10001'.",
/// )
/// .expect("the Figure 4 request parses");
/// assert_eq!(reqs.len(), 2);
/// assert_eq!(reqs[0].count, 50_000);
/// assert_eq!(reqs[0].topology_size, (200, 200));
/// assert_eq!(reqs[1].topology_size, (500, 500));
/// assert_eq!(reqs[0].physical_size_nm, (1500, 1500));
/// ```
pub fn auto_format(request: &str) -> Result<Vec<Requirement>, RequirementError> {
    parse(request, None)
}

/// Parses one user turn into requirement lists, one per sub-task.
///
/// A first turn (`context = None`) fills what it does not mention from
/// the global defaults. A follow-up fills it from `context` — the
/// previous turn's last requirement — so a short refinement operates on
/// the previous turn's results:
///
/// * "now make them denser" keeps the size, count and frame but shifts
///   the style to the dense layer;
/// * "extend the last one to 3x" scales the previous topology size by
///   the factor while keeping everything else;
/// * an unqualified "2 more patterns" keeps size, style and frame and
///   only replaces the count.
///
/// # Errors
///
/// Refuses, on every turn alike, an empty utterance, a size with a zero
/// side, a style other than Layer-10001 and Layer-10003, a sub-task
/// topology larger than one request may ask for
/// ([`fits_one_request`]), and a total that splits to zero patterns
/// for some sub-task.
pub fn parse(
    utterance: &str,
    context: Option<&Requirement>,
) -> Result<Vec<Requirement>, RequirementError> {
    if utterance.trim().is_empty() {
        return Err(RequirementError::new(
            "the request is empty; describe the pattern library to generate",
        ));
    }
    let tokens = tokenize(utterance);
    let sizes = find_sizes(&tokens)?;
    let topo_sizes: Vec<(usize, usize)> = sizes
        .iter()
        .filter(|s| !s.physical)
        .map(|s| (s.a as usize, s.b as usize))
        .collect();
    let physical: Vec<(i64, i64)> = sizes
        .iter()
        .filter(|s| s.physical)
        .map(|s| (s.a, s.b))
        .collect();
    let styles = find_styles(&tokens)?;
    let (count, per_each) = find_count(&tokens);
    let method = find_method(utterance).or_else(|| context.and_then(|c| c.extension_method));
    let drop_mentioned = tokens
        .iter()
        .any(|t| matches!(t, Token::Word(w) if w.starts_with("drop")));
    let drop_allowed = match context {
        Some(c) if !drop_mentioned => c.drop_allowed,
        _ => find_drop_allowed(&tokens),
    };
    let time_limit =
        find_time_limit(&tokens).or_else(|| context.and_then(|c| c.time_limit.clone()));

    let too_large = |(rows, cols)| {
        RequirementError::new(format!(
            "topology size {rows}x{cols} exceeds the {MAX_REQUEST_CELLS} cells one request \
             may ask for"
        ))
    };
    let topo_sizes = match (topo_sizes.is_empty(), context) {
        (false, _) => topo_sizes,
        (true, Some(c)) => {
            let (rows, cols) = c.topology_size;
            let factor = find_scale_factor(&tokens).unwrap_or(1);
            // A product that overflows scales a size already too large.
            let scaled = rows.checked_mul(factor).zip(cols.checked_mul(factor));
            vec![scaled.ok_or_else(|| too_large(c.topology_size))?]
        }
        (true, None) => vec![(128, 128)],
    };
    if let Some(&size) = topo_sizes
        .iter()
        .find(|&&(r, c)| !fits_one_request(r, c, 1))
    {
        return Err(too_large(size));
    }
    let styles = if styles.is_empty() {
        match (find_density_shift(&tokens), context) {
            (Some(style), _) => vec![style],
            (None, Some(c)) => vec![c.style],
            (None, None) => vec![Style::Layer10001],
        }
    } else {
        styles
    };
    let physical0 = physical
        .first()
        .copied()
        .or_else(|| context.map(|c| c.physical_size_nm))
        .unwrap_or((2048, 2048));

    let n_subtasks = topo_sizes.len() * styles.len();
    // A follow-up without an explicit count repeats the previous
    // turn's per-task count.
    let (total, per_each) = match (count, context) {
        (Some(total), _) => (total, per_each),
        (None, Some(c)) => (c.count, true),
        (None, None) => (10 * n_subtasks, per_each),
    };
    let per_task = if per_each { total } else { total / n_subtasks };
    let remainder = if per_each { 0 } else { total % n_subtasks };

    let mut out = Vec::with_capacity(n_subtasks);
    for style in &styles {
        for &topology_size in &topo_sizes {
            let count = per_task + if out.is_empty() { remainder } else { 0 };
            if count == 0 {
                return Err(RequirementError::new(format!(
                    "the requested total splits to zero patterns for the {}x{} sub-task; \
                     raise the count or drop a topology size",
                    topology_size.0, topology_size.1,
                )));
            }
            out.push(Requirement {
                topology_size,
                physical_size_nm: physical0,
                style: *style,
                count,
                extension_method: method,
                drop_allowed,
                time_limit: time_limit.clone(),
            });
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy)]
struct SizePair {
    a: i64,
    b: i64,
    physical: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum Token {
    Word(String),
    Number { value: f64, unit: Unit },
    Star,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Unit {
    None,
    Um,
    Nm,
    Kilo,
    Mega,
}

fn tokenize(text: &str) -> Vec<Token> {
    // Normalize separators: unify ×, insert spaces around '*', split
    // digit-x-digit, strip thousands separators.
    let lower = text.to_ascii_lowercase().replace('×', "*");
    let chars: Vec<char> = lower.chars().collect();
    let mut normalized = String::with_capacity(lower.len() + 16);
    for (i, &c) in chars.iter().enumerate() {
        match c {
            '*' => normalized.push_str(" * "),
            'x' if i > 0
                && i + 1 < chars.len()
                && chars[i - 1].is_ascii_digit()
                && chars[i + 1].is_ascii_digit() =>
            {
                normalized.push_str(" * ");
            }
            ',' if i > 0
                && i + 1 < chars.len()
                && chars[i - 1].is_ascii_digit()
                && chars[i + 1].is_ascii_digit() => {}
            c if c.is_ascii_alphanumeric() || c == '.' || c == '-' || c == '\'' => {
                normalized.push(c);
            }
            _ => normalized.push(' '),
        }
    }
    normalized
        .split_whitespace()
        .map(|raw| {
            let w = raw.trim_matches(|c| c == '\'' || c == '.' || c == '-');
            if w == "*" || raw == "*" || w == "x" || w == "by" {
                return Token::Star;
            }
            parse_number(w).map_or_else(
                || Token::Word(w.to_owned()),
                |(value, unit)| Token::Number { value, unit },
            )
        })
        .collect()
}

fn parse_number(word: &str) -> Option<(f64, Unit)> {
    if word.is_empty() || !word.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let digits_end = word
        .find(|c: char| !c.is_ascii_digit() && c != '.')
        .unwrap_or(word.len());
    let (num, suffix) = word.split_at(digits_end);
    let value: f64 = num.parse().ok()?;
    let unit = match suffix {
        "" => Unit::None,
        "um" | "µm" => Unit::Um,
        "nm" => Unit::Nm,
        "k" => Unit::Kilo,
        "m" => Unit::Mega,
        _ => return None,
    };
    Some((value, unit))
}

/// Number in nanometres if the unit is physical.
fn to_nm(value: f64, unit: Unit) -> Option<i64> {
    match unit {
        Unit::Um => Some((value * 1000.0).round() as i64),
        Unit::Nm => Some(value.round() as i64),
        _ => None,
    }
}

fn scalar(value: f64, unit: Unit) -> i64 {
    match unit {
        Unit::Kilo => (value * 1e3).round() as i64,
        Unit::Mega => (value * 1e6).round() as i64,
        _ => value.round() as i64,
    }
}

fn find_sizes(tokens: &[Token]) -> Result<Vec<SizePair>, RequirementError> {
    let mut out = Vec::new();
    // Whether "physical" is the last of "physical" / "topology" seen.
    let mut after_physical = false;
    let mut i = 0;
    while i < tokens.len() {
        if let Token::Word(w) = &tokens[i] {
            if w == "physical" || w == "topology" {
                after_physical = w == "physical";
            }
        }
        if let (
            Some(Token::Number { value: a, unit: ua }),
            Some(Token::Star),
            Some(Token::Number { value: b, unit: ub }),
        ) = (tokens.get(i), tokens.get(i + 1), tokens.get(i + 2))
        {
            let has_physical_unit = to_nm(*a, *ua).is_some() || to_nm(*b, *ub).is_some();
            // "64*64 cells" counts cells, whatever came before it.
            let cells = matches!(tokens.get(i + 3), Some(Token::Word(w)) if w.starts_with("cell"));
            let physical = has_physical_unit || after_physical && !cells;
            let (a, b) = if physical {
                (
                    to_nm(*a, *ua).unwrap_or_else(|| scalar(*a, *ua)),
                    to_nm(*b, *ub).unwrap_or_else(|| scalar(*b, *ub)),
                )
            } else {
                (scalar(*a, *ua), scalar(*b, *ub))
            };
            if a <= 0 || b <= 0 {
                let size = if physical {
                    format!("physical size {a}nm x {b}nm")
                } else {
                    format!("topology size {a}x{b}")
                };
                return Err(RequirementError::new(format!("{size} has a zero side")));
            }
            out.push(SizePair { a, b, physical });
            i += 3;
            continue;
        }
        i += 1;
    }
    Ok(out)
}

fn find_styles(tokens: &[Token]) -> Result<Vec<Style>, RequirementError> {
    let mut styles = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        let name = match t {
            Token::Word(w) if w.contains("layer") => w.clone(),
            // "layer 10003", the digits a token of their own.
            Token::Number {
                value,
                unit: Unit::None,
            } if layer_number(tokens, i) => format!("layer-{value}"),
            _ => continue,
        };
        let digits: String = name.chars().filter(char::is_ascii_digit).collect();
        match Style::from_name(&name) {
            Some(style) if !styles.contains(&style) => styles.push(style),
            Some(_) => {}
            // A style's name with a number no style has.
            None if name.starts_with("layer") && !digits.is_empty() => {
                return Err(RequirementError::new(format!(
                    "unknown style Layer-{digits}; the styles are Layer-10001 and Layer-10003"
                )));
            }
            None => {}
        }
    }
    Ok(styles)
}

/// Whether the number at `i` follows the word "layer" (a style name
/// written with a space, never a count).
fn layer_number(tokens: &[Token], i: usize) -> bool {
    i > 0 && matches!(&tokens[i - 1], Token::Word(w) if w == "layer")
}

fn find_count(tokens: &[Token]) -> (Option<usize>, bool) {
    // A count is a unitless/k/m number followed within three tokens by
    // "pattern(s)", or directly by "more", and not part of a size pair
    // or a style name.
    for (i, t) in tokens.iter().enumerate() {
        let Token::Number { value, unit } = t else {
            continue;
        };
        if matches!(unit, Unit::Um | Unit::Nm) || layer_number(tokens, i) {
            continue;
        }
        if matches!(tokens.get(i + 1), Some(Token::Star))
            || (i > 0 && matches!(tokens[i - 1], Token::Star))
        {
            continue;
        }
        let window = &tokens[i + 1..(i + 4).min(tokens.len())];
        let mentions_patterns = window.iter().any(|t| {
            matches!(t, Token::Word(w) if w.starts_with("pattern") || w == "layouts" || w == "samples")
        });
        let more = matches!(tokens.get(i + 1), Some(Token::Word(w)) if w == "more");
        if mentions_patterns || more {
            let per_each = tokens[(i + 1)..(i + 8).min(tokens.len())]
                .iter()
                .any(|t| matches!(t, Token::Word(w) if w == "each" || w == "every"));
            return (Some(scalar(*value, *unit) as usize), per_each);
        }
    }
    (None, false)
}

fn find_method(request: &str) -> Option<ExtensionMethod> {
    let lower = request.to_ascii_lowercase();
    if lower.contains("out-painting")
        || lower.contains("out painting")
        || lower.contains("outpainting")
    {
        Some(ExtensionMethod::OutPainting)
    } else if lower.contains("in-painting")
        || lower.contains("in painting")
        || lower.contains("inpainting")
    {
        Some(ExtensionMethod::InPainting)
    } else {
        None
    }
}

/// A bare scale factor in a follow-up utterance: "3x", "3×", "2 *",
/// "double", "triple" — a multiplier that is *not* part of an
/// `N * M` size pair.
fn find_scale_factor(tokens: &[Token]) -> Option<usize> {
    for (i, t) in tokens.iter().enumerate() {
        match t {
            Token::Word(w) => match w.as_str() {
                "double" => return Some(2),
                "triple" => return Some(3),
                "quadruple" => return Some(4),
                w if w.len() > 1 && w.ends_with('x') => {
                    if let Ok(n) = w[..w.len() - 1].parse::<usize>() {
                        if (2..=64).contains(&n) {
                            return Some(n);
                        }
                    }
                }
                _ => {}
            },
            // `N *` with no trailing number (a full pair would have
            // been consumed as a size).
            Token::Number {
                value,
                unit: Unit::None,
            } if matches!(tokens.get(i + 1), Some(Token::Star))
                && !matches!(tokens.get(i + 2), Some(Token::Number { .. })) =>
            {
                let n = value.round() as usize;
                if (2..=64).contains(&n) {
                    return Some(n);
                }
            }
            _ => {}
        }
    }
    None
}

/// Style shift implied by a density adjective ("denser" → the dense
/// layer, "sparser" → the sparse layer). Only consulted when no style
/// is named explicitly.
fn find_density_shift(tokens: &[Token]) -> Option<Style> {
    for t in tokens {
        if let Token::Word(w) = t {
            if w.starts_with("dense") {
                return Some(Style::Layer10001);
            }
            if w.starts_with("sparse") {
                return Some(Style::Layer10003);
            }
        }
    }
    None
}

fn find_drop_allowed(tokens: &[Token]) -> bool {
    for (i, t) in tokens.iter().enumerate() {
        if matches!(t, Token::Word(w) if w.starts_with("drop")) {
            let before = &tokens[i.saturating_sub(3)..i];
            let negated = before.iter().any(|t| {
                matches!(t, Token::Word(w) if w == "not" || w == "no" || w == "never" || w == "without" || w == "don't" || w == "dont")
            });
            let after = &tokens[i + 1..(i + 4).min(tokens.len())];
            let explicit_false = after
                .iter()
                .any(|t| matches!(t, Token::Word(w) if w == "false" || w == "disallowed" || w == "forbidden"));
            if negated || explicit_false {
                return false;
            }
        }
    }
    true
}

fn find_time_limit(tokens: &[Token]) -> Option<String> {
    for (i, t) in tokens.iter().enumerate() {
        if matches!(t, Token::Word(w) if w == "within" || w == "limit") {
            // "a time limit of 30 minutes": one "of" may come between.
            let at =
                i + 1 + usize::from(matches!(tokens.get(i + 1), Some(Token::Word(w)) if w == "of"));
            if let Some(Token::Number { value, unit: _ }) = tokens.get(at) {
                if let Some(Token::Word(u)) = tokens.get(at + 1) {
                    if u.starts_with("hour") || u.starts_with("minute") || u.starts_with("second") {
                        return Some(format!("{value} {u}"));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIGURE4: &str = "Generate a layout pattern library, there are 100k layout \
        patterns in total. The physical size fixed as 1.5um * 1.5um. The topology size \
        should be chosen from 200*200 and 500*500. They should be in style of 'Layer-10001'.";

    #[test]
    fn figure4_request_factorizes_into_two_subtasks() {
        let reqs = auto_format(FIGURE4).expect("parses");
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].topology_size, (200, 200));
        assert_eq!(reqs[1].topology_size, (500, 500));
        for r in &reqs {
            assert_eq!(r.count, 50_000);
            assert_eq!(r.physical_size_nm, (1500, 1500));
            assert_eq!(r.style, Style::Layer10001);
            assert!(r.drop_allowed);
            assert_eq!(r.time_limit, None);
        }
    }

    #[test]
    fn render_matches_paper_template() {
        let reqs = auto_format(FIGURE4).expect("parses");
        let text = reqs[0].render(1);
        assert!(text.contains("# Requirement - subtask 1"));
        assert!(text.contains("Topology Size: [200, 200]"));
        assert!(text.contains("Physical Size: [1500, 1500] nm"));
        assert!(text.contains("Style: Layer-10001"));
        assert!(text.contains("Count: 50000"));
        assert!(text.contains("Drop Allowed: True"));
    }

    #[test]
    fn per_each_counts_are_not_split() {
        let reqs = auto_format(
            "Please create 10000 patterns for each setting, topology size chosen \
             from 256*256 and 512*512, style Layer-10003.",
        )
        .expect("parses");
        assert_eq!(reqs.len(), 2);
        assert!(reqs.iter().all(|r| r.count == 10_000));
        assert!(reqs.iter().all(|r| r.style == Style::Layer10003));
    }

    #[test]
    fn nm_sizes_and_x_separator() {
        let reqs =
            auto_format("Make 50 patterns of physical size 2048nm x 2048nm, topology 128x128.")
                .expect("parses");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].physical_size_nm, (2048, 2048));
        assert_eq!(reqs[0].topology_size, (128, 128));
        assert_eq!(reqs[0].count, 50);
    }

    #[test]
    fn multiple_styles_cross_sizes() {
        let reqs = auto_format(
            "Generate 400 patterns in total, topology sizes 128*128 and 256*256, \
             in styles Layer-10001 and Layer-10003.",
        )
        .expect("parses");
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs.iter().map(|r| r.count).sum::<usize>(), 400);
    }

    #[test]
    fn method_and_drop_preferences() {
        let reqs = auto_format(
            "Create 20 patterns at 256*256 using in-painting; do not drop failed \
             patterns, style Layer-10001.",
        )
        .expect("parses");
        assert_eq!(reqs[0].extension_method, Some(ExtensionMethod::InPainting));
        assert!(!reqs[0].drop_allowed);
    }

    #[test]
    fn time_limit_is_captured() {
        let reqs = auto_format("Generate 100 patterns at 128*128 within 2 hours.").expect("parses");
        assert_eq!(reqs[0].time_limit.as_deref(), Some("2 hours"));
    }

    #[test]
    fn defaults_when_request_is_vague() {
        let reqs = auto_format("Give me some layout patterns please.").expect("parses");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].topology_size, (128, 128));
        assert_eq!(reqs[0].style, Style::Layer10001);
        assert!(reqs[0].count > 0);
    }

    #[test]
    fn comma_thousands_are_parsed() {
        let reqs = auto_format("I need 10,000 patterns, topology size 128*128, Layer-10003.")
            .expect("parses");
        assert_eq!(reqs[0].count, 10_000);
    }

    #[test]
    fn parse_rejects_empty_requests() {
        let err = parse("   ", None).expect_err("empty request must fail");
        assert!(err.to_string().contains("empty"));
        assert!(err.to_string().contains("requirement parsing failed"));
    }

    #[test]
    fn parse_rejects_zero_count_subtasks() {
        let err = auto_format(
            "Generate 1 pattern, topology size chosen from 16*16 and 32*32, style Layer-10001.",
        )
        .expect_err("1 pattern over 2 sub-tasks must fail");
        assert!(err.to_string().contains("zero patterns"));
    }

    fn previous_turn() -> Requirement {
        Requirement {
            topology_size: (32, 32),
            physical_size_nm: (512, 512),
            style: Style::Layer10003,
            count: 4,
            extension_method: None,
            drop_allowed: false,
            time_limit: None,
        }
    }

    #[test]
    fn followup_denser_shifts_style_and_keeps_the_rest() {
        let reqs = parse("Now make them denser.", Some(&previous_turn())).expect("parses");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].style, Style::Layer10001, "denser = the dense layer");
        assert_eq!(reqs[0].topology_size, (32, 32));
        assert_eq!(reqs[0].physical_size_nm, (512, 512));
        assert_eq!(reqs[0].count, 4);
        assert!(!reqs[0].drop_allowed, "drop preference carries over");
    }

    #[test]
    fn followup_scale_factor_grows_the_previous_size() {
        for utterance in [
            "Extend the last ones to 3x.",
            "Extend the last ones to 3×.",
            "Triple the topology size.",
        ] {
            let reqs = parse(utterance, Some(&previous_turn())).expect("parses");
            assert_eq!(reqs.len(), 1, "{utterance}");
            assert_eq!(reqs[0].topology_size, (96, 96), "{utterance}");
            assert_eq!(reqs[0].style, Style::Layer10003, "style carries over");
        }
    }

    #[test]
    fn followup_count_only_replaces_count() {
        let reqs = parse("2 more patterns please.", Some(&previous_turn())).expect("parses");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].count, 2);
        assert_eq!(reqs[0].topology_size, (32, 32));
    }

    #[test]
    fn followup_inherits_time_limit() {
        let mut prev = previous_turn();
        prev.time_limit = Some("2 hours".into());
        let reqs = parse("Now make them denser.", Some(&prev)).expect("parses");
        assert_eq!(reqs[0].time_limit.as_deref(), Some("2 hours"));
        // An explicit limit in the utterance still wins.
        let reqs = parse("1 more pattern within 5 minutes.", Some(&prev)).expect("parses");
        assert_eq!(reqs[0].time_limit.as_deref(), Some("5 minutes"));
    }

    #[test]
    fn followup_explicit_fields_win_over_context() {
        let reqs = parse(
            "Generate 6 patterns, topology size 64*64, style Layer-10001, \
             physical size 1024nm x 1024nm.",
            Some(&previous_turn()),
        )
        .expect("parses");
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].topology_size, (64, 64));
        assert_eq!(reqs[0].style, Style::Layer10001);
        assert_eq!(reqs[0].physical_size_nm, (1024, 1024));
        assert_eq!(reqs[0].count, 6);
    }

    #[test]
    fn an_overflowing_size_is_refused_and_its_follow_up_scale_does_not_wrap() {
        let err = auto_format("Generate 1 pattern, topology size 9223372036854775807*4.")
            .expect_err("2^65 cells is no request");
        assert!(
            err.to_string().contains("exceeds the 4194304 cells"),
            "{err}"
        );
        // A context the parse would no longer produce (say, from a
        // snapshot written before it refused such sizes).
        let wide = Requirement {
            topology_size: (9_223_372_036_854_775_807, 4),
            ..previous_turn()
        };
        let err = parse("triple it", Some(&wide)).expect_err("the scale overflows");
        assert!(
            err.to_string()
                .contains("size 9223372036854775807x4 exceeds"),
            "{err}"
        );
    }

    #[test]
    fn a_size_past_one_request_is_refused_by_the_parse() {
        let err = auto_format("Generate 2 patterns, topology size 4096*4096, style Layer-10001.")
            .expect_err("16M cells is more than one request may ask for");
        assert_eq!(
            err.to_string(),
            "requirement parsing failed: topology size 4096x4096 exceeds the 4194304 cells \
             one request may ask for"
        );
        assert!(auto_format("Generate 1 pattern, topology size 2048*2048.").is_ok());
    }

    #[test]
    fn a_zero_count_follow_up_is_refused_like_a_first_turn() {
        let first = auto_format("0 more patterns").expect_err("a first turn refuses it");
        let follow_up =
            parse("0 more patterns", Some(&previous_turn())).expect_err("so does a follow-up");
        assert!(first.to_string().contains("zero patterns for the 128x128"));
        assert!(follow_up
            .to_string()
            .contains("zero patterns for the 32x32"));
    }
}
