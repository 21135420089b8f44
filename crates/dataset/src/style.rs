//! Layout styles (the paper's layer identities).

use serde::{Deserialize, Serialize};

/// The two layout styles of the evaluation, named after the ICCAD-2014
/// layers the paper uses.
///
/// The style is the condition `c` of the conditional diffusion model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Style {
    /// Dense routing-metal style (wires, jogs). High complexity.
    Layer10001,
    /// Sparse island / via-array style. Low complexity.
    Layer10003,
}

impl Style {
    /// All styles, in evaluation order.
    pub const ALL: [Style; 2] = [Style::Layer10001, Style::Layer10003];

    /// Stable numeric id used as the diffusion condition embedding index.
    #[must_use]
    pub fn id(self) -> u32 {
        match self {
            Style::Layer10001 => 0,
            Style::Layer10003 => 1,
        }
    }

    /// Canonical dataset name (e.g. `"Layer-10001"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Style::Layer10001 => "Layer-10001",
            Style::Layer10003 => "Layer-10003",
        }
    }

    /// Parses a style from the names used in natural-language requests
    /// (`"Layer-10001"`, `"layer 10003"`, `"10001"` …).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Style> {
        let digits: String = name.chars().filter(char::is_ascii_digit).collect();
        match digits.as_str() {
            "10001" => Some(Style::Layer10001),
            "10003" => Some(Style::Layer10003),
            _ => None,
        }
    }
}

impl std::fmt::Display for Style {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for s in Style::ALL {
            assert_eq!(Style::ALL[s.id() as usize], s);
        }
    }

    #[test]
    fn parses_loose_names() {
        assert_eq!(Style::from_name("Layer-10001"), Some(Style::Layer10001));
        assert_eq!(Style::from_name("layer 10003"), Some(Style::Layer10003));
        assert_eq!(Style::from_name("'Layer-10001'"), Some(Style::Layer10001));
        assert_eq!(Style::from_name("Layer-99999"), None);
    }

    #[test]
    fn display_is_canonical() {
        assert_eq!(Style::Layer10001.to_string(), "Layer-10001");
    }
}
