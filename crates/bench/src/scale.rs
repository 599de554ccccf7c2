//! Experiment scale selection.

/// Dataset sizes for one experiment run.
///
/// The paper's Table II uses 2400 benign samples, 1800 white-box AEs and
/// 600 black-box AEs (a 4:3:1 ratio, preserved at every scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Human-readable name (also the on-disk cache directory).
    pub name: &'static str,
    /// Benign samples (LibriSpeech dev_clean substitute).
    pub benign: usize,
    /// White-box AEs requested.
    pub whitebox: usize,
    /// Black-box AEs requested.
    pub blackbox: usize,
    /// Hypothetical MAE AEs synthesized per type (Table IX).
    pub mae_per_type: usize,
    /// CommonVoice-substitute samples for the non-targeted study (§V-J).
    pub commonvoice: usize,
    /// Cross-validation folds (the paper uses 5).
    pub folds: usize,
}

impl Scale {
    /// CI smoke scale: everything in seconds.
    pub const TINY: Scale = Scale {
        name: "tiny",
        benign: 16,
        whitebox: 12,
        blackbox: 4,
        mae_per_type: 60,
        commonvoice: 6,
        folds: 4,
    };

    /// Default scale: minutes of one-time generation on a single core.
    pub const QUICK: Scale = Scale {
        name: "quick",
        benign: 80,
        whitebox: 60,
        blackbox: 20,
        mae_per_type: 400,
        commonvoice: 30,
        folds: 5,
    };

    /// The paper's scale (Table II counts). Expect hours of generation.
    pub const FULL: Scale = Scale {
        name: "full",
        benign: 2_400,
        whitebox: 1_800,
        blackbox: 600,
        mae_per_type: 2_400,
        commonvoice: 118,
        folds: 5,
    };

    /// Reads `MVP_EARS_SCALE` (`tiny` / `quick` / `full`), defaulting to
    /// [`Scale::QUICK`].
    ///
    /// # Panics
    ///
    /// Panics on an unknown scale name, listing the valid ones.
    pub fn from_env() -> Scale {
        match std::env::var("MVP_EARS_SCALE").as_deref() {
            Ok("tiny") => Scale::TINY,
            Ok("quick") | Err(_) => Scale::QUICK,
            Ok("full") => Scale::FULL,
            Ok(other) => panic!("unknown MVP_EARS_SCALE {other:?}; use tiny, quick or full"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_match_table_two() {
        for s in [Scale::QUICK, Scale::FULL] {
            // 4 : 3 : 1 benign : white-box : black-box.
            assert_eq!(s.benign * 3, s.whitebox * 4, "{}", s.name);
            assert_eq!(s.whitebox, s.blackbox * 3, "{}", s.name);
        }
        assert_eq!(Scale::FULL.benign, 2_400);
    }

    #[test]
    fn names_unique() {
        let names = [Scale::TINY.name, Scale::QUICK.name, Scale::FULL.name];
        let set: std::collections::HashSet<_> = names.into_iter().collect();
        assert_eq!(set.len(), 3);
    }
}
