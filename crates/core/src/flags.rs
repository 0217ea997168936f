//! The five detection flags and their signal strengths (§4).

use core::fmt;

/// An AReST detection flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Flag {
    /// Consecutive & Vendor Range: identical labels across consecutive
    /// hops, with at least one hop fingerprint-mapped into a vendor SR
    /// range (§4.1).
    Cvr,
    /// Consecutive Only: identical labels across consecutive hops, no
    /// vendor mapping available (§4.2).
    Co,
    /// Label Stack & Vendor Range: a stack of ≥ 2 LSEs whose active
    /// label falls in the fingerprinted vendor's SR range (§4.3).
    Lsvr,
    /// Label & Vendor Range: a single LSE in the fingerprinted
    /// vendor's SR range (§4.4).
    Lvr,
    /// Label Stack Only: a stack of ≥ 2 LSEs with no sequence and no
    /// vendor mapping (§4.5).
    Lso,
}

impl Flag {
    /// All flags, strongest first — the paper's presentation order.
    pub const ALL: [Flag; 5] = [Flag::Cvr, Flag::Co, Flag::Lsvr, Flag::Lvr, Flag::Lso];

    /// Signal strength in stars, as assigned in §4: CVR ★5, CO ★4,
    /// LSVR ★4, LVR ★3, LSO ★1.
    pub const fn signal_strength(self) -> u8 {
        match self {
            Flag::Cvr => 5,
            Flag::Co => 4,
            Flag::Lsvr => 4,
            Flag::Lvr => 3,
            Flag::Lso => 1,
        }
    }

    /// The "strong" flags the paper trusts for characterization
    /// (§6.3/§7: everything but LSO).
    pub const fn is_strong(self) -> bool {
        !matches!(self, Flag::Lso)
    }

    /// The paper's upper-case name ("CVR", "CO", …), as displayed.
    pub const fn name(self) -> &'static str {
        match self {
            Flag::Cvr => "CVR",
            Flag::Co => "CO",
            Flag::Lsvr => "LSVR",
            Flag::Lvr => "LVR",
            Flag::Lso => "LSO",
        }
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strengths_match_the_paper() {
        assert_eq!(Flag::Cvr.signal_strength(), 5);
        assert_eq!(Flag::Co.signal_strength(), 4);
        assert_eq!(Flag::Lsvr.signal_strength(), 4);
        assert_eq!(Flag::Lvr.signal_strength(), 3);
        assert_eq!(Flag::Lso.signal_strength(), 1);
    }

    #[test]
    fn only_lso_is_weak() {
        for flag in Flag::ALL {
            assert_eq!(flag.is_strong(), flag != Flag::Lso);
        }
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = Flag::ALL.iter().map(Flag::to_string).collect();
        assert_eq!(names, vec!["CVR", "CO", "LSVR", "LVR", "LSO"]);
    }
}
