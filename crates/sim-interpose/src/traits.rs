//! The qualitative characteristics matrix (paper Table I).

use crate::mechanism::Mechanism;

/// Interposer expressiveness (what the handler can do).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expressiveness {
    /// Arbitrary userspace code with full memory access.
    Full,
    /// Restricted filter language (cBPF): no pointer dereference, no
    /// state, no deep argument inspection.
    Limited,
    /// Not applicable (no interposition).
    None,
}

impl std::fmt::Display for Expressiveness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Expressiveness::Full => write!(f, "Full"),
            Expressiveness::Limited => write!(f, "Limited"),
            Expressiveness::None => write!(f, "—"),
        }
    }
}

/// Interposition efficiency class (Table I's three levels).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Efficiency {
    /// Context switches per syscall (ptrace).
    Low,
    /// Extra mode switches / signal delivery per syscall (SUD,
    /// seccomp-user).
    Moderate,
    /// At most a selector/filter check on the syscall path.
    High,
}

impl std::fmt::Display for Efficiency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Efficiency::Low => write!(f, "Low"),
            Efficiency::Moderate => write!(f, "Moderate"),
            Efficiency::High => write!(f, "High"),
        }
    }
}

/// One row of Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Traits {
    /// Mechanism name.
    pub name: &'static str,
    /// Handler expressiveness.
    pub expressiveness: Expressiveness,
    /// Whether *all* syscalls are interposed, including ones from
    /// dynamically generated/loaded code.
    pub exhaustive: bool,
    /// Efficiency class.
    pub efficiency: Efficiency,
}

/// The characteristics of each mechanism — the paper's Table I.
/// Expressiveness and exhaustiveness are checked against the
/// mechanisms' observable behaviour in this crate's tests; efficiency
/// is what `table2` measures natively for the same mechanisms (its
/// `seccomp-bpf`, `seccomp-trap`, `seccomp-user`, `ptrace`, `SUD`,
/// `zpoline` and `lazypoline` rows).
pub fn mechanism_traits(m: Mechanism) -> Traits {
    match m {
        Mechanism::Baseline | Mechanism::BaselineSudEnabled => Traits {
            name: m.name(),
            expressiveness: Expressiveness::None,
            exhaustive: false,
            efficiency: Efficiency::High,
        },
        Mechanism::Ptrace => Traits {
            name: "ptrace",
            expressiveness: Expressiveness::Full,
            exhaustive: true,
            efficiency: Efficiency::Low,
        },
        Mechanism::SeccompBpf => Traits {
            name: "seccomp-bpf",
            expressiveness: Expressiveness::Limited,
            exhaustive: true,
            efficiency: Efficiency::High,
        },
        Mechanism::SeccompUser => Traits {
            name: "seccomp-user",
            expressiveness: Expressiveness::Full,
            exhaustive: true,
            efficiency: Efficiency::Moderate,
        },
        Mechanism::Sud => Traits {
            name: "SUD",
            expressiveness: Expressiveness::Full,
            exhaustive: true,
            efficiency: Efficiency::Moderate,
        },
        Mechanism::Zpoline => Traits {
            name: "binary rewriting (zpoline)",
            expressiveness: Expressiveness::Full,
            exhaustive: false,
            efficiency: Efficiency::High,
        },
        Mechanism::Lazypoline { .. } => Traits {
            name: "lazypoline (hybrid)",
            expressiveness: Expressiveness::Full,
            exhaustive: true,
            efficiency: Efficiency::High,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazypoline_is_the_only_full_exhaustive_high() {
        let mut winners: Vec<_> = Mechanism::all()
            .into_iter()
            .map(mechanism_traits)
            .filter(|t| {
                t.expressiveness == Expressiveness::Full
                    && t.exhaustive
                    && t.efficiency == Efficiency::High
            })
            .map(|t| t.name)
            .collect();
        winners.dedup();
        // Table I: the hybrid alone is fully expressive, exhaustive
        // and efficient.
        assert_eq!(winners, vec!["lazypoline (hybrid)"]);
    }

    #[test]
    fn table_one_rows_match_paper() {
        use Mechanism::*;
        let t = mechanism_traits(Ptrace);
        assert_eq!(
            (t.expressiveness, t.exhaustive, t.efficiency),
            (Expressiveness::Full, true, Efficiency::Low)
        );
        let t = mechanism_traits(SeccompBpf);
        assert_eq!(
            (t.expressiveness, t.exhaustive, t.efficiency),
            (Expressiveness::Limited, true, Efficiency::High)
        );
        let t = mechanism_traits(Sud);
        assert_eq!(
            (t.expressiveness, t.exhaustive, t.efficiency),
            (Expressiveness::Full, true, Efficiency::Moderate)
        );
        let t = mechanism_traits(Zpoline);
        assert_eq!(
            (t.expressiveness, t.exhaustive, t.efficiency),
            (Expressiveness::Full, false, Efficiency::High)
        );
    }

    #[test]
    fn display_impls() {
        assert_eq!(Expressiveness::Full.to_string(), "Full");
        assert_eq!(Expressiveness::Limited.to_string(), "Limited");
        assert_eq!(Efficiency::Moderate.to_string(), "Moderate");
    }
}
