//! The paper's Table I as data: what each interposition mechanism can
//! do (expressiveness), whether it misses syscalls (exhaustiveness),
//! and what class of cost it pays (efficiency). Every registry row
//! takes its [`Mechanism::traits`](crate::Mechanism::traits) from here.
//!
//! Expressiveness and exhaustiveness are observed natively by the
//! `exhaustiveness` bench (SUD and lazypoline see a runtime-emitted
//! syscall, zpoline misses it); efficiency is what `table2` measures
//! for the same mechanisms (its `seccomp-bpf`, `seccomp-trap`,
//! `seccomp-user`, `ptrace`, `SUD`, `zpoline` and `lazypoline` rows).

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

const fn row(
    name: &'static str,
    expressiveness: Expressiveness,
    exhaustive: bool,
    efficiency: Efficiency,
) -> Traits {
    Traits { name, expressiveness, exhaustive, efficiency }
}

pub(crate) const SUD: Traits = row("SUD", Expressiveness::Full, true, Efficiency::Moderate);
pub(crate) const ZPOLINE: Traits =
    row("binary rewriting (zpoline)", Expressiveness::Full, false, Efficiency::High);
pub(crate) const LAZYPOLINE: Traits =
    row("lazypoline (hybrid)", Expressiveness::Full, true, Efficiency::High);

/// The paper's Table I, in its order.
pub const TABLE_I: [Traits; 6] = [
    row("ptrace", Expressiveness::Full, true, Efficiency::Low),
    row("seccomp-bpf", Expressiveness::Limited, true, Efficiency::High),
    row("seccomp-user", Expressiveness::Full, true, Efficiency::Moderate),
    SUD,
    ZPOLINE,
    LAZYPOLINE,
];

/// The uninterposed rows (`none`, `sud-allow`): baselines, not
/// mechanisms, so not in Table I.
pub(crate) const BASELINE: Traits = row("baseline", Expressiveness::None, false, Efficiency::High);

/// A `replay:<path>` backend: re-execution against a recorded trace.
pub(crate) const REPLAY: Traits =
    row("deterministic replay", Expressiveness::Full, true, Efficiency::High);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazypoline_is_the_only_full_exhaustive_high() {
        let winners: Vec<_> = TABLE_I
            .iter()
            .filter(|t| {
                t.expressiveness == Expressiveness::Full
                    && t.exhaustive
                    && t.efficiency == Efficiency::High
            })
            .map(|t| t.name)
            .collect();
        // Table I: the hybrid alone is fully expressive, exhaustive
        // and efficient.
        assert_eq!(winners, vec!["lazypoline (hybrid)"]);
    }

    #[test]
    fn table_one_rows_match_paper() {
        use Efficiency::*;
        use Expressiveness::*;
        let rows: Vec<_> = TABLE_I
            .iter()
            .map(|t| (t.name, t.expressiveness, t.exhaustive, t.efficiency))
            .collect();
        assert_eq!(
            rows,
            [
                ("ptrace", Full, true, Low),
                ("seccomp-bpf", Limited, true, High),
                ("seccomp-user", Full, true, Moderate),
                ("SUD", Full, true, Moderate),
                ("binary rewriting (zpoline)", Full, false, High),
                ("lazypoline (hybrid)", Full, true, High),
            ]
        );
        // Every registered row takes its traits from the one table, or
        // is an uninterposed baseline; `replay:` has its own row.
        for m in crate::all() {
            let t = m.traits();
            assert!(TABLE_I.contains(&t) || t == BASELINE, "{}: {t:?}", m.name());
        }
        assert_eq!(crate::by_name("replay:/t.lpt").unwrap().traits(), REPLAY);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Expressiveness::Full.to_string(), "Full");
        assert_eq!(Expressiveness::Limited.to_string(), "Limited");
        assert_eq!(Efficiency::Moderate.to_string(), "Moderate");
    }
}
