//! Property tests for the `LPSFIP1` reader: a policy survives its own
//! encoding with every answer intact, and bytes it did not write —
//! truncated, flipped or followed by garbage — come back as a policy or
//! a typed [`PolicyError`], never as a panic.

use lp_sfip::{Policy, PolicyError, HEADER_SIZE, MATRIX_BYTES};
use proptest::collection::vec;
use proptest::prelude::*;

/// Sysnos past `MAX_SYSCALL_NR` (512) too: the policy ignores them on
/// insert and allows them on query.
fn arb_edges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    vec((0u64..600, 0u64..600), 0..64)
}

/// Origin sites, 0 (unattributed) included.
fn arb_sites() -> impl Strategy<Value = Vec<(u64, u64)>> {
    vec((0u64..600, 0u64..1 << 40), 0..32)
}

fn seeded(edges: &[(u64, u64)], sites: &[(u64, u64)]) -> Policy {
    let mut p = Policy::empty("prop");
    for &(from, to) in edges {
        p.insert(from, to);
    }
    for &(nr, site) in sites {
        p.insert_origin(nr, site);
    }
    p
}

/// A policy that carries origin sets, so its encoding has a tail.
fn with_origins(sites: &[(u64, u64)]) -> Vec<u8> {
    let mut p = seeded(&[(0, 1)], sites);
    p.insert_origin(1, 0x40_1000);
    p.encode()
}

proptest! {
    /// Every transition and origin query answers the same after
    /// encode → decode, for the seeded pairs and for random probes.
    #[test]
    fn encode_decode_keeps_every_answer(
        edges in arb_edges(),
        sites in arb_sites(),
        probes in vec((0u64..600, 0u64..600), 64..65),
    ) {
        let p = seeded(&edges, &sites);
        let back = Policy::decode(&p.encode()).map_err(|e| e.to_string())?;
        for &(from, to) in edges.iter().chain(&probes) {
            prop_assert_eq!(back.allows(from, to), p.allows(from, to), "{} -> {}", from, to);
        }
        for &(nr, site) in &sites {
            prop_assert!(back.allows_origin(nr, site), "learned origin {} @ {:#x}", nr, site);
        }
        for &(nr, site) in sites.iter().chain(&probes) {
            let site = site ^ 0x10;
            prop_assert_eq!(back.allows_origin(nr, site), p.allows_origin(nr, site));
        }
        prop_assert_eq!(back.transitions(), p.transitions());
        // An empty origin map is not written: it reads back as none.
        let nonempty = |p: &Policy| p.origin_sets().filter(|o| !o.is_empty()).cloned();
        prop_assert_eq!(nonempty(&back), nonempty(&p));
    }

    /// Any proper prefix of a valid encoding is `Truncated`.
    #[test]
    fn truncations_are_truncated(sites in arb_sites(), cut in any::<usize>()) {
        let bytes = with_origins(&sites);
        let cut = cut % bytes.len();
        prop_assert!(
            matches!(Policy::decode(&bytes[..cut]), Err(PolicyError::Truncated)),
            "prefix of {} bytes",
            cut
        );
    }

    /// One flipped byte anywhere: a policy or a typed error, and the
    /// header fields the reader checks name themselves.
    #[test]
    fn byte_flips_are_typed(
        sites in arb_sites(),
        in_header in any::<bool>(),
        at in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = with_origins(&sites);
        let at = at % if in_header { HEADER_SIZE } else { bytes.len() };
        bytes[at] ^= mask;
        let decoded = Policy::decode(&bytes);
        match at {
            0..=7 => prop_assert!(matches!(decoded, Err(PolicyError::BadMagic(_)))),
            8..=11 => prop_assert!(matches!(decoded, Err(PolicyError::BadVersion(_)))),
            16..=19 => prop_assert!(matches!(decoded, Err(PolicyError::BadMatrixSize(_)))),
            _ => prop_assert!(matches!(decoded, Ok(_) | Err(PolicyError::Truncated))),
        }
    }

    /// Random bytes where the origin sets belong are read as origins or
    /// rejected as `Truncated`; random bytes after a whole encoding are
    /// ignored.
    #[test]
    fn random_tails_are_typed(
        sites in arb_sites(),
        tail in vec(any::<u8>(), 0..96),
        probes in vec((0u64..600, 0u64..600), 16..17),
    ) {
        let valid = with_origins(&sites);
        let mut garbage = valid[..HEADER_SIZE + MATRIX_BYTES].to_vec();
        garbage.extend_from_slice(&tail);
        prop_assert!(matches!(Policy::decode(&garbage), Ok(_) | Err(PolicyError::Truncated)));

        let mut extended = valid.clone();
        extended.extend_from_slice(&tail);
        let (a, b) = (
            Policy::decode(&valid).map_err(|e| e.to_string())?,
            Policy::decode(&extended).map_err(|e| e.to_string())?,
        );
        prop_assert_eq!(a.origin_sets(), b.origin_sets());
        for &(from, to) in &probes {
            prop_assert_eq!(a.allows(from, to), b.allows(from, to));
        }
    }
}
