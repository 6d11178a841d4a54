//! The transition automaton: learning pass, `LPSFIP1` on-disk format,
//! and the shared transition-fold behind both the learner and
//! `lp-trace dump --stats`.
//!
//! # `LPSFIP1` layout
//!
//! A policy file is a 64-byte header, the fixed 32 KiB transition
//! bitmatrix, then the (optional) varint-encoded origin sets:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0  | 8  | magic `"LPSFIP1\0"` |
//! | 8  | 4  | format version (LE u32; 1) |
//! | 12 | 4  | flags (bit 0: origin sets present) |
//! | 16 | 4  | matrix size in u64 words ([`MATRIX_WORDS`], checked on read) |
//! | 20 | 4  | origin-set entry count |
//! | 24 | 8  | events folded into the policy |
//! | 32 | 4  | distinct sysnos observed |
//! | 36 | 4  | allowed transition count |
//! | 40 | 24 | source mechanism name, NUL-padded (mirrors the trace header) |
//!
//! The bitmatrix is row-major little-endian: row = previous sysno
//! (8 words = 512 bits per row, one cache line), bit = next sysno.
//! Each origin entry is `varint sysno, varint site-count, varint
//! sites...` reusing the trace codec's varints. Everything little-endian.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use replay::codec::{get_varint, put_varint};
use replay::EventRecord;
use syscalls::MAX_SYSCALL_NR;

/// Policy file magic.
pub const MAGIC: [u8; 8] = *b"LPSFIP1\0";

/// Policy format version this crate writes and reads.
pub const VERSION: u32 = 1;

/// Header size in bytes.
pub const HEADER_SIZE: usize = 64;

/// Words per bitmatrix row (512 bits = one cache line).
pub const ROW_WORDS: usize = (MAX_SYSCALL_NR as usize).div_ceil(64);

/// Total bitmatrix size in u64 words.
pub const MATRIX_WORDS: usize = MAX_SYSCALL_NR as usize * ROW_WORDS;

/// Total bitmatrix size in bytes (32 KiB).
pub const MATRIX_BYTES: usize = MATRIX_WORDS * 8;

/// Maximum stored length of the source-mechanism name (mirrors the
/// trace header field).
const MECHANISM_FIELD: usize = 24;

/// Cap on total origin sites stored across all sysnos, bounding the
/// file size against adversarial or JIT-heavy traces. Beyond the cap
/// a sysno's origin set is dropped (treated as "any site"), never
/// truncated to a half-set that would fail legitimate sites.
const ORIGIN_SITE_CAP: usize = 1 << 16;

/// Header flag bit: origin sets follow the matrix.
const FLAG_ORIGINS: u32 = 1;

/// Everything that can go wrong producing or loading a policy.
#[derive(Debug)]
pub enum PolicyError {
    /// Underlying I/O failure (with the offending path when known).
    Io(io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic([u8; 8]),
    /// The file is a future or unknown format generation.
    BadVersion(u32),
    /// The stored matrix geometry does not match [`MATRIX_WORDS`] —
    /// the file was produced for a different `MAX_SYSCALL_NR`.
    BadMatrixSize(u32),
    /// The file ends mid-structure.
    Truncated,
    /// A learning pass over zero events: there is no behaviour to
    /// learn, and an empty policy would kill the first syscall.
    EmptyTrace,
    /// `LP_SFIP_POLICY` is not set but an `+sfip` install needs it.
    NoPolicyPath,
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Io(e) => write!(f, "policy I/O error: {e}"),
            PolicyError::BadMagic(m) => write!(f, "not an LPSFIP policy (magic {m:02x?})"),
            PolicyError::BadVersion(v) => write!(f, "unsupported policy format version {v}"),
            PolicyError::BadMatrixSize(w) => write!(
                f,
                "policy matrix is {w} words, this build expects {MATRIX_WORDS}"
            ),
            PolicyError::Truncated => write!(f, "policy file truncated"),
            PolicyError::EmptyTrace => write!(f, "cannot learn a policy from an empty trace"),
            PolicyError::NoPolicyPath => {
                write!(f, "LP_SFIP_POLICY must name an LPSFIP1 policy file")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

impl From<io::Error> for PolicyError {
    fn from(e: io::Error) -> PolicyError {
        PolicyError::Io(e)
    }
}

/// A learned (or hand-built) syscall-transition policy.
///
/// `allows(from, to)` is the entire enforcement query: one shift, one
/// mask, one load. Out-of-range sysnos are never consulted — the
/// handler passes them through unchecked, matching the interest
/// filter's conservative treatment.
pub struct Policy {
    /// Row-major transition bitmatrix (row = previous sysno).
    matrix: Box<[u64; MATRIX_WORDS]>,
    /// Per-sysno allowed invocation sites; a sysno absent from the map
    /// is unconstrained. `None` once the learner overflowed
    /// [`ORIGIN_SITE_CAP`] — origins are then unusable wholesale.
    origins: Option<BTreeMap<u64, Vec<u64>>>,
    /// Events folded into this policy across all [`Policy::fold`] calls.
    events_folded: u64,
    /// Distinct in-range sysnos observed.
    distinct_sysnos: u32,
    /// Bitset of sysnos seen across folds (not serialized; the header
    /// carries the count).
    seen: [u64; ROW_WORDS],
    /// Mechanism name of the first trace folded in (informational).
    source_mechanism: String,
}

impl Policy {
    /// The empty policy (allows nothing). Fold traces or insert
    /// transitions to populate it.
    pub fn empty(source_mechanism: &str) -> Policy {
        Policy {
            matrix: vec![0u64; MATRIX_WORDS].into_boxed_slice().try_into().unwrap(),
            origins: Some(BTreeMap::new()),
            events_folded: 0,
            distinct_sysnos: 0,
            seen: [0; ROW_WORDS],
            source_mechanism: source_mechanism.to_string(),
        }
    }

    /// A policy allowing every transition (and any site). Useful as a
    /// base to carve forbidden edges out of — escape tests forbid a
    /// single column and assert the action fires exactly there.
    pub fn allow_all(source_mechanism: &str) -> Policy {
        let mut p = Policy::empty(source_mechanism);
        p.matrix.fill(u64::MAX);
        p.origins = None;
        p.distinct_sysnos = MAX_SYSCALL_NR as u32;
        p
    }

    /// Learns a policy from one trace's records. [`PolicyError::EmptyTrace`]
    /// when there is nothing to fold.
    pub fn learn(records: &[EventRecord], source_mechanism: &str) -> Result<Policy, PolicyError> {
        if records.is_empty() {
            return Err(PolicyError::EmptyTrace);
        }
        let mut p = Policy::empty(source_mechanism);
        p.fold(records);
        Ok(p)
    }

    /// Folds another trace's records into the policy. Transitions are
    /// derived **per thread** — each tid's first event opens its chain,
    /// so interleaved threads never contribute cross-thread edges —
    /// and chains do *not* continue across `fold` calls: separate
    /// traces are separate executions.
    pub fn fold(&mut self, records: &[EventRecord]) {
        let stats = fold_transitions(records);
        for &(from, to) in stats.pairs.keys() {
            self.insert(from, to);
        }
        for (&sysno, sites) in &stats.origins {
            for &site in sites {
                self.insert_origin(sysno, site);
            }
        }
        // Count sysnos seen even when no transition involves them
        // (single-event traces) so distinct_sysnos stays honest.
        for r in records.iter().filter(|r| r.sysno < MAX_SYSCALL_NR) {
            self.seen[(r.sysno / 64) as usize] |= 1u64 << (r.sysno % 64);
        }
        let distinct: u32 = self.seen.iter().map(|w| w.count_ones()).sum();
        self.distinct_sysnos = self.distinct_sysnos.max(distinct);
        self.events_folded += records.len() as u64;
    }

    /// Allows the `from → to` transition. Out-of-range sysnos are
    /// ignored (they are never checked either).
    pub fn insert(&mut self, from: u64, to: u64) {
        if from < MAX_SYSCALL_NR && to < MAX_SYSCALL_NR {
            self.matrix[from as usize * ROW_WORDS + (to / 64) as usize] |= 1u64 << (to % 64);
        }
    }

    /// Forbids every transition *into* `to` — the surgical edit escape
    /// tests use on an [`Policy::allow_all`] base.
    pub fn forbid_into(&mut self, to: u64) {
        if to < MAX_SYSCALL_NR {
            let (word, bit) = ((to / 64) as usize, 1u64 << (to % 64));
            for row in 0..MAX_SYSCALL_NR as usize {
                self.matrix[row * ROW_WORDS + word] &= !bit;
            }
        }
    }

    /// Records `site` as a legitimate origin for `sysno`. Sites of 0
    /// (mechanism did not know the invocation site) are not stored.
    pub fn insert_origin(&mut self, sysno: u64, site: u64) {
        if sysno >= MAX_SYSCALL_NR || site == 0 {
            return;
        }
        let Some(origins) = self.origins.as_mut() else {
            return;
        };
        let total: usize = origins.values().map(Vec::len).sum();
        let sites = origins.entry(sysno).or_default();
        if let Err(at) = sites.binary_search(&site) {
            if total >= ORIGIN_SITE_CAP {
                // Overflow: origin data is no longer exhaustive, so it
                // can no longer be *enforced* — drop it wholesale.
                self.origins = None;
                return;
            }
            sites.insert(at, site);
        }
    }

    /// Is the `from → to` transition allowed? Out-of-range inputs are
    /// allowed by definition (they are not modelled).
    #[inline]
    pub fn allows(&self, from: u64, to: u64) -> bool {
        if from >= MAX_SYSCALL_NR || to >= MAX_SYSCALL_NR {
            return true;
        }
        self.matrix[from as usize * ROW_WORDS + (to / 64) as usize] & (1u64 << (to % 64)) != 0
    }

    /// Is `sysno` allowed from invocation site `site`? Unconstrained
    /// (`true`) when origin data is absent for the sysno, was dropped
    /// at the cap, or the mechanism did not attribute a site (0).
    #[inline]
    pub fn allows_origin(&self, sysno: u64, site: u64) -> bool {
        if site == 0 {
            return true;
        }
        match self.origins.as_ref().and_then(|o| o.get(&sysno)) {
            Some(sites) => sites.binary_search(&site).is_ok(),
            None => true,
        }
    }

    /// Number of allowed transitions (set bits in the matrix).
    pub fn transitions(&self) -> u64 {
        self.matrix.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Distinct in-range sysnos the folded traces contained.
    pub fn distinct_sysnos(&self) -> u32 {
        self.distinct_sysnos
    }

    /// Events folded into this policy.
    pub fn events_folded(&self) -> u64 {
        self.events_folded
    }

    /// Mechanism name of the first folded trace.
    pub fn source_mechanism(&self) -> &str {
        &self.source_mechanism
    }

    /// The per-sysno origin sets, when present and enforceable.
    pub fn origin_sets(&self) -> Option<&BTreeMap<u64, Vec<u64>>> {
        self.origins.as_ref()
    }

    /// Allowed successor sysnos of `from` (for `policy-dump`).
    pub fn successors(&self, from: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if from >= MAX_SYSCALL_NR {
            return out;
        }
        let row = &self.matrix[from as usize * ROW_WORDS..(from as usize + 1) * ROW_WORDS];
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(w as u64 * 64 + u64::from(bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Encodes the policy into the `LPSFIP1` wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_SIZE + MATRIX_BYTES);
        let origin_entries = self.origins.as_ref().map_or(0, BTreeMap::len) as u32;
        let flags = if origin_entries > 0 { FLAG_ORIGINS } else { 0 };
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&flags.to_le_bytes());
        out.extend_from_slice(&(MATRIX_WORDS as u32).to_le_bytes());
        out.extend_from_slice(&origin_entries.to_le_bytes());
        out.extend_from_slice(&self.events_folded.to_le_bytes());
        out.extend_from_slice(&self.distinct_sysnos.to_le_bytes());
        out.extend_from_slice(&(self.transitions() as u32).to_le_bytes());
        let mut name = [0u8; MECHANISM_FIELD];
        let bytes = self.source_mechanism.as_bytes();
        let n = bytes.len().min(MECHANISM_FIELD);
        name[..n].copy_from_slice(&bytes[..n]);
        out.extend_from_slice(&name);
        debug_assert_eq!(out.len(), HEADER_SIZE);
        for w in self.matrix.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        if let Some(origins) = self.origins.as_ref().filter(|o| !o.is_empty()) {
            for (&sysno, sites) in origins {
                put_varint(&mut out, sysno);
                put_varint(&mut out, sites.len() as u64);
                for &site in sites {
                    put_varint(&mut out, site);
                }
            }
        }
        out
    }

    /// Decodes a policy from the `LPSFIP1` wire format.
    pub fn decode(buf: &[u8]) -> Result<Policy, PolicyError> {
        if buf.len() < HEADER_SIZE {
            return Err(PolicyError::Truncated);
        }
        let magic: [u8; 8] = buf[0..8].try_into().unwrap();
        if magic != MAGIC {
            return Err(PolicyError::BadMagic(magic));
        }
        let u32_at = |o: usize| u32::from_le_bytes(buf[o..o + 4].try_into().unwrap());
        let version = u32_at(8);
        if version != VERSION {
            return Err(PolicyError::BadVersion(version));
        }
        let flags = u32_at(12);
        let matrix_words = u32_at(16);
        if matrix_words as usize != MATRIX_WORDS {
            return Err(PolicyError::BadMatrixSize(matrix_words));
        }
        let origin_entries = u32_at(20);
        let events_folded = u64::from_le_bytes(buf[24..32].try_into().unwrap());
        let distinct_sysnos = u32_at(32);
        let name_end = buf[40..HEADER_SIZE]
            .iter()
            .position(|&b| b == 0)
            .map_or(HEADER_SIZE, |p| 40 + p);
        let source_mechanism = String::from_utf8_lossy(&buf[40..name_end]).into_owned();

        let body = &buf[HEADER_SIZE..];
        if body.len() < MATRIX_BYTES {
            return Err(PolicyError::Truncated);
        }
        let mut matrix = vec![0u64; MATRIX_WORDS].into_boxed_slice();
        for (i, w) in matrix.iter_mut().enumerate() {
            *w = u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap());
        }

        let origins = if flags & FLAG_ORIGINS != 0 {
            let tail = &body[MATRIX_BYTES..];
            let mut pos = 0usize;
            let mut map = BTreeMap::new();
            for _ in 0..origin_entries {
                let sysno = get_varint(tail, &mut pos).ok_or(PolicyError::Truncated)?;
                let count = get_varint(tail, &mut pos).ok_or(PolicyError::Truncated)?;
                let mut sites = Vec::with_capacity(count.min(ORIGIN_SITE_CAP as u64) as usize);
                for _ in 0..count {
                    sites.push(get_varint(tail, &mut pos).ok_or(PolicyError::Truncated)?);
                }
                sites.sort_unstable();
                map.insert(sysno, sites);
            }
            Some(map)
        } else {
            None
        };

        // Reconstruct the seen-set approximation from the matrix (any
        // endpoint of an allowed edge); the header count still wins.
        let mut seen = [0u64; ROW_WORDS];
        for (row, words) in matrix.chunks_exact(ROW_WORDS).enumerate() {
            for (s, w) in seen.iter_mut().zip(words) {
                *s |= w;
            }
            if words.iter().any(|&w| w != 0) {
                seen[row / 64] |= 1u64 << (row % 64);
            }
        }
        Ok(Policy {
            matrix: matrix.try_into().unwrap(),
            origins,
            events_folded,
            distinct_sysnos,
            seen,
            source_mechanism,
        })
    }

    /// Writes the policy to `path`.
    pub fn save(&self, path: &Path) -> Result<(), PolicyError> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(&self.encode())?;
        Ok(())
    }

    /// Loads a policy from `path`.
    pub fn load(path: &Path) -> Result<Policy, PolicyError> {
        let mut buf = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut buf)?;
        Policy::decode(&buf)
    }
}

/// Transition statistics of a trace — the fold shared by
/// [`Policy::learn`] and `lp-trace dump --stats`.
#[derive(Debug, Default)]
pub struct TransitionStats {
    /// Events per sysno (in-range sysnos only).
    pub per_sysno: BTreeMap<u64, u64>,
    /// Occurrences per `(from, to)` transition, folded per thread.
    pub pairs: BTreeMap<(u64, u64), u64>,
    /// Non-zero invocation sites per sysno.
    pub origins: BTreeMap<u64, Vec<u64>>,
    /// Total events inspected (including out-of-range sysnos).
    pub events: u64,
    /// Distinct recording threads.
    pub threads: u64,
}

/// Folds a trace into per-sysno counts, per-thread transition pairs,
/// and origin-site sets. Out-of-range sysnos are counted in `events`
/// but neither open nor continue a thread's transition chain — the
/// enforcement path skips them identically.
pub fn fold_transitions(records: &[EventRecord]) -> TransitionStats {
    let mut stats = TransitionStats::default();
    let mut last: BTreeMap<u32, u64> = BTreeMap::new();
    for r in records {
        stats.events += 1;
        if r.sysno >= MAX_SYSCALL_NR {
            continue;
        }
        *stats.per_sysno.entry(r.sysno).or_insert(0) += 1;
        if r.site != 0 {
            let sites = stats.origins.entry(r.sysno).or_default();
            if let Err(at) = sites.binary_search(&r.site) {
                sites.insert(at, r.site);
            }
        }
        match last.insert(r.tid, r.sysno) {
            Some(prev) => *stats.pairs.entry((prev, r.sysno)).or_insert(0) += 1,
            None => stats.threads += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use syscalls::nr;

    fn rec(tid: u32, sysno: u64) -> EventRecord {
        EventRecord {
            sysno,
            tid,
            ..EventRecord::ZERO
        }
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        assert!(matches!(
            Policy::learn(&[], "lazypoline"),
            Err(PolicyError::EmptyTrace)
        ));
    }

    #[test]
    fn single_syscall_trace_learns_no_transitions() {
        let p = Policy::learn(&[rec(1, nr::GETPID)], "t").unwrap();
        assert_eq!(p.transitions(), 0);
        assert_eq!(p.distinct_sysnos(), 1);
        assert_eq!(p.events_folded(), 1);
        // A repeat of the same syscall was never observed as a
        // transition, so the automaton (correctly) rejects it.
        assert!(!p.allows(nr::GETPID, nr::GETPID));
    }

    #[test]
    fn interleaved_threads_never_create_cross_thread_edges() {
        // Thread 1: read -> write. Thread 2: open -> close.
        // Interleaved in trace order so a naive global fold would
        // learn read->open, write->close, open->write.
        let records = [
            rec(1, nr::READ),
            rec(2, nr::OPEN),
            rec(1, nr::WRITE),
            rec(2, nr::CLOSE),
        ];
        let p = Policy::learn(&records, "t").unwrap();
        assert!(p.allows(nr::READ, nr::WRITE));
        assert!(p.allows(nr::OPEN, nr::CLOSE));
        assert_eq!(p.transitions(), 2, "exactly the per-thread edges");
        assert!(!p.allows(nr::READ, nr::OPEN));
        assert!(!p.allows(nr::OPEN, nr::WRITE));
        assert!(!p.allows(nr::WRITE, nr::CLOSE));
    }

    #[test]
    fn folds_do_not_chain_across_traces() {
        let mut p = Policy::learn(&[rec(1, nr::READ)], "t").unwrap();
        p.fold(&[rec(1, nr::WRITE)]);
        // Same tid in both traces, but separate executions: no edge.
        assert_eq!(p.transitions(), 0);
        assert_eq!(p.events_folded(), 2);
        assert_eq!(p.distinct_sysnos(), 2);
    }

    #[test]
    fn out_of_range_sysnos_are_counted_but_never_modelled() {
        let records = [rec(1, nr::READ), rec(1, 9999), rec(1, nr::WRITE)];
        let p = Policy::learn(&records, "t").unwrap();
        assert_eq!(p.events_folded(), 3);
        // The out-of-range event neither opens nor breaks the chain:
        // enforcement skips it identically, so read -> write is the
        // edge the enforcer will actually test.
        assert!(p.allows(nr::READ, nr::WRITE));
        assert!(p.allows(9999, nr::READ), "out of range: always allowed");
        assert!(p.allows(nr::READ, 9999));
    }

    #[test]
    fn save_load_roundtrip_preserves_everything() {
        let records = [
            rec(1, nr::READ),
            rec(1, nr::WRITE),
            rec(2, nr::OPEN),
            rec(2, nr::CLOSE),
        ];
        let mut p = Policy::learn(&records, "lazypoline").unwrap();
        p.insert_origin(nr::READ, 0x401000);
        p.insert_origin(nr::READ, 0x402000);
        let dir = std::env::temp_dir().join(format!("sfip-rt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p.sfip");
        p.save(&path).unwrap();
        let q = Policy::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(q.transitions(), p.transitions());
        assert_eq!(q.distinct_sysnos(), p.distinct_sysnos());
        assert_eq!(q.events_folded(), p.events_folded());
        assert_eq!(q.source_mechanism(), "lazypoline");
        assert!(q.allows(nr::READ, nr::WRITE));
        assert!(!q.allows(nr::WRITE, nr::READ));
        assert!(q.allows_origin(nr::READ, 0x401000));
        assert!(!q.allows_origin(nr::READ, 0x999999));
        assert_eq!(q.origin_sets().unwrap()[&nr::READ].len(), 2);
    }

    #[test]
    fn load_failure_modes_are_typed() {
        assert!(matches!(
            Policy::decode(&[0u8; 10]),
            Err(PolicyError::Truncated)
        ));
        let mut bad = Policy::empty("t").encode();
        bad[0] = b'X';
        assert!(matches!(
            Policy::decode(&bad),
            Err(PolicyError::BadMagic(_))
        ));
        let mut future = Policy::empty("t").encode();
        future[8] = 99;
        assert!(matches!(
            Policy::decode(&future),
            Err(PolicyError::BadVersion(99))
        ));
        let mut geom = Policy::empty("t").encode();
        geom[16] = 7;
        assert!(matches!(
            Policy::decode(&geom),
            Err(PolicyError::BadMatrixSize(_))
        ));
        let whole = Policy::empty("t").encode();
        assert!(matches!(
            Policy::decode(&whole[..whole.len() - 8]),
            Err(PolicyError::Truncated)
        ));
    }

    #[test]
    fn allow_all_minus_forbidden_column() {
        let mut p = Policy::allow_all("t");
        assert!(p.allows(nr::READ, nr::EXECVE));
        p.forbid_into(nr::EXECVE);
        assert!(!p.allows(nr::READ, nr::EXECVE));
        assert!(!p.allows(nr::GETPID, nr::EXECVE));
        assert!(p.allows(nr::READ, nr::WRITE), "only the column is gone");
        assert!(p.allows(nr::EXECVE, nr::READ), "outgoing edges survive");
    }

    #[test]
    fn dump_stats_fold_matches_learner() {
        let records = [
            rec(1, nr::READ),
            rec(1, nr::READ),
            rec(1, nr::WRITE),
            rec(2, nr::READ),
        ];
        let s = fold_transitions(&records);
        assert_eq!(s.events, 4);
        assert_eq!(s.threads, 2);
        assert_eq!(s.per_sysno[&nr::READ], 3);
        assert_eq!(s.per_sysno[&nr::WRITE], 1);
        assert_eq!(s.pairs[&(nr::READ, nr::READ)], 1);
        assert_eq!(s.pairs[&(nr::READ, nr::WRITE)], 1);
        assert_eq!(s.pairs.len(), 2);
    }

    proptest! {
        /// The core soundness property: enforcing a policy over the
        /// very trace it was learned from yields zero violations —
        /// replayed per thread, exactly as the handler tracks state.
        #[test]
        fn learn_then_enforce_same_trace_is_clean(
            raw in proptest::collection::vec((any::<u8>(), any::<u16>()), 1..200)
        ) {
            let records: Vec<EventRecord> = raw
                .iter()
                .map(|&(tid, s)| rec(u32::from(tid % 4), u64::from(s) % 600))
                .collect();
            let p = Policy::learn(&records, "prop").unwrap();
            let mut last: std::collections::BTreeMap<u32, u64> =
                std::collections::BTreeMap::new();
            for r in &records {
                if r.sysno >= MAX_SYSCALL_NR {
                    continue;
                }
                if let Some(&prev) = last.get(&r.tid) {
                    prop_assert!(
                        p.allows(prev, r.sysno),
                        "learned trace replay violated {} -> {}",
                        prev,
                        r.sysno
                    );
                }
                last.insert(r.tid, r.sysno);
            }
        }
    }
}
