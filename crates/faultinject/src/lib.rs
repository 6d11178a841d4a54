//! Deterministic fault injection for the lazypoline engine.
//!
//! The engine's robustness claims — degrade, never crash — are only
//! testable if its real failure points can be made to fail on demand.
//! This crate provides **named injection sites** threaded through those
//! points (trampoline install, patcher `mprotect` windows, SUD
//! enrollment, selector writes, slow-path emulation, and the hardened
//! mode's `pkey_alloc` / seccomp-backstop install / `WRPKRU` switches)
//! with
//! **deterministic schedules** (fail the Nth hit, every Nth hit, or the
//! first K hits), armable programmatically ([`arm`]) or via the
//! `LAZYPOLINE_FAULTS` environment variable ([`arm_from_env`]) so the
//! `LD_PRELOAD` deployment and CI exercise the same seams without code
//! changes.
//!
//! # Zero cost when disarmed
//!
//! The seams are always compiled in. [`check`] first reads one global
//! relaxed atomic (the count of armed sites); when it is zero — the
//! production state — the function returns immediately without touching
//! any per-site state. This keeps the fast-path overhead at a single
//! uncontended load, the same budget the engine's sharded counters pay.
//!
//! # Async-signal-safety
//!
//! [`check`] performs no allocation, takes no locks, and issues no
//! syscalls: it is callable from the `SIGSYS` handler (the
//! `slowpath_emulate` and `patch_mprotect` seams fire there).
//!
//! # Spec syntax
//!
//! `LAZYPOLINE_FAULTS` is a comma-separated list of
//! `site:schedule[:ERRNO]` entries:
//!
//! ```text
//! LAZYPOLINE_FAULTS=trampoline_install:first=1
//! LAZYPOLINE_FAULTS=patch_mprotect:every=3:EAGAIN,selector_write:nth=10
//! ```
//!
//! Schedules are `nth=N` (fail exactly the Nth hit), `every=N` (fail
//! every Nth hit), `first=K` (fail the first K hits). The optional
//! errno name selects the injected error; each site has a natural
//! default (see [`Site::default_errno`]).

#![deny(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicU8, AtomicUsize, Ordering};

/// A named failure point inside the engine.
///
/// Each variant corresponds to one real, load-bearing operation whose
/// failure the engine must survive.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Site {
    /// `mmap` of the page-zero trampoline (`zpoline::Trampoline::install`).
    TrampolineInstall,
    /// The `mprotect` window that opens a code page for rewriting
    /// (`zpoline::patch_syscall_site` / `patch_page_sites`).
    PatchMprotect,
    /// `prctl(PR_SET_SYSCALL_USER_DISPATCH, ON, …)` enrollment
    /// (`sud::enable_thread_with_allowlist`).
    SudEnroll,
    /// The per-thread SUD selector byte store (`sud::set_selector`).
    /// An injected hit models one dropped store, which the write-verify
    /// loop in `set_selector` detects and repairs.
    SelectorWrite,
    /// Slow-path emulation of a dispatched syscall in the `SIGSYS`
    /// handler: instead of executing, the syscall returns the injected
    /// errno to the application (modelling `EINTR`/`EAGAIN`/`ENOMEM`
    /// from a congested kernel).
    SlowpathEmulate,
    /// `pkey_alloc(2)` for the hardened selector slab
    /// (`sud::pkey::ProtectedSlab::new`). An injected hit models a host
    /// with exhausted protection keys (or no MPK hardware at all), which
    /// the hardened installer must survive by degrading to the seccomp
    /// backstop alone.
    PkeyAlloc,
    /// `seccomp(SECCOMP_SET_MODE_FILTER, …)` installation of the
    /// hardened backstop filter (`lazypoline::harden`). An injected hit
    /// degrades hardened mode one more rung, down to plain lazypoline.
    SeccompInstall,
    /// A `WRPKRU` permission switch at the interposer boundary. An
    /// injected hit models one dropped PKRU update, which the
    /// write-verify loop around the switch detects and repairs —
    /// mirroring the `selector_write` seam one privilege level up.
    PkruSwitch,
}

/// Number of distinct injection sites.
pub const NUM_SITES: usize = 8;

/// Every site, in declaration order (index = internal slot).
pub const ALL_SITES: [Site; NUM_SITES] = [
    Site::TrampolineInstall,
    Site::PatchMprotect,
    Site::SudEnroll,
    Site::SelectorWrite,
    Site::SlowpathEmulate,
    Site::PkeyAlloc,
    Site::SeccompInstall,
    Site::PkruSwitch,
];

impl Site {
    fn index(self) -> usize {
        match self {
            Site::TrampolineInstall => 0,
            Site::PatchMprotect => 1,
            Site::SudEnroll => 2,
            Site::SelectorWrite => 3,
            Site::SlowpathEmulate => 4,
            Site::PkeyAlloc => 5,
            Site::SeccompInstall => 6,
            Site::PkruSwitch => 7,
        }
    }

    /// The spec-syntax name of this site.
    pub fn name(self) -> &'static str {
        match self {
            Site::TrampolineInstall => "trampoline_install",
            Site::PatchMprotect => "patch_mprotect",
            Site::SudEnroll => "sud_enroll",
            Site::SelectorWrite => "selector_write",
            Site::SlowpathEmulate => "slowpath_emulate",
            Site::PkeyAlloc => "pkey_alloc",
            Site::SeccompInstall => "seccomp_install",
            Site::PkruSwitch => "pkru_switch",
        }
    }

    /// Parses a spec-syntax site name.
    pub fn from_name(name: &str) -> Option<Site> {
        ALL_SITES.into_iter().find(|s| s.name() == name)
    }

    /// The errno injected when the spec names none: the most plausible
    /// real-world failure for each operation.
    pub fn default_errno(self) -> i32 {
        match self {
            Site::TrampolineInstall => EPERM, // vm.mmap_min_addr > 0
            Site::PatchMprotect => EAGAIN,    // transient VMA pressure
            Site::SudEnroll => ENOSYS,        // kernel < 5.11
            Site::SelectorWrite => EAGAIN,
            Site::SlowpathEmulate => EINTR,
            Site::PkeyAlloc => ENOSPC,     // all 15 user keys taken
            Site::SeccompInstall => EACCES, // no_new_privs refused
            Site::PkruSwitch => EAGAIN,
        }
    }
}

/// A deterministic failure schedule for one site.
///
/// Hit counts start at 1 on arming (re-arming resets them), so a
/// schedule's behaviour is reproducible from the moment it is armed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// Fail exactly the `N`th hit (1-based), succeed all others.
    Nth(u64),
    /// Fail every `N`th hit (hits N, 2N, 3N, …).
    EveryNth(u64),
    /// Fail the first `K` hits, succeed from `K+1` on.
    FirstK(u64),
}

// Schedule kinds as stored in the per-site atomic.
const KIND_DISARMED: u8 = 0;
const KIND_NTH: u8 = 1;
const KIND_EVERY: u8 = 2;
const KIND_FIRST: u8 = 3;

// Errno numbers, hardcoded so this crate stays dependency-free (the
// seams live below the `syscalls` crate in some dependency graphs).
const EPERM: i32 = 1;
const EINTR: i32 = 4;
const EAGAIN: i32 = 11;
const ENOMEM: i32 = 12;
const EACCES: i32 = 13;
const EFAULT: i32 = 14;
const EINVAL: i32 = 22;
const ENOSPC: i32 = 28;
const ENOSYS: i32 = 38;

fn errno_by_name(name: &str) -> Option<i32> {
    Some(match name {
        "EPERM" => EPERM,
        "EINTR" => EINTR,
        "EAGAIN" => EAGAIN,
        "ENOMEM" => ENOMEM,
        "EACCES" => EACCES,
        "EFAULT" => EFAULT,
        "EINVAL" => EINVAL,
        "ENOSPC" => ENOSPC,
        "ENOSYS" => ENOSYS,
        _ => return None,
    })
}

/// All mutable state of one site. Plain atomics only: `check` must be
/// async-signal-safe and lock-free.
struct SiteState {
    kind: AtomicU8,
    param: AtomicU64,
    errno: AtomicI32,
    hits: AtomicU64,
    injected: AtomicU64,
}

impl SiteState {
    const fn new() -> SiteState {
        SiteState {
            kind: AtomicU8::new(KIND_DISARMED),
            param: AtomicU64::new(0),
            errno: AtomicI32::new(0),
            hits: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }
}

static SITES: [SiteState; NUM_SITES] = [const { SiteState::new() }; NUM_SITES];

/// Count of currently armed sites. The disarmed fast path in [`check`]
/// reads only this — and so do zpoline's entry stub and its
/// `ThreadBlock`, before a selector store that bypasses
/// `sud::set_selector`: while any site is armed, every dispatch takes
/// the path the seams are on.
pub static LP_FAULTS_ARMED: AtomicUsize = AtomicUsize::new(0);

/// Consults the seam at `site`: `None` means proceed normally (the
/// overwhelmingly common case), `Some(errno)` means the caller must
/// fail this operation with the given errno.
///
/// Disarmed cost: one relaxed atomic load. Armed sites additionally
/// pay one fetch-add on their hit counter. Async-signal-safe.
#[inline]
pub fn check(site: Site) -> Option<i32> {
    if LP_FAULTS_ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    check_armed(site)
}

#[cold]
fn check_armed(site: Site) -> Option<i32> {
    let s = &SITES[site.index()];
    let kind = s.kind.load(Ordering::Relaxed);
    if kind == KIND_DISARMED {
        return None;
    }
    let hit = s.hits.fetch_add(1, Ordering::Relaxed) + 1;
    let param = s.param.load(Ordering::Relaxed);
    let fire = match kind {
        KIND_NTH => hit == param,
        KIND_EVERY => param != 0 && hit.is_multiple_of(param),
        KIND_FIRST => hit <= param,
        _ => false,
    };
    if fire {
        s.injected.fetch_add(1, Ordering::Relaxed);
        Some(s.errno.load(Ordering::Relaxed))
    } else {
        None
    }
}

/// Arms `site` with `schedule`, injecting `errno` (or the site's
/// [default](Site::default_errno) when `None`). Resets the site's hit
/// counter so the schedule is deterministic from this call; the
/// cumulative injected-fault counter is preserved.
pub fn arm(site: Site, schedule: Schedule, errno: Option<i32>) {
    let s = &SITES[site.index()];
    let (kind, param) = match schedule {
        Schedule::Nth(n) => (KIND_NTH, n),
        Schedule::EveryNth(n) => (KIND_EVERY, n),
        Schedule::FirstK(k) => (KIND_FIRST, k),
    };
    s.errno
        .store(errno.unwrap_or_else(|| site.default_errno()), Ordering::Relaxed);
    s.param.store(param, Ordering::Relaxed);
    s.hits.store(0, Ordering::Relaxed);
    if s.kind.swap(kind, Ordering::Relaxed) == KIND_DISARMED && kind != KIND_DISARMED {
        LP_FAULTS_ARMED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Disarms `site`; its seam reverts to zero-cost pass-through.
pub fn disarm(site: Site) {
    let s = &SITES[site.index()];
    if s.kind.swap(KIND_DISARMED, Ordering::Relaxed) != KIND_DISARMED {
        LP_FAULTS_ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Disarms every site.
pub fn disarm_all() {
    for site in ALL_SITES {
        disarm(site);
    }
}

/// Whether `site` is currently armed.
pub fn is_armed(site: Site) -> bool {
    SITES[site.index()].kind.load(Ordering::Relaxed) != KIND_DISARMED
}

/// Cumulative number of faults injected at `site` (across re-arms).
pub fn injected(site: Site) -> u64 {
    SITES[site.index()].injected.load(Ordering::Relaxed)
}

/// Cumulative number of faults injected across all sites.
pub fn total_injected() -> u64 {
    ALL_SITES.into_iter().map(injected).sum()
}

/// A malformed `LAZYPOLINE_FAULTS` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    entry: String,
    reason: &'static str,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad fault spec {:?}: {}", self.entry, self.reason)
    }
}

impl std::error::Error for SpecError {}

fn bad(entry: &str, reason: &'static str) -> SpecError {
    SpecError {
        entry: entry.to_string(),
        reason,
    }
}

/// Arms sites from a spec string (`site:schedule[:ERRNO],…` — see the
/// module docs). Returns the number of sites armed.
///
/// # Errors
///
/// Returns the first malformed entry; entries before it are already
/// armed, entries after it are not.
pub fn arm_from_spec(spec: &str) -> Result<usize, SpecError> {
    let mut armed = 0;
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let mut parts = entry.split(':');
        let site = parts
            .next()
            .and_then(Site::from_name)
            .ok_or_else(|| bad(entry, "unknown site name"))?;
        let sched = parts
            .next()
            .ok_or_else(|| bad(entry, "missing schedule (nth=N | every=N | first=K)"))?;
        let (key, val) = sched
            .split_once('=')
            .ok_or_else(|| bad(entry, "schedule must be key=N"))?;
        let n: u64 = val
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| bad(entry, "schedule count must be a positive integer"))?;
        let schedule = match key {
            "nth" => Schedule::Nth(n),
            "every" => Schedule::EveryNth(n),
            "first" => Schedule::FirstK(n),
            _ => return Err(bad(entry, "unknown schedule kind")),
        };
        let errno = match parts.next() {
            Some(name) => Some(errno_by_name(name).ok_or_else(|| bad(entry, "unknown errno name"))?),
            None => None,
        };
        if parts.next().is_some() {
            return Err(bad(entry, "trailing fields"));
        }
        arm(site, schedule, errno);
        armed += 1;
    }
    Ok(armed)
}

/// Arms sites from the `LAZYPOLINE_FAULTS` environment variable.
/// Returns the number of sites armed (0 when the variable is unset or
/// empty).
///
/// # Errors
///
/// Propagates [`arm_from_spec`] parse errors.
pub fn arm_from_env() -> Result<usize, SpecError> {
    match std::env::var("LAZYPOLINE_FAULTS") {
        Ok(spec) => arm_from_spec(&spec),
        Err(_) => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // The registry is process-global; serialize tests that arm sites.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disarmed_is_silent() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        for site in ALL_SITES {
            assert_eq!(check(site), None);
        }
        // Disarmed checks must not even count hits.
        arm(Site::SudEnroll, Schedule::Nth(1), None);
        disarm(Site::SudEnroll);
        assert_eq!(check(Site::SudEnroll), None);
    }

    #[test]
    fn nth_schedule_fires_once() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        arm(Site::TrampolineInstall, Schedule::Nth(3), Some(EINVAL));
        let fired: Vec<bool> = (0..6)
            .map(|_| check(Site::TrampolineInstall).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, false, false, false]);
        disarm_all();
    }

    #[test]
    fn every_nth_schedule_repeats() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        arm(Site::PatchMprotect, Schedule::EveryNth(2), None);
        let fired: Vec<bool> = (0..6).map(|_| check(Site::PatchMprotect).is_some()).collect();
        assert_eq!(fired, [false, true, false, true, false, true]);
        assert_eq!(check(Site::PatchMprotect), None); // 7th
        disarm_all();
    }

    #[test]
    fn first_k_schedule_fails_prefix() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        let before = injected(Site::SlowpathEmulate);
        arm(Site::SlowpathEmulate, Schedule::FirstK(2), None);
        assert_eq!(check(Site::SlowpathEmulate), Some(EINTR));
        assert_eq!(check(Site::SlowpathEmulate), Some(EINTR));
        assert_eq!(check(Site::SlowpathEmulate), None);
        assert_eq!(injected(Site::SlowpathEmulate), before + 2);
        disarm_all();
    }

    #[test]
    fn rearm_resets_hits_but_keeps_injected() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        arm(Site::SudEnroll, Schedule::Nth(1), Some(EACCES));
        assert_eq!(check(Site::SudEnroll), Some(EACCES));
        let mid = injected(Site::SudEnroll);
        arm(Site::SudEnroll, Schedule::Nth(1), Some(EFAULT));
        assert_eq!(check(Site::SudEnroll), Some(EFAULT));
        assert_eq!(injected(Site::SudEnroll), mid + 1);
        disarm_all();
    }

    #[test]
    fn default_errnos_match_sites() {
        assert_eq!(Site::TrampolineInstall.default_errno(), EPERM);
        assert_eq!(Site::PatchMprotect.default_errno(), EAGAIN);
        assert_eq!(Site::SudEnroll.default_errno(), ENOSYS);
        assert_eq!(Site::SlowpathEmulate.default_errno(), EINTR);
        assert_eq!(Site::PkeyAlloc.default_errno(), ENOSPC);
        assert_eq!(Site::SeccompInstall.default_errno(), EACCES);
        assert_eq!(Site::PkruSwitch.default_errno(), EAGAIN);
    }

    #[test]
    fn hardened_sites_parse_from_spec() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        let n = arm_from_spec("pkey_alloc:first=1,seccomp_install:first=1:EINVAL,pkru_switch:nth=2")
            .unwrap();
        assert_eq!(n, 3);
        assert_eq!(check(Site::PkeyAlloc), Some(ENOSPC));
        assert_eq!(check(Site::PkeyAlloc), None);
        assert_eq!(check(Site::SeccompInstall), Some(EINVAL));
        assert_eq!(check(Site::PkruSwitch), None);
        assert_eq!(check(Site::PkruSwitch), Some(EAGAIN));
        disarm_all();
    }

    #[test]
    fn site_names_round_trip() {
        for site in ALL_SITES {
            assert_eq!(Site::from_name(site.name()), Some(site));
        }
        assert_eq!(Site::from_name("bogus"), None);
    }

    #[test]
    fn spec_parsing_arms_sites() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        let n = arm_from_spec("trampoline_install:first=1,patch_mprotect:every=3:ENOMEM").unwrap();
        assert_eq!(n, 2);
        assert!(is_armed(Site::TrampolineInstall));
        assert!(is_armed(Site::PatchMprotect));
        assert_eq!(check(Site::TrampolineInstall), Some(EPERM)); // default errno
        for _ in 0..2 {
            assert_eq!(check(Site::PatchMprotect), None);
        }
        assert_eq!(check(Site::PatchMprotect), Some(ENOMEM));
        disarm_all();
    }

    #[test]
    fn spec_rejects_garbage() {
        let _g = LOCK.lock().unwrap();
        disarm_all();
        for spec in [
            "nonsense:nth=1",
            "sud_enroll",
            "sud_enroll:nth",
            "sud_enroll:nth=0",
            "sud_enroll:nth=x",
            "sud_enroll:maybe=3",
            "sud_enroll:nth=1:EWHAT",
            "sud_enroll:nth=1:EINTR:extra",
        ] {
            assert!(arm_from_spec(spec).is_err(), "accepted {spec:?}");
        }
        // Empty entries are tolerated (trailing commas).
        assert_eq!(arm_from_spec("").unwrap(), 0);
        assert_eq!(arm_from_spec("sud_enroll:nth=5,").unwrap(), 1);
        disarm_all();
    }
}
