//! The enforcement handler: one per-thread last-sysno load + one
//! bitmatrix test per intercepted syscall, with the
//! kill/quarantine/count violation ladder.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use interpose::{InterestSet, SyscallEvent, SyscallHandler};
use syscalls::{nr, raw, MAX_SYSCALL_NR};

use crate::policy::Policy;

/// Sentinel "no previous syscall on this thread yet": the first
/// syscall of a thread's chain is always transition-allowed.
pub const NO_PREV: u64 = u64::MAX;

/// What to do when a syscall violates the learned automaton — the
/// `LP_SFIP_POLICY_ACTION` ladder, ordered from most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViolationAction {
    /// Kill the process before the violating syscall executes:
    /// raw `SIGKILL` + `exit_group(137)`, mirroring the hardened
    /// engine's bypass policy. The default.
    Kill,
    /// Disable enforcement and keep passing through — the same
    /// fail-open containment the registry applies to panicking hooks.
    /// Exactly one violation is counted; checks stop afterwards.
    Quarantine,
    /// Audit mode: count every violation, block nothing, keep
    /// checking. The mode to run first in production.
    Count,
}

impl ViolationAction {
    /// Parses an action name (`kill` | `quarantine` | `count`, the
    /// values of [`crate::ACTION_ENV`]); `None` for anything else.
    pub fn from_name(name: &str) -> Option<ViolationAction> {
        match name {
            "kill" => Some(ViolationAction::Kill),
            "quarantine" => Some(ViolationAction::Quarantine),
            "count" => Some(ViolationAction::Count),
            _ => None,
        }
    }

    /// The action's registry/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            ViolationAction::Kill => "kill",
            ViolationAction::Quarantine => "quarantine",
            ViolationAction::Count => "count",
        }
    }
}

/// Transition checks performed since process start.
static SFIP_CHECKS: AtomicU64 = AtomicU64::new(0);
/// Violations observed since process start.
static SFIP_VIOLATIONS: AtomicU64 = AtomicU64::new(0);
/// Last installed action (0 = never installed; else action ordinal+1).
static SFIP_MODE: AtomicU8 = AtomicU8::new(0);
/// Handler-instance epoch: a fresh install must not inherit another
/// install's per-thread last-sysno state (tests install repeatedly on
/// the same threads).
static EPOCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// (handler epoch, last in-range sysno) of the current thread.
    static LAST: Cell<(u64, u64)> = const { Cell::new((0, NO_PREV)) };
}

/// Transition checks performed process-wide.
pub fn checks() -> u64 {
    SFIP_CHECKS.load(Ordering::Relaxed)
}

/// Violations observed process-wide.
pub fn violations() -> u64 {
    SFIP_VIOLATIONS.load(Ordering::Relaxed)
}

/// Name of the most recently installed violation action, `"off"` when
/// no [`SfipHandler`] was ever constructed.
pub fn mode_name() -> &'static str {
    match SFIP_MODE.load(Ordering::Relaxed) {
        1 => "kill",
        2 => "quarantine",
        3 => "count",
        _ => "off",
    }
}

/// A [`SyscallHandler`] enforcing a learned transition [`Policy`]
/// around an inner handler.
///
/// The inner handler runs *first* (so the checked sysno is
/// post-rewrite — exactly what the recorder stored and the learner
/// folded), then the transition test runs *before* the mechanism
/// executes anything: a `kill` verdict fires before the violating
/// syscall reaches the kernel.
pub struct SfipHandler {
    inner: Box<dyn SyscallHandler>,
    policy: Arc<Policy>,
    action: ViolationAction,
    check_origins: bool,
    /// Cleared by the first violation under [`ViolationAction::Quarantine`].
    enabled: AtomicBool,
    epoch: u64,
}

impl SfipHandler {
    /// Wraps `inner` with enforcement of `policy` under `action`.
    pub fn new(
        policy: Arc<Policy>,
        action: ViolationAction,
        check_origins: bool,
        inner: Box<dyn SyscallHandler>,
    ) -> SfipHandler {
        SFIP_MODE.store(
            match action {
                ViolationAction::Kill => 1,
                ViolationAction::Quarantine => 2,
                ViolationAction::Count => 3,
            },
            Ordering::Relaxed,
        );
        SfipHandler {
            inner,
            policy,
            action,
            check_origins,
            enabled: AtomicBool::new(true),
            epoch: EPOCH.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Is enforcement still live (i.e. not quarantined)?
    pub fn enforcing(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The action this handler applies on violation.
    pub fn action(&self) -> ViolationAction {
        self.action
    }

    #[cold]
    #[inline(never)]
    fn on_violation(&self, prev: u64, nr: u64, site: u64) {
        SFIP_VIOLATIONS.fetch_add(1, Ordering::Relaxed);
        report_violation(prev, nr, site, self.action.name());
        match self.action {
            ViolationAction::Count => {}
            ViolationAction::Quarantine => self.enabled.store(false, Ordering::Relaxed),
            ViolationAction::Kill => kill_process(),
        }
    }
}

impl SyscallHandler for SfipHandler {
    fn handle(&self, event: &mut SyscallEvent) -> interpose::Action {
        // Inner first: the checked number is post-rewrite, matching
        // what the recorder stored when the policy was learned.
        let decision = self.inner.handle(event);
        let nr = event.call.nr;
        if nr < MAX_SYSCALL_NR && self.enabled.load(Ordering::Relaxed) {
            SFIP_CHECKS.fetch_add(1, Ordering::Relaxed);
            let prev = LAST.with(|c| {
                let (epoch, last) = c.get();
                c.set((self.epoch, nr));
                if epoch == self.epoch {
                    last
                } else {
                    NO_PREV
                }
            });
            let ok = (prev == NO_PREV || self.policy.allows(prev, nr))
                && (!self.check_origins || self.policy.allows_origin(nr, event.site as u64));
            if !ok {
                self.on_violation(prev, nr, event.site as u64);
            }
        }
        decision
    }

    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        self.inner.post(event, ret)
    }

    fn name(&self) -> &str {
        "sfip"
    }

    fn interest(&self) -> InterestSet {
        // Every syscall must be observed: a gap in the chain would
        // manufacture transitions the automaton never saw.
        InterestSet::all()
    }
}

/// Kills the process with the raw-syscall sequence the hardened
/// engine's bypass policy uses: `SIGKILL` first (unblockable), then
/// `exit_group(137)` in case the kill is somehow swallowed.
fn kill_process() -> ! {
    unsafe {
        let pid = raw::syscall0(nr::GETPID);
        raw::syscall2(nr::KILL, pid, libc::SIGKILL as u64);
        raw::syscall1(nr::EXIT_GROUP, 137);
    }
    unreachable!("exit_group returned");
}

/// Writes one violation line straight to stderr with a raw `write(2)`
/// — no allocation, no locks; safe from signal context.
fn report_violation(prev: u64, nr: u64, site: u64, action: &'static str) {
    let mut line = LineBuf::new();
    line.push(b"lp-sfip: flow violation ");
    if prev == NO_PREV {
        line.push(b"<start>");
    } else {
        line.push_u64(prev);
    }
    line.push(b" -> ");
    line.push_u64(nr);
    if site != 0 {
        line.push(b" site=0x");
        line.push_hex(site);
    }
    line.push(b" action=");
    line.push(action.as_bytes());
    line.push(b"\n");
    unsafe {
        libc::write(
            2,
            line.buf.as_ptr().cast::<libc::c_void>(),
            line.len,
        );
    }
}

/// Fixed-size, allocation-free line builder for the violation report.
struct LineBuf {
    buf: [u8; 128],
    len: usize,
}

impl LineBuf {
    fn new() -> LineBuf {
        LineBuf { buf: [0; 128], len: 0 }
    }

    fn push(&mut self, s: &[u8]) {
        for &b in s {
            if self.len < self.buf.len() {
                self.buf[self.len] = b;
                self.len += 1;
            }
        }
    }

    fn push_u64(&mut self, mut v: u64) {
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        loop {
            i -= 1;
            tmp[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        let (start, end) = (i, tmp.len());
        self.push(&tmp[start..end]);
    }

    fn push_hex(&mut self, v: u64) {
        let digits = b"0123456789abcdef";
        let mut started = false;
        for shift in (0..16).rev() {
            let nib = ((v >> (shift * 4)) & 0xf) as usize;
            if nib != 0 || started || shift == 0 {
                started = true;
                self.push(&[digits[nib]]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interpose::{CountHandler, PassthroughHandler};
    use std::sync::Mutex;
    use syscalls::SyscallArgs;

    /// The check/violation counters are process-global; tests that
    /// assert on their deltas serialize behind this.
    static COUNTER_LOCK: Mutex<()> = Mutex::new(());

    fn ev(nr: u64) -> SyscallEvent {
        SyscallEvent::new(SyscallArgs::nullary(nr))
    }

    #[test]
    fn count_mode_counts_and_keeps_enforcing() {
        let _g = COUNTER_LOCK.lock().unwrap();
        let mut p = Policy::empty("test");
        p.insert(nr::READ, nr::WRITE);
        p.insert(nr::WRITE, nr::READ);
        let h = SfipHandler::new(
            Arc::new(p),
            ViolationAction::Count,
            false,
            Box::new(PassthroughHandler),
        );
        let base = violations();
        // read -> write -> read: all learned.
        for n in [nr::READ, nr::WRITE, nr::READ] {
            h.handle(&mut ev(n));
        }
        assert_eq!(violations() - base, 0);
        // read -> getpid: never learned; counted, not blocked, and the
        // chain keeps advancing (getpid -> getpid violates again).
        h.handle(&mut ev(nr::GETPID));
        assert_eq!(violations() - base, 1);
        h.handle(&mut ev(nr::GETPID));
        assert_eq!(violations() - base, 2);
        assert!(h.enforcing());
    }

    #[test]
    fn quarantine_disables_after_first_violation() {
        let _g = COUNTER_LOCK.lock().unwrap();
        let mut p = Policy::empty("test");
        p.insert(nr::READ, nr::READ);
        let h = SfipHandler::new(
            Arc::new(p),
            ViolationAction::Quarantine,
            false,
            Box::new(PassthroughHandler),
        );
        let (vbase, cbase) = (violations(), checks());
        h.handle(&mut ev(nr::READ));
        h.handle(&mut ev(nr::GETPID)); // violation: quarantines
        assert_eq!(violations() - vbase, 1);
        assert!(!h.enforcing());
        let frozen = checks();
        h.handle(&mut ev(nr::GETPID)); // would violate again; not checked
        assert_eq!(violations() - vbase, 1, "quarantined: no further counting");
        assert_eq!(checks(), frozen, "quarantined: checks stop");
        assert!(checks() - cbase >= 2);
    }

    #[test]
    fn inner_handler_runs_and_out_of_range_skips_checks() {
        let _g = COUNTER_LOCK.lock().unwrap();
        let counter = CountHandler::new();
        let h = SfipHandler::new(
            Arc::new(Policy::empty("test")),
            ViolationAction::Count,
            false,
            Box::new(counter.clone()),
        );
        let (vbase, cbase) = (violations(), checks());
        // Out-of-range sysno: delivered to inner, never checked, and
        // does not open the chain.
        h.handle(&mut ev(MAX_SYSCALL_NR + 7));
        assert_eq!(checks(), cbase);
        // First in-range syscall opens the chain without violating.
        h.handle(&mut ev(nr::GETPID));
        assert_eq!(violations() - vbase, 0);
        assert_eq!(counter.count(nr::GETPID), 1, "inner handler saw the event");
    }

    #[test]
    fn fresh_handler_does_not_inherit_thread_state() {
        let _g = COUNTER_LOCK.lock().unwrap();
        let mut p = Policy::empty("test");
        p.insert(nr::READ, nr::READ);
        let mk = || {
            SfipHandler::new(
                Arc::new({
                    let mut p2 = Policy::empty("test");
                    p2.insert(nr::READ, nr::READ);
                    p2
                }),
                ViolationAction::Count,
                false,
                Box::new(PassthroughHandler),
            )
        };
        let _ = p;
        let vbase = violations();
        let h1 = mk();
        h1.handle(&mut ev(nr::WRITE)); // chain: write
        drop(h1);
        let h2 = mk();
        // Under h1's chain write -> read would violate; a fresh epoch
        // must treat read as the thread's first syscall.
        h2.handle(&mut ev(nr::READ));
        assert_eq!(violations() - vbase, 0);
    }

    #[test]
    fn origin_enforcement_flags_unknown_sites() {
        let _g = COUNTER_LOCK.lock().unwrap();
        let mut p = Policy::empty("test");
        p.insert(nr::READ, nr::READ);
        p.insert_origin(nr::READ, 0x4000);
        let h = SfipHandler::new(
            Arc::new(p),
            ViolationAction::Count,
            true,
            Box::new(PassthroughHandler),
        );
        let vbase = violations();
        let mut good = SyscallEvent::with_site(SyscallArgs::nullary(nr::READ), 0x4000);
        h.handle(&mut good);
        assert_eq!(violations() - vbase, 0);
        let mut bad = SyscallEvent::with_site(SyscallArgs::nullary(nr::READ), 0x6666);
        h.handle(&mut bad);
        assert_eq!(violations() - vbase, 1, "unknown site flagged");
        // Site 0 (mechanism couldn't attribute) is never a violation.
        h.handle(&mut ev(nr::READ));
        assert_eq!(violations() - vbase, 1);
    }

    #[test]
    fn action_parsing() {
        assert_eq!(ViolationAction::Kill.name(), "kill");
        assert_eq!(ViolationAction::Quarantine.name(), "quarantine");
        assert_eq!(ViolationAction::Count.name(), "count");
    }
}
