//! Priority-ordered handler stacks, built once.
//!
//! [`HookStack`] is the suite's one handler-composition primitive. Its
//! entries are attached while it is built; the first read of the stack
//! — a declaration ([`SyscallHandler::interest`],
//! [`SyscallHandler::leaves_fp_env`], [`SyscallHandler::leaves_alone`]),
//! a dispatch or a report — seals them, and an [`attach`] after that
//! panics. Installing a stack reads its declarations, so a stack is
//! sealed before any mechanism dispatches into it, and what it declares
//! can never go stale. A dispatch reads the sealed entry list with one
//! acquire load; the lock only guards building.
//!
//! # `call_next` semantics
//!
//! Entries run in priority order (higher `priority` first; ties in
//! attach order). Returning [`Action::Passthrough`] from `handle` *is*
//! the `call_next` of stackable-hook designs: control falls to the next
//! entry down. The first non-`Passthrough` decision wins and the rest
//! of the stack is skipped for that event. Earlier entries may rewrite
//! the event for later ones (a redirect followed by a policy check sees
//! the redirected fd). `post` hooks run in the same order, folding the
//! return value top to bottom.
//!
//! # Declarations
//!
//! A stack declares what its entries declare, like every wrapper: its
//! interest is the union of theirs, it leaves the floating-point
//! environment alone when every entry does, and it leaves alone the
//! numbers every entry leaves alone. An empty stack wants nothing and
//! leaves everything alone.
//!
//! [`attach`]: HookStack::attach

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{Action, InterestSet, SyscallEvent, SyscallHandler};

/// Process-wide count of dynamically-loaded hook invocations (entries
/// attached via [`HookStack::attach_dynamic`]); surfaced as
/// `hook_dispatches` in mechanism stats.
static HOOK_DISPATCHES: AtomicU64 = AtomicU64::new(0);

/// Cumulative invocations of dynamically-loaded hooks since process
/// start. Mechanism guards snapshot this at install time and report the
/// delta.
pub fn hook_dispatches() -> u64 {
    HOOK_DISPATCHES.load(Ordering::Relaxed)
}

struct Entry {
    handler: Box<dyn SyscallHandler>,
    priority: i32,
    /// Loaded at runtime (counts toward `hooks_loaded`/`hook_dispatches`)
    /// rather than compiled in.
    dynamic: bool,
}

/// The sealed stack: the ordered entries and what they declare, read
/// once.
struct Sealed {
    entries: Box<[Entry]>,
    interest: InterestSet,
    leaves_fp_env: bool,
    leaves_alone: InterestSet,
}

struct Shared {
    /// The entries while the stack is built, in dispatch order; the
    /// first read takes them into `sealed` under this lock, so an
    /// `attach` either lands before the seal or finds `None`.
    building: Mutex<Option<Vec<Entry>>>,
    sealed: OnceLock<Sealed>,
}

/// A priority-ordered stack of [`SyscallHandler`]s whose entries are
/// fixed before it is used (module docs).
///
/// `Clone` is shallow: clones share the same stack, so one clone can be
/// installed as the global handler (via `Box<HookStack>`) while another
/// keeps reporting on it.
#[derive(Clone)]
pub struct HookStack {
    shared: Arc<Shared>,
}

impl HookStack {
    /// Creates an empty stack (dispatches as passthrough).
    pub fn new() -> HookStack {
        HookStack {
            shared: Arc::new(Shared {
                building: Mutex::new(Some(Vec::new())),
                sealed: OnceLock::new(),
            }),
        }
    }

    /// The sealed stack, sealing it on the first call.
    #[inline]
    fn sealed(&self) -> &Sealed {
        self.shared.sealed.get_or_init(|| {
            let entries = self
                .shared
                .building
                .lock()
                .unwrap()
                .take()
                .expect("sealed once");
            let (mut interest, mut leaves_alone) = (InterestSet::none(), InterestSet::all());
            for e in &entries {
                interest = interest.union(&e.handler.interest());
                leaves_alone = leaves_alone.intersection(&e.handler.leaves_alone());
            }
            Sealed {
                interest,
                leaves_alone,
                leaves_fp_env: entries.iter().all(|e| e.handler.leaves_fp_env()),
                entries: entries.into_boxed_slice(),
            }
        })
    }

    fn attach_entry(&self, handler: Box<dyn SyscallHandler>, priority: i32, dynamic: bool) {
        let mut building = self.shared.building.lock().unwrap();
        let Some(entries) = building.as_mut() else {
            drop(building);
            panic!(
                "HookStack::attach of {:?} after the stack was read: its entries are fixed",
                handler.name()
            );
        };
        let at = entries.partition_point(|e| e.priority >= priority);
        entries.insert(
            at,
            Entry {
                handler,
                priority,
                dynamic,
            },
        );
    }

    /// Attaches a compiled-in handler at `priority` (higher runs
    /// earlier; ties run in attach order).
    ///
    /// # Panics
    ///
    /// If the stack was already read (module docs).
    pub fn attach(&self, handler: Box<dyn SyscallHandler>, priority: i32) {
        self.attach_entry(handler, priority, false)
    }

    /// Attaches a dynamically-loaded hook (same semantics as
    /// [`HookStack::attach`], but the entry counts toward
    /// `hooks_loaded` and its invocations toward [`hook_dispatches`]).
    pub fn attach_dynamic(&self, handler: Box<dyn SyscallHandler>, priority: i32) {
        self.attach_entry(handler, priority, true)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.sealed().entries.len()
    }

    /// Whether the stack has no entries.
    pub fn is_empty(&self) -> bool {
        self.sealed().entries.is_empty()
    }

    /// Number of dynamically-loaded entries — the `hooks_loaded` gauge.
    pub fn dynamic_len(&self) -> usize {
        self.sealed().entries.iter().filter(|e| e.dynamic).count()
    }

    /// `(name, priority)` per entry in dispatch order, for reports.
    pub fn entries(&self) -> Vec<(String, i32)> {
        self.sealed()
            .entries
            .iter()
            .map(|e| (e.handler.name().to_string(), e.priority))
            .collect()
    }
}

impl Default for HookStack {
    fn default() -> HookStack {
        HookStack::new()
    }
}

impl std::fmt::Debug for HookStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.sealed();
        write!(
            f,
            "HookStack(len={}, dynamic={}, interest={})",
            s.entries.len(),
            s.entries.iter().filter(|e| e.dynamic).count(),
            s.interest.len()
        )
    }
}

impl SyscallHandler for HookStack {
    fn handle(&self, event: &mut SyscallEvent) -> Action {
        for e in &self.sealed().entries {
            if e.dynamic {
                HOOK_DISPATCHES.fetch_add(1, Ordering::Relaxed);
            }
            match e.handler.handle(event) {
                Action::Passthrough => continue, // call_next
                decided => return decided,
            }
        }
        Action::Passthrough
    }

    fn post(&self, event: &SyscallEvent, ret: u64) -> u64 {
        self.sealed()
            .entries
            .iter()
            .fold(ret, |acc, e| e.handler.post(event, acc))
    }

    fn name(&self) -> &str {
        "hook-stack"
    }

    fn interest(&self) -> InterestSet {
        self.sealed().interest
    }

    fn leaves_fp_env(&self) -> bool {
        self.sealed().leaves_fp_env
    }

    fn leaves_alone(&self) -> InterestSet {
        self.sealed().leaves_alone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountHandler, PolicyBuilder};
    use syscalls::{nr, Errno, SyscallArgs};

    #[test]
    fn empty_stack_is_passthrough() {
        let s = HookStack::new();
        assert!(s.is_empty());
        assert!(s.interest().is_empty());
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::READ));
        assert_eq!(s.handle(&mut ev), Action::Passthrough);
        assert_eq!(s.post(&ev, 9), 9);
    }

    #[test]
    fn priority_orders_dispatch_ties_by_attach_order() {
        struct Tag(u64);
        impl SyscallHandler for Tag {
            fn handle(&self, ev: &mut SyscallEvent) -> Action {
                ev.call.args[0] = ev.call.args[0] * 10 + self.0;
                Action::Passthrough
            }
        }
        let s = HookStack::new();
        s.attach(Box::new(Tag(2)), 0);
        s.attach(Box::new(Tag(3)), 0); // same prio: after Tag(2)
        s.attach(Box::new(Tag(1)), 5); // higher prio: first
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        s.handle(&mut ev);
        assert_eq!(ev.call.args[0], 123);
    }

    #[test]
    fn first_decision_wins_and_skips_rest() {
        let counter = CountHandler::new();
        let tail = counter.clone();
        let s = HookStack::new();
        s.attach(
            Box::new(PolicyBuilder::allow_by_default().deny(nr::EXECVE).build()),
            10,
        );
        s.attach(Box::new(counter), 0);
        let mut denied = SyscallEvent::new(SyscallArgs::nullary(nr::EXECVE));
        assert_eq!(s.handle(&mut denied), Action::Fail(Errno::EPERM));
        assert_eq!(tail.total(), 0, "decided above the counter: skipped");
        let mut allowed = SyscallEvent::new(SyscallArgs::nullary(nr::READ));
        assert_eq!(s.handle(&mut allowed), Action::Passthrough);
        assert_eq!(tail.count(nr::READ), 1);
    }

    #[test]
    fn first_decision_wins_but_all_priors_run() {
        let counter = CountHandler::new();
        // CountHandler clones share their Arc-backed counters, so the
        // stack's counts stay observable after the original is boxed.
        let observer = counter.clone();
        let s = HookStack::new();
        s.attach(Box::new(counter), 0);
        s.attach(
            Box::new(PolicyBuilder::allow_by_default().deny(nr::EXECVE).build()),
            0,
        );

        let mut allowed = SyscallEvent::new(SyscallArgs::nullary(nr::READ));
        assert_eq!(s.handle(&mut allowed), Action::Passthrough);
        let mut denied = SyscallEvent::new(SyscallArgs::nullary(nr::EXECVE));
        assert_eq!(s.handle(&mut denied), Action::Fail(Errno::EPERM));

        // The counter sat *before* the deny (same priority, attached
        // first), so it observed both calls — including the one the
        // policy then refused.
        assert_eq!(observer.count(nr::READ), 1);
        assert_eq!(observer.count(nr::EXECVE), 1);
        assert_eq!(observer.total(), 2);
    }

    #[test]
    fn earlier_rewrites_visible_to_later() {
        /// Redirects `write`s to fd 1 to fd 7.
        struct RedirectStdout;
        impl SyscallHandler for RedirectStdout {
            fn handle(&self, ev: &mut SyscallEvent) -> Action {
                if ev.call.nr == nr::WRITE && ev.call.args[0] == 1 {
                    ev.call.args[0] = 7;
                }
                Action::Passthrough
            }
        }
        // Redirect fd 1 → 7, then deny writes to fd ≥ 3: the redirected
        // call must be judged by its *rewritten* fd.
        let s = HookStack::new();
        s.attach(Box::new(RedirectStdout), 0);
        s.attach(
            Box::new(
                PolicyBuilder::allow_by_default()
                    .deny_write_to_fd_at_or_above(3)
                    .build(),
            ),
            0,
        );
        let mut ev = SyscallEvent::new(SyscallArgs::new(nr::WRITE, [1, 0, 0, 0, 0, 0]));
        assert_eq!(s.handle(&mut ev), Action::Fail(Errno::EBADF));
        assert_eq!(ev.call.args[0], 7);
    }

    #[test]
    fn declarations_are_what_every_entry_declares() {
        struct LeavesAlone(InterestSet);
        impl SyscallHandler for LeavesAlone {
            fn handle(&self, _: &mut SyscallEvent) -> Action {
                Action::Passthrough
            }
            fn interest(&self) -> InterestSet {
                InterestSet::none()
            }
            fn leaves_alone(&self) -> InterestSet {
                self.0
            }
        }
        let empty = HookStack::new();
        assert!(empty.leaves_alone().is_all() && empty.leaves_fp_env());

        let s = HookStack::new();
        s.attach(
            Box::new(LeavesAlone(InterestSet::of(&[
                nr::READ,
                nr::WRITE,
                nr::GETPID,
            ]))),
            0,
        );
        s.attach_dynamic(
            Box::new(LeavesAlone(InterestSet::of(&[nr::WRITE, nr::GETPID]))),
            3,
        );
        s.attach(Box::new(LeavesAlone(InterestSet::all())), -1);
        assert_eq!(s.leaves_alone(), InterestSet::of(&[nr::WRITE, nr::GETPID]));
        assert!(s.interest().is_empty());
        assert_eq!((s.len(), s.dynamic_len()), (3, 1));
    }

    #[test]
    fn dynamic_entries_count_dispatches() {
        let s = HookStack::new();
        s.attach_dynamic(Box::new(CountHandler::new()), 0);
        let before = hook_dispatches();
        let mut ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        s.handle(&mut ev);
        s.handle(&mut ev);
        assert_eq!(hook_dispatches(), before + 2);
    }

    #[test]
    fn clones_share_state() {
        let s = HookStack::new();
        let other = s.clone();
        s.attach(Box::new(CountHandler::new()), 0);
        assert_eq!(other.len(), 1);
        assert_eq!(
            format!("{other:?}"),
            "HookStack(len=1, dynamic=0, interest=512)"
        );
    }

    #[test]
    fn post_folds_in_priority_order() {
        struct Add(u64);
        impl SyscallHandler for Add {
            fn handle(&self, _: &mut SyscallEvent) -> Action {
                Action::Passthrough
            }
            fn post(&self, _: &SyscallEvent, ret: u64) -> u64 {
                ret * 2 + self.0
            }
        }
        let s = HookStack::new();
        s.attach(Box::new(Add(1)), 1); // runs first: 10*2+1 = 21
        s.attach(Box::new(Add(0)), 0); // then: 21*2+0 = 42
        let ev = SyscallEvent::new(SyscallArgs::nullary(nr::GETPID));
        assert_eq!(s.post(&ev, 10), 42);
    }
}
