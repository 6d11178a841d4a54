//! Priority-ordered, runtime-mutable handler stacks.
//!
//! [`HookStack`] is the suite's one handler-composition primitive: a
//! stack that can be **attached to and detached from while syscalls are
//! in flight**. A build-once chain is the same stack with every entry
//! attached at priority 0 before it is installed. Dispatch is lock-free:
//! the stack's entry list lives behind one `AtomicPtr` to an immutable
//! snapshot, so the hot path pays a single acquire load — mutations
//! build a new snapshot off to the side and swap it in (RCU style).
//! Replaced snapshots are intentionally leaked: a dispatch racing the
//! swap may still hold the old pointer, and — like the registry's
//! leaked handler boxes — there is no safe point to free them once
//! rewritten code sites can fire on any thread.
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
//! # Interest recomputation protocol
//!
//! When a stack is installed as the process-global handler, the
//! engine's fast path filters syscalls through the *cached* interest
//! words (see [`global_interested`](crate::global_interested)) — so
//! every mutation must keep that cache consistent with the entry list
//! or a hook silently misses syscalls it asked for. The invariant:
//! **delivering an extra syscall is benign, dropping one is not** (the
//! interest set is an optimization, not a contract). Hence:
//!
//! - **Attach widens before the swap.** The cache is OR-ed with the new
//!   union *first*, then the snapshot pointer is published, then the
//!   cache is recomputed exactly. If the order were reversed, a syscall
//!   arriving between swap and recompute could be filtered out even
//!   though the new hook's entry is already live.
//! - **Detach swaps before narrowing.** The snapshot without the hook
//!   is published first; only then is the cache recomputed (narrowed).
//!   Narrowing first would filter syscalls away from a hook still
//!   visible to concurrent dispatches.
//!
//! Batch-rewrite gating needs no extra step: rewritten call sites
//! funnel into the same `interpose_syscall` decision sequence, which
//! consults the refreshed cache on every fault.

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::registry;
use crate::{Action, InterestSet, SyscallEvent, SyscallHandler};

/// Identifies one attached hook for later [`HookStack::detach`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct HookId(u64);

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
    seq: u64,
    id: HookId,
    /// Loaded at runtime (counts toward `hooks_loaded`/`hook_dispatches`)
    /// rather than compiled in.
    dynamic: bool,
}

/// One immutable snapshot of the stack: the ordered entry list plus its
/// precomputed interest union. Never mutated after publication.
struct Snapshot {
    entries: Vec<Arc<Entry>>,
    interest: InterestSet,
}

impl Snapshot {
    fn empty() -> Snapshot {
        Snapshot {
            entries: Vec::new(),
            interest: InterestSet::none(),
        }
    }
}

struct Shared {
    /// Current snapshot; hot path does one acquire load. Old snapshots
    /// leak (see module docs).
    state: AtomicPtr<Snapshot>,
    /// Serializes mutations only — never touched on dispatch.
    mutate: Mutex<()>,
    next_seq: AtomicU64,
}

/// A runtime-mutable, priority-ordered stack of [`SyscallHandler`]s.
///
/// `Clone` is shallow: clones share the same stack, so one clone can be
/// installed as the global handler (via `Box<HookStack>`) while another
/// keeps attach/detach access. See the module docs for dispatch and
/// mutation semantics.
#[derive(Clone)]
pub struct HookStack {
    shared: Arc<Shared>,
}

impl HookStack {
    /// Creates an empty stack (dispatches as passthrough).
    pub fn new() -> HookStack {
        HookStack {
            shared: Arc::new(Shared {
                state: AtomicPtr::new(Box::into_raw(Box::new(Snapshot::empty()))),
                mutate: Mutex::new(()),
                next_seq: AtomicU64::new(0),
            }),
        }
    }

    fn snapshot(&self) -> &Snapshot {
        // SAFETY: snapshots are published via Box::into_raw and never
        // freed, so the pointee outlives every reader.
        unsafe { &*self.shared.state.load(Ordering::Acquire) }
    }

    /// Whether this stack (through any clone) is the installed
    /// process-global handler, and mutations must therefore keep the
    /// global interest cache in sync. Detached stacks — including
    /// chains under construction and stacks nested inside another
    /// handler — skip the cache entirely; their interest is read once
    /// at whatever point they *are* installed.
    fn is_installed(&self) -> bool {
        registry::global_handler()
            .and_then(|h| h.as_any())
            .and_then(|a| a.downcast_ref::<HookStack>())
            .is_some_and(|s| Arc::ptr_eq(&s.shared, &self.shared))
    }

    fn attach_entry(&self, handler: Box<dyn SyscallHandler>, priority: i32, dynamic: bool) -> HookId {
        let _m = self.shared.mutate.lock().unwrap();
        let seq = self.shared.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = HookId(seq);
        let cur = self.snapshot();
        let mut entries = cur.entries.clone();
        entries.push(Arc::new(Entry {
            handler,
            priority,
            seq,
            id,
            dynamic,
        }));
        entries.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.seq.cmp(&b.seq)));
        let interest = entries
            .iter()
            .fold(InterestSet::none(), |acc, e| acc.union(&e.handler.interest()));
        let next = Box::into_raw(Box::new(Snapshot { entries, interest }));
        if self.is_installed() {
            // Widen-before-swap (module docs): after this point the
            // cache already admits everything the new entry wants, so
            // no syscall arriving between the swap and the exact
            // recompute is filtered.
            registry::widen_global_interest(&interest);
            self.shared.state.store(next, Ordering::Release);
            registry::refresh_global_interest();
        } else {
            self.shared.state.store(next, Ordering::Release);
        }
        id
    }

    /// Attaches a compiled-in handler at `priority` (higher runs
    /// earlier; ties run in attach order). Safe while dispatches are in
    /// flight on other threads.
    pub fn attach(&self, handler: Box<dyn SyscallHandler>, priority: i32) -> HookId {
        self.attach_entry(handler, priority, false)
    }

    /// Attaches a dynamically-loaded hook (same semantics as
    /// [`HookStack::attach`], but the entry counts toward
    /// `hooks_loaded` and its invocations toward [`hook_dispatches`]).
    pub fn attach_dynamic(&self, handler: Box<dyn SyscallHandler>, priority: i32) -> HookId {
        self.attach_entry(handler, priority, true)
    }

    /// Detaches the hook identified by `id`; returns `false` if it was
    /// already gone. Detach is asynchronous with respect to concurrent
    /// dispatches: one that already loaded the old snapshot may invoke
    /// the hook a final time, so hook code must stay valid (loaded
    /// libraries are never `dlclose`d).
    pub fn detach(&self, id: HookId) -> bool {
        let _m = self.shared.mutate.lock().unwrap();
        let cur = self.snapshot();
        if !cur.entries.iter().any(|e| e.id == id) {
            return false;
        }
        let entries: Vec<Arc<Entry>> = cur
            .entries
            .iter()
            .filter(|e| e.id != id)
            .cloned()
            .collect();
        let interest = entries
            .iter()
            .fold(InterestSet::none(), |acc, e| acc.union(&e.handler.interest()));
        let next = Box::into_raw(Box::new(Snapshot { entries, interest }));
        // Swap-before-narrow (module docs): the cache keeps admitting
        // the detached hook's syscalls until the snapshot without it is
        // the one every dispatch sees.
        self.shared.state.store(next, Ordering::Release);
        if self.is_installed() {
            registry::refresh_global_interest();
        }
        true
    }

    /// Number of attached entries.
    pub fn len(&self) -> usize {
        self.snapshot().entries.len()
    }

    /// Whether the stack has no entries.
    pub fn is_empty(&self) -> bool {
        self.snapshot().entries.is_empty()
    }

    /// Number of dynamically-loaded entries currently attached — the
    /// `hooks_loaded` gauge.
    pub fn dynamic_len(&self) -> usize {
        self.snapshot().entries.iter().filter(|e| e.dynamic).count()
    }

    /// `(name, priority)` per entry in dispatch order, for reports.
    pub fn entries(&self) -> Vec<(String, i32)> {
        self.snapshot()
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
        let s = self.snapshot();
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
        for e in &self.snapshot().entries {
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
        self.snapshot()
            .entries
            .iter()
            .fold(ret, |acc, e| e.handler.post(event, acc))
    }

    fn name(&self) -> &str {
        "hook-stack"
    }

    fn interest(&self) -> InterestSet {
        self.snapshot().interest
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
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
        use crate::FdRedirectHandler;
        // Redirect fd 1 → 7, then deny writes to fd ≥ 3: the redirected
        // call must be judged by its *rewritten* fd.
        let s = HookStack::new();
        s.attach(Box::new(FdRedirectHandler::new(1, 7)), 0);
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
    fn attach_detach_update_interest_and_len() {
        let s = HookStack::new();
        let a = s.attach(
            Box::new(PolicyBuilder::allow_by_default().deny(nr::EXECVE).build()),
            0,
        );
        assert!(s.interest().contains(nr::EXECVE));
        assert!(!s.interest().contains(nr::READ));
        let b = s.attach_dynamic(Box::new(CountHandler::new()), 1);
        assert!(s.interest().is_all());
        assert_eq!((s.len(), s.dynamic_len()), (2, 1));

        assert!(s.detach(b));
        assert!(!s.detach(b), "double detach reports gone");
        assert_eq!((s.len(), s.dynamic_len()), (1, 0));
        assert!(!s.interest().contains(nr::READ), "interest narrowed back");
        assert!(s.detach(a));
        assert!(s.is_empty());
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
        assert_eq!(format!("{other:?}"), "HookStack(len=1, dynamic=0, interest=512)");
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
