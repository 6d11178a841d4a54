//! `syscall_loop`: `lazypoline` + passthrough handler; op = one
//! nonexistent syscall 500 from one already-rewritten site (Table II's
//! workload). The fast path is ~100 % of the work.

use interpose::PassthroughHandler;
use mechanism::ActiveMechanism;

use crate::harness::{self, Check, Counters, Ctx, Side, Workload, DISPATCH_SLACK};
use crate::jit::{enosys_sum, LoopPage, SYSCALL_LOOP};
use crate::stats::Block;

/// Syscalls per timed block.
pub const ITERS: u64 = 10_000;
const BLOCKS: usize = 20;

#[derive(Default)]
pub struct SyscallLoop {
    /// (`none` page, mechanism page): same code, never the same page.
    pages: Option<(LoopPage, LoopPage)>,
    active: Option<ActiveMechanism>,
    /// Ops issued since the mechanism was last installed.
    window_ops: u64,
    window_blocks: u64,
}

impl Workload for SyscallLoop {
    fn blocks_per_side(&self) -> usize {
        BLOCKS
    }

    fn prepare(&mut self, _cx: &Ctx) -> Result<(), String> {
        let page = || LoopPage::new(&SYSCALL_LOOP).map_err(|e| format!("code page: {e}"));
        self.pages = Some((page()?, page()?));
        Ok(())
    }

    fn enter(&mut self, side: Side, cx: &Ctx) -> Result<(), String> {
        let pages = self.pages.as_ref().ok_or("not prepared")?;
        match side {
            Side::None => {
                self.active = Some(harness::install(cx, "none", Box::new(PassthroughHandler))?);
            }
            Side::Mech => {
                self.active = Some(harness::install(
                    cx,
                    "lazypoline",
                    Box::new(PassthroughHandler),
                )?);
                // First execution takes SIGSYS and rewrites the site;
                // every timed iteration then enters through `call rax`.
                let primed = cx.tracer.span("prime", "lazypoline", || {
                    pages.1.call(1, std::ptr::null_mut())
                });
                if primed != enosys_sum(1) {
                    return Err(format!("priming returned {primed:#x}"));
                }
                self.window_ops = 0;
                self.window_blocks = 0;
            }
        }
        Ok(())
    }

    fn block(&mut self, side: Side) -> Block {
        let (none, mech) = self.pages.as_ref().expect("prepared");
        let page = match side {
            Side::None => none,
            Side::Mech => mech,
        };
        let b = harness::timed_self(|| {
            let sum = page.call(ITERS, std::ptr::null_mut());
            // The sum covers every return value; a wrong one cannot be
            // located, so the whole block counts as failed.
            (ITERS, if sum == enosys_sum(ITERS) { 0 } else { ITERS })
        });
        if side == Side::Mech {
            self.window_ops += ITERS;
            self.window_blocks += 1;
        }
        b
    }

    fn leave(&mut self, side: Side, cx: &Ctx) -> Result<Check, String> {
        let active = self.active.take().ok_or("leave without enter")?;
        let mut check = Check::default();
        if side == Side::Mech {
            let s = cx.tracer.span("stats", "mechanism", || active.stats());
            // ops + the priming call + two CPU-clock reads per block.
            let expected = self.window_ops + 1 + 2 * self.window_blocks;
            check.expect(
                (expected..=expected + DISPATCH_SLACK).contains(&s.dispatches),
                self.window_ops,
                || {
                    format!(
                        "dispatches {} for {expected} interposed syscalls",
                        s.dispatches
                    )
                },
            );
            check.expect(
                s.unpatchable_emulations == 0 && s.pages_blocklisted == 0,
                1,
                || {
                    format!(
                        "{} emulations, {} pages blocklisted",
                        s.unpatchable_emulations, s.pages_blocklisted
                    )
                },
            );
            check.counters = Counters::from(s);
        }
        cx.tracer.span("teardown", "mechanism", || drop(active));
        Ok(check)
    }

    fn discard(&mut self) {
        self.active = None;
        self.pages = None;
    }
}
