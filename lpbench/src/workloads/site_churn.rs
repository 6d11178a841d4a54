//! `site_churn`: `lazypoline`; op = the first execution of a fresh
//! syscall site on a fresh RWX page. SIGSYS → sweep → `mprotect` →
//! patch is nearly all of the work, the steady-state fast path nearly
//! none. Pages carry 1, 2, 4, 8 or 16 sites in seeded order: batching
//! wins on dense pages and loses on sparse ones, which only a
//! mixed-density workload shows.

use interpose::PassthroughHandler;
use mechanism::ActiveMechanism;

use crate::harness::{self, Check, Counters, Ctx, Side, Workload};
use crate::jit::ChurnPage;
use crate::rng::shuffled_multiset;
use crate::stats::Block;

pub const DENSITIES: [usize; 5] = [1, 2, 4, 8, 16];
const PAGES_PER_DENSITY: usize = 8;
const BLOCKS: usize = 8;

/// The page-density order of one block: a fixed multiset, seeded order.
pub fn density_sequence(seed: u64) -> Vec<usize> {
    shuffled_multiset(seed, &[PAGES_PER_DENSITY; DENSITIES.len()])
        .into_iter()
        .map(|i| DENSITIES[i as usize])
        .collect()
}

/// Maps, fills, runs and unmaps one page per entry of `order`; returns
/// (sites executed, wrong return values).
pub fn churn(order: &[usize], pid: u64) -> Result<(u64, u64), std::io::Error> {
    let (mut sites, mut wrong) = (0, 0);
    for &density in order {
        let page = ChurnPage::new(density)?;
        wrong += page.run(pid);
        sites += density as u64;
    }
    Ok((sites, wrong))
}

#[derive(Default)]
pub struct SiteChurn {
    order: Vec<usize>,
    /// Read once: `std::process::id()` is a syscall, and inside a timed
    /// block it would be an interposed one.
    pid: u64,
    active: Option<ActiveMechanism>,
    window_sites: u64,
    window_pages: u64,
}

impl Workload for SiteChurn {
    fn blocks_per_side(&self) -> usize {
        BLOCKS
    }

    fn prepare(&mut self, cx: &Ctx) -> Result<(), String> {
        self.order = density_sequence(cx.seed);
        self.pid = std::process::id() as u64;
        Ok(())
    }

    fn enter(&mut self, side: Side, cx: &Ctx) -> Result<(), String> {
        let name = match side {
            Side::None => "none",
            Side::Mech => "lazypoline",
        };
        self.active = Some(harness::install(cx, name, Box::new(PassthroughHandler))?);
        if side == Side::Mech {
            // Warm-up: one page, so libc's own mmap/munmap sites are
            // rewritten before the first timed block.
            let warm = cx
                .tracer
                .span("prime", "lazypoline", || churn(&[1], self.pid))
                .map_err(|e| format!("warm-up page: {e}"))?;
            if warm != (1, 0) {
                return Err("warm-up page returned a wrong pid".into());
            }
            self.window_sites = 1;
            self.window_pages = 1;
        }
        Ok(())
    }

    fn block(&mut self, side: Side) -> Block {
        let (order, pid) = (&self.order, self.pid);
        let b = harness::timed_self(|| {
            // A page that cannot be mapped fails every site it held.
            churn(order, pid).unwrap_or((order.iter().sum::<usize>() as u64, u64::MAX))
        });
        let b = Block {
            failed: b.failed.min(b.ops),
            ..b
        };
        if side == Side::Mech {
            self.window_sites += b.ops;
            self.window_pages += order.len() as u64;
        }
        b
    }

    fn leave(&mut self, side: Side, cx: &Ctx) -> Result<Check, String> {
        let active = self.active.take().ok_or("leave without enter")?;
        let mut check = Check::default();
        if side == Side::Mech {
            let s = cx.tracer.span("stats", "mechanism", || active.stats());
            // Every fresh site is patched exactly once; the benchmark's
            // own syscall sites (mmap, munmap, the CPU clock) add a few
            // in the process's first window only.
            check.expect(
                (self.window_sites..=self.window_sites + 16).contains(&s.sites_patched),
                self.window_sites,
                || {
                    format!(
                        "{} sites patched for {} fresh sites",
                        s.sites_patched, self.window_sites
                    )
                },
            );
            check.expect(
                (self.window_pages..=self.window_pages + 16).contains(&s.slow_path_hits),
                self.window_pages,
                || {
                    format!(
                        "{} SIGSYS for {} fresh pages",
                        s.slow_path_hits, self.window_pages
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
        self.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_density_sequence() {
        let a = density_sequence(5);
        assert_eq!(a, density_sequence(5));
        assert_ne!(a, density_sequence(6));
        assert_eq!(a.len(), 40);
        // The work per block never depends on the seed.
        assert_eq!(a.iter().sum::<usize>(), 8 * 31);
        assert_eq!(density_sequence(6).iter().sum::<usize>(), 8 * 31);
    }

    #[test]
    fn uninterposed_churn_counts_sites() {
        assert_eq!(
            churn(&[1, 16, 4], std::process::id() as u64).unwrap(),
            (21, 0)
        );
    }
}
