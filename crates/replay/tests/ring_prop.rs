//! Property tests for the flight-recorder ring: round-trip fidelity,
//! ordering, and drop-counter accuracy under arbitrary workloads —
//! across the rewinds a drained ring makes and the growth a pressed one
//! does.

use std::collections::VecDeque;

use lp_replay::ring::{SpscRing, DEFAULT_RING_CAPACITY};
use lp_replay::EventRecord;
use proptest::prelude::*;

/// A ring at the default geometry with storage mapped eagerly, so the
/// properties are independent of any ambient `LP_RING_CAPACITY`.
fn default_ring() -> SpscRing {
    SpscRing::with_capacity(DEFAULT_RING_CAPACITY)
}

fn rec(seq: u64) -> EventRecord {
    EventRecord {
        sysno: seq % 453,
        args: [seq, seq ^ 0xaaaa, seq << 7, !seq, seq.rotate_left(13), 6],
        ret: seq.wrapping_mul(31),
        tsc: seq,
        site: 0x40_0000 + seq,
        tid: (seq % 97) as u32 + 1,
    }
}

/// One step of an interleaving, as one thread can play it.
#[derive(Clone, Debug)]
enum Step {
    /// The producer pushes this many records.
    Burst(usize),
    /// The consumer drains everything.
    Drain,
    /// The consumer drains while the producer pushes this many more:
    /// the drain ends with the ring non-empty, so the next push finds
    /// no empty ring to rewind or grow.
    PartialDrain(usize),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        // Past 3/4 of 64 slots often enough to force growth, past 64
        // (drops, and the jump to the growth ceiling) sometimes.
        (1usize..100).prop_map(Step::Burst),
        Just(Step::Drain),
        (1usize..40).prop_map(Step::PartialDrain),
    ]
}

proptest! {
    /// Bursts, full drains, drains the producer races and forced growth
    /// in any order: accepted records come out once each and in order,
    /// and every observed event is in the ring, drained or counted as
    /// dropped — whatever slot a rewind put it in.
    #[test]
    fn interleavings_conserve_events_across_rewinds_and_growth(
        steps in proptest::collection::vec(arb_step(), 1..60),
    ) {
        let ring = SpscRing::with_capacity(64);
        let in_flight = std::cell::RefCell::new(VecDeque::new());
        let (mut observed, mut drained) = (0u64, 0u64);
        let push = |observed: &mut u64| {
            if ring.push(rec(*observed)) {
                in_flight.borrow_mut().push_back(*observed);
            }
            *observed += 1;
        };
        for step in steps {
            let mut racing = match step {
                Step::Burst(n) => {
                    (0..n).for_each(|_| push(&mut observed));
                    continue;
                }
                Step::Drain => 0,
                Step::PartialDrain(n) => n,
            };
            drained += ring.drain(|r| {
                let expect = in_flight.borrow_mut().pop_front();
                assert_eq!(Some(r), expect.map(rec), "FIFO order");
                if racing > 0 {
                    racing -= 1;
                    push(&mut observed);
                }
            }) as u64;
        }
        drained += ring.drain(|r| {
            assert_eq!(Some(r), in_flight.borrow_mut().pop_front().map(rec));
        }) as u64;
        prop_assert!(ring.is_empty() && in_flight.borrow().is_empty());
        prop_assert_eq!(drained + ring.dropped(), observed, "recorded + dropped == observed");
    }

    /// The footprint property: a ring drained after every burst of at
    /// most k events only ever writes its first k slots, however many
    /// events pass through it.
    #[test]
    fn a_drained_ring_stays_in_its_first_slots(
        k in 1usize..700,
        bursts in proptest::collection::vec(0usize..700, 1..24),
    ) {
        let ring = default_ring();
        let mut seq = 0u64;
        for burst in bursts.into_iter().map(|b| 1 + b % k) {
            for written in 0..burst {
                prop_assert!(ring.push(rec(seq)));
                seq += 1;
                // The push wrote slot `written`; the next one is its
                // neighbour, still inside the first k.
                prop_assert_eq!(ring.write_slot(), written + 1);
                prop_assert!(written < k);
            }
            prop_assert_eq!(ring.drain(|_| {}), burst);
        }
        prop_assert_eq!(ring.dropped(), 0);
    }

    /// Write N (≤ capacity), drain N: every record comes back intact,
    /// in order, with zero drops.
    #[test]
    fn roundtrip_preserves_records_and_order(n in 0usize..=DEFAULT_RING_CAPACITY) {
        let ring = default_ring();
        for i in 0..n {
            prop_assert!(ring.push(rec(i as u64)));
        }
        let mut out = Vec::new();
        prop_assert_eq!(ring.drain(|r| out.push(r)), n);
        prop_assert_eq!(out.len(), n);
        for (i, r) in out.iter().enumerate() {
            prop_assert_eq!(*r, rec(i as u64));
        }
        prop_assert_eq!(ring.dropped(), 0);
        prop_assert!(ring.is_empty());
    }

    /// Pushing past capacity drops exactly the excess, keeps the oldest
    /// events, and counts every drop.
    #[test]
    fn overflow_drop_counter_is_exact(extra in 1u64..3000) {
        let ring = default_ring();
        let total = DEFAULT_RING_CAPACITY as u64 + extra;
        let mut accepted = 0u64;
        for i in 0..total {
            if ring.push(rec(i)) {
                accepted += 1;
            }
        }
        prop_assert_eq!(accepted, DEFAULT_RING_CAPACITY as u64);
        prop_assert_eq!(ring.dropped(), extra);
        prop_assert_eq!(accepted + ring.dropped(), total, "every event accounted for");
        // Drop-newest policy: the survivors are the first CAPACITY events.
        let mut seq = 0u64;
        ring.drain(|r| {
            assert_eq!(r, rec(seq));
            seq += 1;
        });
    }

    /// Interleaved push/drain bursts of arbitrary sizes never lose,
    /// duplicate, or reorder an accepted record.
    #[test]
    fn interleaved_bursts_conserve_events(bursts in proptest::collection::vec(1usize..2048, 1..12)) {
        let ring = default_ring();
        let mut next_push = 0u64;
        let mut next_drain = 0u64;
        for burst in bursts {
            for _ in 0..burst {
                // A dropped record is not part of the FIFO sequence; the
                // same seq is retried on the next non-full slot and the
                // drop counter owns the accounting.
                if ring.push(rec(next_push)) {
                    next_push += 1;
                }
            }
            ring.drain(|r| {
                assert_eq!(r.tsc, next_drain, "FIFO order across wraparound");
                next_drain += 1;
            });
            prop_assert_eq!(next_drain, next_push, "drain catches up to pushes");
        }
    }
}

/// Two threads, 2 M sequence-numbered records, a ring that starts at 64
/// slots: whatever the scheduler does — rewinds on every catch-up,
/// growth after the first overflow — the consumer sees a strictly
/// increasing sequence and every push is drained or counted as dropped.
#[test]
fn two_thread_stress_keeps_order_and_accounts_for_every_push() {
    use std::sync::atomic::{AtomicBool, Ordering};

    const PUSHED: u64 = 2_000_000;
    let ring = SpscRing::with_capacity(64);
    let done = AtomicBool::new(false);
    let (mut drained, mut last) = (0u64, None);
    std::thread::scope(|s| {
        s.spawn(|| {
            for seq in 0..PUSHED {
                ring.push(rec(seq));
            }
            done.store(true, Ordering::Release);
        });
        loop {
            let finished = done.load(Ordering::Acquire);
            drained += ring.drain(|r| {
                assert!(last < Some(r.tsc), "{last:?} then {}", r.tsc);
                assert_eq!(r, rec(r.tsc), "record torn");
                last = Some(r.tsc);
            }) as u64;
            if finished && ring.is_empty() {
                break;
            }
        }
    });
    assert_eq!(drained + ring.dropped(), PUSHED);
}
