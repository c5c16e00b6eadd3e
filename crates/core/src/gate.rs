//! The cycle gate: how helper match processes enter and leave a cycle.
//!
//! Process 0 (the control thread) *opens* the gate when it calls the
//! helpers in and gets a **ticket** naming that cycle; a helper *enters*
//! with the ticket it was called with, *leaves* when it has nothing left to
//! do, and process 0 *closes* the gate once the cycle is quiescent. Two
//! properties carry the engine's cycle barrier:
//!
//! * **close succeeds only at zero inside** — after a successful
//!   [`Gate::try_close`] no helper holds a network/store read guard, a
//!   private task, or unmerged statistics of the cycle, so the control
//!   thread may mutate the network and harvest;
//! * **a ticket dies with its cycle** — a helper that was called for cycle
//!   *n* but woke after *n* closed fails [`Gate::enter`], whatever has been
//!   opened since. It can therefore never run a task of cycle *n + 1* with
//!   state (`min_node`) it read for cycle *n*.
//!
//! One word holds both facts: the ticket in the high bits (odd = open, even
//! = closed) and the number of helpers inside in the low [`INSIDE_BITS`].
//! Every access is `SeqCst`: the gate is touched a handful of times per
//! called cycle, so the single total order costs nothing worth weakening.

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

const INSIDE_BITS: u32 = 20;
const INSIDE_MASK: u64 = (1 << INSIDE_BITS) - 1;
/// The ticket's low bit.
const OPEN: u64 = 1 << INSIDE_BITS;

/// See the module docs.
#[derive(Debug, Default)]
pub(crate) struct Gate {
    state: AtomicU64,
}

impl Gate {
    /// Open the (closed) gate for a new cycle and return its ticket. Only
    /// the thread that closed it — process 0 — may open it.
    pub(crate) fn open(&self) -> u64 {
        let s = self.state.load(SeqCst);
        debug_assert!(s & (INSIDE_MASK | OPEN) == 0, "gate not closed: {s:#x}");
        let ticket = (s >> INSIDE_BITS) + 1;
        self.state.store(ticket << INSIDE_BITS, SeqCst);
        ticket
    }

    /// Enter the cycle `ticket` names. Fails once that cycle has closed.
    pub(crate) fn enter(&self, ticket: u64) -> bool {
        let mut s = self.state.load(SeqCst);
        while s >> INSIDE_BITS == ticket {
            match self.state.compare_exchange_weak(s, s + 1, SeqCst, SeqCst) {
                Ok(_) => return true,
                Err(now) => s = now,
            }
        }
        false
    }

    /// Leave the cycle entered. Returns `true` for the last one out.
    pub(crate) fn leave(&self) -> bool {
        let before = self.state.fetch_sub(1, SeqCst);
        debug_assert!(before & INSIDE_MASK != 0, "leave without enter");
        before & INSIDE_MASK == 1
    }

    /// Close the open gate; succeeds only when nobody is inside.
    pub(crate) fn try_close(&self) -> bool {
        let s = self.state.load(SeqCst);
        debug_assert!(s & OPEN != 0, "gate not open: {s:#x}");
        // The next ticket is even: closed, nobody inside.
        s & INSIDE_MASK == 0 && self.state.compare_exchange(s, s + OPEN, SeqCst, SeqCst).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Barrier;

    #[test]
    fn a_ticket_dies_with_its_cycle() {
        let g = Gate::default();
        assert!(!g.enter(1), "closed gate admits nobody");
        let t = g.open();
        assert!(g.enter(t));
        assert!(!g.try_close(), "one helper inside");
        assert!(g.leave(), "last one out");
        assert!(g.try_close());
        assert!(!g.enter(t), "late waker of a closed cycle");
        let t2 = g.open();
        assert_ne!(t, t2);
        assert!(!g.enter(t), "late waker, next cycle already open");
        assert!(g.enter(t2));
        assert!(g.enter(t2));
        assert!(!g.leave());
        assert!(g.leave());
        assert!(g.try_close());
    }

    /// Many helpers try each ticket they read once (as the engine's do)
    /// while an opener runs cycles, closing each as soon as one helper has
    /// read its ticket — so the others arrive late. `cycle` is only written
    /// while the gate is closed, so a helper inside must read the cycle of
    /// its own ticket: a late waker that slipped into the next cycle, or a
    /// close with someone inside, shows as a mismatch.
    #[test]
    fn enter_leave_close_from_many_threads() {
        const HELPERS: usize = 8;
        const CYCLES: u64 = 2_000;
        let gate = Gate::default();
        let call = AtomicU64::new(0);
        let cycle = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let (woken, entered) = (AtomicU64::new(0), AtomicU64::new(0));
        let start = Barrier::new(HELPERS + 1);
        std::thread::scope(|s| {
            for _ in 0..HELPERS {
                s.spawn(|| {
                    start.wait();
                    let mut seen = 0;
                    while !done.load(SeqCst) {
                        let ticket = call.load(SeqCst);
                        if ticket == seen {
                            std::hint::spin_loop();
                            continue;
                        }
                        seen = ticket;
                        woken.fetch_add(1, SeqCst);
                        if gate.enter(ticket) {
                            assert_eq!(cycle.load(SeqCst), ticket, "in a cycle it was not called for");
                            entered.fetch_add(1, SeqCst);
                            std::hint::spin_loop();
                            assert_eq!(cycle.load(SeqCst), ticket, "closed with a helper inside");
                            gate.leave();
                        }
                    }
                });
            }
            start.wait();
            for _ in 0..CYCLES {
                let ticket = gate.open();
                cycle.store(ticket, SeqCst);
                let before = woken.load(SeqCst);
                call.store(ticket, SeqCst);
                while woken.load(SeqCst) == before {
                    std::hint::spin_loop();
                }
                while !gate.try_close() {
                    std::hint::spin_loop();
                }
                // Closed: nobody is inside, nobody can get in.
                cycle.store(0, SeqCst);
            }
            done.store(true, SeqCst);
        });
        let (woken, entered) = (woken.into_inner(), entered.into_inner());
        assert!(entered > 0, "no helper ever got in: the test checked nothing");
        assert!(woken > entered, "no helper ever arrived late: {woken} woken, {entered} entered");
    }
}
