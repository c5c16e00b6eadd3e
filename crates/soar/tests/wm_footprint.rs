//! What a running agent holds on the heap per wme it has added: working
//! memory and the history a chunk backtrace can still reach, not every wme
//! the run ever made.
//!
//! A counting global allocator tracks live bytes. The counter is
//! process-wide, so this file has one test.

use psme_rete::{ReteNetwork, SerialEngine};
use psme_tasks::{eight_puzzle, scrambled};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The window: decisions after warm-up (pools and tables at size) up to
/// the paper tasks' budget.
const FROM: u64 = 100;
const TO: u64 = 400;
/// Bytes of live heap a run may keep per wme it adds.
const LIMIT: isize = 200;

/// Live heap gained per wme added between decisions [`FROM`] and [`TO`].
fn bytes_per_wme_added(learning: bool) -> isize {
    let task = eight_puzzle(&scrambled(12, 100));
    let mut agent = task.agent(SerialEngine::new(ReteNetwork::new()));
    agent.learning = learning;
    assert_eq!(agent.run(FROM), psme_soar::StopReason::DecisionLimit);
    let (heap, adds) = (live(), agent.stats.wme_adds);
    assert_eq!(agent.run(TO), psme_soar::StopReason::DecisionLimit, "the run must fill the window");
    let added = (agent.stats.wme_adds - adds) as isize;
    assert!(added > 1000, "only {added} wmes added in the window");
    (live() - heap) / added
}

#[test]
fn an_agent_keeps_its_working_memory_not_its_history() {
    for learning in [false, true] {
        let per = bytes_per_wme_added(learning);
        eprintln!("learning {learning}: {per} B live heap per wme added");
        assert!(per < LIMIT, "learning {learning}: {per} B kept per wme added (limit {LIMIT} B)");
    }
}
