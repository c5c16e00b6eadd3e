//! What the serving loop holds on the heap: what an id costs before anything
//! is submitted, and what a retired session leaves behind.
//!
//! A counting global allocator tracks live bytes. The counter is
//! process-wide, so this file has one test.

use psme_obs::TraceConfig;
use psme_serve::{build_topology, OpenServe, ServeConfig, ServeEvent, SessionSpec};
use psme_tasks::{eight_puzzle, scrambled};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Duration;

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

/// Sessions run one at a time before the growth is measured, so the
/// loop's bounded pools (the latency reservoir, the event channel) have
/// reached their size.
const WARM: usize = 16;
const SESSIONS: usize = 400;

#[test]
fn an_id_costs_its_record_and_a_retired_session_its_report() {
    let spec = |i: usize| SessionSpec {
        name: format!("s-{i}"),
        task: eight_puzzle(&scrambled(3, i as u64 + 1)),
        learning: false,
    };
    let topo = build_topology(&spec(0).task);
    // No trace: the rings are bounded, but they would fill inside the
    // measured window and blur what the loop keeps per session.
    let cfg = ServeConfig { trace: TraceConfig::disabled(), ..Default::default() };

    // (a) The id space, before any submission.
    let before = live();
    let (open, events) = OpenServe::start(topo, cfg, 1 << 13);
    let start = live() - before;
    eprintln!("OpenServe::start for 8192 ids: {start} B live");
    assert!(start < 1 << 20, "an empty loop holds {start} B for 8192 ids (limit 1 MiB)");

    // (b) One session at a time, each retired before the next is built.
    let mut warm = 0;
    for i in 0..SESSIONS {
        if i == WARM {
            warm = live();
        }
        let id = open.submit(spec(i), None).expect("id space");
        match events.recv_timeout(Duration::from_secs(60)).expect("the loop stalled") {
            ServeEvent::Retired { id: r } => assert_eq!(r, id),
            ev => panic!("unexpected {ev:?}"),
        }
    }
    let per = (live() - warm) / (SESSIONS - WARM) as isize;
    eprintln!("live heap per retired session: {per} B");
    assert!(per < 4 << 10, "a retired session keeps {per} B (limit 4 KiB)");
    assert_eq!(open.finish().sessions.len(), SESSIONS);
}
