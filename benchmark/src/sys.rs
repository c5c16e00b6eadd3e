//! Process-level readings: CPU time from the process clock, peak resident
//! set from `/proc`, heap in use from the allocator.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// This package's directory. `cargo run` exports it at run time; a binary
/// started by hand falls back to where it was built.
pub fn manifest_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `struct timespec` of a 64-bit Linux target.
#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, t: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) this process has consumed, all threads
/// included, live or already joined: what `utime + stime` of
/// `/proc/self/stat` count in ticks of 10 ms, to the nanosecond, so that
/// it can be read around an operation of a few milliseconds.
pub fn cpu_seconds() -> f64 {
    let mut t = Timespec::default();
    // SAFETY: `clock_gettime` writes one `struct timespec`, declared above
    // as glibc lays it out on 64-bit Linux, through the pointer and keeps
    // nothing.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// glibc's `struct mallinfo2`: ten `size_t` counters.
#[repr(C)]
#[derive(Default)]
struct Mallinfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> Mallinfo2;
}

/// MiB of heap in use right now: bytes in allocated chunks of every malloc
/// arena, plus bytes in chunks the allocator mapped directly. Unlike the
/// resident set it does not depend on how the allocator spread those
/// chunks over arenas and pages, which in a process of twenty threads
/// differs by a third from one run of the same inputs to the next.
pub fn heap_in_use_mib() -> f64 {
    // SAFETY: `mallinfo2` (glibc 2.33 and later) takes no arguments and
    // returns the struct declared above by value; it locks each arena
    // while it reads it and may be called from any thread.
    let m = unsafe { mallinfo2() };
    (m.uordblks + m.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Samples [`heap_in_use_mib`] fifty times a second on a thread of its own
/// and keeps the highest reading.
pub struct HeapSampler {
    flags: Arc<Flags>,
    thread: JoinHandle<f64>,
}

#[derive(Default)]
struct Flags {
    stop: AtomicBool,
    frozen: AtomicBool,
}

impl HeapSampler {
    pub fn start() -> HeapSampler {
        let flags = Arc::new(Flags::default());
        let thread = {
            let flags = Arc::clone(&flags);
            std::thread::Builder::new()
                .name("bench-heap".into())
                .spawn(move || {
                    let mut peak = heap_in_use_mib();
                    while !flags.stop.load(Ordering::Relaxed) {
                        if !flags.frozen.load(Ordering::Relaxed) {
                            peak = peak.max(heap_in_use_mib());
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    peak
                })
                .expect("spawn heap sampler")
        };
        HeapSampler { flags, thread }
    }

    /// Stop looking: the peak so far is the result. For workloads whose
    /// heap grows with the work done, called after a fixed amount of it.
    pub fn freeze(&self) {
        self.flags.frozen.store(true, Ordering::Relaxed);
    }

    pub fn finish(self) -> f64 {
        self.flags.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("heap sampler panicked")
    }
}

/// Wall and CPU time since construction.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn wall_seconds(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds() - self.cpu
    }
}
