//! Chase–Lev work-stealing deque (hand-rolled atomics, no dependencies).
//!
//! The paper's multi-queue scheduler still serializes every cross-process
//! "steal" on the victim's spin lock (§6.1: idle processes "cycle through
//! the other processes' task queues", taking each lock as they go). The
//! modern fix is a per-worker deque where the owner pushes and pops the
//! bottom with plain loads/stores and thieves race a single CAS on the top:
//!
//! * D. Chase, Y. Lev, *Dynamic Circular Work-Stealing Deque*, SPAA 2005;
//! * N. M. Lê, A. Pop, A. Cohen, F. Zappa Nardelli, *Correct and Efficient
//!   Work-Stealing for Weak Memory Models*, PPoPP 2013 — the C11 port whose
//!   fence placement this implementation follows.
//!
//! Owner operations ([`WsDeque::push`], [`WsDeque::push_batch`],
//! [`WsDeque::pop`]) are `unsafe fn`s: the algorithm is only correct when at
//! most one thread at a time acts as the owner. [`WsDeque::steal`] is safe
//! and may be called from any number of threads concurrently.
//!
//! Two deliberate simplicity trade-offs versus a production library:
//!
//! * **Retired buffers are kept until drop.** When the ring grows, thieves
//!   may still hold the old buffer pointer, so it cannot be freed
//!   immediately. Instead of epoch reclamation the deque stashes old
//!   buffers and frees them in `Drop` — growth doubles, so total stash
//!   memory is at most ~2× the peak ring size.
//! * **The speculative steal read** copies the slot *before* the CAS that
//!   claims it and `mem::forget`s the copy when the CAS fails, exactly as
//!   crossbeam-deque does. A thief that loses the race may read bytes the
//!   owner is concurrently overwriting; the copy is discarded without being
//!   interpreted, which every practical implementation of this algorithm
//!   relies on.

use psme_rete::SpinLock;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicI64, AtomicPtr, Ordering};

/// Initial ring capacity (power of two).
const MIN_CAP: usize = 64;

/// Growable ring buffer. Slots hold bitwise copies; ownership of the value
/// at logical index `i` belongs to whoever wins `i` via the top CAS (thief)
/// or the bottom protocol (owner) — each index is consumed exactly once.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: i64,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> *mut Buffer<T> {
        debug_assert!(cap.is_power_of_two());
        Box::into_raw(Box::new(Buffer {
            slots: (0..cap).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect(),
            mask: cap as i64 - 1,
        }))
    }

    fn cap(&self) -> usize {
        self.slots.len()
    }

    /// Write the slot for logical index `i`.
    ///
    /// # Safety
    /// Caller must own index `i` (owner thread, `i == bottom`).
    unsafe fn write(&self, i: i64, v: T) {
        (*self.slots[(i & self.mask) as usize].get()).write(v);
    }

    /// Read a bitwise copy of the slot for logical index `i`.
    ///
    /// # Safety
    /// Caller must either own index `i` or discard the copy with
    /// `mem::forget` if its claim fails (steal path).
    unsafe fn read(&self, i: i64) -> T {
        (*self.slots[(i & self.mask) as usize].get()).assume_init_read()
    }
}

/// Result of a steal attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// Lost the race against the owner or another thief; retrying may
    /// succeed.
    Retry,
    /// One task, now owned by the caller.
    Success(T),
}

/// The work-stealing deque.
pub struct WsDeque<T> {
    /// Next index a thief will claim.
    top: AtomicI64,
    /// Next index the owner will push at.
    bottom: AtomicI64,
    /// Current ring.
    buf: AtomicPtr<Buffer<T>>,
    /// Rings retired by growth; freed on drop (see module docs). Only the
    /// owner pushes here and growth is rare, so a spin lock is fine.
    retired: SpinLock<Vec<*mut Buffer<T>>>,
}

// SAFETY: the deque hands each value to exactly one consumer; `T: Send`
// suffices because values cross threads but are never aliased.
unsafe impl<T: Send> Send for WsDeque<T> {}
unsafe impl<T: Send> Sync for WsDeque<T> {}

impl<T> Default for WsDeque<T> {
    fn default() -> WsDeque<T> {
        WsDeque::new()
    }
}

impl<T> WsDeque<T> {
    /// New empty deque.
    pub fn new() -> WsDeque<T> {
        WsDeque {
            top: AtomicI64::new(0),
            bottom: AtomicI64::new(0),
            buf: AtomicPtr::new(Buffer::alloc(MIN_CAP)),
            retired: SpinLock::new(Vec::new()),
        }
    }

    /// Double the ring until `need` entries fit, copying live indices
    /// `[t, b)` over. Owner-only; returns the new buffer.
    ///
    /// # Safety
    /// Caller is the owner; `t`/`b` are the currently loaded top/bottom.
    unsafe fn grow(&self, mut a: *mut Buffer<T>, t: i64, b: i64, need: i64) -> *mut Buffer<T> {
        loop {
            let new = Buffer::alloc((*a).cap() * 2);
            for i in t..b {
                // Bitwise copy: both rings now hold the bytes, but logical
                // index `i` is still consumed exactly once (thieves that
                // loaded the old ring read the same bytes).
                (*new).write(i, (*a).read(i));
            }
            self.buf.store(new, Ordering::Release);
            self.retired.lock().0.push(a);
            a = new;
            if b + need - t <= (*a).cap() as i64 {
                return a;
            }
        }
    }

    /// Push one task at the bottom.
    ///
    /// # Safety
    /// Must only be called by the deque's owner (at most one thread at a
    /// time performs owner operations).
    pub unsafe fn push(&self, v: T) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut a = self.buf.load(Ordering::Relaxed);
        if b - t >= (*a).cap() as i64 {
            a = self.grow(a, t, b, 1);
        }
        (*a).write(b, v);
        // Publish: a thief that observes bottom = b+1 also observes the
        // slot write.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Push a batch at the bottom with a single publication: all slots are
    /// written first, then one release store of `bottom` makes the whole
    /// batch visible — one atomic op and one fence however large the batch.
    ///
    /// # Safety
    /// Owner-only, as [`Self::push`].
    pub unsafe fn push_batch(&self, vs: &mut Vec<T>) {
        let k = vs.len() as i64;
        if k == 0 {
            return;
        }
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        let mut a = self.buf.load(Ordering::Relaxed);
        if b + k - t > (*a).cap() as i64 {
            a = self.grow(a, t, b, k);
        }
        for (i, v) in vs.drain(..).enumerate() {
            (*a).write(b + i as i64, v);
        }
        self.bottom.store(b + k, Ordering::Release);
    }

    /// Pop from the bottom (LIFO).
    ///
    /// # Safety
    /// Owner-only, as [`Self::push`].
    pub unsafe fn pop(&self) -> Option<T> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        let a = self.buf.load(Ordering::Relaxed);
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the bottom store before the top load
        // against the mirrored pair in `steal` — the crux of the algorithm.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        match t.cmp(&b) {
            std::cmp::Ordering::Less => Some((*a).read(b)),
            std::cmp::Ordering::Equal => {
                // Last element: race thieves for it via the top CAS.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    Some((*a).read(b))
                } else {
                    None
                }
            }
            std::cmp::Ordering::Greater => {
                // Was empty; restore.
                self.bottom.store(b + 1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Steal from the top (FIFO). Safe from any thread.
    pub fn steal(&self) -> Steal<T> {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let a = self.buf.load(Ordering::Acquire);
        // SAFETY: speculative copy; forgotten below if the claim fails.
        let v = unsafe { (*a).read(t) };
        if self
            .top
            .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
            .is_err()
        {
            std::mem::forget(v);
            return Steal::Retry;
        }
        Steal::Success(v)
    }

    /// Racy size estimate (never negative). Exact when the deque is
    /// quiescent — which is when callers use it (cycle barrier asserts).
    pub fn len_hint(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        (b - t).max(0) as usize
    }

    /// Racy emptiness check (see [`Self::len_hint`]).
    pub fn is_empty_hint(&self) -> bool {
        self.len_hint() == 0
    }
}

impl<T> Drop for WsDeque<T> {
    fn drop(&mut self) {
        let t = *self.top.get_mut();
        let b = *self.bottom.get_mut();
        let a = *self.buf.get_mut();
        // SAFETY: `&mut self` means no other thread holds a reference; the
        // unconsumed indices [t, b) are dropped exactly once, then every
        // ring (current + retired) is freed.
        unsafe {
            for i in t..b {
                drop((*a).read(i));
            }
            drop(Box::from_raw(a));
            for p in self.retired.get_mut().drain(..) {
                drop(Box::from_raw(p));
            }
        }
    }
}

impl<T> std::fmt::Debug for WsDeque<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WsDeque(len≈{})", self.len_hint())
    }
}
