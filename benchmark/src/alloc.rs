//! Counting allocator: live bytes, peak live bytes and allocation calls.
//!
//! Installed as the process's `#[global_allocator]` in both passes, so
//! the timed and the traced pass pay the same (small) bookkeeping cost
//! and memory figures never depend on which pass produced them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};

/// A reading of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Bytes currently allocated.
    pub live: usize,
    /// Highest `live` since the last reset.
    pub peak: usize,
    /// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) since the
    /// last reset.
    pub calls: u64,
}

// Statistics only: no other data is published through these, so
// `Relaxed` is sufficient.
struct Counters {
    live: AtomicUsize,
    peak: AtomicUsize,
    calls: AtomicU64,
}

impl Counters {
    const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            calls: AtomicU64::new(0),
        }
    }

    fn grew(&self, bytes: usize) {
        self.calls.fetch_add(1, Relaxed);
        let live = self.live.fetch_add(bytes, Relaxed) + bytes;
        self.peak.fetch_max(live, Relaxed);
    }

    fn shrank(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Relaxed);
    }

    fn reset(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
        self.calls.store(0, Relaxed);
    }

    fn snapshot(&self) -> HeapStats {
        HeapStats {
            live: self.live.load(Relaxed),
            peak: self.peak.load(Relaxed),
            calls: self.calls.load(Relaxed),
        }
    }
}

static HEAP: Counters = Counters::new();

/// `System` with counters around every call.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator, i.e. by `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. `System`;
        // the `new_size` obligations pass through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            HEAP.shrank(layout.size());
            HEAP.grew(new_size);
        }
        p
    }
}

/// Starts a new measurement window: the peak restarts from the current
/// live size and the call count from zero.
pub fn reset() {
    HEAP.reset();
}

/// Reads the process-wide counters.
pub fn snapshot() -> HeapStats {
    HEAP.snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_high_water_mark_and_reset_restarts_it_from_live() {
        let c = Counters::new();
        c.grew(100);
        c.grew(50);
        c.shrank(120);
        c.grew(10);
        assert_eq!(
            c.snapshot(),
            HeapStats {
                live: 40,
                peak: 150,
                calls: 3
            }
        );
        c.reset();
        assert_eq!(
            c.snapshot(),
            HeapStats {
                live: 40,
                peak: 40,
                calls: 0
            }
        );
        c.grew(5);
        assert_eq!(c.snapshot().peak, 45);
    }

    #[test]
    fn the_installed_allocator_sees_a_large_vector_come_and_go() {
        // Other tests allocate concurrently, so only a block far larger
        // than anything they hold is asserted on.
        const BIG: usize = 256 << 20;
        let before = snapshot();
        let v: Vec<u8> = Vec::with_capacity(BIG);
        let during = snapshot();
        assert!(during.live >= before.live / 2 + BIG);
        assert!(during.peak >= BIG);
        drop(v);
        assert!(snapshot().live < during.live - BIG / 2);
    }
}
