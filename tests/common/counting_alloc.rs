//! A global allocator that counts this thread's allocator calls and
//! live bytes, for the test binaries that assert a step stays off the
//! heap or within a heap budget. Each such binary installs it itself
//! (`#[global_allocator]`) and uses one of the two measures; it lives
//! in a test binary because the libraries forbid `unsafe`.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread (the test harness's other
    /// threads must not count).
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds, and the most it has held since the
    /// last `peak_live_bytes` began.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// Accounts one allocator call that released `old` and took `new` bytes.
fn account(old: usize, new: usize) {
    let live = LIVE.with(|l| {
        l.set((l.get() + new).saturating_sub(old));
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// destructor-free thread-local that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        account(0, layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        account(layout.size(), 0);
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        account(layout.size(), new_size);
        // SAFETY: `ptr`/`layout` come from `System`; the `new_size`
        // obligations pass through as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls `f` makes on this thread.
pub fn calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (CALLS.with(Cell::get) - before, out)
}

/// The bytes this thread holds once `f` has returned, over what it held
/// when `f` began: what `f`'s result keeps on the heap.
pub fn retained_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.with(Cell::get);
    let out = f();
    (LIVE.with(Cell::get).saturating_sub(before), out)
}

/// The most bytes this thread held at once while `f` ran, over what it
/// held when `f` began.
pub fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let out = f();
    (PEAK.with(Cell::get) - before, out)
}
