//! A global allocator that counts this thread's allocator calls, for
//! the test binaries that assert a step stays off the heap. Each such
//! binary installs it itself (`#[global_allocator]`); it lives in a
//! test binary because the libraries forbid `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocation calls made by this thread (the test harness's other
    /// threads must not count).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a
// destructor-free thread-local that never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.with(|c| c.set(c.get() + 1));
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
