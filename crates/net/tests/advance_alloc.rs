//! `Channel::advance_until` keeps its per-step rates and finish times
//! in scratch vectors owned by the channel, so a step that finishes no
//! flow must not touch the heap. Asserted with a counting allocator,
//! which is why this lives in a test binary of its own (the library
//! forbids `unsafe`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rog_net::{Channel, ChannelProfile, FlowSpec, GeParams, LossConfig, LossModel, Trace};

thread_local! {
    /// Allocation calls made by this thread (the test harness's other
    /// threads must not count).
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

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

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn steps_that_finish_no_flow_do_not_allocate() {
    const LINKS: usize = 64;
    let profile = ChannelProfile::outdoor();
    let links: Vec<Trace> = (0..LINKS)
        .map(|l| profile.generate_link(8 + l as u64, 60.0))
        .collect();
    let cfg = LossConfig {
        ge: Some(GeParams::bursty(0.1)),
        ..LossConfig::iid(3, 0.05)
    };
    let mut ch = Channel::new(profile.generate(7, 60.0), links)
        .with_loss(LossModel::build(&cfg, LINKS, 60.0));
    // Far more bytes than 10 s of a shared hotspot can carry, in many
    // chunks so the loss model keeps drawing fates.
    for l in 0..LINKS {
        ch.start_flow(0.0, FlowSpec::new(l, vec![2_000; 50_000]));
    }
    // The first call sizes the scratch vectors.
    assert!(ch.advance_until(5.0).is_empty());
    let before = CALLS.with(Cell::get);
    let events = ch.advance_until(10.0);
    let calls = CALLS.with(Cell::get) - before;
    assert!(events.is_empty(), "no flow may finish in the window");
    assert_eq!(ch.active_flows(), LINKS);
    assert_eq!(calls, 0, "advance_until allocated {calls} times");
}
