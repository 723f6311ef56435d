//! Counting global allocator.
//!
//! Wraps the system allocator with two relaxed counters (calls and bytes)
//! behind an on/off flag. The flag is armed only around the traced blocks
//! of a traced run, so the untraced end-to-end numbers pay one relaxed
//! load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed as `#[global_allocator]` by this crate.
pub struct CountingAlloc;

#[inline]
fn count(size: usize) {
    // Relaxed: the counters are statistics and publish no other data.
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator only ever hands out `System` blocks.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Switches counting on or off.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far while armed.
pub fn counted() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_armed() {
        // Other tests of this binary allocate concurrently, so only lower
        // bounds can be asserted.
        arm(true);
        let before = counted();
        let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(4096));
        let after = counted();
        arm(false);
        drop(v);
        assert!(after.0 > before.0);
        assert!(after.1 >= before.1 + 4096);
    }
}
