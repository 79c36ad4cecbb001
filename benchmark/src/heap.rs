//! Live heap bytes, counted by a thin wrapper around the system allocator.
//!
//! `serve.rss_per_plan_mb` needs the memory a resident plan holds. The
//! process RSS cannot show it once the allocator reuses pages freed
//! earlier in the run, so the benchmark counts the bytes it holds live.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes.
pub struct Counting;

/// Bytes currently allocated. A statistic only: it publishes no other
/// data, so `Relaxed` suffices; a block's allocation is counted before
/// the pointer can reach the thread that frees it, so the count never
/// underflows.
static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// meets the `GlobalAlloc` contract; the wrapper only updates a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`, as the
        // caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

/// Live heap bytes, in MB.
pub fn live_mb() -> f64 {
    LIVE.load(Ordering::Relaxed) as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_held_allocation() {
        let before = live_mb();
        let v = vec![0u8; 64 << 20];
        let held = live_mb() - before;
        drop(v);
        // Other tests allocate concurrently, so allow slack.
        assert!(held > 60.0 && held < 76.0, "held {held} MB");
    }
}
