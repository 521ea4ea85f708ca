//! A counting global allocator. Counting is switched on only for the
//! traced run; untraced runs pay one relaxed load per allocation.
//!
//! Counts are per thread, so a single-threaded replay reads exact,
//! repeatable allocation counts for each layer call even while server
//! threads sit idle in the background.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};

/// The benchmark binary's allocator.
pub struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        // `try_with` fails only while the thread's locals are being torn
        // down; such late allocations are simply not counted.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters touch only thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Turn counting on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes)` this thread has made while counting was on.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// Serialises tests that switch counting on and off.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_while_enabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        enable(false);
        let a = snapshot();
        let v: Vec<u8> = Vec::with_capacity(64);
        drop(std::hint::black_box(v));
        assert_eq!(snapshot(), a);
        enable(true);
        let v: Vec<u8> = Vec::with_capacity(64);
        drop(std::hint::black_box(v));
        let b = snapshot();
        enable(false);
        assert_eq!(b.0 - a.0, 1);
        assert_eq!(b.1 - a.1, 64);
    }
}
