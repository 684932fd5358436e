//! A counting global allocator: live heap bytes on the calling thread
//! and their peak. A repetition's memory footprint is read from its own
//! allocations, which repeat exactly, rather than from the process's
//! resident pages, which moved by a fifth between identical runs as the
//! allocator's free lists differed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to [`System`] and counts bytes on the calling thread.
pub struct Counting;

thread_local! {
    // Const-initialised and without destructors, so touching them never
    // allocates (which would recurse into the allocator).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    // `try_with` fails only while the thread's locals are torn down; the
    // count of an exiting thread no longer matters.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only updates
// thread-local counters and never touches the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (that is,
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus `realloc`'s size contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Starts a new peak at the calling thread's current live bytes.
pub fn reset_peak() {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
}

/// Peak live heap bytes on the calling thread since [`reset_peak`].
pub fn peak_bytes() -> f64 {
    PEAK.with(Cell::get).max(0) as f64
}
