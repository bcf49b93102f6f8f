//! A counting wrapper over the system allocator.
//!
//! The counters sit behind a switch that is off except inside
//! [`counted`], so the timed reps pay one relaxed load per allocation and
//! nothing else. A counted rep is a dedicated rep: its wall time is never
//! reported.
//!
//! This module holds the crate's only `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator installed for every binary and test of this package.
pub struct Counting;

#[global_allocator]
static GLOBAL: Counting = Counting;

// Statistics only: no other memory is published through these, so
// `Relaxed` is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment counting was switched on; frees of
/// older blocks take it below zero.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    if ENABLED.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
        let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
        PEAK.fetch_max(live, Relaxed);
    }
}

fn shrank(bytes: usize) {
    if ENABLED.load(Relaxed) {
        LIVE.fetch_sub(bytes as i64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are exactly the ones `System`
// needs; the bookkeeping touches only atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract as the caller's.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout, same contract as the caller's.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which only ever hands
        // out `System` blocks, with this layout.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` is a live `System` block of `layout`; `new_size`
        // obeys the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        p
    }
}

/// What one counted section allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
    /// Highest live-byte growth over the section's starting heap.
    pub peak_bytes: u64,
}

/// Runs `f` with counting on and returns what it allocated. Sections must
/// not nest or overlap; other threads' allocations are counted too, so
/// exact figures need a process with nothing else running.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, AllocStats) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    let stats = AllocStats {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, stats)
}
