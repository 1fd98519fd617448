//! Thread-local allocation accounting.
//!
//! Two pieces with different compile-time footprints:
//!
//! * [`alloc_counters`] — always compiled, safe code. Reads this thread's
//!   monotonic `(allocations, bytes requested)` counters. With no counting
//!   allocator installed both stay `0`, so everything downstream (profiles,
//!   goldens, CI baselines) is well-defined in a default build.
//! * [`CountingAlloc`] — only under the `alloc-profile` feature. A
//!   `GlobalAlloc` wrapper around [`std::alloc::System`] that bumps the
//!   thread-local counters on every allocation. Binaries opt in with
//!   `#[global_allocator]`; library and test builds never pay for it.
//! * [`PeakAlloc`] — the same feature. [`CountingAlloc`] plus the
//!   process-wide live heap bytes and their peak ([`peak_live_bytes`],
//!   [`reset_peak_live_bytes`]), for tests that pin memory; every
//!   allocation and free pays two atomic operations more.
//!
//! The counters are plain thread-local `Cell`s: the simulator runs one
//! experiment per thread, so per-thread counts are exactly per-run counts
//! and need no synchronization. Accesses go through `LocalKey::try_with`
//! because a global allocator can be called during TLS teardown, where
//! the key is gone — we drop the charge instead of aborting.
//!
//! Determinism contract: allocation *counts* for a fixed binary are
//! schedule-deterministic (same seed → same counts), but they shift with
//! toolchain and dependency versions, so CI gates them only via same-binary
//! double runs (`cmp` of two profiles), never across builds.

use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// This thread's monotonic allocation counters as
/// `(allocations, bytes requested)`. Both are `0` unless the binary
/// installed [`CountingAlloc`] (feature `alloc-profile`).
#[inline]
pub fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.try_with(Cell::get).unwrap_or(0),
        BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// Test-only hook: charge the counters without a real allocator, so the
/// attribution plumbing (event guards, span deltas) is testable in safe,
/// default-feature builds.
#[cfg(test)]
pub(crate) fn charge_for_test(allocs: u64, bytes: u64) {
    let _ = ALLOCS.try_with(|c| c.set(c.get().wrapping_add(allocs)));
    let _ = BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
}

#[cfg(feature = "alloc-profile")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};

    /// A counting global allocator: forwards everything to
    /// [`System`] and bumps the thread-local counters read by
    /// [`super::alloc_counters`]. Install per binary:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: failmpi_obs::CountingAlloc = failmpi_obs::CountingAlloc;
    /// ```
    pub struct CountingAlloc;

    #[inline]
    fn charge(bytes: usize) {
        // `try_with`, not `with`: the allocator runs during TLS teardown
        // too, where touching a dead key would abort the process.
        let _ = super::ALLOCS.try_with(|c| c.set(c.get().wrapping_add(1)));
        let _ = super::BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes as u64)));
    }

    // SAFETY: pure pass-through to `System`; the only extra work is
    // updating `Cell`s, which never allocates or unwinds, so every
    // `GlobalAlloc` contract obligation is discharged by `System`'s own
    // implementation.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            charge(layout.size());
            // SAFETY: `layout` is the caller's, forwarded unmodified;
            // `System::alloc` upholds the same contract we were called
            // under.
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` was returned by this allocator, which only
            // ever hands out `System` pointers, and `layout` is the one
            // it was allocated with (caller contract).
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            charge(layout.size());
            // SAFETY: as for `alloc` — the caller's `layout` is forwarded
            // unmodified to the system allocator.
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            charge(new_size);
            // SAFETY: `ptr`/`layout` satisfy the caller's realloc
            // contract and originate from `System` (see `dealloc`);
            // `new_size` is forwarded unchecked exactly as received.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }
}

#[cfg(feature = "alloc-profile")]
mod peak {
    use std::alloc::{GlobalAlloc, Layout};
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    use super::CountingAlloc;

    static LIVE: AtomicUsize = AtomicUsize::new(0);
    static PEAK: AtomicUsize = AtomicUsize::new(0);

    /// [`CountingAlloc`] that also tracks the bytes allocated and not yet
    /// freed, process-wide, and their peak. Allocation sizes are the
    /// program's, so both are deterministic for a fixed binary on one
    /// thread. Install per test binary:
    ///
    /// ```ignore
    /// #[global_allocator]
    /// static ALLOC: failmpi_obs::PeakAlloc = failmpi_obs::PeakAlloc;
    /// ```
    pub struct PeakAlloc;

    /// The most live heap bytes at once since the last
    /// [`reset_peak_live_bytes`]; `0` unless [`PeakAlloc`] is installed.
    pub fn peak_live_bytes() -> usize {
        PEAK.load(Relaxed)
    }

    /// Restarts the peak at the live heap bytes now, which it returns.
    pub fn reset_peak_live_bytes() -> usize {
        let live = LIVE.load(Relaxed);
        PEAK.store(live, Relaxed);
        live
    }

    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
        PEAK.fetch_max(live, Relaxed);
    }

    // SAFETY: pure pass-through to `CountingAlloc`, itself a pass-through
    // to `System`; the extra work is atomic arithmetic, which never
    // allocates or unwinds.
    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            // SAFETY: the caller's `layout`, forwarded unmodified.
            let ptr = unsafe { CountingAlloc.alloc(layout) };
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size(), Relaxed);
            // SAFETY: `ptr` came from this allocator with this `layout`
            // (caller contract), so from `CountingAlloc`.
            unsafe { CountingAlloc.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            // SAFETY: as for `alloc`.
            let ptr = unsafe { CountingAlloc.alloc_zeroed(layout) };
            if !ptr.is_null() {
                grow(layout.size());
            }
            ptr
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // SAFETY: the caller's realloc contract, forwarded unmodified;
            // `ptr` came from `CountingAlloc` as in `dealloc`.
            let new = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
            if !new.is_null() {
                LIVE.fetch_sub(layout.size(), Relaxed);
                grow(new_size);
            }
            new
        }
    }
}

#[cfg(feature = "alloc-profile")]
pub use counting::CountingAlloc;
#[cfg(feature = "alloc-profile")]
pub use peak::{peak_live_bytes, reset_peak_live_bytes, PeakAlloc};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_charge_monotonically() {
        let (a0, b0) = alloc_counters();
        charge_for_test(3, 100);
        let (a1, b1) = alloc_counters();
        assert_eq!(a1 - a0, 3);
        assert_eq!(b1 - b0, 100);
    }

    #[cfg(feature = "alloc-profile")]
    #[test]
    fn peak_alloc_tracks_live_bytes_and_their_peak() {
        use std::alloc::{GlobalAlloc, Layout};
        let small = Layout::from_size_align(4096, 8).expect("valid layout");
        let large = Layout::from_size_align(8192, 8).expect("valid layout");
        let base = reset_peak_live_bytes();
        // SAFETY: non-zero sizes; each block is freed once, under the
        // layout it was last (re)allocated with.
        unsafe {
            let p = PeakAlloc.alloc(small);
            assert!(!p.is_null());
            assert_eq!(peak_live_bytes(), base + 4096);
            let q = PeakAlloc.realloc(p, small, 8192);
            assert!(!q.is_null());
            assert_eq!(peak_live_bytes(), base + 8192);
            PeakAlloc.dealloc(q, large);
        }
        assert_eq!(peak_live_bytes(), base + 8192, "a free leaves the peak");
        assert_eq!(reset_peak_live_bytes(), base, "every byte came back");
        assert_eq!(peak_live_bytes(), base);
    }
}
