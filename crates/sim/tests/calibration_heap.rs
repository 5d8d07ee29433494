//! The calibration campaign's peak live heap.
//!
//! The four PRBS experiments log into one preallocated log (1.71 MiB for
//! the default recipe), which identification and validation read in place.
//! A copy of that log anywhere in the pipeline (a concatenation, a copying
//! train/test split, a regressor matrix or a relative-temperature buffer)
//! pushes the peak past the bound. This binary holds one test, so nothing
//! else allocates while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use platform_sim::CalibrationCampaign;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grow(bytes: usize) {
        let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
        PEAK.fetch_max(live, Ordering::SeqCst);
    }

    fn shrink(bytes: usize) {
        LIVE.fetch_sub(bytes, Ordering::SeqCst);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            Counting::grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Counting::shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            Counting::grow(new_size);
            Counting::shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

#[test]
fn default_calibration_peaks_below_two_and_a_half_mib_of_live_heap() {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let calibration = CalibrationCampaign::default().run(1).expect("calibrates");
    let peak = (PEAK.load(Ordering::SeqCst) - before) as f64 / MIB;
    drop(calibration);
    assert!(peak <= 2.5, "peak live heap {peak:.2} MiB");
}
