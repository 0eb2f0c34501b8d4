//! Zero-cost-when-disabled kernel counters.
//!
//! The workspace's bit-identity contract forbids instrumentation from
//! feeding back into numerics, so these counters only *observe*: each
//! instrumented kernel records its calls and the elements it processed.
//! When profiling is disabled (the default) an instrumented call pays
//! exactly one relaxed atomic load; when enabled, two relaxed adds.
//! Counting never reads the clock or queries the thread count, so
//! leaving it on (as `serve` does) does not perturb what it counts.
//! Time belongs to the layer spans, not to the kernels.
//!
//! Counts are flat, not hierarchical: the `axpy` calls made inside an
//! `spmm` call count toward **both** kernels.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The instrumented kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Kernel {
    /// Dense blocked matmul ([`Matrix::matmul`] in `ancstr-nn`).
    Matmul = 0,
    /// Sparse × dense product (`SparseMatrix::grouped_product`).
    Spmm = 1,
    /// Fused `y += a·x` accumulation primitive.
    Axpy = 2,
    /// Per-row L2 norms (`Matrix::row_norms`).
    RowNorms = 3,
    /// One parallel region dispatched through the worker pool
    /// (calls = batches, elements = chunks executed).
    ParRegion = 4,
}

/// Exposition names, indexed by [`Kernel`] discriminant.
pub const KERNEL_NAMES: [&str; 5] = ["matmul", "spmm", "axpy", "row_norms", "par_region"];

struct Slot {
    calls: AtomicU64,
    elems: AtomicU64,
}

const fn slot() -> Slot {
    Slot {
        calls: AtomicU64::new(0),
        elems: AtomicU64::new(0),
    }
}

static SLOTS: [Slot; 5] = [slot(), slot(), slot(), slot(), slot()];
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn profiling on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether profiling is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every counter (start of a measured pass).
pub fn reset() {
    for s in &SLOTS {
        s.calls.store(0, Ordering::Relaxed);
        s.elems.store(0, Ordering::Relaxed);
    }
}

/// Count one kernel call over `elems` elements (a no-op while
/// profiling is disabled).
#[inline]
pub fn count(kernel: Kernel, elems: u64) {
    if enabled() {
        let s = &SLOTS[kernel as usize];
        s.calls.fetch_add(1, Ordering::Relaxed);
        s.elems.fetch_add(elems, Ordering::Relaxed);
    }
}

/// A point-in-time copy of one kernel's counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Kernel name as exposed in metrics.
    pub name: &'static str,
    /// Number of instrumented calls.
    pub calls: u64,
    /// Total elements processed (kernel-specific unit: mul-adds for
    /// matmul/spmm, vector elements for axpy/row_norms, chunks for
    /// par_region).
    pub elems: u64,
}

/// Snapshot every kernel's counters, in [`KERNEL_NAMES`] order.
pub fn snapshot() -> Vec<KernelStats> {
    KERNEL_NAMES
        .iter()
        .zip(&SLOTS)
        .map(|(name, s)| KernelStats {
            name,
            calls: s.calls.load(Ordering::Relaxed),
            elems: s.elems.load(Ordering::Relaxed),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The counters are process-global; serialize the tests that toggle
    /// them. Other tests in this crate only ever touch `par_region`
    /// (via the pool), so assertions stick to the nn-facing kernels.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_counters_record_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        count(Kernel::Matmul, 1000);
        let stats = snapshot();
        let matmul = stats.iter().find(|s| s.name == "matmul").unwrap();
        assert_eq!((matmul.calls, matmul.elems), (0, 0), "{stats:?}");
    }

    #[test]
    fn enabled_counters_accumulate_calls_and_elems() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        count(Kernel::Spmm, 64);
        count(Kernel::Spmm, 36);
        let stats = snapshot();
        set_enabled(false);
        let spmm = stats.iter().find(|s| s.name == "spmm").unwrap();
        assert_eq!((spmm.calls, spmm.elems), (2, 100), "{stats:?}");
        assert_eq!(stats.iter().find(|s| s.name == "matmul").unwrap().calls, 0);
    }
}
