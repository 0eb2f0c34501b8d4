//! Allocation-free steady state: after the first epoch, a training
//! epoch allocates nothing whose size grows with the graph.
//!
//! This binary installs a counting global allocator, so it holds a
//! single test: any other test running beside it would add its own
//! allocations to the count. The trainer keeps one autograd tape, one
//! gradient store and one context batch across epochs, and the tape
//! hands out recycled buffers, so epochs 2–4 of ADC5 must not make a
//! single allocation of 64 KiB or more (an `n × D` value of ADC5 is
//! about 177 KiB).
//!
//! Not covered: the non-default `neighbor_samples` path, where
//! `GraphTensors::sampled` rebuilds the graph's tensors every epoch by
//! design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use ancstr_circuits::adc;
use ancstr_core::{ExtractorConfig, SymmetryExtractor};
use ancstr_gnn::{
    try_train_resumable, EpochTelemetry, GnnModel, HealthConfig, ResumableHooks, TrainConfig,
    TrainerHooks,
};
use ancstr_netlist::flat::FlatCircuit;

/// Allocations (and reallocations) at least this large are counted.
const LARGE: usize = 64 * 1024;

static LARGE_ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= LARGE {
            LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Reads the counter at the end of every epoch.
struct EpochCounts(Vec<usize>);

impl TrainerHooks for EpochCounts {
    fn on_epoch(&mut self, _: &EpochTelemetry) {
        self.0.push(LARGE_ALLOCS.load(Ordering::Relaxed));
    }
}

#[test]
fn epochs_after_the_first_make_no_large_allocation() {
    const EPOCHS: usize = 4;
    let mut cfg = ExtractorConfig::default();
    cfg.train = TrainConfig {
        epochs: EPOCHS,
        seed: 1,
        ..cfg.train
    };
    assert_eq!(
        cfg.train.neighbor_samples, None,
        "the default aggregates every neighbour"
    );
    let flat = FlatCircuit::elaborate(&adc::adc5()).expect("adc5 elaborates");
    let graph = SymmetryExtractor::new(cfg.clone()).train_graph(&flat);
    let n = graph.tensors.vertex_count();
    assert!(
        n * cfg.gnn.dim * std::mem::size_of::<f64>() >= LARGE,
        "ADC5's n × D values ({n} × {}) must be large enough to count",
        cfg.gnn.dim
    );

    let mut model = GnnModel::new(cfg.gnn.clone());
    let mut counts = EpochCounts(Vec::with_capacity(EPOCHS));
    let hooks = ResumableHooks {
        observer: Some(&mut counts),
        ..ResumableHooks::default()
    };
    let before = LARGE_ALLOCS.load(Ordering::Relaxed);
    try_train_resumable(
        &mut model,
        std::slice::from_ref(&graph),
        &cfg.train,
        &HealthConfig::default(),
        hooks,
    )
    .expect("ADC5 trains");

    let counts = counts.0;
    assert_eq!(counts.len(), EPOCHS);
    assert!(
        counts[0] > before,
        "the first epoch allocates the working set"
    );
    let per_epoch: Vec<usize> = counts.windows(2).map(|w| w[1] - w[0]).collect();
    assert_eq!(
        per_epoch,
        vec![0; EPOCHS - 1],
        "large allocations in epochs 2..={EPOCHS}"
    );
}
