//! Golden training bits: the exact trained parameters and epoch losses
//! of a fixed small design, pinned as one hash per training route.
//!
//! `tests/parallel_identity.rs` only compares thread counts with each
//! other; these constants pin the trained bits themselves, so any
//! change to the autograd tape, the kernels under it or the epoch loop
//! that moves a single bit of a weight or a loss fails here.
//!
//! The constants were recorded at commit
//! 8a4ee214ba1ca788aef2e2d405b7a6eaceb079bd, before the tape recycled
//! its buffers across epochs. An intended numeric change updates them
//! in the same commit and says why.

use ancstr_circuits::adc;
use ancstr_core::{ExtractorConfig, SymmetryExtractor};
use ancstr_gnn::{
    train, try_train, try_train_resumable, GnnModel, HealthConfig, ResumableHooks, TrainConfig,
    TrainGraph, TrainOutcome, TrainReport, TrainerState,
};
use ancstr_netlist::flat::FlatCircuit;

const EPOCHS: usize = 5;
const SEED: u64 = 7;

/// `train`, `try_train` and a resume from an epoch-2 checkpoint all
/// follow the same trajectory on this clean run.
const GOLDEN: u64 = 0x397f_44fe_9082_b426;

/// `try_train` with a NaN injected into the epoch-1 gradient: the
/// recovery restores the best checkpoint and re-seeds.
const GOLDEN_RECOVERED: u64 = 0x5604_adad_e4ee_da93;

fn setup() -> (ExtractorConfig, TrainGraph) {
    let mut cfg = ExtractorConfig::default();
    cfg.train = TrainConfig {
        epochs: EPOCHS,
        seed: SEED,
        ..cfg.train
    };
    let flat = FlatCircuit::elaborate(&adc::adc1()).expect("adc1 elaborates");
    let graph = SymmetryExtractor::new(cfg.clone()).train_graph(&flat);
    (cfg, graph)
}

/// FNV-1a over the bit patterns of every parameter (in
/// `GnnModel::matrices` order) and then every epoch loss.
fn bits_hash(model: &GnnModel, report: &TrainReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |x: f64| {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for m in model.matrices() {
        m.as_slice().iter().for_each(|&x| mix(x));
    }
    report.epoch_losses.iter().for_each(|&x| mix(x));
    h
}

#[test]
fn train_route_matches_golden_bits() {
    let (cfg, graph) = setup();
    let mut model = GnnModel::new(cfg.gnn.clone());
    let report = train(&mut model, std::slice::from_ref(&graph), &cfg.train);
    assert_eq!(report.epoch_losses.len(), EPOCHS);
    assert_eq!(
        bits_hash(&model, &report),
        GOLDEN,
        "{:#x}",
        bits_hash(&model, &report)
    );
}

#[test]
fn try_train_route_matches_golden_bits() {
    let (cfg, graph) = setup();
    let mut model = GnnModel::new(cfg.gnn.clone());
    let (report, health) = try_train(
        &mut model,
        std::slice::from_ref(&graph),
        &cfg.train,
        &HealthConfig::default(),
    )
    .expect("clean run trains");
    assert!(health.clean(), "{health:?}");
    assert_eq!(
        bits_hash(&model, &report),
        GOLDEN,
        "{:#x}",
        bits_hash(&model, &report)
    );
}

#[test]
fn resumed_route_matches_golden_bits() {
    let (cfg, graph) = setup();
    let dataset = std::slice::from_ref(&graph);
    let health = HealthConfig::default();

    // Run to completion, keeping the checkpoint written after epoch 2.
    let mut saved: Option<TrainerState> = None;
    let mut sink = |s: &TrainerState| {
        if s.epoch_losses.len() == 2 {
            saved = Some(s.clone());
        }
        Ok(())
    };
    let mut first = GnnModel::new(cfg.gnn.clone());
    let hooks = ResumableHooks {
        checkpoint_every: Some(1),
        on_checkpoint: Some(&mut sink),
        ..ResumableHooks::default()
    };
    try_train_resumable(&mut first, dataset, &cfg.train, &health, hooks).expect("trains");
    let state = saved.expect("an epoch-2 checkpoint was written");

    // A fresh process resumes from it: new model, same config.
    let mut model = GnnModel::new(cfg.gnn.clone());
    let hooks = ResumableHooks {
        resume_from: Some(state),
        ..ResumableHooks::default()
    };
    let (report, _, outcome) =
        try_train_resumable(&mut model, dataset, &cfg.train, &health, hooks).expect("resumes");
    assert_eq!(outcome, TrainOutcome::Completed);
    assert_eq!(report.epoch_losses.len(), EPOCHS);
    assert_eq!(
        bits_hash(&model, &report),
        GOLDEN,
        "{:#x}",
        bits_hash(&model, &report)
    );
}

#[test]
fn nan_recovery_route_matches_golden_bits() {
    let (cfg, graph) = setup();
    let mut model = GnnModel::new(cfg.gnn.clone());
    let health = HealthConfig {
        inject_nan_grad_at: Some(1),
        ..HealthConfig::default()
    };
    let (report, health_report) = try_train(
        &mut model,
        std::slice::from_ref(&graph),
        &cfg.train,
        &health,
    )
    .expect("recovers from the injected NaN");
    assert_eq!(health_report.retries.len(), 1, "{health_report:?}");
    assert_eq!(
        bits_hash(&model, &report),
        GOLDEN_RECOVERED,
        "{:#x}",
        bits_hash(&model, &report)
    );
}
