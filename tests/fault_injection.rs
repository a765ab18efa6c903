//! Fault-injection harness: every corruption operator in
//! `ancstr_core::inject`, swept over multiple seeds, must drive the
//! full pipeline to a **typed error or a degraded-but-valid result —
//! never a panic**. Covers the netlist boundary (10 SPICE fault
//! classes), the model-file boundary (6 classes), dataset-level faults
//! (empty corpus), and in-training numerical faults (injected NaN
//! gradient, recovered via checkpoint restore).

use ancstr_core::{
    extract_batch, extract_source, inject_checkpoint, inject_model, inject_spice,
    write_constraints, CheckpointFault, ExtractError, ExtractorConfig, FitOutcome, ModelFault,
    PipelineObs, RunCtx, RunError, RunOptions, RunSession, SymmetryExtractor,
    ALL_CHECKPOINT_FAULTS, ALL_MODEL_FAULTS, ALL_SPICE_FAULTS,
};
use ancstr_gnn::{GnnModel, HealthConfig, HealthReport, TrainConfig, TrainError, TrainReport};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::parse::parse_spice;

/// A healthy two-level netlist exercising subcircuit instantiation,
/// geometry parameters, and several device types.
const GOOD_SRC: &str = "\
.subckt diffpair inp inn outp outn ibias vdd vss
M1 outp inp tail vss nch_lvt w=4u l=0.2u
M2 outn inn tail vss nch_lvt w=4u l=0.2u
M3 outp bias vdd vdd pch w=8u l=0.2u
M4 outn bias vdd vdd pch w=8u l=0.2u
M5 tail ibias vss vss nch w=2u l=0.5u
R1 bias outp 10k
R2 bias outn 10k
C1 outp vss 20f
C2 outn vss 20f
.ends
.subckt top a b oa ob ib vdd vss
X1 a b oa ob ib vdd vss diffpair
.ends
";

fn tiny_config() -> ExtractorConfig {
    ExtractorConfig {
        train: TrainConfig { epochs: 3, seed: 17, ..TrainConfig::default() },
        ..ExtractorConfig::default()
    }
}

/// `try_fit` without a run session under `health`: the reports of a
/// completed run.
fn try_fit(
    ex: &mut SymmetryExtractor,
    circuits: &[&FlatCircuit],
    health: HealthConfig,
) -> Result<(TrainReport, HealthReport), ExtractError> {
    match ex.try_fit(circuits, &RunCtx { health, ..RunCtx::default() }, None)? {
        FitOutcome::Completed { report, health, .. } => Ok((report, health)),
        FitOutcome::Cancelled { .. } => unreachable!("an unarmed token never cancels"),
    }
}

/// A pre-trained extractor shared across mutated inputs (training once
/// keeps the sweep fast; inference is the stage under test here).
fn trained_extractor() -> SymmetryExtractor {
    let nl = parse_spice(GOOD_SRC).expect("fixture is valid");
    let flat = FlatCircuit::elaborate(&nl).expect("fixture elaborates");
    let mut ex = SymmetryExtractor::try_new(tiny_config()).expect("dim matches");
    let (_, health) = try_fit(&mut ex, &[&flat], HealthConfig::default()).expect("healthy fit");
    assert!(health.clean(), "fixture training must be anomaly-free: {health:?}");
    ex
}

/// Every SPICE fault class × several seeds, through parse → elaborate →
/// guarded extraction. Any outcome is acceptable except a panic or an
/// untyped failure.
#[test]
fn spice_faults_never_panic_anywhere_in_the_pipeline() {
    let ex = trained_extractor();
    let mut parse_errors = 0usize;
    let mut elaborate_errors = 0usize;
    let mut degraded = 0usize;
    let mut survived = 0usize;

    for fault in ALL_SPICE_FAULTS {
        for seed in 0..6u64 {
            let mutated = inject_spice(GOOD_SRC, fault, seed);
            let nl = match parse_spice(&mutated) {
                Ok(nl) => nl,
                Err(e) => {
                    // Typed, and it names a location.
                    assert!(!e.to_string().is_empty(), "{fault:?}/{seed}");
                    parse_errors += 1;
                    continue;
                }
            };
            let flat = match FlatCircuit::elaborate(&nl) {
                Ok(flat) => flat,
                Err(e) => {
                    assert!(!e.to_string().is_empty(), "{fault:?}/{seed}");
                    elaborate_errors += 1;
                    continue;
                }
            };
            // The mutation produced a *valid* circuit: inference must
            // still complete without panicking.
            match ex.try_extract(&flat, None, &RunCtx::default(), None) {
                Ok(out) => {
                    if out.detection.warnings.is_empty() {
                        survived += 1;
                    } else {
                        degraded += 1;
                    }
                }
                Err(e) => {
                    assert!(e.exit_code() >= 4, "{fault:?}/{seed}: {e}");
                }
            }
        }
    }
    // The sweep must exercise both rejection paths and the
    // survived-mutation path, or the operators are too weak.
    assert!(parse_errors > 0, "no fault ever failed parsing");
    assert!(elaborate_errors > 0, "no fault ever failed elaboration");
    assert!(survived + degraded > 0, "no mutated netlist ever reached inference");
}

/// The degrade policy is one policy on every face: each mutated netlist
/// that reaches inference gives the same outcome class, constraint bytes
/// and warnings through the flat-circuit path, the service's solo
/// `extract_source`, and the daemon's batch function — where it rides
/// next to a healthy batch-mate whose bytes must not move.
#[test]
fn spice_faults_agree_across_flat_solo_and_batch_faces() {
    let ex = trained_extractor();
    let obs = PipelineObs::disabled();
    let healthy = extract_source(GOOD_SRC, "healthy.sp", &ex, &obs).expect("fixture extracts");
    let mut compared = 0usize;
    let mut degraded = 0usize;

    // The sweep's operators never make a feature non-finite, so one
    // overflowing width joins it to reach the degrade arm.
    let mut cases: Vec<(String, String)> = ALL_SPICE_FAULTS
        .iter()
        .flat_map(|&fault| {
            (0..6u64).map(move |seed| {
                (format!("{fault:?}/{seed}"), inject_spice(GOOD_SRC, fault, seed))
            })
        })
        .collect();
    cases.push(("overflowing width".to_owned(), GOOD_SRC.replace("w=4u", "w=1e999")));

    for (case, mutated) in &cases {
        let Ok(flat) = parse_spice(mutated)
            .map_err(ExtractError::from)
            .and_then(|nl| Ok(FlatCircuit::elaborate(&nl)?))
        else {
            continue;
        };
        let flat_out = ex.try_extract(&flat, None, &RunCtx::default(), None).map(|out| {
            let mut warnings: Vec<String> =
                out.detection.warnings.iter().map(|w| w.to_string()).collect();
            warnings.sort();
            (write_constraints(&flat, &out.detection.constraints), warnings)
        });
        let solo = extract_source(mutated, "mutated.sp", &ex, &obs)
            .map(|r| (r.constraints_text, r.warnings));
        let batch = extract_batch(
            &[(GOOD_SRC, "healthy.sp"), (mutated, "mutated.sp")],
            &ex,
            &RunCtx::observed(obs.clone()),
            None,
        )
        .expect("an unarmed token never cancels");
        let [mate, item] = <[_; 2]>::try_from(batch).expect("one reply per item");
        let item = item.map(|r| (r.constraints_text, r.warnings));

        for (face, got) in [("solo", &solo), ("batch", &item)] {
            match (&flat_out, got) {
                (Ok(want), Ok(got)) => assert_eq!(want, got, "{case}: {face}"),
                (Err(want), Err(got)) => assert_eq!(
                    want.exit_code(),
                    got.exit_code(),
                    "{case}: {face}"
                ),
                (want, got) => panic!("{case}: {face} {got:?} vs flat {want:?}"),
            }
        }
        let mate = mate.expect("the healthy batch-mate extracts");
        assert_eq!(mate.constraints_text, healthy.constraints_text, "{case}");
        assert_eq!(mate.warnings, healthy.warnings, "{case}");
        compared += 1;
        if flat_out.as_ref().is_ok_and(|(_, w)| !w.is_empty()) {
            degraded += 1;
        }
    }
    assert!(compared > 0, "no mutated netlist ever reached inference");
    assert!(degraded > 0, "no mutation exercised the degrade policy");
}

/// Every model-file fault class × several seeds through
/// `GnnModel::from_text` and the checked pipeline loader: either a
/// typed error, or a model whose weights are all finite.
#[test]
fn model_faults_yield_typed_errors_or_finite_models() {
    let ex = trained_extractor();
    let text = ex.model().to_text();
    for fault in ALL_MODEL_FAULTS {
        for seed in 0..6u64 {
            let mutated = inject_model(&text, fault, seed);
            match GnnModel::from_text(&mutated) {
                Ok(model) => assert!(
                    model.is_finite(),
                    "{fault:?}/{seed}: parser accepted a non-finite model"
                ),
                Err(e) => assert!(!e.to_string().is_empty(), "{fault:?}/{seed}"),
            }
            // The pipeline loader maps the same failures to load-model
            // exit codes (6) and never panics.
            if let Err(e) =
                SymmetryExtractor::try_new(tiny_config()).unwrap().with_model_text(&mutated)
            {
                assert_eq!(e.exit_code(), 6, "{fault:?}/{seed}: {e}");
            }
        }
    }
    // Non-finite weights parse as f64, so only the explicit finiteness
    // check can reject them: these two classes must always error.
    for fault in [ModelFault::NanWeight, ModelFault::InfWeight] {
        for seed in 0..6u64 {
            let mutated = inject_model(&text, fault, seed);
            assert!(
                GnnModel::from_text(&mutated).is_err(),
                "{fault:?}/{seed}: non-finite weight accepted"
            );
        }
    }
}

/// Dataset-level fault: an empty training corpus is a typed error, not
/// a panic deep inside the batch sampler.
#[test]
fn empty_corpus_is_a_typed_training_error() {
    let mut ex = SymmetryExtractor::try_new(tiny_config()).unwrap();
    let err = try_fit(&mut ex, &[], HealthConfig::default()).unwrap_err();
    assert_eq!(err, ExtractError::Train(TrainError::EmptyDataset));
    assert_eq!(err.exit_code(), 7);
}

/// In-training numerical fault at the integration level: a transient
/// NaN gradient injected mid-training is recovered by checkpoint
/// restore + re-seed, and the pipeline still produces a symmetric
/// detection for a symmetric circuit.
#[test]
fn injected_nan_gradient_recovers_and_extraction_still_works() {
    let nl = parse_spice(GOOD_SRC).unwrap();
    let flat = FlatCircuit::elaborate(&nl).unwrap();
    let mut ex = SymmetryExtractor::try_new(tiny_config()).unwrap();
    let health_cfg =
        HealthConfig { inject_nan_grad_at: Some(1), ..HealthConfig::default() };
    let (report, health) = try_fit(&mut ex, &[&flat], health_cfg).expect("recovers");
    assert_eq!(health.retries.len(), 1, "exactly one recovery: {health:?}");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));

    let out = ex
        .try_extract(&flat, None, &RunCtx::default(), None)
        .expect("post-recovery inference works");
    let id = |p: &str| flat.node_by_path(p).expect("path exists").id;
    assert!(out
        .detection
        .constraints
        .contains_pair(id("top/X1/M1"), id("top/X1/M2")));
}

// ---------------------------------------------------------------------
// Checkpoint / run-store boundary: every corruption operator applied to
// on-disk run state must leave resume with a typed error or a recovery
// note — never a panic, and never silently wrong weights.

fn tmp_run(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ancstr-fault-run-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_config() -> ExtractorConfig {
    ExtractorConfig {
        train: TrainConfig { epochs: 8, seed: 17, ..TrainConfig::default() },
        ..ExtractorConfig::default()
    }
}

/// Run a durable fit in `dir` and cancel it after three every-epoch
/// checkpoints, leaving `checkpoints/epoch-00000{1,2,3}.ckpt` on disk
/// and the `train` stage pending.
fn interrupted_run(dir: &std::path::Path, flat: &FlatCircuit) {
    let config = durable_config();
    let mut opts = RunOptions::new(dir);
    opts.checkpoint_every = 1;
    opts.test_cancel_after_checkpoints = Some(3);
    let mut session =
        RunSession::open(opts, "extract", &config, &["fixture.sp".to_owned()]).unwrap();
    let mut ex = SymmetryExtractor::try_new(config).unwrap();
    let out = ex.try_fit(&[flat], &RunCtx::default(), Some(&mut session)).unwrap();
    assert!(matches!(out, FitOutcome::Cancelled { after_epoch: 3 }), "{out:?}");
}

/// Resume the run in `dir` with a fresh extractor, returning the
/// outcome and the final model text.
fn resume_run(dir: &std::path::Path) -> (FitOutcome, String) {
    let config = durable_config();
    let mut opts = RunOptions::new(dir);
    opts.resume = true;
    opts.checkpoint_every = 1;
    let mut session =
        RunSession::open(opts, "extract", &config, &["fixture.sp".to_owned()]).unwrap();
    let nl = parse_spice(GOOD_SRC).unwrap();
    let flat = FlatCircuit::elaborate(&nl).unwrap();
    let mut ex = SymmetryExtractor::try_new(config).unwrap();
    let out = ex.try_fit(&[&flat], &RunCtx::default(), Some(&mut session)).unwrap();
    (out, ex.model().to_text())
}

/// Paths of every checkpoint in the run, oldest first.
fn checkpoint_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir(dir.join("checkpoints"))
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .collect();
    files.sort();
    files
}

/// The uninterrupted reference weights for [`durable_config`].
fn reference_weights(flat: &FlatCircuit) -> String {
    let mut ex = SymmetryExtractor::try_new(durable_config()).unwrap();
    let (_, health) = try_fit(&mut ex, &[flat], HealthConfig::default()).unwrap();
    assert!(health.clean(), "{health:?}");
    ex.model().to_text()
}

/// Truncation and bit flips on the newest checkpoint: resume skips it
/// with a recovery note, falls back to the next-oldest valid one, and
/// still lands on bit-identical final weights.
#[test]
fn corrupt_newest_checkpoint_is_skipped_and_resume_stays_bit_identical() {
    let nl = parse_spice(GOOD_SRC).unwrap();
    let flat = FlatCircuit::elaborate(&nl).unwrap();
    let reference = reference_weights(&flat);

    for fault in [
        CheckpointFault::TruncateTail { keep_frac: 0.7 },
        CheckpointFault::FlipBit { count: 1 },
    ] {
        for seed in 0..3u64 {
            let dir = tmp_run(&format!("skip-{fault:?}-{seed}")
                .replace(|c: char| !c.is_ascii_alphanumeric(), "-"));
            interrupted_run(&dir, &flat);
            let files = checkpoint_files(&dir);
            assert_eq!(files.len(), 3, "{files:?}");
            let newest = files.last().unwrap();
            let text = std::fs::read_to_string(newest).unwrap();
            std::fs::write(newest, inject_checkpoint(&text, fault, seed)).unwrap();

            let (out, weights) = resume_run(&dir);
            let FitOutcome::Completed { resumed_from, notes, .. } = out else {
                panic!("{fault:?}/{seed}: expected completion, got {out:?}");
            };
            assert_eq!(resumed_from, Some(2), "{fault:?}/{seed}");
            assert!(
                notes.iter().any(|n| n.contains("skip")),
                "{fault:?}/{seed}: no skip note in {notes:?}"
            );
            assert_eq!(weights, reference, "{fault:?}/{seed}: weights diverged");
        }
    }
}

/// Destroying *every* checkpoint is still survivable: resume warns,
/// retrains from scratch, and the deterministic seed lineage lands on
/// the same weights.
#[test]
fn all_checkpoints_corrupt_falls_back_to_retraining() {
    let nl = parse_spice(GOOD_SRC).unwrap();
    let flat = FlatCircuit::elaborate(&nl).unwrap();
    let dir = tmp_run("all-corrupt");
    interrupted_run(&dir, &flat);
    for (i, path) in checkpoint_files(&dir).iter().enumerate() {
        let text = std::fs::read_to_string(path).unwrap();
        let fault = CheckpointFault::TruncateTail { keep_frac: 0.5 };
        std::fs::write(path, inject_checkpoint(&text, fault, i as u64)).unwrap();
    }
    let (out, weights) = resume_run(&dir);
    let FitOutcome::Completed { resumed_from, notes, .. } = out else {
        panic!("expected completion, got {out:?}");
    };
    assert_eq!(resumed_from, None, "nothing valid to resume from");
    assert!(!notes.is_empty(), "retraining silently: {notes:?}");
    assert_eq!(weights, reference_weights(&flat));
}

/// The stale-manifest operator re-seals the manifest with a zeroed
/// config hash: the CRC *verifies*, so only semantic validation can
/// catch it — as a typed config mismatch mapping to exit code 9.
#[test]
fn stale_manifest_is_a_typed_config_mismatch() {
    let nl = parse_spice(GOOD_SRC).unwrap();
    let flat = FlatCircuit::elaborate(&nl).unwrap();
    let dir = tmp_run("stale-manifest");
    interrupted_run(&dir, &flat);
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let stale = inject_checkpoint(&text, CheckpointFault::StaleManifest, 0);
    assert_ne!(stale, text, "operator must rewrite the manifest");
    std::fs::write(&path, stale).unwrap();

    let config = durable_config();
    let mut opts = RunOptions::new(&dir);
    opts.resume = true;
    let err = RunSession::open(opts, "extract", &config, &["fixture.sp".to_owned()])
        .unwrap_err();
    assert!(
        matches!(err, RunError::ConfigMismatch { field: "config_hash", .. }),
        "{err:?}"
    );
    assert_eq!(ExtractError::from(err).exit_code(), 9);
}

/// Every checkpoint fault class × several seeds, applied to both the
/// newest checkpoint and the manifest: resume either completes (with
/// identical weights) or fails with a typed error. Never a panic.
#[test]
fn checkpoint_fault_sweep_never_panics() {
    let nl = parse_spice(GOOD_SRC).unwrap();
    let flat = FlatCircuit::elaborate(&nl).unwrap();
    let reference = reference_weights(&flat);
    let mut completions = 0usize;
    let mut typed_errors = 0usize;

    for fault in ALL_CHECKPOINT_FAULTS {
        for seed in 0..4u64 {
            for target_manifest in [false, true] {
                let dir = tmp_run(&format!("sweep-{fault:?}-{seed}-{target_manifest}")
                    .replace(|c: char| !c.is_ascii_alphanumeric(), "-"));
                interrupted_run(&dir, &flat);
                let path = if target_manifest {
                    dir.join("manifest.json")
                } else {
                    checkpoint_files(&dir).pop().unwrap()
                };
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, inject_checkpoint(&text, fault, seed)).unwrap();

                let config = durable_config();
                let mut opts = RunOptions::new(&dir);
                opts.resume = true;
                opts.checkpoint_every = 1;
                let session = RunSession::open(
                    opts,
                    "extract",
                    &config,
                    &["fixture.sp".to_owned()],
                );
                match session {
                    Err(e) => {
                        // Manifest damage: typed, and it maps to the
                        // run-store exit code.
                        assert!(!e.to_string().is_empty(), "{fault:?}/{seed}");
                        assert_eq!(ExtractError::from(e).exit_code(), 9);
                        typed_errors += 1;
                    }
                    Ok(mut session) => {
                        let mut ex = SymmetryExtractor::try_new(config).unwrap();
                        let out = ex
                            .try_fit(&[&flat], &RunCtx::default(), Some(&mut session))
                            .expect("checkpoint damage is always recoverable");
                        assert!(
                            matches!(out, FitOutcome::Completed { .. }),
                            "{fault:?}/{seed}: {out:?}"
                        );
                        assert_eq!(
                            ex.model().to_text(),
                            reference,
                            "{fault:?}/{seed}: weights diverged"
                        );
                        completions += 1;
                    }
                }
            }
        }
    }
    assert!(completions > 0, "no corrupted run ever resumed");
    assert!(typed_errors > 0, "no manifest fault was ever rejected");
}

/// Control: the harness itself is deterministic — the same fault and
/// seed always produce the same mutated text, so failures reproduce.
#[test]
fn clean_inputs_and_injections_are_deterministic()  {
    for fault in ALL_SPICE_FAULTS {
        assert_eq!(inject_spice(GOOD_SRC, fault, 42), inject_spice(GOOD_SRC, fault, 42));
    }
    let model = trained_extractor().model().to_text();
    for fault in ALL_MODEL_FAULTS {
        assert_eq!(inject_model(&model, fault, 42), inject_model(&model, fault, 42));
    }
}
