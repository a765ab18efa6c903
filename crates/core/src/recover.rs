//! The pipeline's one error type ([`ExtractError`]), covering every
//! stage — SPICE parsing, hierarchy elaboration, configuration, model
//! deserialization, guarded training, inference, the run store and
//! cancellation — plus the checked [`SymmetryExtractor`] constructors.
//!
//! Design rule: the happy path is bit-identical to the unguarded API.
//! Guardrails are read-only scans that only *act* (skip, clip, restore,
//! re-seed) when an anomaly is present; see [`ancstr_gnn::try_train`]
//! and [`detect_constraints`](crate::detect::detect_constraints)'s
//! warning records.

use std::fmt;

use ancstr_gnn::{EmbedError, GnnModel, ParseModelError, TrainError};
use ancstr_netlist::error::{ElaborateError, ParseNetlistError};

use crate::features::FEATURE_DIM;
use crate::pipeline::{ExtractorConfig, ReplaceModelError, SymmetryExtractor};

/// Any failure of the extraction pipeline, from netlist text to
/// constraint set, with enough context to name the offending stage.
#[derive(Debug, Clone, PartialEq)]
pub enum ExtractError {
    /// The SPICE source failed to parse (carries the line number).
    Parse(ParseNetlistError),
    /// The netlist parsed but could not be flattened into a circuit.
    Elaborate(ElaborateError),
    /// The extractor configuration is unusable: the GNN dimension does
    /// not match the Table II feature width.
    ConfigDim {
        /// The configured dimension.
        found: usize,
    },
    /// A serialized model file was malformed or carried non-finite
    /// weights.
    Model(ParseModelError),
    /// A well-formed model had the wrong dimensionality for this
    /// pipeline.
    ModelDim(ReplaceModelError),
    /// Guarded training failed (invalid dataset, or anomalies persisted
    /// past the retry budget).
    Train(TrainError),
    /// Inference could not produce usable embeddings (e.g. the model's
    /// parameters are non-finite).
    Embed(EmbedError),
    /// The durable run store failed: run-directory I/O, a corrupt or
    /// mismatched manifest, or an unusable artifact (see
    /// [`RunError`](crate::runstore::RunError)).
    Run(crate::runstore::RunError),
    /// The request's [`CancelToken`](crate::runstore::CancelToken)
    /// tripped (explicit cancellation or deadline expiry) before the
    /// pipeline finished; the partial work is discarded.
    Cancelled,
}

impl ExtractError {
    /// A stable non-zero process exit code per error stage, for CLI
    /// consumers: parse = 4, elaborate = 5, configuration/model = 6,
    /// training = 7, inference = 8, run store = 9, cancellation /
    /// deadline expiry = 10 (the same code the CLI exits with when its
    /// time budget runs out). Codes 1–3 are reserved for generic
    /// failure, usage errors, and I/O respectively.
    pub fn exit_code(&self) -> u8 {
        match self {
            ExtractError::Parse(_) => 4,
            ExtractError::Elaborate(_) => 5,
            ExtractError::ConfigDim { .. } | ExtractError::Model(_) | ExtractError::ModelDim(_) => {
                6
            }
            ExtractError::Train(_) => 7,
            ExtractError::Embed(_) => 8,
            ExtractError::Run(_) => 9,
            ExtractError::Cancelled => 10,
        }
    }

    /// The pipeline stage that failed, as a short human-readable label.
    pub fn stage(&self) -> &'static str {
        match self {
            ExtractError::Parse(_) => "parse",
            ExtractError::Elaborate(_) => "elaborate",
            ExtractError::ConfigDim { .. } => "configure",
            ExtractError::Model(_) | ExtractError::ModelDim(_) => "load-model",
            ExtractError::Train(_) => "train",
            ExtractError::Embed(_) => "embed",
            ExtractError::Run(_) => "run-store",
            ExtractError::Cancelled => "deadline",
        }
    }
}

impl fmt::Display for ExtractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtractError::Parse(e) => write!(f, "parse: {e}"),
            ExtractError::Elaborate(e) => write!(f, "elaborate: {e}"),
            ExtractError::ConfigDim { found } => write!(
                f,
                "configure: GNN dimension {found} does not match the Table II feature \
                 width {FEATURE_DIM}"
            ),
            ExtractError::Model(e) => write!(f, "load-model: {e}"),
            ExtractError::ModelDim(e) => write!(f, "load-model: {e}"),
            ExtractError::Train(e) => write!(f, "train: {e}"),
            ExtractError::Embed(e) => write!(f, "embed: {e}"),
            ExtractError::Run(e) => write!(f, "run-store: {e}"),
            ExtractError::Cancelled => {
                write!(f, "deadline: cancelled before the pipeline finished")
            }
        }
    }
}

impl std::error::Error for ExtractError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExtractError::Parse(e) => Some(e),
            ExtractError::Elaborate(e) => Some(e),
            ExtractError::ConfigDim { .. } => None,
            ExtractError::Model(e) => Some(e),
            ExtractError::ModelDim(e) => Some(e),
            ExtractError::Train(e) => Some(e),
            ExtractError::Embed(e) => Some(e),
            ExtractError::Run(e) => Some(e),
            ExtractError::Cancelled => None,
        }
    }
}

impl From<ParseNetlistError> for ExtractError {
    fn from(e: ParseNetlistError) -> ExtractError {
        ExtractError::Parse(e)
    }
}

impl From<ElaborateError> for ExtractError {
    fn from(e: ElaborateError) -> ExtractError {
        ExtractError::Elaborate(e)
    }
}

impl From<ParseModelError> for ExtractError {
    fn from(e: ParseModelError) -> ExtractError {
        ExtractError::Model(e)
    }
}

impl From<ReplaceModelError> for ExtractError {
    fn from(e: ReplaceModelError) -> ExtractError {
        ExtractError::ModelDim(e)
    }
}

impl From<TrainError> for ExtractError {
    fn from(e: TrainError) -> ExtractError {
        ExtractError::Train(e)
    }
}

impl From<EmbedError> for ExtractError {
    fn from(e: EmbedError) -> ExtractError {
        ExtractError::Embed(e)
    }
}

impl From<crate::runstore::RunError> for ExtractError {
    fn from(e: crate::runstore::RunError) -> ExtractError {
        ExtractError::Run(e)
    }
}

impl SymmetryExtractor {
    /// Checked [`SymmetryExtractor::new`]: reject a mismatched GNN
    /// dimension with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// [`ExtractError::ConfigDim`] when `config.gnn.dim != FEATURE_DIM`.
    pub fn try_new(config: ExtractorConfig) -> Result<SymmetryExtractor, ExtractError> {
        if config.gnn.dim != FEATURE_DIM {
            return Err(ExtractError::ConfigDim { found: config.gnn.dim });
        }
        Ok(SymmetryExtractor::new(config))
    }

    /// Checked model loading from serialized text: parse, validate
    /// finiteness (the parser already rejects NaN weights), and check
    /// the dimension fits this pipeline.
    ///
    /// # Errors
    ///
    /// [`ExtractError::Model`] on malformed text,
    /// [`ExtractError::ModelDim`] on a dimension mismatch.
    pub fn with_model_text(self, text: &str) -> Result<SymmetryExtractor, ExtractError> {
        let model = GnnModel::from_text(text)?;
        Ok(self.with_model(model)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FitOutcome, RunCtx};
    use ancstr_gnn::GnnConfig;
    use ancstr_netlist::parse::parse_spice;
    use ancstr_netlist::FlatCircuit;

    fn quick_config() -> ExtractorConfig {
        ExtractorConfig {
            train: ancstr_gnn::TrainConfig {
                epochs: 12,
                learning_rate: 0.02,
                seed: 7,
                ..ancstr_gnn::TrainConfig::default()
            },
            ..ExtractorConfig::default()
        }
    }

    fn latch() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt latch q qb en vdd vss
M1 q qb tail vss nch_lvt w=4u l=0.2u
M2 qb q tail vss nch_lvt w=4u l=0.2u
M5 tail en vss vss nch w=2u l=0.5u
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    #[test]
    fn try_new_rejects_bad_dim_with_typed_error() {
        let cfg = ExtractorConfig {
            gnn: GnnConfig { dim: 4, layers: 2, seed: 1 },
            ..ExtractorConfig::default()
        };
        let err = SymmetryExtractor::try_new(cfg).unwrap_err();
        assert_eq!(err, ExtractError::ConfigDim { found: 4 });
        assert_eq!(err.exit_code(), 6);
        assert_eq!(err.stage(), "configure");
        assert!(SymmetryExtractor::try_new(quick_config()).is_ok());
    }

    #[test]
    fn try_fit_then_try_extract_matches_unguarded_pipeline() {
        let flat = latch();
        let mut guarded = SymmetryExtractor::try_new(quick_config()).unwrap();
        let FitOutcome::Completed { report, health, .. } =
            guarded.try_fit(&[&flat], &RunCtx::default(), None).unwrap()
        else {
            panic!("an unarmed token never cancels");
        };
        assert!(health.clean(), "{health:?}");

        // `fit` runs the guarded trainer too, so the unguarded reference
        // is `ancstr_gnn::train` itself.
        let mut plain = SymmetryExtractor::new(quick_config());
        let tg = plain.train_graph(&flat, &crate::observe::PipelineObs::disabled());
        let train_config = plain.config().train.clone();
        let plain_report = ancstr_gnn::train(plain.model_mut(), &[tg], &train_config);
        assert_eq!(report, plain_report, "guarded training is bit-identical when healthy");

        let guarded_out = guarded.try_extract(&flat, None, &RunCtx::default(), None).unwrap();
        let plain_out = plain.extract(&flat);
        assert_eq!(guarded_out.detection, plain_out.detection);
        assert!(guarded_out.detection.warnings.is_empty());
    }

    #[test]
    fn try_fit_maps_empty_corpus_to_train_error() {
        let mut ex = SymmetryExtractor::try_new(quick_config()).unwrap();
        let err = ex.try_fit(&[], &RunCtx::default(), None).unwrap_err();
        assert_eq!(err, ExtractError::Train(TrainError::EmptyDataset));
        assert_eq!(err.exit_code(), 7);
    }

    #[test]
    fn try_extract_rejects_poisoned_model() {
        let flat = latch();
        let mut ex = SymmetryExtractor::try_new(quick_config()).unwrap();
        ex.model_mut().matrices_mut()[0][(0, 0)] = f64::NAN;
        let err = ex.try_extract(&flat, None, &RunCtx::default(), None).unwrap_err();
        assert_eq!(err, ExtractError::Embed(EmbedError::NonFiniteParameters));
        assert_eq!(err.exit_code(), 8);
    }

    #[test]
    fn with_model_text_round_trips_and_rejects_garbage() {
        let ex = SymmetryExtractor::try_new(quick_config()).unwrap();
        let text = ex.model().to_text();
        let reloaded = SymmetryExtractor::try_new(quick_config())
            .unwrap()
            .with_model_text(&text)
            .unwrap();
        assert_eq!(reloaded.model(), ex.model());

        let err = SymmetryExtractor::try_new(quick_config())
            .unwrap()
            .with_model_text("not a model")
            .unwrap_err();
        assert!(matches!(err, ExtractError::Model(_)));
        assert_eq!(err.exit_code(), 6);

        // A valid model of the wrong dimension maps to ModelDim.
        let small = GnnModel::new(GnnConfig { dim: 4, layers: 1, seed: 1 });
        let err = SymmetryExtractor::try_new(quick_config())
            .unwrap()
            .with_model_text(&small.to_text())
            .unwrap_err();
        assert!(matches!(err, ExtractError::ModelDim(_)));
    }

    #[test]
    fn error_display_names_the_stage() {
        let parse_err: ExtractError = parse_spice(".ends").unwrap_err().into();
        assert!(parse_err.to_string().starts_with("parse: "));
        assert_eq!(parse_err.exit_code(), 4);
        let nl = parse_spice(
            "\
.subckt top a b
X1 a b missing
.ends
",
        )
        .unwrap();
        let elab_err: ExtractError = FlatCircuit::elaborate(&nl).unwrap_err().into();
        assert!(elab_err.to_string().starts_with("elaborate: "));
        assert_eq!(elab_err.exit_code(), 5);
        use std::error::Error;
        assert!(elab_err.source().is_some());
    }
}
