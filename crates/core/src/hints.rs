//! Hint rules for collaborative queries (paper Sec. IV-B).
//!
//! The rules themselves are implemented inside `minidb`'s optimizer (nUDF
//! placement by cost comparison, select-clause deferral by construction,
//! symmetric hash join for UDF join keys) and cost layer (UDF class
//! histograms as selectivities). This module is the configuration surface:
//! it derives the `Pr(c_i)` histograms (Eq. 9–10) and constructs
//! **DL2SQL-OP**'s planning settings, which a strategy hands to the
//! session it opens per query. Plain **DL2SQL** plans under the database's
//! own settings (by default the stock cost model with no hint rules); no
//! query changes a database-wide setting.

use std::sync::Arc;

use minidb::optimizer::OptimizerConfig;
use minidb::{PlanSettings, Value};

use crate::cost::Dl2SqlCostModel;
use crate::registry::NeuralRegistry;

/// Empirical class probabilities from prediction counts (paper Eq. 10:
/// `Pr(c_i) = H(c_i) / Σ H(c_j)`).
pub fn histogram_from_counts(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Builds the histogram by running a model over a sample set — the paper
/// builds `H(c_i)` "during the offline training process"; with training
/// out of scope, predictions over held-out samples are the equivalent
/// estimator.
pub fn histogram_from_model(
    model: &neuro::Model,
    samples: &[neuro::Tensor],
) -> crate::Result<Vec<f64>> {
    let mut counts = vec![0u64; model.num_classes];
    for s in samples {
        let class = model.predict(s)?;
        counts[class] += 1;
    }
    Ok(histogram_from_counts(&counts))
}

/// Pairs a class-name list with a histogram for
/// [`minidb::ScalarUdf::with_class_probabilities`].
pub fn labelled_histogram(labels: &[&str], probs: &[f64]) -> Vec<(Value, f64)> {
    labels.iter().zip(probs).map(|(l, p)| (Value::Utf8(l.to_string()), *p)).collect()
}

/// **DL2SQL-OP**'s planning settings: the customized cost model over
/// `registry`, join reordering and all hint rules on. Every other optimizer
/// switch (join–aggregate fusion) is taken from `base`, the database's own
/// configuration, so a database built with fusion off plans DL2SQL-OP
/// queries and their inner programs unfused too.
pub fn op_settings(registry: Arc<NeuralRegistry>, base: &OptimizerConfig) -> PlanSettings {
    PlanSettings {
        optimizer: OptimizerConfig {
            reorder_joins: true,
            udf_placement_hints: true,
            symmetric_for_udf_joins: true,
            ..base.clone()
        },
        cost_model: Arc::new(Dl2SqlCostModel::new(registry)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minidb::{DataType, ScalarUdf};

    #[test]
    fn histogram_normalizes_counts() {
        let h = histogram_from_counts(&[30, 60, 10]);
        assert_eq!(h, vec![0.3, 0.6, 0.1]);
        assert_eq!(histogram_from_counts(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn histogram_from_model_counts_predictions() {
        let model = neuro::zoo::student(vec![1, 8, 8], 3, 5);
        let samples: Vec<neuro::Tensor> =
            (0..20).map(|i| neuro::Tensor::full(vec![1, 8, 8], (i as f32 - 10.0) / 5.0)).collect();
        let h = histogram_from_model(&model, &samples).unwrap();
        assert_eq!(h.len(), 3);
        assert!((h.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn op_settings_turn_every_hint_on_and_leave_the_database_alone() {
        let db = minidb::Database::new();
        let session =
            db.session_with(op_settings(NeuralRegistry::shared(), &db.settings().optimizer));
        let op = session.settings();
        assert!(op.optimizer.udf_placement_hints);
        assert!(op.optimizer.symmetric_for_udf_joins);
        assert!(op.optimizer.reorder_joins && op.optimizer.fuse_join_aggregates);
        assert_eq!(op.cost_model.name(), "dl2sql-customized");
        assert!(!db.settings().optimizer.udf_placement_hints);
        assert_eq!(db.settings().cost_model.name(), "default");
    }

    #[test]
    fn op_settings_keep_the_databases_fusion_switch() {
        let unfused = OptimizerConfig { fuse_join_aggregates: false, ..OptimizerConfig::default() };
        let op = op_settings(NeuralRegistry::shared(), &unfused);
        assert!(!op.optimizer.fuse_join_aggregates);
        assert!(op.optimizer.udf_placement_hints && op.optimizer.symmetric_for_udf_joins);
    }

    #[test]
    fn labelled_histogram_feeds_udf_metadata() {
        let udfs = minidb::UdfRegistry::new();
        let probs = labelled_histogram(&["Floral Pattern", "Stripe"], &[0.2, 0.8]);
        udfs.register(
            ScalarUdf::new("nudf_classify", vec![DataType::Blob], DataType::Utf8, |_| {
                Ok(Value::Utf8("Stripe".into()))
            })
            .with_cost(1000.0)
            .with_class_probabilities(probs),
        );
        let udf = udfs.get("nudf_classify").unwrap();
        assert_eq!(udf.selectivity_eq(&Value::Utf8("Floral Pattern".into())), Some(0.2));
    }
}
