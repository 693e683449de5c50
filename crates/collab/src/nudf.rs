//! nUDF specifications and the model repository.
//!
//! An `nUDF` is a named inference function over a keyframe blob. Its
//! semantics are given by a [`NudfSpec`]: which model runs and how the
//! class id maps to a SQL value (`nUDF_detect` returns a boolean,
//! `nUDF_classify` a label string, `nUDF_recog` a numeric id — matching
//! the paper's example queries).

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use minidb::{DataType, Value};
use neuro::serialize::{tensor_from_bytes, tensor_to_bytes};
use neuro::{Model, Tensor};
use parking_lot::RwLock;

use crate::error::{Error, Result};

/// Serializes a keyframe tensor into a database blob value.
pub fn tensor_to_blob(t: &Tensor) -> Value {
    Value::Blob(Arc::new(tensor_to_bytes(t)))
}

/// Decodes a keyframe blob back into a tensor.
pub fn blob_to_tensor(v: &Value) -> Result<Tensor> {
    match v {
        Value::Blob(bytes) => Ok(tensor_from_bytes(bytes)?),
        other => Err(Error::Coordinator(format!(
            "nUDF argument must be a keyframe blob, got {}",
            other.data_type()
        ))),
    }
}

/// How a model's predicted class id becomes a SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum NudfOutput {
    /// `TRUE` iff the predicted class equals `true_class`
    /// (`nUDF_detect(k) = TRUE`).
    Bool { true_class: usize },
    /// The label string of the predicted class
    /// (`nUDF_classify(k) = 'Floral Pattern'`).
    Label { labels: Vec<String> },
    /// The raw class id as Int64 (`F.patternID != nUDF_recog(k)`).
    ClassId,
}

impl NudfOutput {
    /// The SQL type this output produces.
    pub fn data_type(&self) -> DataType {
        match self {
            NudfOutput::Bool { .. } => DataType::Bool,
            NudfOutput::Label { .. } => DataType::Utf8,
            NudfOutput::ClassId => DataType::Int64,
        }
    }

    /// Maps a predicted class id to the SQL value.
    pub fn to_value(&self, class: usize) -> Value {
        match self {
            NudfOutput::Bool { true_class } => Value::Bool(class == *true_class),
            NudfOutput::Label { labels } => {
                Value::Utf8(labels.get(class).cloned().unwrap_or_else(|| format!("class_{class}")))
            }
            NudfOutput::ClassId => Value::Int64(class as i64),
        }
    }

    /// The histogram over SQL values implied by a class histogram
    /// (feeds [`minidb::ScalarUdf::with_class_probabilities`]). Boolean
    /// outputs fold all non-true classes into `FALSE`.
    pub fn value_histogram(&self, class_probs: &[f64]) -> Vec<(Value, f64)> {
        match self {
            NudfOutput::Bool { true_class } => {
                let p_true = class_probs.get(*true_class).copied().unwrap_or(0.0);
                vec![(Value::Bool(true), p_true), (Value::Bool(false), 1.0 - p_true)]
            }
            NudfOutput::Label { labels } => class_probs
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    (Value::Utf8(labels.get(i).cloned().unwrap_or_else(|| format!("class_{i}"))), p)
                })
                .collect(),
            NudfOutput::ClassId => {
                class_probs.iter().enumerate().map(|(i, &p)| (Value::Int64(i as i64), p)).collect()
            }
        }
    }
}

/// A condition-selected model variant (paper Type 3: "various models are
/// trained for different humidity and temperature combinations ...
/// Q_learning needs the output of Q_db to determine which neural models
/// should be used").
#[derive(Debug, Clone)]
pub struct ConditionalVariant {
    /// The variant applies when the condition value is ≥ this bound (the
    /// variant with the highest satisfied bound wins).
    pub min_condition: f64,
    /// The model to run.
    pub model: Arc<Model>,
}

/// One registered nUDF: name, model, output semantics, and the class
/// histogram learned offline (paper Eq. 9–10).
#[derive(Debug, Clone)]
pub struct NudfSpec {
    /// SQL function name, e.g. `nUDF_detect` (matched case-insensitively).
    pub name: String,
    /// The (default) model that implements it.
    pub model: Arc<Model>,
    /// Output mapping.
    pub output: NudfOutput,
    /// `Pr(c_i)` per class; empty when unknown.
    pub class_probs: Vec<f64>,
    /// Condition-selected variants; empty for an unconditional nUDF. A
    /// conditional nUDF takes a second (Float64) argument — e.g.
    /// `nUDF_detect_cond(V.keyframe, F.humidity)` — whose value selects
    /// the model.
    pub variants: Vec<ConditionalVariant>,
}

impl NudfSpec {
    /// An unconditional spec.
    pub fn new(
        name: impl Into<String>,
        model: Arc<Model>,
        output: NudfOutput,
        class_probs: Vec<f64>,
    ) -> Self {
        NudfSpec { name: name.into(), model, output, class_probs, variants: Vec::new() }
    }

    /// Whether this nUDF selects its model by a condition argument.
    pub fn is_conditional(&self) -> bool {
        !self.variants.is_empty()
    }

    /// The SQL argument types: `[Blob]`, or `[Blob, Float64]` when
    /// conditional.
    pub fn arg_types(&self) -> Vec<DataType> {
        if self.is_conditional() {
            vec![DataType::Blob, DataType::Float64]
        } else {
            vec![DataType::Blob]
        }
    }

    /// The model for a given condition: the variant with the highest
    /// satisfied `min_condition`, else the default model.
    pub fn select_model(&self, condition: Option<f64>) -> &Arc<Model> {
        if let Some(cond) = condition {
            self.variants
                .iter()
                .filter(|v| cond >= v.min_condition)
                .max_by(|a, b| a.min_condition.total_cmp(&b.min_condition))
                .map(|v| &v.model)
                .unwrap_or(&self.model)
        } else {
            &self.model
        }
    }

    /// Runs the (condition-selected) model on a keyframe blob and maps the
    /// prediction.
    pub fn invoke(&self, blob: &Value, clock: Option<&neuro::SimClock>) -> Result<Value> {
        self.invoke_with_condition(blob, None, clock)
    }

    /// As [`NudfSpec::invoke`], with an explicit condition value.
    pub fn invoke_with_condition(
        &self,
        blob: &Value,
        condition: Option<f64>,
        clock: Option<&neuro::SimClock>,
    ) -> Result<Value> {
        let tensor = blob_to_tensor(blob)?;
        if let Some(c) = clock {
            // The keyframe crosses onto the inference device.
            c.charge_transfer((tensor.len() * 4) as u64);
        }
        let out = self.select_model(condition).forward_with_clock(&tensor, clock)?;
        Ok(self.output.to_value(out.argmax()))
    }
}

/// The repository of task models ("We train a model repository consisting
/// of 20 neural networks for various tasks").
#[derive(Debug, Default)]
pub struct ModelRepo {
    map: RwLock<HashMap<String, Registered>>,
    /// Source of generation ids: every `register` call claims a fresh one,
    /// so a re-registered (swapped) nUDF can never be confused with its
    /// predecessor by a generation-keyed cache.
    generations: cachekit::Epoch,
}

/// One registration: its generation, the spec, and the default model's
/// flops per inference once someone asked for them.
#[derive(Debug)]
struct Registered {
    generation: u64,
    spec: Arc<NudfSpec>,
    flops: Arc<OnceLock<u64>>,
}

impl ModelRepo {
    /// An empty repository.
    pub fn new() -> Self {
        ModelRepo::default()
    }

    /// Registers an nUDF spec, returning its generation id. Re-registering
    /// a name assigns a new generation: inference results memoized under
    /// the old one silently stop matching.
    pub fn register(&self, spec: NudfSpec) -> u64 {
        let generation = self.generations.bump();
        let entry = Registered { generation, spec: Arc::new(spec), flops: Default::default() };
        self.map.write().insert(entry.spec.name.to_ascii_lowercase(), entry);
        generation
    }

    /// Looks up a spec by case-insensitive name.
    pub fn get(&self, name: &str) -> Option<Arc<NudfSpec>> {
        self.map.read().get(&name.to_ascii_lowercase()).map(|r| Arc::clone(&r.spec))
    }

    /// The generation id of a registered nUDF (0 for unknown names; real
    /// generations start at 1).
    pub fn generation(&self, name: &str) -> u64 {
        self.map.read().get(&name.to_ascii_lowercase()).map_or(0, |r| r.generation)
    }

    /// The deterministic flop count of one forward pass of the nUDF's
    /// default model — what a device projection charges per inference.
    /// Counted once per registration, by running the model on zeros.
    pub fn flops_per_inference(&self, name: &str) -> Result<u64> {
        let (spec, flops) = {
            let map = self.map.read();
            let r = map
                .get(&name.to_ascii_lowercase())
                .ok_or_else(|| Error::UnknownNudf(name.to_string()))?;
            if let Some(&f) = r.flops.get() {
                return Ok(f);
            }
            (Arc::clone(&r.spec), Arc::clone(&r.flops))
        };
        let clock = neuro::SimClock::new();
        spec.model
            .forward_with_clock(&Tensor::zeros(spec.model.input_shape.clone()), Some(&clock))?;
        Ok(*flops.get_or_init(|| clock.flops()))
    }

    /// Looks up or errors.
    pub fn require(&self, name: &str) -> Result<Arc<NudfSpec>> {
        self.get(name).ok_or_else(|| Error::UnknownNudf(name.to_string()))
    }

    /// Whether `name` is a registered nUDF.
    pub fn is_nudf(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// All registered names.
    pub fn names(&self) -> Vec<String> {
        self.map.read().values().map(|r| r.spec.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect_spec() -> NudfSpec {
        NudfSpec::new(
            "nUDF_detect",
            Arc::new(neuro::zoo::student(vec![1, 8, 8], 2, 3)),
            NudfOutput::Bool { true_class: 1 },
            vec![0.9, 0.1],
        )
    }

    #[test]
    fn blob_roundtrip() {
        let t = Tensor::full(vec![1, 4, 4], 0.25);
        let blob = tensor_to_blob(&t);
        assert_eq!(blob_to_tensor(&blob).unwrap(), t);
        assert!(blob_to_tensor(&Value::Int64(1)).is_err());
    }

    #[test]
    fn invoke_maps_class_to_value() {
        let spec = detect_spec();
        let blob = tensor_to_blob(&Tensor::full(vec![1, 8, 8], 0.5));
        let v = spec.invoke(&blob, None).unwrap();
        assert!(matches!(v, Value::Bool(_)));
        // Must agree with the model's own prediction.
        let expected = spec.model.predict(&Tensor::full(vec![1, 8, 8], 0.5)).unwrap();
        assert_eq!(v, Value::Bool(expected == 1));
    }

    #[test]
    fn output_histograms() {
        let b = NudfOutput::Bool { true_class: 1 }.value_histogram(&[0.7, 0.3]);
        assert!(b.contains(&(Value::Bool(true), 0.3)));
        let l =
            NudfOutput::Label { labels: vec!["a".into(), "b".into()] }.value_histogram(&[0.4, 0.6]);
        assert_eq!(l[1], (Value::Utf8("b".into()), 0.6));
        let c = NudfOutput::ClassId.value_histogram(&[1.0]);
        assert_eq!(c[0], (Value::Int64(0), 1.0));
    }

    #[test]
    fn repo_lookup_is_case_insensitive() {
        let repo = ModelRepo::new();
        repo.register(detect_spec());
        assert!(repo.is_nudf("NUDF_DETECT"));
        assert!(repo.require("nudf_detect").is_ok());
        assert!(matches!(repo.require("nudf_ghost"), Err(Error::UnknownNudf(_))));
    }

    #[test]
    fn reregistration_assigns_a_new_generation() {
        let repo = ModelRepo::new();
        assert_eq!(repo.generation("nudf_detect"), 0);
        let g1 = repo.register(detect_spec());
        assert_eq!(repo.generation("NUDF_DETECT"), g1);
        let g2 = repo.register(detect_spec());
        assert!(g2 > g1, "model swap gets a fresh generation");
        assert_eq!(repo.generation("nudf_detect"), g2);
    }

    #[test]
    fn conditional_variant_selection() {
        let low = Arc::new(neuro::zoo::student(vec![1, 8, 8], 2, 10));
        let high = Arc::new(neuro::zoo::student(vec![1, 8, 8], 2, 11));
        let mut spec = detect_spec();
        spec.variants = vec![
            ConditionalVariant { min_condition: 0.0, model: Arc::clone(&low) },
            ConditionalVariant { min_condition: 80.0, model: Arc::clone(&high) },
        ];
        assert!(spec.is_conditional());
        assert_eq!(spec.arg_types().len(), 2);
        assert!(Arc::ptr_eq(spec.select_model(Some(50.0)), &low));
        assert!(Arc::ptr_eq(spec.select_model(Some(85.0)), &high));
        // No condition: the default model.
        assert!(Arc::ptr_eq(spec.select_model(None), &spec.model));

        // The two variants can genuinely disagree on some keyframe.
        let blob = tensor_to_blob(&Tensor::full(vec![1, 8, 8], 0.3));
        let a = spec.invoke_with_condition(&blob, Some(50.0), None).unwrap();
        let b = spec.invoke_with_condition(&blob, Some(85.0), None).unwrap();
        // (Not asserting inequality — weights are random — but both run.)
        let _ = (a, b);
    }

    #[test]
    fn flops_are_counted_once_per_registration() {
        let repo = ModelRepo::new();
        assert!(matches!(repo.flops_per_inference("nudf_detect"), Err(Error::UnknownNudf(_))));
        repo.register(detect_spec());
        let flops = repo.flops_per_inference("NUDF_DETECT").unwrap();
        let clock = neuro::SimClock::new();
        let spec = repo.require("nudf_detect").unwrap();
        spec.model.forward_with_clock(&Tensor::zeros(vec![1, 8, 8]), Some(&clock)).unwrap();
        assert_eq!(flops, clock.flops());
        assert_eq!(repo.flops_per_inference("nudf_detect").unwrap(), flops, "cached");
        // A swapped model is counted afresh.
        let mut bigger = detect_spec();
        bigger.model = Arc::new(neuro::zoo::student(vec![1, 12, 12], 2, 3));
        repo.register(bigger);
        assert!(repo.flops_per_inference("nudf_detect").unwrap() > flops);
    }

    #[test]
    fn clock_records_transfer_and_flops() {
        let spec = detect_spec();
        let clock = neuro::SimClock::new();
        let blob = tensor_to_blob(&Tensor::full(vec![1, 8, 8], 0.1));
        spec.invoke(&blob, Some(&clock)).unwrap();
        assert!(clock.flops() > 0);
        assert_eq!(clock.transfer_bytes(), 64 * 4);
    }
}
