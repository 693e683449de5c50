//! Scalar user-defined functions.
//!
//! This is the interface the paper's `nUDF`s live on. Besides the callable
//! itself, a [`ScalarUdf`] carries the optimizer-facing metadata the hint
//! rules of paper Sec. IV-B consume:
//!
//! * `cost_per_row` — how expensive one invocation is relative to
//!   evaluating an ordinary scalar expression on one row (neural inference
//!   is many orders of magnitude more expensive),
//! * `class_probabilities` — the class histogram `Pr(c_i)` learned during
//!   offline training (paper Eq. 9–10); the selectivity of
//!   `nUDF(x) = 'class'` is `Pr(class)`.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::column::{Column, Key};
use crate::error::{Error, Result};
use crate::value::{DataType, Value};

/// The callable: a scalar function over one row's argument values.
pub type UdfFn = dyn Fn(&[Value]) -> Result<Value> + Send + Sync;

/// An optional vectorized implementation: whole argument columns in, one
/// result column out. The paper's nUDFs run "in a batch manner (a batch of
/// feature maps are fed to the model together)"; a batch implementation
/// amortizes per-call overhead (and, on an accelerator, the host↔device
/// round trip).
pub type UdfBatchFn = dyn Fn(&[Column]) -> Result<Column> + Send + Sync;

/// A registered scalar UDF.
pub struct ScalarUdf {
    /// Function name (matched case-insensitively in SQL).
    pub name: String,
    /// Expected argument types (arity check; Blob arguments carry tensors).
    pub arg_types: Vec<DataType>,
    /// Return type.
    pub return_type: DataType,
    /// Cost of one invocation, in units of "one scalar expression on one
    /// row". Used by the optimizer to decide nUDF placement.
    pub cost_per_row: f64,
    /// `Pr(class)` histogram for classification UDFs: maps a predicted
    /// value (as a hash [`Key`]) to its empirical probability.
    pub class_probabilities: Option<HashMap<Key, f64>>,
    /// The row-at-a-time implementation.
    pub func: Arc<UdfFn>,
    /// Optional vectorized implementation (preferred by the executor when
    /// present).
    pub batch_func: Option<Arc<UdfBatchFn>>,
}

impl fmt::Debug for ScalarUdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScalarUdf")
            .field("name", &self.name)
            .field("arg_types", &self.arg_types)
            .field("return_type", &self.return_type)
            .field("cost_per_row", &self.cost_per_row)
            .field("has_histogram", &self.class_probabilities.is_some())
            .field("has_batch_impl", &self.batch_func.is_some())
            .finish()
    }
}

impl ScalarUdf {
    /// A UDF with default metadata (cost 1, no histogram).
    pub fn new(
        name: impl Into<String>,
        arg_types: Vec<DataType>,
        return_type: DataType,
        func: impl Fn(&[Value]) -> Result<Value> + Send + Sync + 'static,
    ) -> Self {
        ScalarUdf {
            name: name.into(),
            arg_types,
            return_type,
            cost_per_row: 1.0,
            class_probabilities: None,
            func: Arc::new(func),
            batch_func: None,
        }
    }

    /// Attaches a vectorized implementation. The executor calls it once
    /// per batch instead of once per row; it must return exactly one value
    /// per input row, of the declared return type.
    pub fn with_batch(
        mut self,
        batch: impl Fn(&[Column]) -> Result<Column> + Send + Sync + 'static,
    ) -> Self {
        self.batch_func = Some(Arc::new(batch));
        self
    }

    /// Sets the per-row cost estimate.
    pub fn with_cost(mut self, cost_per_row: f64) -> Self {
        self.cost_per_row = cost_per_row;
        self
    }

    /// Attaches the class-probability histogram (paper Eq. 10). The map
    /// keys are predicted values; probabilities should sum to ~1.
    pub fn with_class_probabilities(
        mut self,
        probs: impl IntoIterator<Item = (Value, f64)>,
    ) -> Self {
        self.class_probabilities = Some(probs.into_iter().map(|(v, p)| (v.to_key(), p)).collect());
        self
    }

    /// The selectivity of `udf(x) = value`: `Pr(value)` if a histogram is
    /// attached, else `None` (the optimizer falls back to a default).
    pub fn selectivity_eq(&self, value: &Value) -> Option<f64> {
        self.class_probabilities.as_ref().map(|m| m.get(&value.to_key()).copied().unwrap_or(0.0))
    }

    /// Invokes the UDF on one row's arguments (with arity check).
    pub fn invoke(&self, args: &[Value]) -> Result<Value> {
        if args.len() != self.arg_types.len() {
            return Err(Error::Exec(format!(
                "UDF {} expects {} arguments, got {}",
                self.name,
                self.arg_types.len(),
                args.len()
            )));
        }
        (self.func)(args)
    }
}

/// Thread-safe registry of scalar UDFs. A session's registry is a private
/// layer over the database's: its bindings shadow shared ones of the same
/// name and are invisible to every other session.
#[derive(Debug, Default)]
pub struct UdfRegistry {
    map: RwLock<HashMap<String, Arc<ScalarUdf>>>,
    /// For a private layer: the registry names it does not bind resolve in.
    shared: Option<Arc<UdfRegistry>>,
}

impl UdfRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        UdfRegistry::default()
    }

    /// An empty private layer over `shared`.
    pub(crate) fn layer_over(shared: Arc<UdfRegistry>) -> Self {
        UdfRegistry { shared: Some(shared), ..UdfRegistry::default() }
    }

    /// Registers (or replaces) a UDF in this layer.
    pub fn register(&self, udf: ScalarUdf) {
        self.map.write().insert(udf.name.to_ascii_lowercase(), Arc::new(udf));
    }

    /// Looks up a UDF by case-insensitive name, in this layer first.
    pub fn get(&self, name: &str) -> Option<Arc<ScalarUdf>> {
        let local = self.map.read().get(&name.to_ascii_lowercase()).cloned();
        local.or_else(|| self.shared.as_ref()?.get(name))
    }

    /// Removes a UDF from this layer; true if it existed.
    pub fn unregister(&self, name: &str) -> bool {
        self.map.write().remove(&name.to_ascii_lowercase()).is_some()
    }

    /// Names of the UDFs registered in this layer.
    pub fn names(&self) -> Vec<String> {
        self.map.read().values().map(|u| u.name.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn double() -> ScalarUdf {
        ScalarUdf::new("double", vec![DataType::Int64], DataType::Int64, |args| {
            Ok(Value::Int64(args[0].as_i64()? * 2))
        })
    }

    #[test]
    fn register_lookup_is_case_insensitive() {
        let reg = UdfRegistry::new();
        reg.register(double());
        assert!(reg.get("DOUBLE").is_some());
        assert!(reg.get("Double").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn invoke_checks_arity() {
        let u = double();
        assert_eq!(u.invoke(&[Value::Int64(4)]).unwrap().as_i64().unwrap(), 8);
        assert!(u.invoke(&[]).is_err());
        assert!(u.invoke(&[Value::Int64(1), Value::Int64(2)]).is_err());
    }

    #[test]
    fn histogram_selectivity() {
        let u = double().with_class_probabilities(vec![
            (Value::Utf8("Floral Pattern".into()), 0.15),
            (Value::Utf8("Stripe".into()), 0.85),
        ]);
        assert_eq!(u.selectivity_eq(&Value::Utf8("Floral Pattern".into())), Some(0.15));
        assert_eq!(u.selectivity_eq(&Value::Utf8("Dots".into())), Some(0.0));
        assert_eq!(double().selectivity_eq(&Value::Int64(1)), None);
    }

    #[test]
    fn batch_implementation_is_optional_and_attachable() {
        let plain = double();
        assert!(plain.batch_func.is_none());
        let batched = double().with_batch(|cols| {
            let Column::Int64(v) = &cols[0] else {
                return Err(Error::Type("expected Int64".into()));
            };
            Ok(Column::Int64(v.iter().map(|x| x * 2).collect()))
        });
        let out = (batched.batch_func.as_ref().unwrap())(&[Column::Int64(vec![1, 2, 3])]).unwrap();
        assert_eq!(out, Column::Int64(vec![2, 4, 6]));
    }

    #[test]
    fn unregister_removes() {
        let reg = UdfRegistry::new();
        reg.register(double());
        assert!(reg.unregister("double"));
        assert!(!reg.unregister("double"));
        assert!(reg.get("double").is_none());
    }
}
