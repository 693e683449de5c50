//! A runnable model: named layer stack plus forward passes.

use crate::device::SimClock;
use crate::error::{Error, Result};
use crate::graph::Layer;
use crate::tensor::Tensor;

/// A network ready for inference.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Human-readable name ("student", "resnet20", ...).
    pub name: String,
    /// Expected input shape (`[C, H, W]` for image models).
    pub input_shape: Vec<usize>,
    /// Number of output classes (length of the softmax output).
    pub num_classes: usize,
    /// The layer stack, executed front to back.
    pub layers: Vec<Layer>,
}

impl Model {
    /// Builds a model, validating nothing beyond basic invariants; shape
    /// errors surface at forward time with precise context.
    pub fn new(
        name: impl Into<String>,
        input_shape: Vec<usize>,
        num_classes: usize,
        layers: Vec<Layer>,
    ) -> Self {
        Model { name: name.into(), input_shape, num_classes, layers }
    }

    /// Total learned parameters (paper Table VI's "Parameters" row).
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Single-sample forward pass. Returns the final activation (class
    /// probabilities when the model ends in softmax).
    pub fn forward(&self, input: &Tensor) -> Result<Tensor> {
        self.forward_with_clock(input, None)
    }

    /// Forward pass that charges simulated work to `clock`.
    pub fn forward_with_clock(&self, input: &Tensor, clock: Option<&SimClock>) -> Result<Tensor> {
        if input.shape() != self.input_shape.as_slice() {
            return Err(Error::ShapeMismatch {
                expected: format!("{:?}", self.input_shape),
                got: input.shape().to_vec(),
            });
        }
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.apply(&x, clock)?;
        }
        Ok(x)
    }

    /// Classifies a single sample: forward pass + argmax.
    pub fn predict(&self, input: &Tensor) -> Result<usize> {
        Ok(self.forward(input)?.argmax())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Layer;

    fn tiny_classifier() -> Model {
        // 1x2x2 input -> flatten -> FC to 2 logits -> softmax.
        Model::new(
            "tiny",
            vec![1, 2, 2],
            2,
            vec![
                Layer::Flatten,
                Layer::Linear {
                    weight: Tensor::new(vec![2, 4], vec![1., 1., 1., 1., -1., -1., -1., -1.])
                        .unwrap(),
                    bias: None,
                },
                Layer::Softmax,
            ],
        )
    }

    #[test]
    fn forward_checks_input_shape() {
        let m = tiny_classifier();
        assert!(m.forward(&Tensor::zeros(vec![1, 3, 3])).is_err());
        assert!(m.forward(&Tensor::zeros(vec![1, 2, 2])).is_ok());
    }

    #[test]
    fn prediction_follows_sign_of_input_sum() {
        let m = tiny_classifier();
        let pos = Tensor::new(vec![1, 2, 2], vec![1.0; 4]).unwrap();
        let neg = Tensor::new(vec![1, 2, 2], vec![-1.0; 4]).unwrap();
        assert_eq!(m.predict(&pos).unwrap(), 0);
        assert_eq!(m.predict(&neg).unwrap(), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let m = tiny_classifier();
        let out = m.forward(&Tensor::zeros(vec![1, 2, 2])).unwrap();
        let sum: f32 = out.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn clock_records_work() {
        let m = tiny_classifier();
        let clock = SimClock::new();
        m.forward_with_clock(&Tensor::zeros(vec![1, 2, 2]), Some(&clock)).unwrap();
        assert!(clock.flops() > 0);
    }
}
