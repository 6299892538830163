//! Function compositions.
//!
//! The paper models each logical request as a *linear composition* of one or
//! more functions executing on the FaaS platform (§2.2); the evaluation's
//! standard workload is a 2-function composition where each function performs
//! one write and two reads (§6.1.2), and Figure 6 sweeps the composition
//! length from 1 to 10 functions.
//!
//! A [`Composition<C>`] is a named sequence of steps over a request context
//! `C`. The context is whatever the workload needs to carry across functions
//! — for AFT-backed requests it holds the AFT node handle and the transaction
//! ID (the only state that may legally cross function boundaries), for the
//! Plain baselines it holds a storage handle and the request's bookkeeping.

use std::sync::Arc;

use aft_types::AftResult;

/// Information about the current invocation, passed to every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvocationInfo {
    /// Index of this function within the composition (0-based).
    pub step_index: usize,
    /// Number of functions in the composition.
    pub total_steps: usize,
    /// Which attempt of the logical request this is (0 = first try).
    pub attempt: u32,
}

/// One function body: takes the request context and invocation info.
pub(crate) type StepFn<C> = Arc<dyn Fn(&mut C, &InvocationInfo) -> AftResult<()> + Send + Sync>;

/// A linear composition of functions making up one logical request.
#[derive(Clone)]
pub struct Composition<C> {
    name: String,
    steps: Vec<StepFn<C>>,
}

impl<C> Composition<C> {
    /// Creates an empty composition with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Composition {
            name: name.into(),
            steps: Vec::new(),
        }
    }

    /// Appends a function to the composition.
    pub fn then(
        mut self,
        step: impl Fn(&mut C, &InvocationInfo) -> AftResult<()> + Send + Sync + 'static,
    ) -> Self {
        self.steps.push(Arc::new(step));
        self
    }

    /// Builds a composition of `n` identical functions (the Figure 6 sweep).
    pub fn repeated(
        name: impl Into<String>,
        n: usize,
        step: impl Fn(&mut C, &InvocationInfo) -> AftResult<()> + Send + Sync + 'static,
    ) -> Self {
        let step: StepFn<C> = Arc::new(step);
        Composition {
            name: name.into(),
            steps: (0..n).map(|_| Arc::clone(&step)).collect(),
        }
    }

    /// The composition's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of functions in the composition.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns true if the composition has no functions.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step at `index`.
    pub fn step(&self, index: usize) -> Option<&StepFn<C>> {
        self.steps.get(index)
    }
}

impl<C> std::fmt::Debug for Composition<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Composition")
            .field("name", &self.name)
            .field("steps", &self.steps.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_run_in_order() {
        let composition: Composition<Vec<usize>> = Composition::new("ordered")
            .then(|ctx: &mut Vec<usize>, info| {
                ctx.push(info.step_index);
                Ok(())
            })
            .then(|ctx: &mut Vec<usize>, info| {
                ctx.push(info.step_index * 10);
                Ok(())
            });

        assert_eq!(composition.len(), 2);
        assert_eq!(composition.name(), "ordered");
        let mut ctx = Vec::new();
        for i in 0..composition.len() {
            let info = InvocationInfo {
                step_index: i,
                total_steps: composition.len(),
                attempt: 0,
            };
            composition.step(i).unwrap()(&mut ctx, &info).unwrap();
        }
        assert_eq!(ctx, vec![0, 10]);
    }

    #[test]
    fn repeated_builds_n_identical_steps() {
        let composition: Composition<u32> = Composition::repeated("rep", 7, |ctx, _| {
            *ctx += 1;
            Ok(())
        });
        assert_eq!(composition.len(), 7);
        assert!(!composition.is_empty());
        assert!(composition.step(7).is_none());
    }

    #[test]
    fn empty_composition() {
        let composition: Composition<()> = Composition::new("empty");
        assert!(composition.is_empty());
        assert_eq!(composition.len(), 0);
    }
}
