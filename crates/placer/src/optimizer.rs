//! The placer's descent step over flat coordinate vectors.

/// Momentum gradient descent with *global* step normalization: the update
/// is `x -= lr · v / rms(v)` with `v = μ·v + g`, per-coordinate clamped to
/// `±step_clamp`.
///
/// Unlike a per-coordinate normalization (which equalizes step sizes and
/// lets a tiny stale gradient override a large one), global
/// normalization preserves *relative* gradient magnitudes — which is what
/// makes the paper's gradient-norm matching (Eq. 8) between objective
/// terms meaningful. This mirrors the Nesterov-style preconditioning
/// analytic placers use.
#[derive(Debug, Clone)]
pub struct NormalizedMomentum {
    /// Step length (µm per iteration at RMS gradient).
    pub lr: f64,
    /// Momentum factor μ.
    pub momentum: f64,
    /// Per-coordinate step clamp (µm).
    pub step_clamp: f64,
    v: Vec<f64>,
}

impl NormalizedMomentum {
    /// Creates an optimizer for `n` parameters.
    pub fn new(n: usize, lr: f64) -> Self {
        Self {
            lr,
            momentum: 0.9,
            step_clamp: 4.0 * lr,
            v: vec![0.0; n],
        }
    }

    /// Applies one descent step in place.
    ///
    /// # Panics
    ///
    /// Panics if the lengths disagree with the construction size.
    #[allow(clippy::needless_range_loop)] // velocity/param/grad run in lockstep
    pub fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), self.v.len());
        assert_eq!(grads.len(), self.v.len());
        let n = self.v.len().max(1);
        let mut sq = 0.0;
        for i in 0..params.len() {
            self.v[i] = self.momentum * self.v[i] + grads[i];
            sq += self.v[i] * self.v[i];
        }
        let rms = (sq / n as f64).sqrt();
        if rms == 0.0 {
            return;
        }
        for i in 0..params.len() {
            let step = (self.lr * self.v[i] / rms).clamp(-self.step_clamp, self.step_clamp);
            params[i] -= step;
        }
    }

    /// Resets the momentum (used at timing-weight refreshes).
    pub fn reset(&mut self) {
        self.v.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_momentum_converges_on_quadratic_bowl() {
        let mut opt = NormalizedMomentum::new(2, 0.05);
        let mut p = vec![5.0, -3.0];
        for _ in 0..800 {
            let g = vec![2.0 * (p[0] - 1.0), 2.0 * (p[1] + 2.0)];
            opt.step(&mut p, &g);
        }
        assert!((p[0] - 1.0).abs() < 0.2, "{p:?}");
        assert!((p[1] + 2.0).abs() < 0.2, "{p:?}");
    }

    #[test]
    fn normalized_momentum_preserves_relative_magnitude() {
        // A gradient 100x larger must move its coordinate far more.
        let mut opt = NormalizedMomentum::new(2, 1.0);
        let mut p = vec![0.0, 0.0];
        opt.step(&mut p, &[100.0, 1.0]);
        assert!(p[0].abs() > 10.0 * p[1].abs());
    }

    #[test]
    fn zero_gradient_is_a_noop() {
        let mut opt = NormalizedMomentum::new(2, 1.0);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[0.0, 0.0]);
        assert_eq!(p, vec![1.0, 2.0]);
    }
}
