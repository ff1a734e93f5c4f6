//! The statistical model: the paper's Gaussian POCV (§III).
//!
//! An arrival is `N(mean, sigma²)`. An arc sum adds the means and the
//! sigmas root-sum-square (Eqs. 1–3), and a corner is `mean ± n_sigma·sigma`.
//! Every kernel reaches its numerics through the five functions below.
//!
//! Each body is the kernel expression the scalar reference
//! (`scalar_ref.rs`) spells out inline — same operations, same association
//! order. Floating-point addition is not associative, so a harmless-looking
//! reassociation here changes bits and fails `kernel_equivalence.rs`.

/// Distribution of `parent ⊕ arc`: the means add, the sigmas add in
/// quadrature.
#[inline(always)]
pub(crate) fn arc_sum(p_mean: f64, p_sigma: f64, a_mean: f64, a_sigma: f64) -> (f64, f64) {
    (
        p_mean + a_mean,
        (p_sigma * p_sigma + a_sigma * a_sigma).sqrt(),
    )
}

/// The late (setup) corner of a distribution at `n_sigma`.
#[inline(always)]
pub(crate) fn corner_late(mean: f64, sigma: f64, n_sigma: f64) -> f64 {
    mean + n_sigma * sigma
}

/// The negated early (hold) corner at `n_sigma`. Hold propagation reuses
/// the max-merge kernel on negated arrivals, so this returns
/// `-(early corner)` directly.
#[inline(always)]
pub(crate) fn corner_min(mean: f64, sigma: f64, n_sigma: f64) -> f64 {
    -(mean - n_sigma * sigma)
}

/// The LSE smooth-max candidate for a parent arrival `pa` extended by an
/// arc `(a_mean, a_sigma)`: the arc's linearized corner cost added to `pa`.
#[inline(always)]
pub(crate) fn lse_candidate(pa: f64, a_mean: f64, a_sigma: f64, n_sigma: f64) -> f64 {
    pa + a_mean + n_sigma * a_sigma
}

/// Numerically stable two-way softmax weights at temperature `tau`, used by
/// the backward sensitivity rules to split an endpoint's gradient between
/// its rise and fall arrivals. An untimed (`-inf`) side gets weight 0
/// without producing NaN.
#[inline(always)]
pub(crate) fn softmax2(a: f64, b: f64, tau: f64) -> (f64, f64) {
    match (a == f64::NEG_INFINITY, b == f64::NEG_INFINITY) {
        (true, true) => (0.0, 0.0),
        (true, false) => (0.0, 1.0),
        (false, true) => (1.0, 0.0),
        (false, false) => {
            let m = a.max(b);
            let ea = ((a - m) / tau).exp();
            let eb = ((b - m) / tau).exp();
            (ea / (ea + eb), eb / (ea + eb))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_expressions_are_the_frozen_kernel_expressions() {
        // The reference's float expressions, operation for operation —
        // any reassociation here is a semantic regression (see
        // kernel_equivalence.rs).
        let (mean, sigma) = arc_sum(1.25, 0.5, 2.5, 0.75);
        assert_eq!(mean.to_bits(), (1.25f64 + 2.5).to_bits());
        assert_eq!(
            sigma.to_bits(),
            ((0.5f64 * 0.5 + 0.75 * 0.75).sqrt()).to_bits()
        );
        assert_eq!(
            corner_late(3.0, 0.7, 3.0).to_bits(),
            (3.0f64 + 3.0 * 0.7).to_bits()
        );
        assert_eq!(
            corner_min(3.0, 0.7, 3.0).to_bits(),
            (-(3.0f64 - 3.0 * 0.7)).to_bits()
        );
        assert_eq!(
            lse_candidate(10.0, 3.0, 0.7, 3.0).to_bits(),
            (10.0f64 + 3.0 + 3.0 * 0.7).to_bits()
        );
    }

    #[test]
    fn softmax2_is_neg_inf_stable() {
        assert_eq!(softmax2(f64::NEG_INFINITY, 1.0, 0.5), (0.0, 1.0));
        assert_eq!(
            softmax2(f64::NEG_INFINITY, f64::NEG_INFINITY, 0.5),
            (0.0, 0.0)
        );
    }
}
