//! Small vector-norm helpers shared by the solvers.

/// Maximum absolute value (`ℓ∞` norm). Returns `0.0` for an empty slice
/// and NaN when any entry is NaN, so a residual that went NaN never
/// reads as converged.
#[inline]
pub fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| {
        let a = x.abs();
        if m.is_nan() || m >= a {
            m
        } else {
            a
        }
    })
}

/// Sum of absolute values (`ℓ₁` norm).
#[inline]
pub fn l1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// Euclidean (`ℓ₂`) norm.
#[inline]
pub fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// `ℓ₁` distance between two equal-length slices.
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn l1_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "l1_distance: length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Weighted RMS norm used for adaptive error control:
/// `sqrt(mean((e_i / (atol + rtol * |y_i|))^2))`.
#[inline]
pub fn error_norm(err: &[f64], y0: &[f64], y1: &[f64], atol: f64, rtol: f64) -> f64 {
    debug_assert_eq!(err.len(), y0.len());
    debug_assert_eq!(err.len(), y1.len());
    if err.is_empty() {
        return 0.0;
    }
    let sum: f64 = err
        .iter()
        .zip(y0.iter().zip(y1))
        .map(|(&e, (&a, &b))| {
            let scale = atol + rtol * a.abs().max(b.abs());
            let r = e / scale;
            r * r
        })
        .sum();
    (sum / err.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_on_known_vectors() {
        let v = [3.0, -4.0];
        assert_eq!(max_abs(&v), 4.0);
        assert_eq!(l1(&v), 7.0);
        assert!((l2(&v) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn max_abs_propagates_nan() {
        assert!(max_abs(&[f64::NAN]).is_nan());
        assert!(max_abs(&[1.0, f64::NAN, 2.0]).is_nan());
        assert!(max_abs(&[f64::NAN, 3.0]).is_nan());
        assert_eq!(max_abs(&[-f64::INFINITY, 1.0]), f64::INFINITY);
    }

    #[test]
    fn empty_vectors_are_zero() {
        assert_eq!(max_abs(&[]), 0.0);
        assert_eq!(l1(&[]), 0.0);
        assert_eq!(l2(&[]), 0.0);
    }

    #[test]
    fn l1_distance_is_symmetric() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.5, 2.5, 2.0];
        assert_eq!(l1_distance(&a, &b), l1_distance(&b, &a));
        assert!((l1_distance(&a, &b) - 2.0).abs() < 1e-15);
    }

    #[test]
    fn error_norm_scales_with_tolerance() {
        let err = [1e-6, 1e-6];
        let y = [1.0, 1.0];
        let tight = error_norm(&err, &y, &y, 1e-9, 1e-9);
        let loose = error_norm(&err, &y, &y, 1e-3, 1e-3);
        assert!(tight > loose);
    }
}
