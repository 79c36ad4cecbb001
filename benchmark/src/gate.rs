//! The correctness gate. Every workload checks its results here, outside
//! the timed interval; a result that fails counts as a failed operation.
//!
//! Two checks. A reference check compares a result once against a serial
//! `StandardMpk` reference to [`REL_TOL`]: reordering changes the order
//! of each row's sum, so FBMPK agrees with the reference only to rounding.
//! A bit check then holds every later result of the same call to the
//! exact bits of the one that passed, since the kernels are
//! deterministic; `/v1/power` is held to the bits of `block_power` itself.

/// Norm-wise relative tolerance against the serial reference.
pub const REL_TOL: f64 = 1e-12;

/// `‖got − want‖∞ / ‖want‖∞` (the absolute error when `want` is zero);
/// infinite on a length mismatch or a non-finite entry.
pub fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    let mut diff = 0.0f64;
    let mut norm = 0.0f64;
    for (g, w) in got.iter().zip(want) {
        if !g.is_finite() || !w.is_finite() {
            return f64::INFINITY;
        }
        diff = diff.max((g - w).abs());
        norm = norm.max(w.abs());
    }
    if norm > 0.0 {
        diff / norm
    } else {
        diff
    }
}

/// Whether `got` matches the reference `want` within [`REL_TOL`].
pub fn agrees(got: &[f64], want: &[f64]) -> bool {
    rel_err(got, want) <= REL_TOL
}

/// Whether every iterate of `got` matches `want` within [`REL_TOL`].
pub fn agrees_all(got: &[Vec<f64>], want: &[Vec<f64>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| agrees(g, w))
}

/// Whether `got` and `want` hold the same bits.
pub fn bit_identical(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| g.to_bits() == w.to_bits())
}

/// Whether a `/v1/*` response body carries exactly `want`. The server
/// renders each value in shortest round-trip form, so the body equals
/// `render_vector(want)` exactly when the bits agree.
pub fn body_matches(body: &[u8], want_rendered: &str) -> bool {
    body == want_rendered.as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk_serve::http::render_vector;

    fn one_ulp_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn bit_gates_reject_a_one_ulp_perturbation() {
        let want: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        for at in [0, 41, 99] {
            let mut got = want.clone();
            got[at] = one_ulp_up(got[at]);
            assert!(!bit_identical(&got, &want), "slot {at}");
            assert!(
                !body_matches(render_vector(&got).as_bytes(), &render_vector(&want)),
                "slot {at}"
            );
        }
        assert!(bit_identical(&want, &want));
        assert!(body_matches(render_vector(&want).as_bytes(), &render_vector(&want)));
    }

    #[test]
    fn reference_gate_bounds_the_relative_error() {
        let want = vec![1.0, -2.0, 4.0];
        assert!(agrees(&[1.0, -2.0, 4.0 + 3e-12], &want));
        assert!(!agrees(&[1.0, -2.0, 4.0 + 5e-12], &want));
        assert!(!agrees(&[1.0, -2.0], &want));
        assert!(!agrees(&[f64::NAN, -2.0, 4.0], &want));
        assert!(!agrees_all(std::slice::from_ref(&want), &[want.clone(), want.clone()]));
    }
}
