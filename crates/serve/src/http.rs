//! The serving endpoint's result encoding. The request reader and the
//! response writer are the shared [`fbmpk_obs::http`] codec.

/// Renders a result vector as the 200 body: one `f64` per line via
/// `Display`, whose shortest-round-trip formatting preserves the exact
/// bits — the batching bit-identity guarantee survives the wire. Values
/// are formatted straight into the preallocated body, with no `String`
/// per value.
pub fn render_vector(y: &[f64]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(y.len() * 20);
    for v in y {
        writeln!(out, "{v}").expect("formatting into a String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_rendering_round_trips_bits() {
        let values = [1.0, -0.1, std::f64::consts::PI, 1e-300, -2.5e17, 0.0];
        let body = render_vector(&values);
        let parsed: Vec<f64> = body.lines().map(|l| l.parse().unwrap()).collect();
        for (a, b) in values.iter().zip(&parsed) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} must survive the wire exactly");
        }
    }

    #[test]
    fn vector_rendering_matches_per_value_to_string() {
        let values = [
            -0.0,
            0.0,
            5e-324,
            -5e-324,
            1e-300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
            -2.5e17,
            123456789.0,
        ];
        let old: String = values.iter().map(|v| v.to_string() + "\n").collect();
        assert_eq!(render_vector(&values), old);
        assert_eq!(render_vector(&[]), "");
    }
}
