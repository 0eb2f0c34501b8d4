//! The name of the kernels this crate runs.
//!
//! There is one set of kernels: the register-tiled `[f64; 4]`-lane
//! matmul and AXPY in [`crate::matrix`]. Nothing selects between
//! implementations; this module only names the one there is.

/// The crate's kernel implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernels;

impl Kernels {
    /// The stable name, `"simd"`: the register-tiled lane kernels.
    pub fn name(self) -> &'static str {
        "simd"
    }
}

/// The kernels in use — always [`Kernels`]. The benchmark's host
/// record reads this to label its runs.
pub fn backend_kind() -> Kernels {
    Kernels
}

#[cfg(test)]
mod tests {
    use crate::{cosine_similarity, dot, row_norm};

    #[test]
    fn shared_reductions_are_sequential_and_identical() {
        let v: Vec<f64> = (0..131).map(|i| (i as f64) * 0.37 - 19.0).collect();
        let w: Vec<f64> = (0..131).map(|i| (i as f64).sin()).collect();
        let mut expect_dot = 0.0;
        let mut expect_sq = 0.0;
        for (x, y) in v.iter().zip(&w) {
            expect_dot += x * y;
            expect_sq += x * x;
        }
        assert_eq!(dot(&v, &w).to_bits(), expect_dot.to_bits());
        assert_eq!(row_norm(&v).to_bits(), expect_sq.sqrt().to_bits());
    }

    #[test]
    fn cosine_with_norms_matches_cosine_similarity() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64) * 0.11 - 2.0).collect();
        let b: Vec<f64> = (0..41).map(|i| (i as f64) * -0.07 + 1.5).collect();
        // Norms hoisted out of a pair loop reproduce the per-pair
        // quotient bit for bit, zero-padding included.
        let hoisted = dot(&a, &b) / (row_norm(&a) * row_norm(&b));
        assert_eq!(hoisted.to_bits(), cosine_similarity(&a, &b).to_bits());
        assert_eq!(cosine_similarity(&a, &[0.0; 41]), 0.0);
    }
}
