#![warn(missing_docs)]

//! Minimal neural-network substrate for the AncstrGNN reproduction.
//!
//! The paper implements its GNN in PyTorch; this crate replaces that
//! dependency with a from-scratch stack sized for the model at hand
//! (feature dimension 18, two layers, graphs of ≤ a few thousand
//! vertices):
//!
//! * [`Matrix`] — dense row-major `f64` linear algebra over one set of
//!   plain kernels (register-tiled `[f64; 4]` lanes, bit-identical to
//!   the naive loops);
//! * [`SparseMatrix`] — triplet sparse matrices for the per-edge-type
//!   adjacency operators;
//! * [`Tape`] — reverse-mode autograd over the op set the model needs
//!   (verified against finite differences in the test suite);
//! * [`GruCell`] — the Eq. 1 combiner;
//! * [`Adam`] — the optimizer;
//! * [`init`] — Xavier initialization;
//! * [`linalg`] — a Jacobi symmetric eigensolver (used by the S³DET
//!   baseline's spectral analysis).
//!
//! # Example: one gradient step
//!
//! ```
//! use ancstr_nn::{Adam, Matrix, Tape};
//!
//! let mut w = Matrix::from_rows(&[&[0.5, -0.5]]);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..100 {
//!     let mut tape = Tape::new();
//!     let wn = tape.leaf(w.clone());
//!     let sq = tape.mul_elem(wn, wn);
//!     let loss = tape.sum(sq);
//!     let mut grads = tape.backward(loss);
//!     let g = grads.take(wn).expect("w influences the loss");
//!     opt.step(&mut [&mut w], &[g]);
//! }
//! assert!(w.max_abs() < 1e-2);
//! ```

pub mod backend;
pub mod error;
pub mod gru;
pub mod init;
pub mod linalg;
pub mod matrix;
pub mod optim;
pub mod sparse;
pub mod tape;

pub use error::NnError;
pub use gru::{GruCell, GruLeaves};
pub use matrix::{axpy, cosine_similarity, dot, row_norm, Matrix};
pub use optim::Adam;
pub use sparse::SparseMatrix;
pub use tape::{log_sigmoid, sigmoid, Gradients, NodeId, SparseId, Tape};

/// Oracle tests for the `[f64; 4]`-lane matmul kernel (the kernels
/// [`backend::backend_kind`] names `"simd"`) against a plain scalar
/// kernel kept here as the reference.
#[cfg(test)]
mod simd {
    mod tests {
        use crate::matrix::matmul_rows;
        use std::ops::Range;

        fn lcg(seed: &mut u64) -> f64 {
            *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((*seed >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
        }

        /// The reference: per-row ikj with the `a == 0.0` skip, no
        /// blocking and no lanes.
        fn matmul_rows_scalar(
            a: &[f64],
            inner: usize,
            rows: Range<usize>,
            b: &[f64],
            n: usize,
            out: &mut [f64],
        ) {
            for (li, i) in rows.enumerate() {
                for k in 0..inner {
                    let av = a[i * inner + k];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[li * n + j] += av * b[k * n + j];
                    }
                }
            }
        }

        #[test]
        fn matmul_rows_is_bit_identical_to_scalar() {
            let mut seed = 41u64;
            // Shapes straddling the lane width, the tile width and the
            // cache-block boundaries; planted zeros force the mixed-group
            // fallback. Row sub-ranges check the output-row offsets.
            for (m, inner, n) in
                [(1, 1, 1), (3, 18, 18), (7, 19, 23), (5, 260, 270), (2, 300, 9), (4, 257, 31)]
            {
                let mut a: Vec<f64> = (0..m * inner).map(|_| lcg(&mut seed)).collect();
                for idx in (0..a.len()).step_by(7) {
                    a[idx] = 0.0;
                }
                let b: Vec<f64> = (0..inner * n).map(|_| lcg(&mut seed)).collect();
                for rows in [0..m, m / 2..m] {
                    let mut got = vec![0.0; rows.len() * n];
                    let mut want = vec![0.0; rows.len() * n];
                    matmul_rows(&a, inner, rows.clone(), &b, n, &mut got);
                    matmul_rows_scalar(&a, inner, rows.clone(), &b, n, &mut want);
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "shape ({m},{inner},{n}) rows {rows:?}"
                        );
                    }
                }
            }
        }

        #[test]
        fn matmul_rows_preserves_zero_skip_semantics() {
            // A zero LHS element must skip an inf/NaN RHS row entirely,
            // in both the 4-wide k-group (inner 5, 9) and the k
            // remainder (inner 3).
            for inner in [3usize, 5, 9] {
                for poison in [f64::INFINITY, f64::NAN] {
                    let mut a = vec![1.0; inner];
                    a[1] = 0.0;
                    let n = 6;
                    let mut b = vec![2.0; inner * n];
                    for v in &mut b[n..2 * n] {
                        *v = poison;
                    }
                    let mut got = vec![0.0; n];
                    let mut want = vec![0.0; n];
                    matmul_rows(&a, inner, 0..1, &b, n, &mut got);
                    matmul_rows_scalar(&a, inner, 0..1, &b, n, &mut want);
                    assert!(got.iter().all(|v| v.is_finite()), "inner={inner}: {got:?}");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g.to_bits(), w.to_bits(), "inner={inner}");
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Matrix>();
        assert_send_sync::<crate::SparseMatrix>();
        assert_send_sync::<crate::Tape>();
        assert_send_sync::<crate::GruCell>();
        assert_send_sync::<crate::Adam>();
    }
}
