//! A gated recurrent unit cell, the combiner of Eq. 1:
//! `h_v^{(k)} = GRU(h_v^{(k-1)}, m_v)` where `m_v` is the aggregated
//! neighbour message.

use rand::Rng;

use crate::init::xavier_uniform;
use crate::matrix::Matrix;
use crate::tape::{NodeId, Tape};

/// Learnable parameters of a GRU cell.
///
/// Gate equations (x = message input, h = previous state):
///
/// ```text
/// z = σ(x·Wz + h·Uz + bz)        update gate
/// r = σ(x·Wr + h·Ur + br)        reset gate
/// h̃ = tanh(x·Wh + (r ⊙ h)·Uh + bh)
/// h' = (1 − z) ⊙ h + z ⊙ h̃
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GruCell {
    input_dim: usize,
    hidden_dim: usize,
    /// `[Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh]`.
    params: Vec<Matrix>,
}

/// Tape leaves for one forward pass of a [`GruCell`], in the same order
/// as [`GruCell::matrices`].
#[derive(Debug, Clone)]
pub struct GruLeaves {
    ids: Vec<NodeId>,
}

impl GruLeaves {
    /// The leaf node ids, ordered as [`GruCell::matrices`].
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }
}

impl GruCell {
    /// Number of parameter matrices in a cell.
    pub const PARAM_COUNT: usize = 9;

    /// A new cell with Xavier-uniform weights and zero biases.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut impl Rng) -> GruCell {
        let params = vec![
            xavier_uniform(input_dim, hidden_dim, rng),
            xavier_uniform(input_dim, hidden_dim, rng),
            xavier_uniform(input_dim, hidden_dim, rng),
            xavier_uniform(hidden_dim, hidden_dim, rng),
            xavier_uniform(hidden_dim, hidden_dim, rng),
            xavier_uniform(hidden_dim, hidden_dim, rng),
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
            Matrix::zeros(1, hidden_dim),
        ];
        GruCell { input_dim, hidden_dim, params }
    }

    /// Input (message) dimensionality.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-state dimensionality.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// The parameter matrices `[Wz, Wr, Wh, Uz, Ur, Uh, bz, br, bh]`.
    pub fn matrices(&self) -> &[Matrix] {
        &self.params
    }

    /// Mutable access to the parameter matrices (same order).
    pub fn matrices_mut(&mut self) -> &mut [Matrix] {
        &mut self.params
    }

    /// Register copies of the parameters as leaves on `tape`.
    pub fn leaves(&self, tape: &mut Tape) -> GruLeaves {
        GruLeaves {
            ids: self.params.iter().map(|m| tape.leaf_copy(m)).collect(),
        }
    }

    /// One GRU step: combine message `x` (`n × input_dim`) with state `h`
    /// (`n × hidden_dim`) into the next state (`n × hidden_dim`).
    ///
    /// # Panics
    ///
    /// Panics (inside tape ops) on shape mismatches.
    pub fn forward(tape: &mut Tape, leaves: &GruLeaves, x: NodeId, h: NodeId) -> NodeId {
        let [wz, wr, wh, uz, ur, uh, bz, br, bh] = leaves.ids[..] else {
            unreachable!("GruLeaves always holds {} ids", GruCell::PARAM_COUNT)
        };
        let gate = |tape: &mut Tape, w: NodeId, u_in: NodeId, b: NodeId, state: NodeId| {
            let xw = tape.matmul(x, w);
            let hu = tape.matmul(state, u_in);
            let s = tape.add(xw, hu);
            tape.add_row(s, b)
        };
        let z_pre = gate(tape, wz, uz, bz, h);
        let z = tape.sigmoid(z_pre);
        let r_pre = gate(tape, wr, ur, br, h);
        let r = tape.sigmoid(r_pre);
        let rh = tape.mul_elem(r, h);
        let cand_pre = gate(tape, wh, uh, bh, rh);
        let cand = tape.tanh(cand_pre);
        // h' = h + z ⊙ (h̃ − h)
        let delta = tape.sub(cand, h);
        let zd = tape.mul_elem(z, delta);
        tape.add(h, zd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cell() -> GruCell {
        let mut rng = StdRng::seed_from_u64(7);
        GruCell::new(4, 3, &mut rng)
    }

    #[test]
    fn shapes_are_correct() {
        let c = cell();
        assert_eq!(c.matrices().len(), GruCell::PARAM_COUNT);
        assert_eq!(c.matrices()[0].shape(), (4, 3)); // Wz
        assert_eq!(c.matrices()[3].shape(), (3, 3)); // Uz
        assert_eq!(c.matrices()[6].shape(), (1, 3)); // bz
        assert_eq!(c.input_dim(), 4);
        assert_eq!(c.hidden_dim(), 3);
    }

    #[test]
    fn forward_produces_bounded_update() {
        let c = cell();
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let x = tape.leaf(Matrix::filled(5, 4, 0.3));
        let h = tape.leaf(Matrix::filled(5, 3, 0.1));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        let v = tape.value(out);
        assert_eq!(v.shape(), (5, 3));
        assert!(v.is_finite());
        // GRU output is a convex combination of h and tanh(·), so |h'| ≤ max(|h|, 1).
        assert!(v.max_abs() <= 1.0 + 1e-12);
    }

    #[test]
    fn zero_message_zero_state_stays_small() {
        let c = cell();
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let x = tape.leaf(Matrix::zeros(2, 4));
        let h = tape.leaf(Matrix::zeros(2, 3));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        // z = σ(0) = 0.5, h̃ = tanh(0) = 0 → h' = 0.
        assert!(tape.value(out).max_abs() < 1e-12);
    }

    #[test]
    fn gradients_reach_every_parameter() {
        let c = cell();
        let mut tape = Tape::new();
        let leaves = c.leaves(&mut tape);
        let x = tape.leaf(Matrix::filled(3, 4, 0.2));
        let h = tape.leaf(Matrix::filled(3, 3, -0.1));
        let out = GruCell::forward(&mut tape, &leaves, x, h);
        let loss = tape.sum(out);
        let grads = tape.backward(loss);
        for (i, &id) in leaves.ids().iter().enumerate() {
            let g = grads.grad(id).unwrap_or_else(|| panic!("param {i} missing grad"));
            assert!(g.is_finite());
            assert!(g.max_abs() > 0.0, "param {i} has zero gradient");
        }
    }

    #[test]
    fn gru_finite_difference_check() {
        // Check dLoss/dWz numerically on a tiny instance.
        let c = cell();
        let xv = Matrix::from_rows(&[&[0.4, -0.3, 0.2, 0.1]]);
        let hv = Matrix::from_rows(&[&[0.05, -0.2, 0.15]]);

        let run = |cell: &GruCell| -> (f64, Matrix) {
            let mut tape = Tape::new();
            let leaves = cell.leaves(&mut tape);
            let x = tape.leaf(xv.clone());
            let h = tape.leaf(hv.clone());
            let out = GruCell::forward(&mut tape, &leaves, x, h);
            let loss = tape.sum(out);
            let grads = tape.backward(loss);
            (
                tape.value(loss)[(0, 0)],
                grads.grad(leaves.ids()[0]).unwrap().clone(),
            )
        };
        let (_, g_wz) = run(&c);
        let eps = 1e-6;
        for r in 0..4 {
            for col in 0..3 {
                let mut cp = c.clone();
                cp.matrices_mut()[0][(r, col)] += eps;
                let mut cm = c.clone();
                cm.matrices_mut()[0][(r, col)] -= eps;
                let numeric = (run(&cp).0 - run(&cm).0) / (2.0 * eps);
                assert!(
                    (numeric - g_wz[(r, col)]).abs() < 1e-6,
                    "dWz[{r},{col}] numeric {numeric} vs {}",
                    g_wz[(r, col)]
                );
            }
        }
    }
}
