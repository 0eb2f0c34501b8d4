//! Reverse-mode automatic differentiation over dense matrices.
//!
//! A [`Tape`] records an eager forward computation as a DAG of matrix
//! ops; [`Tape::backward`] then sweeps it once in reverse, accumulating
//! gradients. The op set is exactly what the AncstrGNN model needs:
//! (sparse-)matmul, broadcast bias, element-wise arithmetic, `σ`/`tanh`,
//! numerically stable `log σ`, row gathering, row-wise dots, and a final
//! sum — enough for Eq. 1's GRU aggregation and Eq. 2's negative-sampling
//! loss.
//!
//! # Recycled buffers
//!
//! Training records the same ops on the same graph every epoch, so one
//! tape serves the whole run. [`Tape::reset`] forgets the recorded nodes
//! but keeps their storage: each value buffer the tape allocated, and
//! each gather-index buffer, goes to a free list the tape owns. The
//! next recording, [`Tape::backward_into`]'s gradients and the sweep's
//! temporaries all take buffers from that list by capacity — the
//! smallest free buffer that fits. The contract that keeps every bit
//! equal to a new tape's:
//!
//! * a recycled buffer is either overwritten completely or zeroed
//!   before a kernel accumulates into it;
//! * the first contribution to a gradient slot is stored as is, never
//!   added to zero (`0.0 + -0.0` is `+0.0`).
//!
//! When no free buffer fits, the largest one is dropped and a new one
//! allocated, so the list never holds more buffers than one recording
//! used; over graphs of different sizes it keeps about the largest
//! graph's working set. A leaf handed in by value ([`Tape::leaf`]) is
//! dropped on reset; [`Tape::leaf_copy`] copies into a recycled buffer.
//! Inference records on a new tape per call and never resets, so it
//! allocates what it always did.
//!
//! # Example
//!
//! ```
//! use ancstr_nn::{Matrix, Tape};
//!
//! let mut t = Tape::new();
//! let x = t.leaf(Matrix::from_rows(&[&[2.0]]));
//! let y = t.mul_elem(x, x); // y = x²
//! let s = t.sum(y);
//! let grads = t.backward(s);
//! // d(x²)/dx = 2x = 4
//! assert_eq!(grads.grad(x).unwrap()[(0, 0)], 4.0);
//! ```

use std::iter;
use std::sync::Arc;

use crate::matrix::{dot, Matrix};
use crate::sparse::SparseMatrix;

/// Identifier of a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

/// Identifier of a constant sparse operand registered on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SparseId(usize);

#[derive(Debug, Clone)]
enum Op {
    Leaf,
    MatMul(NodeId, NodeId),
    SpMm(SparseId, NodeId),
    Add(NodeId, NodeId),
    AddRow(NodeId, NodeId),
    Sub(NodeId, NodeId),
    MulElem(NodeId, NodeId),
    Scale(NodeId, f64),
    Sigmoid(NodeId),
    Tanh(NodeId),
    LogSigmoid(NodeId),
    Neg(NodeId),
    GatherRows(NodeId, Vec<usize>),
    RowDot(NodeId, NodeId),
    Sum(NodeId),
}

#[derive(Debug, Clone)]
struct Node {
    value: Matrix,
    op: Op,
    /// Whether `value` came from the free list and returns there on
    /// reset (false only for leaves handed in by value).
    pooled: bool,
}

/// Gradients produced by [`Tape::backward`] or refilled by
/// [`Tape::backward_into`].
///
/// Every leaf that influences the loss has a gradient. `add`, `sub`
/// and `add_row` hand their own gradient on to an input whose slot is
/// still empty instead of copying it, so such an interior node then
/// reads `None`.
#[derive(Debug, Clone, Default)]
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the loss with respect to node `id`, or `None`
    /// when the node does not influence the loss (or, for an interior
    /// node, handed its gradient on).
    pub fn grad(&self, id: NodeId) -> Option<&Matrix> {
        self.grads.get(id.0).and_then(Option::as_ref)
    }

    /// Take ownership of a gradient, leaving `None` behind.
    pub fn take(&mut self, id: NodeId) -> Option<Matrix> {
        self.grads.get_mut(id.0).and_then(Option::take)
    }
}

/// A forward-computation tape supporting one reverse sweep per
/// recording, reusable across recordings via [`Tape::reset`].
#[derive(Debug, Default)]
pub struct Tape {
    nodes: Vec<Node>,
    sparses: Vec<Arc<SparseMatrix>>,
    free: FreeList,
}

/// The buffers [`Tape::reset`] and the backward sweep give back.
#[derive(Debug, Default)]
struct FreeList {
    values: Vec<Vec<f64>>,
    indices: Vec<Vec<usize>>,
}

/// The smallest free buffer with room for `len` elements, emptied; of
/// equal ones the most recently freed, which is likeliest still in
/// cache. When none has room the largest is dropped, since it would
/// have to grow anyway, and the caller allocates.
fn best_fit<T>(free: &mut Vec<Vec<T>>, len: usize) -> Option<Vec<T>> {
    let fit = free
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, b)| b.capacity() >= len)
        .min_by_key(|(_, b)| b.capacity());
    if let Some((i, _)) = fit {
        let mut buf = free.remove(i);
        buf.clear();
        return Some(buf);
    }
    if let Some((i, _)) = free.iter().enumerate().max_by_key(|(_, b)| b.capacity()) {
        free.remove(i);
    }
    None
}

impl FreeList {
    /// A zeroed `rows × cols` matrix, for kernels that accumulate.
    fn zeros(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        let data = match best_fit(&mut self.values, len) {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                buf
            }
            None => vec![0.0; len],
        };
        Matrix::from_vec(rows, cols, data)
    }

    /// A `rows × cols` matrix written completely by `fill`, which
    /// appends to an empty buffer with room for every element.
    ///
    /// Panics unless `fill` appends exactly `rows · cols` values.
    fn build(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut Vec<f64>)) -> Matrix {
        let len = rows * cols;
        let mut data = best_fit(&mut self.values, len).unwrap_or_else(|| Vec::with_capacity(len));
        fill(&mut data);
        Matrix::from_vec(rows, cols, data)
    }

    /// A `rows × cols` matrix overwritten completely by `items`.
    fn collect(&mut self, rows: usize, cols: usize, items: impl IntoIterator<Item = f64>) -> Matrix {
        self.build(rows, cols, |data| data.extend(items))
    }

    fn put(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.capacity() > 0 {
            self.values.push(buf);
        }
    }

    fn take_indices(&mut self, items: impl ExactSizeIterator<Item = usize>) -> Vec<usize> {
        let len = items.len();
        let mut buf = best_fit(&mut self.indices, len).unwrap_or_else(|| Vec::with_capacity(len));
        buf.extend(items);
        buf
    }
}

/// Numerically stable `σ(x)`.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `log σ(x)`.
pub fn log_sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        -(-x).exp().ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

impl Tape {
    /// A fresh, empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Forget every recorded node and sparse operand, keeping their
    /// buffers on the tape's free list for the next recording (see the
    /// module docs). Node ids from before the reset are invalid.
    pub fn reset(&mut self) {
        // Last in, first out: the backward sweep ends on the first
        // nodes, and the next recording starts there.
        for node in self.nodes.drain(..).rev() {
            if node.pooled {
                self.free.put(node.value);
            }
            if let Op::GatherRows(_, indices) = node.op {
                if indices.capacity() > 0 {
                    self.free.indices.push(indices);
                }
            }
        }
        self.sparses.clear();
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this tape.
    pub fn value(&self, id: NodeId) -> &Matrix {
        &self.nodes[id.0].value
    }

    /// Register an input (leaf) node; gradients flow into leaves. The
    /// buffer is dropped with the node on [`Tape::reset`].
    pub fn leaf(&mut self, value: Matrix) -> NodeId {
        self.nodes.push(Node { value, op: Op::Leaf, pooled: false });
        NodeId(self.nodes.len() - 1)
    }

    /// Register a copy of `value` as a leaf, in a buffer from the free
    /// list — the leaf a re-recorded tape uses for its parameters and
    /// features.
    pub fn leaf_copy(&mut self, value: &Matrix) -> NodeId {
        let v = self.free.collect(value.rows(), value.cols(), value.as_slice().iter().copied());
        self.push(v, Op::Leaf)
    }

    /// Register a constant sparse operand for [`Tape::spmm`].
    ///
    /// Accepts an owned [`SparseMatrix`] or an `Arc<SparseMatrix>`.
    /// Callers that record many tapes over the same operator (the
    /// trainer re-records every epoch) should pass a shared `Arc` so
    /// the operator's cached CSR views are built once per graph and
    /// reused across every GRU step of every epoch.
    pub fn sparse(&mut self, s: impl Into<Arc<SparseMatrix>>) -> SparseId {
        self.sparses.push(s.into());
        SparseId(self.sparses.len() - 1)
    }

    /// `a · b`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let mut v = self.free.zeros(av.rows(), bv.cols());
        av.matmul_acc(bv, &mut v);
        self.push(v, Op::MatMul(a, b))
    }

    /// `S · b` with constant sparse `S` (message aggregation).
    pub fn spmm(&mut self, s: SparseId, b: NodeId) -> NodeId {
        let (sv, bv) = (&self.sparses[s.0], &self.nodes[b.0].value);
        let mut v = self.free.zeros(sv.rows(), bv.cols());
        sv.matmul_dense_acc(bv, &mut v);
        self.push(v, Op::SpMm(s, b))
    }

    /// `a + b` (same shape).
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_with(a, b, |x, y| x + y);
        self.push(v, Op::Add(a, b))
    }

    /// `a + 1·rowᵀ`: broadcast a `1 × d` bias over the rows of `a`.
    ///
    /// # Panics
    ///
    /// Panics unless `row` is `1 × a.cols()`.
    pub fn add_row(&mut self, a: NodeId, row: NodeId) -> NodeId {
        let (base, bias) = (&self.nodes[a.0].value, &self.nodes[row.0].value);
        let (ar, ac) = base.shape();
        assert_eq!(bias.shape(), (1, ac), "bias must be 1 × cols");
        let bias = bias.as_slice();
        let v = self.free.build(ar, ac, |data| {
            for r in base.as_slice().chunks_exact(ac.max(1)) {
                data.extend(r.iter().zip(bias).map(|(&x, &b)| x + b));
            }
        });
        self.push(v, Op::AddRow(a, row))
    }

    /// `a − b`.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_with(a, b, |x, y| x - y);
        self.push(v, Op::Sub(a, b))
    }

    /// Hadamard product `a ⊙ b`.
    pub fn mul_elem(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let v = self.zip_with(a, b, |x, y| x * y);
        self.push(v, Op::MulElem(a, b))
    }

    /// `k · a`.
    pub fn scale(&mut self, a: NodeId, k: f64) -> NodeId {
        let v = self.scaled(a, k);
        self.push(v, Op::Scale(a, k))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_par(a, sigmoid);
        self.push(v, Op::Sigmoid(a))
    }

    /// Element-wise `tanh`.
    pub fn tanh(&mut self, a: NodeId) -> NodeId {
        let v = self.map_par(a, f64::tanh);
        self.push(v, Op::Tanh(a))
    }

    /// Element-wise `log σ` (stable; the building block of Eq. 2).
    pub fn log_sigmoid(&mut self, a: NodeId) -> NodeId {
        let v = self.map_par(a, log_sigmoid);
        self.push(v, Op::LogSigmoid(a))
    }

    /// `−a`, computed as `a · −1` (which keeps a NaN's sign bit).
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        let v = self.scaled(a, -1.0);
        self.push(v, Op::Neg(a))
    }

    /// Select rows of `a` by index (repeats allowed). The indices are
    /// copied into a buffer from the free list.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn gather_rows<I>(&mut self, a: NodeId, indices: I) -> NodeId
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: ExactSizeIterator,
    {
        let indices = self.free.take_indices(indices.into_iter());
        let src = &self.nodes[a.0].value;
        let v = self.free.build(indices.len(), src.cols(), |data| {
            for &i in &indices {
                data.extend_from_slice(src.row(i));
            }
        });
        self.push(v, Op::GatherRows(a, indices))
    }

    /// Row-wise dot products: `(n × d, n × d) → n × 1`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn row_dot(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.shape(), bv.shape(), "row_dot shape mismatch");
        let items = (0..av.rows()).map(|r| dot(av.row(r), bv.row(r)));
        let v = self.free.collect(av.rows(), 1, items);
        self.push(v, Op::RowDot(a, b))
    }

    /// Sum of all elements: `→ 1 × 1`.
    pub fn sum(&mut self, a: NodeId) -> NodeId {
        let total = self.nodes[a.0].value.sum();
        let v = self.free.collect(1, 1, iter::once(total));
        self.push(v, Op::Sum(a))
    }

    /// Reverse sweep from `loss` (normally a `1 × 1` node); returns the
    /// gradient of `loss.sum()` with respect to every leaf (see
    /// [`Gradients`]).
    pub fn backward(&mut self, loss: NodeId) -> Gradients {
        let mut grads = Gradients::default();
        self.backward_into(loss, &mut grads);
        grads
    }

    /// [`Tape::backward`] into a reused gradient store: the buffers
    /// `grads` holds from an earlier sweep go to the free list, then the
    /// sweep refills it in place.
    pub fn backward_into(&mut self, loss: NodeId, grads: &mut Gradients) {
        let Tape { nodes, sparses, free } = self;
        for g in grads.grads.drain(..).flatten() {
            free.put(g);
        }
        grads.grads.resize_with(nodes.len(), || None);
        let (r, c) = nodes[loss.0].value.shape();
        grads.grads[loss.0] = Some(free.collect(r, c, iter::repeat_n(1.0, r * c)));

        let mut sweep = Sweep { nodes, sparses, free, grads: &mut grads.grads };
        for i in (0..=loss.0).rev() {
            let Some(g) = sweep.grads[i].take() else { continue };
            sweep.grads[i] = sweep.accumulate(i, g);
        }
    }

    fn push(&mut self, value: Matrix, op: Op) -> NodeId {
        self.nodes.push(Node { value, op, pooled: true });
        NodeId(self.nodes.len() - 1)
    }

    fn zip_with(&mut self, a: NodeId, b: NodeId, f: impl Fn(f64, f64) -> f64) -> Matrix {
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        assert_eq!(av.shape(), bv.shape(), "element-wise op shape mismatch");
        let items = av.as_slice().iter().zip(bv.as_slice()).map(|(&x, &y)| f(x, y));
        self.free.collect(av.rows(), av.cols(), items)
    }

    fn scaled(&mut self, a: NodeId, k: f64) -> Matrix {
        let av = &self.nodes[a.0].value;
        self.free.collect(av.rows(), av.cols(), av.as_slice().iter().map(|&x| x * k))
    }

    fn map_par(&mut self, a: NodeId, f: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let av = &self.nodes[a.0].value;
        let mut v = self.free.zeros(av.rows(), av.cols());
        av.map_par_into(&mut v, f);
        v
    }
}

/// One reverse sweep: the recorded nodes, the free list, and the
/// gradient slots being filled.
struct Sweep<'t> {
    nodes: &'t [Node],
    sparses: &'t [Arc<SparseMatrix>],
    free: &'t mut FreeList,
    grads: &'t mut [Option<Matrix>],
}

impl Sweep<'_> {
    /// Add `delta` into `id`'s slot; the first contribution is stored
    /// as is.
    fn add(&mut self, id: NodeId, delta: Matrix) {
        match &mut self.grads[id.0] {
            Some(existing) => {
                existing.add_assign(&delta);
                self.free.put(delta);
            }
            slot @ None => *slot = Some(delta),
        }
    }

    /// Add `g` into `id`'s slot, copying it when the slot is empty.
    fn add_copy(&mut self, id: NodeId, g: &Matrix) {
        match &mut self.grads[id.0] {
            Some(existing) => existing.add_assign(g),
            slot @ None => {
                *slot = Some(self.free.collect(g.rows(), g.cols(), g.as_slice().iter().copied()))
            }
        }
    }

    /// Hand `g` itself on to `id`: moved into an empty slot, added into
    /// an occupied one. Returns `g` unless it was moved.
    fn pass_on(&mut self, id: NodeId, g: Matrix) -> Option<Matrix> {
        match &mut self.grads[id.0] {
            Some(existing) => {
                existing.add_assign(&g);
                Some(g)
            }
            slot @ None => {
                *slot = Some(g);
                None
            }
        }
    }

    /// `k · g` in a buffer from the free list.
    fn scaled(&mut self, g: &Matrix, k: f64) -> Matrix {
        self.free.collect(g.rows(), g.cols(), g.as_slice().iter().map(|&x| x * k))
    }

    /// `g ⊙ m` in a buffer from the free list.
    fn times(&mut self, g: &Matrix, m: &Matrix) -> Matrix {
        assert_eq!(g.shape(), m.shape(), "element-wise op shape mismatch");
        let items = g.as_slice().iter().zip(m.as_slice()).map(|(&x, &y)| x * y);
        self.free.collect(g.rows(), g.cols(), items)
    }

    /// `g ⊙ d(v)` for an activation's derivative `d`, in the parallel
    /// chunks of the forward activation.
    fn times_derivative(&mut self, g: &Matrix, v: &Matrix, d: impl Fn(f64) -> f64 + Sync) -> Matrix {
        let mut out = self.free.zeros(g.rows(), g.cols());
        g.zip_map_par_into(v, &mut out, |gv, x| gv * d(x));
        out
    }

    /// Propagate node `i`'s gradient `g` to its inputs; returns `g` to
    /// keep in the node's slot unless it was handed on.
    fn accumulate(&mut self, i: usize, g: Matrix) -> Option<Matrix> {
        let nodes = self.nodes;
        let value = |id: &NodeId| &nodes[id.0].value;
        match &nodes[i].op {
            Op::Leaf => return Some(g),
            Op::MatMul(a, b) => {
                let (av, bv) = (value(a), value(b));
                // dA = dC·Bᵀ (Bᵀ is a small weight copy), dB = Aᵀ·dC
                // without a transposed copy of the tall A.
                let mut da = self.free.zeros(g.rows(), bv.rows());
                g.matmul_transposed_acc(bv, &mut da);
                self.add(*a, da);
                let mut db = self.free.zeros(av.cols(), g.cols());
                av.transpose_matmul_acc(&g, &mut db);
                self.add(*b, db);
            }
            Op::SpMm(s, b) => {
                let sv = &self.sparses[s.0];
                let mut d = self.free.zeros(sv.cols(), g.cols());
                sv.transpose_matmul_dense_acc(&g, &mut d);
                self.add(*b, d);
            }
            Op::Add(a, b) => {
                self.add_copy(*a, &g);
                return self.pass_on(*b, g);
            }
            Op::AddRow(a, row) => {
                let mut sums = self.free.zeros(1, g.cols());
                g.column_sums_acc(&mut sums);
                let kept = self.pass_on(*a, g);
                self.add(*row, sums);
                return kept;
            }
            Op::Sub(a, b) => {
                let neg = self.scaled(&g, -1.0);
                let kept = self.pass_on(*a, g);
                self.add(*b, neg);
                return kept;
            }
            Op::MulElem(a, b) => {
                let da = self.times(&g, value(b));
                self.add(*a, da);
                let db = self.times(&g, value(a));
                self.add(*b, db);
            }
            Op::Scale(a, k) => {
                let d = self.scaled(&g, *k);
                self.add(*a, d);
            }
            Op::Sigmoid(a) => {
                let d = self.times_derivative(&g, &nodes[i].value, |s| s * (1.0 - s));
                self.add(*a, d);
            }
            Op::Tanh(a) => {
                let d = self.times_derivative(&g, &nodes[i].value, |t| 1.0 - t * t);
                self.add(*a, d);
            }
            Op::LogSigmoid(a) => {
                // d/dx log σ(x) = 1 − σ(x) = σ(−x)
                let d = self.times_derivative(&g, value(a), |x| sigmoid(-x));
                self.add(*a, d);
            }
            Op::Neg(a) => {
                let d = self.scaled(&g, -1.0);
                self.add(*a, d);
            }
            Op::GatherRows(a, indices) => {
                let src = value(a);
                let mut d = self.free.zeros(src.rows(), src.cols());
                for (grow, &idx) in g.as_slice().chunks_exact(src.cols().max(1)).zip(indices) {
                    for (x, &y) in d.row_mut(idx).iter_mut().zip(grow) {
                        *x += y;
                    }
                }
                self.add(*a, d);
            }
            Op::RowDot(a, b) => {
                let (av, bv) = (value(a), value(b));
                let da = self.row_scaled(&g, bv);
                self.add(*a, da);
                let db = self.row_scaled(&g, av);
                self.add(*b, db);
            }
            Op::Sum(a) => {
                let (r, c) = value(a).shape();
                let d = self.free.collect(r, c, iter::repeat_n(g[(0, 0)], r * c));
                self.add(*a, d);
            }
        }
        Some(g)
    }

    /// Row `r` of `m` times `g[r]` (`g` is `m.rows() × 1`).
    fn row_scaled(&mut self, g: &Matrix, m: &Matrix) -> Matrix {
        self.free.build(m.rows(), m.cols(), |data| {
            for (row, &gr) in m.as_slice().chunks_exact(m.cols().max(1)).zip(g.as_slice()) {
                data.extend(row.iter().map(|&x| gr * x));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_sigmoid_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(800.0) <= 1.0 && sigmoid(800.0) > 0.999);
        assert!(sigmoid(-800.0) >= 0.0 && sigmoid(-800.0) < 1e-300);
        assert!(log_sigmoid(800.0).abs() < 1e-12);
        assert!((log_sigmoid(-800.0) + 800.0).abs() < 1e-9);
        assert!(log_sigmoid(0.0) < 0.0);
    }

    #[test]
    fn simple_chain_gradient() {
        // f = sum(sigmoid(2x)); df/dx = 2 σ'(2x)
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[0.3, -0.7]]));
        let sx = t.scale(x, 2.0);
        let sig = t.sigmoid(sx);
        let loss = t.sum(sig);
        let grads = t.backward(loss);
        let gx = grads.grad(x).unwrap();
        for (i, &v) in [0.3, -0.7].iter().enumerate() {
            let s = sigmoid(2.0 * v);
            let expect = 2.0 * s * (1.0 - s);
            assert!((gx[(0, i)] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_gradients() {
        // f = sum(A·B)
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[5.0], &[6.0]]));
        let c = t.matmul(a, b);
        let loss = t.sum(c);
        let grads = t.backward(loss);
        // dA = 1·Bᵀ rows, dB = Aᵀ·1
        assert_eq!(
            grads.grad(a).unwrap(),
            &Matrix::from_rows(&[&[5.0, 6.0], &[5.0, 6.0]])
        );
        assert_eq!(grads.grad(b).unwrap(), &Matrix::from_rows(&[&[4.0], &[6.0]]));
    }

    #[test]
    fn gather_rows_accumulates_repeats() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let gathered = t.gather_rows(a, vec![0, 0, 1]);
        assert_eq!(t.value(gathered).rows(), 3);
        let loss = t.sum(gathered);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(a).unwrap(), &Matrix::from_rows(&[&[2.0], &[1.0]]));
    }

    #[test]
    fn row_dot_gradients() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0, 4.0]]));
        let d = t.row_dot(a, b);
        assert_eq!(t.value(d)[(0, 0)], 11.0);
        let loss = t.sum(d);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(a).unwrap(), &Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(grads.grad(b).unwrap(), &Matrix::from_rows(&[&[1.0, 2.0]]));
    }

    #[test]
    fn spmm_gradient_matches_dense() {
        let s = SparseMatrix::from_triplets(2, 3, vec![(0, 1, 2.0), (1, 2, -1.0), (0, 0, 0.5)]);
        let xval = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);

        let mut t = Tape::new();
        let sid = t.sparse(s.clone());
        let x = t.leaf(xval.clone());
        let y = t.spmm(sid, x);
        let loss = t.sum(y);
        let grads = t.backward(loss);

        // Dense reference: d/dX sum(S·X) = Sᵀ·1
        let ones = Matrix::filled(2, 2, 1.0);
        let expect = s.to_dense().transpose().matmul(&ones);
        assert_eq!(grads.grad(x).unwrap(), &expect);
    }

    #[test]
    fn add_row_broadcast_gradient() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::zeros(3, 2));
        let b = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = t.add_row(a, b);
        assert_eq!(t.value(y)[(2, 1)], 2.0);
        let loss = t.sum(y);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(b).unwrap(), &Matrix::from_rows(&[&[3.0, 3.0]]));
        assert_eq!(grads.grad(a).unwrap(), &Matrix::filled(3, 2, 1.0));
    }

    #[test]
    fn unused_nodes_get_no_gradient() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_rows(&[&[1.0]]));
        let orphan = t.leaf(Matrix::from_rows(&[&[9.0]]));
        let loss = t.sum(x);
        let grads = t.backward(loss);
        assert!(grads.grad(orphan).is_none());
        assert!(grads.grad(x).is_some());
    }

    /// Record every op once: the composite expression of
    /// `finite_difference_gradient_check` over leaves `x`, `p`, `b`.
    fn record_every_op(t: &mut Tape, x: &Matrix, p: &Matrix, b: &Matrix) -> NodeId {
        let s = SparseMatrix::from_triplets(
            3,
            3,
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 0.5)],
        );
        let sid = t.sparse(s);
        let x = t.leaf_copy(x);
        let pn = t.leaf(p.clone());
        let bn = t.leaf_copy(b);
        let xp = t.matmul(x, pn);
        let agg = t.spmm(sid, xp);
        let biased = t.add_row(agg, bn);
        let th = t.tanh(biased);
        let gathered = t.gather_rows(x, vec![1, 2, 0]);
        let gp = t.matmul(gathered, pn);
        let dots = t.row_dot(th, gp);
        let ls = t.log_sigmoid(dots);
        let neg = t.neg(ls);
        let sig = t.sigmoid(neg);
        let sub = t.sub(sig, ls);
        let prod = t.mul_elem(sub, dots);
        let both = t.add(prod, prod);
        let scaled = t.scale(both, 0.7);
        t.sum(scaled)
    }

    /// The bits of every node's value and gradient.
    fn tape_bits(t: &Tape, grads: &Gradients) -> Vec<(Vec<u64>, Option<Vec<u64>>)> {
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        (0..t.len())
            .map(|i| (bits(t.value(NodeId(i))), grads.grad(NodeId(i)).map(bits)))
            .collect()
    }

    #[test]
    fn reset_tape_rerecords_bit_identically() {
        let x = Matrix::from_rows(&[&[0.2, -0.4, 0.1], &[0.5, 0.3, -0.2], &[-0.1, 0.8, 0.6]]);
        let p = Matrix::from_rows(&[&[0.3, -0.2, 0.5], &[0.1, 0.4, -0.6], &[-0.3, 0.2, 0.1]]);
        let b = Matrix::from_rows(&[&[0.05, -0.1, 0.2]]);
        let mut fresh = Tape::new();
        let loss = record_every_op(&mut fresh, &x, &p, &b);
        let want = fresh.backward(loss);
        let want = tape_bits(&fresh, &want);

        // A poisoned step first, as after an injected NaN gradient: every
        // buffer that goes back to the free list carries NaN.
        let mut poisoned = x.clone();
        poisoned[(1, 1)] = f64::NAN;
        let mut t = Tape::new();
        let mut grads = Gradients::default();
        let loss = record_every_op(&mut t, &poisoned, &p, &b);
        t.backward_into(loss, &mut grads);
        assert!(grads.grad(loss).is_some() && !t.value(loss).is_finite());

        for _ in 0..3 {
            t.reset();
            assert!(t.is_empty());
            let loss = record_every_op(&mut t, &x, &p, &b);
            t.backward_into(loss, &mut grads);
            assert_eq!(tape_bits(&t, &grads), want);
        }
    }

    #[test]
    fn first_gradient_contribution_keeps_negative_zero() {
        // d/dx sum(−0·x) is −0.0 everywhere; adding it to a zeroed slot
        // would give +0.0. Also through a recycled tape whose free list
        // holds non-zero buffers.
        let record = |t: &mut Tape| {
            let x = t.leaf_copy(&Matrix::from_rows(&[&[1.5, -2.0]]));
            let y = t.scale(x, -0.0);
            let s = t.sum(y);
            (x, s)
        };
        let mut t = Tape::new();
        let noise = t.leaf_copy(&Matrix::filled(4, 4, 3.0));
        let s = t.sum(noise);
        let _ = t.backward(s);
        for round in 0..2 {
            if round > 0 {
                t.reset();
            }
            let (x, s) = record(&mut t);
            let grads = t.backward(s);
            for v in grads.grad(x).unwrap().as_slice() {
                assert_eq!(v.to_bits(), (-0.0f64).to_bits(), "round {round}: {v}");
            }
        }
    }

    #[test]
    fn free_list_keeps_the_largest_recordings_worth() {
        // A short graph, then a tall one, as multi-graph training does:
        // the tall recording must grow the short one's buffers, not keep
        // both working sets.
        let step = |t: &mut Tape, grads: &mut Gradients, rows: usize| {
            t.reset();
            let x = t.leaf_copy(&Matrix::filled(rows, 3, 0.5));
            let w = t.leaf_copy(&Matrix::filled(3, 3, 0.1));
            let h = t.matmul(x, w);
            let a = t.tanh(h);
            let s = t.sum(a);
            t.backward_into(s, grads);
            t.reset();
            let count = t.free.values.len() + grads.grads.iter().flatten().count();
            let elems: usize = t.free.values.iter().map(Vec::capacity).sum::<usize>()
                + grads.grads.iter().flatten().map(|m| m.as_slice().len()).sum::<usize>();
            (count, elems)
        };
        let (mut t, mut grads) = (Tape::new(), Gradients::default());
        let tall = step(&mut t, &mut grads, 400);
        let (mut t, mut grads) = (Tape::new(), Gradients::default());
        for rows in [300, 400, 300, 400] {
            let held = step(&mut t, &mut grads, rows);
            assert!(held.0 <= tall.0 && held.1 <= tall.1, "{held:?} after {rows} rows, tall alone {tall:?}");
        }
    }

    #[test]
    fn add_hands_its_gradient_on_and_keeps_leaves() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = t.leaf(Matrix::from_rows(&[&[3.0, 4.0]]));
        let s = t.add(a, b);
        let loss = t.sum(s);
        let grads = t.backward(loss);
        assert_eq!(grads.grad(a).unwrap(), &Matrix::filled(1, 2, 1.0));
        assert_eq!(grads.grad(b).unwrap(), &Matrix::filled(1, 2, 1.0));
        assert!(grads.grad(s).is_none(), "the sum's gradient moved to an input");
    }

    /// Central-difference gradient check over a composite expression that    /// Central-difference gradient check over a composite expression that
    /// exercises every op: f(P) = Σ logσ(rowdot(tanh(S·(X·P) + b), g(X)))
    #[test]
    fn finite_difference_gradient_check() {
        let xval = Matrix::from_rows(&[
            &[0.2, -0.4, 0.1],
            &[0.5, 0.3, -0.2],
            &[-0.1, 0.8, 0.6],
        ]);
        let s = SparseMatrix::from_triplets(
            3,
            3,
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0), (0, 2, 0.5)],
        );

        let f = |p: &Matrix, b: &Matrix| -> (f64, Matrix, Matrix) {
            let mut t = Tape::new();
            let sid = t.sparse(s.clone());
            let x = t.leaf(xval.clone());
            let pn = t.leaf(p.clone());
            let bn = t.leaf(b.clone());
            let xp = t.matmul(x, pn);
            let agg = t.spmm(sid, xp);
            let biased = t.add_row(agg, bn);
            let th = t.tanh(biased);
            let gathered = t.gather_rows(x, vec![1, 2, 0]);
            let gp = t.matmul(gathered, pn);
            let dots = t.row_dot(th, gp);
            let ls = t.log_sigmoid(dots);
            let neg = t.neg(ls);
            let sig = t.sigmoid(neg);
            let sub = t.sub(sig, ls);
            let prod = t.mul_elem(sub, dots);
            let scaled = t.scale(prod, 0.7);
            let loss = t.sum(scaled);
            let grads = t.backward(loss);
            (
                t.value(loss)[(0, 0)],
                grads.grad(pn).unwrap().clone(),
                grads.grad(bn).unwrap().clone(),
            )
        };

        let p0 = Matrix::from_rows(&[&[0.3, -0.2, 0.5], &[0.1, 0.4, -0.6], &[-0.3, 0.2, 0.1]]);
        let b0 = Matrix::from_rows(&[&[0.05, -0.1, 0.2]]);
        let (_, gp, gb) = f(&p0, &b0);

        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..3 {
                let mut pp = p0.clone();
                pp[(r, c)] += eps;
                let mut pm = p0.clone();
                pm[(r, c)] -= eps;
                let (fp, _, _) = f(&pp, &b0);
                let (fm, _, _) = f(&pm, &b0);
                let numeric = (fp - fm) / (2.0 * eps);
                assert!(
                    (numeric - gp[(r, c)]).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "dP[{r},{c}]: numeric {numeric} vs autograd {}",
                    gp[(r, c)]
                );
            }
        }
        for c in 0..3 {
            let mut bp = b0.clone();
            bp[(0, c)] += eps;
            let mut bm = b0.clone();
            bm[(0, c)] -= eps;
            let (fp, _, _) = f(&p0, &bp);
            let (fm, _, _) = f(&p0, &bm);
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gb[(0, c)]).abs() < 1e-6 * (1.0 + numeric.abs()),
                "db[{c}]: numeric {numeric} vs autograd {}",
                gb[(0, c)]
            );
        }
    }
}
