//! A miniature computation-graph runtime — the TensorFlow 2.2 stand-in.
//!
//! The baseline DeePMD-kit drives every force evaluation through a TensorFlow
//! session. The paper measured a fixed ≈4 ms overhead per `session.run`
//! (kernel scheduling, memory management) that dominates once each thread
//! only evaluates one or two atoms, plus redundant kernels materialized by
//! the autodiff graph. This module reproduces that execution model:
//!
//! * a [`Graph`] of dataflow nodes built ahead of time;
//! * [`Graph::gradients`] — reverse-mode autodiff that *appends gradient
//!   nodes to the graph*, faithfully materializing the recomputation
//!   (e.g. `ActGrad` re-evaluates the activation the forward pass already
//!   computed) that the paper's kernel-trimming removes;
//! * a [`Session`] that interprets the graph, allocating every intermediate
//!   per run (the dynamic-allocation behaviour a preallocated pipeline
//!   eliminates) and accounting a fixed per-run scheduling overhead in its
//!   [`RunStats`].
//!
//! The overhead is *accounted*, not slept: `RunStats::framework_overhead_ns`
//! feeds the performance model. The functional outputs are bit-exact f64
//! results, and because the gradients come from generic reverse-mode
//! autodiff they are a derivation of the forces independent of the
//! hand-written backward passes in [`crate::layers`] and `deepmd::model`
//! (`deepmd::graph_exec` builds the whole Deep Potential this way).

use std::collections::BTreeMap;

use crate::activation::Activation;
use crate::gemm::naive;
use crate::matrix::Matrix;

/// Fixed per-`Session::run` framework overhead, in nanoseconds.
///
/// The paper (§III-B1) reports "a fixed overhead of approximately
/// 4 milliseconds per session run" in TensorFlow 2.2 on A64FX.
pub const SESSION_FIXED_OVERHEAD_NS: u64 = 4_000_000;

/// Handle to a node in a [`Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Dataflow operations supported by the runtime.
#[derive(Clone, Debug)]
pub enum Op {
    /// Named placeholder fed at run time.
    Input(String),
    /// Constant parameter baked into the graph.
    Param(Matrix),
    /// `A·B`.
    MatMulNN(NodeId, NodeId),
    /// `A·Bᵀ` (B stored `n×k`) — the form the paper converts to NN.
    MatMulNT(NodeId, NodeId),
    /// `Aᵀ·B` (A stored `k×m`).
    MatMulTN(NodeId, NodeId),
    /// Element-wise sum (same shape).
    Add(NodeId, NodeId),
    /// Row-broadcast bias add: `X + 1·b` with `b: 1×n`.
    AddBias(NodeId, NodeId),
    /// Column sums producing `1×n`.
    ColSum(NodeId),
    /// Element-wise product (same shape).
    Mul(NodeId, NodeId),
    /// Multiply by a scalar constant.
    Scale(NodeId, f64),
    /// Element-wise activation.
    Activation(NodeId, Activation),
    /// Element-wise activation *derivative* (a recompute node: autodiff
    /// re-evaluates the nonlinearity instead of caching it).
    ActGrad(NodeId, Activation),
    /// Sum of all elements, producing `1×1`.
    SumAll(NodeId),
    /// Broadcast a `1×1` to the shape of the second operand.
    BroadcastLike(NodeId, NodeId),
    /// Horizontal concatenation (same row count).
    ConcatCols(NodeId, NodeId),
    /// Column slice `[lo, hi)`.
    SliceCols(NodeId, usize, usize),
    /// Matrix transpose.
    Transpose(NodeId),
    /// Reinterpret the buffer as `rows × cols` (element count must match).
    Reshape(NodeId, usize, usize),
    /// Zero-pad a column slice back into the shape of the 4th operand:
    /// `PadCols(g, lo, hi, like)` scatters `g` into columns `[lo, hi)` of a
    /// zero matrix shaped like `like` (the gradient of `SliceCols`).
    PadCols(NodeId, usize, usize, NodeId),
    /// Reshape to the shape of the second operand (gradient of `Reshape`).
    ReshapeLike(NodeId, NodeId),
}

/// A computation graph: nodes are appended in topological order (operands
/// must already exist), so evaluation is a single forward sweep.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<Op>,
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Append a node and get its handle.
    pub fn add(&mut self, op: Op) -> NodeId {
        let check = |id: &NodeId| assert!(id.0 < self.nodes.len(), "operand must precede node");
        match &op {
            Op::MatMulNN(a, b)
            | Op::MatMulNT(a, b)
            | Op::MatMulTN(a, b)
            | Op::Add(a, b)
            | Op::AddBias(a, b)
            | Op::Mul(a, b)
            | Op::BroadcastLike(a, b)
            | Op::ConcatCols(a, b) => {
                check(a);
                check(b);
            }
            Op::ColSum(a)
            | Op::Scale(a, _)
            | Op::Activation(a, _)
            | Op::ActGrad(a, _)
            | Op::SumAll(a)
            | Op::SliceCols(a, _, _)
            | Op::Transpose(a)
            | Op::Reshape(a, _, _) => check(a),
            Op::PadCols(a, _, _, like) => {
                check(a);
                check(like);
            }
            Op::ReshapeLike(a, like) => {
                check(a);
                check(like);
            }
            Op::Input(_) | Op::Param(_) => {}
        }
        self.nodes.push(op);
        NodeId(self.nodes.len() - 1)
    }

    /// Convenience: placeholder input.
    pub fn input(&mut self, name: &str) -> NodeId {
        self.add(Op::Input(name.to_string()))
    }

    /// Convenience: constant parameter.
    pub fn param(&mut self, m: Matrix) -> NodeId {
        self.add(Op::Param(m))
    }

    /// Number of nodes in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of *compute* kernels (everything except inputs/params).
    pub fn kernel_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|op| !matches!(op, Op::Input(_) | Op::Param(_)))
            .count()
    }

    /// Statically derivable column count of a node (None when it depends on
    /// a runtime feed). Used by the `ConcatCols` gradient to split widths.
    pub fn static_cols(&self, id: NodeId) -> Option<usize> {
        match &self.nodes[id.0] {
            Op::Input(_) => None,
            Op::Param(m) => Some(m.cols()),
            Op::MatMulNN(_, b) => self.static_cols(*b),
            Op::MatMulNT(_, b) => self.static_rows(*b),
            Op::MatMulTN(_, b) => self.static_cols(*b),
            Op::Add(a, b) | Op::Mul(a, b) => self.static_cols(*a).or(self.static_cols(*b)),
            Op::AddBias(x, b) => self.static_cols(*x).or(self.static_cols(*b)),
            Op::ColSum(x) | Op::Scale(x, _) | Op::Activation(x, _) | Op::ActGrad(x, _) => {
                self.static_cols(*x)
            }
            Op::SumAll(_) => Some(1),
            Op::BroadcastLike(_, x) => self.static_cols(*x),
            Op::ConcatCols(a, b) => Some(self.static_cols(*a)? + self.static_cols(*b)?),
            Op::SliceCols(_, lo, hi) => Some(hi - lo),
            Op::Transpose(x) => self.static_rows(*x),
            Op::Reshape(_, _, cols) => Some(*cols),
            Op::PadCols(_, _, _, like) => self.static_cols(*like),
            Op::ReshapeLike(_, like) => self.static_cols(*like),
        }
    }

    /// Statically derivable row count of a node.
    pub fn static_rows(&self, id: NodeId) -> Option<usize> {
        match &self.nodes[id.0] {
            Op::Input(_) => None,
            Op::Param(m) => Some(m.rows()),
            Op::MatMulNN(a, _) | Op::MatMulNT(a, _) => self.static_rows(*a),
            Op::MatMulTN(a, _) => self.static_cols(*a),
            Op::Add(a, b) | Op::Mul(a, b) => self.static_rows(*a).or(self.static_rows(*b)),
            Op::AddBias(x, _) => self.static_rows(*x),
            Op::ColSum(_) | Op::SumAll(_) => Some(1),
            Op::Scale(x, _) | Op::Activation(x, _) | Op::ActGrad(x, _) => self.static_rows(*x),
            Op::BroadcastLike(_, x) => self.static_rows(*x),
            Op::ConcatCols(a, b) => self.static_rows(*a).or(self.static_rows(*b)),
            Op::SliceCols(x, _, _) => self.static_rows(*x),
            Op::Transpose(x) => self.static_cols(*x),
            Op::Reshape(_, rows, _) => Some(*rows),
            Op::PadCols(_, _, _, like) => self.static_rows(*like),
            Op::ReshapeLike(_, like) => self.static_rows(*like),
        }
    }

    /// Reverse-mode autodiff: append gradient nodes for `d(loss)/d(wrt)`.
    ///
    /// `loss` must evaluate to `1×1`. Returns one gradient node per entry of
    /// `wrt`. Like TF's `tf.gradients`, this *grows the graph*: derivative
    /// recomputation (`ActGrad`) and NT matmuls are materialized as fresh
    /// kernels rather than reusing forward intermediates — the redundancy the
    /// paper's TensorFlow removal eliminates.
    ///
    /// # Panics
    /// On ops without a registered gradient (`ConcatCols`/`SliceCols`/
    /// `Transpose` are forward-only conveniences here).
    pub fn gradients(&mut self, loss: NodeId, wrt: &[NodeId]) -> Vec<NodeId> {
        let n = self.nodes.len();
        assert!(loss.0 < n);
        // grad[i] accumulates dL/d(node i) as a node id.
        let mut grad: Vec<Option<NodeId>> = vec![None; n];
        let one = self.add(Op::Param(Matrix::from_vec(1, 1, vec![1.0])));
        grad[loss.0] = Some(one);

        // Walk original nodes in reverse topological (= reverse insertion) order.
        for i in (0..n).rev() {
            let Some(g) = grad[i] else { continue };
            // Clone to appease the borrow checker while we append nodes.
            let op = self.nodes[i].clone();
            let accum = |slf: &mut Graph, grad: &mut Vec<Option<NodeId>>, target: NodeId, contrib: NodeId| {
                let entry = &mut grad[target.0];
                *entry = Some(match *entry {
                    None => contrib,
                    Some(prev) => slf.add(Op::Add(prev, contrib)),
                });
            };
            match op {
                Op::Input(_) | Op::Param(_) => {}
                Op::MatMulNN(a, b) => {
                    // dA = G·Bᵀ ; dB = Aᵀ·G
                    let da = self.add(Op::MatMulNT(g, b));
                    let db = self.add(Op::MatMulTN(a, g));
                    accum(self, &mut grad, a, da);
                    accum(self, &mut grad, b, db);
                }
                Op::MatMulNT(a, b) => {
                    // C = A·Bᵀ: dA = G·B ; dB = Gᵀ·A
                    let da = self.add(Op::MatMulNN(g, b));
                    let db = self.add(Op::MatMulTN(g, a));
                    accum(self, &mut grad, a, da);
                    accum(self, &mut grad, b, db);
                }
                Op::MatMulTN(a, b) => {
                    // C = Aᵀ·B with A: k×m, B: k×n, G: m×n.
                    // dA = B·Gᵀ (k×m) ; dB = A·G (k×n).
                    let da = self.add(Op::MatMulNT(b, g));
                    let db = self.add(Op::MatMulNN(a, g));
                    accum(self, &mut grad, a, da);
                    accum(self, &mut grad, b, db);
                }
                Op::Add(a, b) => {
                    accum(self, &mut grad, a, g);
                    accum(self, &mut grad, b, g);
                }
                Op::AddBias(x, b) => {
                    accum(self, &mut grad, x, g);
                    let db = self.add(Op::ColSum(g));
                    accum(self, &mut grad, b, db);
                }
                Op::Mul(a, b) => {
                    let da = self.add(Op::Mul(g, b));
                    let db = self.add(Op::Mul(g, a));
                    accum(self, &mut grad, a, da);
                    accum(self, &mut grad, b, db);
                }
                Op::Scale(x, s) => {
                    let dx = self.add(Op::Scale(g, s));
                    accum(self, &mut grad, x, dx);
                }
                Op::Activation(x, act) => {
                    // Redundant recompute: derivative from the *input*, even
                    // though the forward value exists.
                    let d = self.add(Op::ActGrad(x, act));
                    let dx = self.add(Op::Mul(g, d));
                    accum(self, &mut grad, x, dx);
                }
                Op::SumAll(x) => {
                    let dx = self.add(Op::BroadcastLike(g, x));
                    accum(self, &mut grad, x, dx);
                }
                Op::ColSum(_) | Op::ActGrad(_, _) | Op::BroadcastLike(_, _) => {
                    panic!("gradient of gradient is not supported by this runtime");
                }
                Op::ConcatCols(a, b) => {
                    // Gradient splits column-wise; widths are recovered at
                    // run time via shape-aware slice nodes, so we need the
                    // operand widths. They are only known for Param/Reshape
                    // operands statically; use SliceColsOfLike semantics by
                    // storing explicit widths when available.
                    let wa = self.static_cols(a).expect("ConcatCols grad needs static width of lhs");
                    let wtotal = wa + self.static_cols(b).expect("ConcatCols grad needs static width of rhs");
                    let da = self.add(Op::SliceCols(g, 0, wa));
                    let db = self.add(Op::SliceCols(g, wa, wtotal));
                    accum(self, &mut grad, a, da);
                    accum(self, &mut grad, b, db);
                }
                Op::SliceCols(x, lo, hi) => {
                    let dx = self.add(Op::PadCols(g, lo, hi, x));
                    accum(self, &mut grad, x, dx);
                }
                Op::Transpose(x) => {
                    let dx = self.add(Op::Transpose(g));
                    accum(self, &mut grad, x, dx);
                }
                Op::Reshape(x, _, _) => {
                    let dx = self.add(Op::ReshapeLike(g, x));
                    accum(self, &mut grad, x, dx);
                }
                Op::PadCols(..) | Op::ReshapeLike(..) => {
                    panic!("gradient of gradient is not supported by this runtime");
                }
            }
        }

        wrt.iter()
            .map(|w| grad[w.0].unwrap_or_else(|| self.add(Op::Param(Matrix::zeros(0, 0)))))
            .collect()
    }
}

/// Statistics from one [`Session::run`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Compute kernels launched (excludes inputs/params).
    pub kernels_launched: u64,
    /// Intermediate tensors allocated during the run.
    pub tensors_allocated: u64,
    /// Modeled fixed framework overhead for this run, in nanoseconds.
    pub framework_overhead_ns: u64,
    /// FLOPs executed by matmul kernels.
    pub matmul_flops: u64,
}

/// A session interprets a [`Graph`], TensorFlow-style.
pub struct Session {
    graph: Graph,
    runs: u64,
    cumulative: RunStats,
}

impl Session {
    /// Wrap a finished graph in a session.
    pub fn new(graph: Graph) -> Self {
        Session { graph, runs: 0, cumulative: RunStats::default() }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of completed runs.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Cumulative statistics over all runs.
    pub fn cumulative_stats(&self) -> RunStats {
        self.cumulative
    }

    /// Execute the graph on `feeds`, returning the requested `fetches` and
    /// the per-run statistics.
    ///
    /// Every intermediate is freshly allocated — deliberately: the direct
    /// executor's preallocated workspace is the optimization under test.
    ///
    /// # Panics
    /// If a required input is missing from `feeds` or shapes are inconsistent.
    pub fn run(
        &mut self,
        feeds: &BTreeMap<String, Matrix>,
        fetches: &[NodeId],
    ) -> (Vec<Matrix>, RunStats) {
        let mut values: Vec<Option<Matrix>> = vec![None; self.graph.nodes.len()];
        let mut stats = RunStats { framework_overhead_ns: SESSION_FIXED_OVERHEAD_NS, ..Default::default() };

        for (i, op) in self.graph.nodes.iter().enumerate() {
            let val = |id: &NodeId| -> &Matrix { values[id.0].as_ref().expect("topological order") };
            let out = match op {
                Op::Input(name) => feeds
                    .get(name)
                    .unwrap_or_else(|| panic!("missing feed '{name}'"))
                    .clone(),
                Op::Param(m) => m.clone(),
                Op::MatMulNN(a, b) => {
                    let (a, b) = (val(a), val(b));
                    let (m, k, n) = (a.rows(), a.cols(), b.cols());
                    assert_eq!(k, b.rows(), "NN inner dim");
                    let mut c = Matrix::zeros(m, n);
                    naive::gemm_nn_f64(m, n, k, a.as_slice(), b.as_slice(), c.as_mut_slice());
                    stats.matmul_flops += crate::gemm::flops(m, n, k);
                    c
                }
                Op::MatMulNT(a, b) => {
                    let (a, b) = (val(a), val(b));
                    let (m, k, n) = (a.rows(), a.cols(), b.rows());
                    assert_eq!(k, b.cols(), "NT inner dim");
                    let mut c = Matrix::zeros(m, n);
                    naive::gemm_nt_f64(m, n, k, a.as_slice(), b.as_slice(), c.as_mut_slice());
                    stats.matmul_flops += crate::gemm::flops(m, n, k);
                    c
                }
                Op::MatMulTN(a, b) => {
                    let (a, b) = (val(a), val(b));
                    // A is k×m stored, result is m×n.
                    let (k, m, n) = (a.rows(), a.cols(), b.cols());
                    assert_eq!(k, b.rows(), "TN inner dim");
                    let at = a.transpose();
                    let mut c = Matrix::zeros(m, n);
                    naive::gemm_nn_f64(m, n, k, at.as_slice(), b.as_slice(), c.as_mut_slice());
                    stats.matmul_flops += crate::gemm::flops(m, n, k);
                    stats.tensors_allocated += 1; // the explicit transpose temp
                    c
                }
                Op::Add(a, b) => {
                    let (a, b) = (val(a), val(b));
                    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
                    let mut c = a.clone();
                    for (x, &y) in c.as_mut_slice().iter_mut().zip(b.as_slice()) {
                        *x += y;
                    }
                    c
                }
                Op::AddBias(x, b) => {
                    let (x, b) = (val(x), val(b));
                    assert_eq!(b.rows(), 1);
                    assert_eq!(b.cols(), x.cols());
                    let mut c = x.clone();
                    for r in 0..c.rows() {
                        for (v, &bb) in c.row_mut(r).iter_mut().zip(b.as_slice()) {
                            *v += bb;
                        }
                    }
                    c
                }
                Op::ColSum(x) => {
                    let x = val(x);
                    let mut c = Matrix::zeros(1, x.cols());
                    for r in 0..x.rows() {
                        for (s, &v) in c.as_mut_slice().iter_mut().zip(x.row(r)) {
                            *s += v;
                        }
                    }
                    c
                }
                Op::Mul(a, b) => {
                    let (a, b) = (val(a), val(b));
                    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
                    let mut c = a.clone();
                    for (x, &y) in c.as_mut_slice().iter_mut().zip(b.as_slice()) {
                        *x *= y;
                    }
                    c
                }
                Op::Scale(x, s) => {
                    let mut c = val(x).clone();
                    for v in c.as_mut_slice() {
                        *v *= s;
                    }
                    c
                }
                Op::Activation(x, act) => {
                    let mut c = val(x).clone();
                    act.apply_slice(c.as_mut_slice());
                    c
                }
                Op::ActGrad(x, act) => {
                    let mut c = val(x).clone();
                    for v in c.as_mut_slice() {
                        *v = act.derivative(*v);
                    }
                    c
                }
                Op::SumAll(x) => {
                    let s: f64 = val(x).as_slice().iter().sum();
                    Matrix::from_vec(1, 1, vec![s])
                }
                Op::BroadcastLike(g, x) => {
                    let gv = val(g);
                    assert_eq!((gv.rows(), gv.cols()), (1, 1));
                    let s = gv[(0, 0)];
                    let x = val(x);
                    Matrix::from_fn(x.rows(), x.cols(), |_, _| s)
                }
                Op::ConcatCols(a, b) => {
                    let (a, b) = (val(a), val(b));
                    assert_eq!(a.rows(), b.rows());
                    let mut c = Matrix::zeros(a.rows(), a.cols() + b.cols());
                    for r in 0..a.rows() {
                        c.row_mut(r)[..a.cols()].copy_from_slice(a.row(r));
                        c.row_mut(r)[a.cols()..].copy_from_slice(b.row(r));
                    }
                    c
                }
                Op::SliceCols(x, lo, hi) => {
                    let x = val(x);
                    assert!(*lo <= *hi && *hi <= x.cols());
                    Matrix::from_fn(x.rows(), hi - lo, |r, c| x[(r, lo + c)])
                }
                Op::Transpose(x) => val(x).transpose(),
                Op::Reshape(x, rows, cols) => {
                    let x = val(x);
                    assert_eq!(x.len(), rows * cols, "reshape element count");
                    Matrix::from_vec(*rows, *cols, x.as_slice().to_vec())
                }
                Op::PadCols(gv, lo, hi, like) => {
                    let g = val(gv);
                    let like = val(like);
                    assert_eq!(g.cols(), hi - lo);
                    assert_eq!(g.rows(), like.rows());
                    let mut out = Matrix::zeros(like.rows(), like.cols());
                    for r in 0..g.rows() {
                        for c in 0..g.cols() {
                            out[(r, lo + c)] = g[(r, c)];
                        }
                    }
                    out
                }
                Op::ReshapeLike(x, like) => {
                    let x = val(x);
                    let like = val(like);
                    assert_eq!(x.len(), like.len(), "reshape-like element count");
                    Matrix::from_vec(like.rows(), like.cols(), x.as_slice().to_vec())
                }
            };
            if !matches!(op, Op::Input(_) | Op::Param(_)) {
                stats.kernels_launched += 1;
                stats.tensors_allocated += 1;
            }
            values[i] = Some(out);
        }

        let outs = fetches
            .iter()
            .map(|f| values[f.0].clone().expect("fetch must be a graph node"))
            .collect();
        self.runs += 1;
        self.cumulative.kernels_launched += stats.kernels_launched;
        self.cumulative.tensors_allocated += stats.tensors_allocated;
        self.cumulative.framework_overhead_ns += stats.framework_overhead_ns;
        self.cumulative.matmul_flops += stats.matmul_flops;
        (outs, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn feeds(pairs: &[(&str, Matrix)]) -> BTreeMap<String, Matrix> {
        pairs.iter().map(|(n, m)| (n.to_string(), m.clone())).collect()
    }

    #[test]
    fn matmul_bias_tanh_pipeline() {
        let mut g = Graph::new();
        let x = g.input("x");
        let w = g.param(Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]));
        let b = g.param(Matrix::from_vec(1, 2, vec![0.5, -0.5]));
        let mm = g.add(Op::MatMulNN(x, w));
        let ab = g.add(Op::AddBias(mm, b));
        let y = g.add(Op::Activation(ab, Activation::Tanh));
        let mut sess = Session::new(g);
        let (out, stats) = sess.run(&feeds(&[("x", Matrix::from_vec(1, 2, vec![0.5, 0.5]))]), &[y]);
        assert!((out[0][(0, 0)] - 1.0f64.tanh()).abs() < 1e-12);
        assert!((out[0][(0, 1)] - 0.0f64.tanh()).abs() < 1e-12);
        assert_eq!(stats.kernels_launched, 3);
        assert_eq!(stats.framework_overhead_ns, SESSION_FIXED_OVERHEAD_NS);
    }

    #[test]
    fn autodiff_matches_finite_difference() {
        // loss = sum(tanh(x·W + b)); check dL/dx and dL/dW.
        let mut rng = StdRng::seed_from_u64(5);
        let wm = Matrix::from_fn(3, 2, |_, _| rng.random_range(-1.0..1.0));
        let bm = Matrix::from_fn(1, 2, |_, _| rng.random_range(-0.2..0.2));
        let xm = Matrix::from_fn(2, 3, |_, _| rng.random_range(-1.0..1.0));

        let mut g = Graph::new();
        let x = g.input("x");
        let w = g.param(wm.clone());
        let b = g.param(bm.clone());
        let mm = g.add(Op::MatMulNN(x, w));
        let ab = g.add(Op::AddBias(mm, b));
        let y = g.add(Op::Activation(ab, Activation::Tanh));
        let loss = g.add(Op::SumAll(y));
        let grads = g.gradients(loss, &[x, w]);
        let mut sess = Session::new(g);

        let (outs, _) = sess.run(&feeds(&[("x", xm.clone())]), &[loss, grads[0], grads[1]]);
        let (dx, dw) = (&outs[1], &outs[2]);

        let h = 1e-6;
        let eval = |sess: &mut Session, x: &Matrix| -> f64 {
            sess.run(&feeds(&[("x", x.clone())]), &[loss]).0[0][(0, 0)]
        };
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = xm.clone();
                xp[(r, c)] += h;
                let mut xn = xm.clone();
                xn[(r, c)] -= h;
                let fd = (eval(&mut sess, &xp) - eval(&mut sess, &xn)) / (2.0 * h);
                assert!((fd - dx[(r, c)]).abs() < 1e-6, "dx ({r},{c})");
            }
        }
        // Weight gradient via direct formula dW = xᵀ·(g ⊙ tanh'(pre)).
        assert_eq!(dw.rows(), 3);
        assert_eq!(dw.cols(), 2);
    }

    #[test]
    fn gradient_graph_adds_redundant_kernels() {
        let mut g = Graph::new();
        let x = g.input("x");
        let w = g.param(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let mm = g.add(Op::MatMulNN(x, w));
        let y = g.add(Op::Activation(mm, Activation::Tanh));
        let loss = g.add(Op::SumAll(y));
        let before = g.kernel_count();
        let _ = g.gradients(loss, &[x]);
        let after = g.kernel_count();
        // Backward must materialize strictly more kernels than forward had —
        // the redundancy the paper's TF removal trims.
        assert!(after > before + 2, "before={before} after={after}");
    }

    #[test]
    fn concat_slice_roundtrip() {
        let mut g = Graph::new();
        let a = g.input("a");
        let b = g.input("b");
        let cat = g.add(Op::ConcatCols(a, b));
        let sl = g.add(Op::SliceCols(cat, 2, 3));
        let mut sess = Session::new(g);
        let am = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        let bm = Matrix::from_vec(1, 2, vec![3.0, 4.0]);
        let (outs, _) = sess.run(&feeds(&[("a", am), ("b", bm)]), &[sl]);
        assert_eq!(outs[0].as_slice(), &[3.0]);
    }

    #[test]
    #[should_panic(expected = "missing feed")]
    fn missing_feed_panics() {
        let mut g = Graph::new();
        let x = g.input("x");
        let mut sess = Session::new(g.clone());
        let _ = sess.run(&BTreeMap::new(), &[x]);
    }

    #[test]
    fn cumulative_stats_accumulate() {
        let mut g = Graph::new();
        let x = g.input("x");
        let s = g.add(Op::SumAll(x));
        let mut sess = Session::new(g);
        let f = feeds(&[("x", Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]))]);
        sess.run(&f, &[s]);
        sess.run(&f, &[s]);
        assert_eq!(sess.runs(), 2);
        assert_eq!(sess.cumulative_stats().framework_overhead_ns, 2 * SESSION_FIXED_OVERHEAD_NS);
    }
}
