//! Cross-crate integration: the two f64 executions of the fitting net — the
//! TensorFlow-like graph runtime (baseline, generic reverse-mode autodiff)
//! and the layer implementation with its hand-written ("direct") backward
//! pass — must agree numerically, while the graph path exhibits the
//! overhead structure the paper measures.

use std::collections::BTreeMap;

use dpmd_repro::nnet::activation::Activation;
use dpmd_repro::nnet::graph::{Graph, Op, Session, SESSION_FIXED_OVERHEAD_NS};
use dpmd_repro::nnet::init::build_mlp;
use dpmd_repro::nnet::layers::Mlp;
use dpmd_repro::nnet::matrix::Matrix;

/// Build the forward graph of an MLP in the graph runtime (no resnet — the
/// graph path mirrors the baseline's plain dataflow for this test).
fn mlp_graph(mlp: &Mlp) -> (Graph, dpmd_repro::nnet::graph::NodeId, dpmd_repro::nnet::graph::NodeId) {
    let mut g = Graph::new();
    let x = g.input("x");
    let mut cur = x;
    for layer in &mlp.layers {
        let w = g.param(layer.w.clone());
        let b = g.param(Matrix::from_vec(1, layer.b.len(), layer.b.clone()));
        let mm = g.add(Op::MatMulNN(cur, w));
        let ab = g.add(Op::AddBias(mm, b));
        cur = g.add(Op::Activation(ab, layer.act));
    }
    let loss = g.add(Op::SumAll(cur));
    (g, cur, loss)
}

#[test]
fn graph_layers_and_direct_agree_bitwise_on_the_fitting_net_shape() {
    // A fitting-net-shaped MLP (narrow for test speed), no skips.
    let mut mlp = build_mlp(16, &[24, 24, 24], 1, Activation::Tanh, 99);
    for layer in &mut mlp.layers {
        layer.resnet = dpmd_repro::nnet::layers::Resnet::None;
    }
    let x = Matrix::from_fn(2, 16, |r, c| 0.05 * (r as f64 + 1.0) * ((c % 5) as f64 - 2.0));

    // Reference path.
    let reference = mlp.forward_infer(&x);
    // Graph path.
    let (g, out, _) = mlp_graph(&mlp);
    let mut sess = Session::new(g);
    let feeds: BTreeMap<String, Matrix> = [("x".to_string(), x.clone())].into();
    let (outs, stats) = sess.run(&feeds, &[out]);

    for r in 0..2 {
        assert_eq!(reference[(r, 0)], outs[0][(r, 0)], "graph row {r}");
    }
    // The overhead structure the paper measures: a fixed 4 ms per session
    // run on the graph path, and every intermediate freshly allocated.
    assert_eq!(stats.framework_overhead_ns, SESSION_FIXED_OVERHEAD_NS);
    assert!(stats.tensors_allocated > 0, "graph allocates every intermediate");
}

#[test]
fn graph_autodiff_matches_direct_backward() {
    let mut mlp = build_mlp(6, &[10, 10], 1, Activation::Tanh, 123);
    for layer in &mut mlp.layers {
        layer.resnet = dpmd_repro::nnet::layers::Resnet::None;
    }
    let x = Matrix::from_fn(1, 6, |_, c| 0.1 * (c as f64 - 2.5));

    // Graph gradient (the baseline's materialized backward kernels).
    let (mut g, _out, loss) = mlp_graph(&mlp);
    let kernels_fwd = g.kernel_count();
    let grads = g.gradients(loss, &[dpmd_repro::nnet::graph::NodeId(0)]);
    let kernels_total = g.kernel_count();
    assert!(kernels_total > kernels_fwd, "backward adds kernels");
    let mut sess = Session::new(g);
    let feeds: BTreeMap<String, Matrix> = [("x".to_string(), x.clone())].into();
    let (outs, _) = sess.run(&feeds, &[grads[0]]);

    // The layers' own hand-written backward pass.
    let (_, caches) = mlp.forward(&x);
    let (dx, _) = mlp.backward(&caches, &Matrix::from_vec(1, 1, vec![1.0]));

    for c in 0..6 {
        assert!(
            (outs[0][(0, c)] - dx[(0, c)]).abs() < 1e-12,
            "grad[{c}]: graph {} vs layers {}",
            outs[0][(0, c)],
            dx[(0, c)]
        );
    }
}

#[test]
fn session_overhead_dominates_at_strong_scaling_workloads() {
    // One or two atoms per thread: the compute content of a session run is
    // tiny next to the 4 ms framework overhead — the paper's §III-B1
    // motivation for removing TensorFlow.
    let mlp = build_mlp(16, &[24, 24], 1, Activation::Tanh, 7);
    let (g, out, _) = mlp_graph(&mlp);
    let mut sess = Session::new(g);
    let x = Matrix::from_fn(1, 16, |_, c| 0.01 * c as f64);
    let feeds: BTreeMap<String, Matrix> = [("x".to_string(), x)].into();
    let (_, stats) = sess.run(&feeds, &[out]);
    // Even generously assuming 1 ns per FLOP-equivalent kernel work, the
    // fixed overhead exceeds it by orders of magnitude.
    assert!(stats.framework_overhead_ns > 100 * stats.matmul_flops);
}
