//! DP Compress: tabulated embedding nets (paper §II-A, ref [42]).
//!
//! Guo et al. replace the embedding-net MLP with a piecewise fifth-order
//! polynomial table over the scalar input `s(r)`, removing the dominant
//! GEMMs from descriptor construction. We reproduce that: each feature of
//! each embedding net is fitted per interval by a quintic Hermite matched to
//! value, first and second derivative at both knots (the second derivative
//! is sampled by central differences of the exact forward-mode first
//! derivative).

use serde::{Deserialize, Serialize};

use crate::embedding::EmbeddingNet;

/// A compressed (tabulated) embedding net.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CompressedEmbedding {
    /// Lower edge of the table.
    pub s_min: f64,
    /// Upper edge of the table.
    pub s_max: f64,
    /// Number of intervals.
    pub n_intervals: usize,
    /// Feature width M₁.
    pub m1: usize,
    /// Coefficients: `[interval][feature][6]`, ascending powers of the local
    /// coordinate `u ∈ [0, 1]`.
    coeffs: Vec<Vec<[f64; 6]>>,
}

/// Solve a 6×6 linear system by Gaussian elimination with partial pivoting.
#[allow(clippy::needless_range_loop)] // elimination indexes two rows of `a` at once
fn solve6(mut a: [[f64; 6]; 6], mut b: [f64; 6]) -> [f64; 6] {
    for col in 0..6 {
        let piv = (col..6).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap()).unwrap();
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        assert!(d.abs() > 1e-14, "singular Hermite system");
        for r in (col + 1)..6 {
            let f = a[r][col] / d;
            for c in col..6 {
                a[r][c] -= f * a[col][c];
            }
            b[r] -= f * b[col];
        }
    }
    let mut x = [0.0; 6];
    for col in (0..6).rev() {
        let mut acc = b[col];
        for c in (col + 1)..6 {
            acc -= a[col][c] * x[c];
        }
        x[col] = acc / a[col][col];
    }
    x
}

impl CompressedEmbedding {
    /// Tabulate `net` over `[s_min, s_max]` with `n_intervals` pieces.
    pub fn build(net: &EmbeddingNet, s_min: f64, s_max: f64, n_intervals: usize) -> Self {
        assert!(s_max > s_min && n_intervals > 0);
        let m1 = net.m1();
        let dx = (s_max - s_min) / n_intervals as f64;
        let hs = 1e-5 * dx.max(1e-6);

        // Sample value, first derivative (exact forward mode) and second
        // derivative (central difference of the first) at every knot.
        let knots = n_intervals + 1;
        let mut val = vec![vec![0.0; m1]; knots];
        let mut d1 = vec![vec![0.0; m1]; knots];
        let mut d2 = vec![vec![0.0; m1]; knots];
        for k in 0..knots {
            let s = s_min + k as f64 * dx;
            let (v, g) = net.forward_with_grad(s);
            let (_, gp) = net.forward_with_grad(s + hs);
            let (_, gm) = net.forward_with_grad(s - hs);
            for f in 0..m1 {
                val[k][f] = v[f];
                d1[k][f] = g[f];
                d2[k][f] = (gp[f] - gm[f]) / (2.0 * hs);
            }
        }

        // Quintic Hermite per interval in the local coordinate u = (s−s0)/dx:
        // p(u) = Σ c_k u^k matching p, p', p'' at u = 0 and u = 1, with
        // derivatives scaled by dx (p' in u-space = dx · dp/ds).
        let mut coeffs = Vec::with_capacity(n_intervals);
        for i in 0..n_intervals {
            let mut per_feature = Vec::with_capacity(m1);
            for f in 0..m1 {
                // Rows: p(0), p'(0), p''(0), p(1), p'(1), p''(1).
                let a = [
                    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 2.0, 0.0, 0.0, 0.0],
                    [1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
                    [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                    [0.0, 0.0, 2.0, 6.0, 12.0, 20.0],
                ];
                let b = [
                    val[i][f],
                    d1[i][f] * dx,
                    d2[i][f] * dx * dx,
                    val[i + 1][f],
                    d1[i + 1][f] * dx,
                    d2[i + 1][f] * dx * dx,
                ];
                per_feature.push(solve6(a, b));
            }
            coeffs.push(per_feature);
        }
        CompressedEmbedding { s_min, s_max, n_intervals, m1, coeffs }
    }

    /// Evaluate features and their s-derivative at `s` (clamped to the
    /// table range — out-of-range inputs indicate a bad table domain).
    pub fn forward_with_grad(&self, s: f64) -> (Vec<f64>, Vec<f64>) {
        let dx = (self.s_max - self.s_min) / self.n_intervals as f64;
        let s_cl = s.clamp(self.s_min, self.s_max);
        let mut idx = ((s_cl - self.s_min) / dx) as usize;
        if idx >= self.n_intervals {
            idx = self.n_intervals - 1;
        }
        let u = (s_cl - (self.s_min + idx as f64 * dx)) / dx;
        let mut g = vec![0.0; self.m1];
        let mut dg = vec![0.0; self.m1];
        for f in 0..self.m1 {
            let c = &self.coeffs[idx][f];
            // Horner for p(u) and p'(u).
            let mut p = c[5];
            let mut dp = 5.0 * c[5];
            for k in (1..5).rev() {
                p = p * u + c[k];
                dp = dp * u + k as f64 * c[k];
            }
            p = p * u + c[0];
            g[f] = p;
            dg[f] = dp / dx; // back to d/ds
        }
        (g, dg)
    }

    /// Model-file rules for a table serving an `m1`-wide embedding: a
    /// non-empty finite domain, `n_intervals × m1` coefficient rows, all
    /// finite.
    pub(crate) fn check(&self, m1: usize) -> Result<(), String> {
        let domain = self.s_min.is_finite() && self.s_max.is_finite() && self.s_min < self.s_max;
        let shaped = self.m1 == m1
            && self.n_intervals > 0
            && self.coeffs.len() == self.n_intervals
            && self.coeffs.iter().all(|row| row.len() == m1);
        if !(domain && shaped) {
            return Err(format!("widths: not a {m1}-feature table over a non-empty domain"));
        }
        if !self.coeffs.iter().flatten().flatten().all(|c| c.is_finite()) {
            return Err("finite: table holds a non-finite coefficient".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_network_to_high_accuracy() {
        let net = EmbeddingNet::new(&[4, 8], 11);
        let table = CompressedEmbedding::build(&net, 0.0, 2.0, 64);
        let mut worst_v: f64 = 0.0;
        let mut worst_d: f64 = 0.0;
        let mut s = 0.01;
        while s < 1.99 {
            let (v_ref, d_ref) = net.forward_with_grad(s);
            let (v, d) = table.forward_with_grad(s);
            for f in 0..net.m1() {
                worst_v = worst_v.max((v[f] - v_ref[f]).abs());
                worst_d = worst_d.max((d[f] - d_ref[f]).abs());
            }
            s += 0.0173;
        }
        assert!(worst_v < 1e-8, "value error {worst_v}");
        assert!(worst_d < 1e-5, "derivative error {worst_d}");
    }

    #[test]
    fn exact_at_knots() {
        let net = EmbeddingNet::new(&[4, 8], 12);
        let table = CompressedEmbedding::build(&net, 0.0, 1.0, 16);
        for k in 0..=16 {
            let s = k as f64 / 16.0;
            let (v_ref, _) = net.forward_with_grad(s);
            let (v, _) = table.forward_with_grad(s);
            for f in 0..net.m1() {
                assert!((v[f] - v_ref[f]).abs() < 1e-10, "knot {k} feature {f}");
            }
        }
    }

    #[test]
    fn clamps_out_of_range() {
        let net = EmbeddingNet::new(&[4], 13);
        let table = CompressedEmbedding::build(&net, 0.0, 1.0, 8);
        let (lo, _) = table.forward_with_grad(-5.0);
        let (at0, _) = table.forward_with_grad(0.0);
        assert_eq!(lo, at0);
    }

    #[test]
    fn derivative_is_continuous_across_interval_boundaries() {
        let net = EmbeddingNet::new(&[4, 8], 14);
        let table = CompressedEmbedding::build(&net, 0.0, 2.0, 32);
        let knot = 2.0 * 7.0 / 32.0;
        let (_, d_below) = table.forward_with_grad(knot - 1e-9);
        let (_, d_above) = table.forward_with_grad(knot + 1e-9);
        for f in 0..net.m1() {
            assert!((d_below[f] - d_above[f]).abs() < 1e-6, "feature {f}");
        }
    }
}
