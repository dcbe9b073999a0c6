//! Textbook triple-loop GEMM — the reference semantics.
//!
//! Deliberately unoptimized. The f64 forms are the arithmetic of the f64
//! model, the trainer and the graph runtime; the f32 form is the baseline
//! the kernel bench reports speed against.

macro_rules! naive_nn {
    ($name:ident, $t:ty) => {
        /// `C = A·B` with `A: m×k`, `B: k×n`, `C: m×n`, all row-major.
        ///
        /// # Panics
        /// If any slice is shorter than its shape requires.
        pub fn $name(m: usize, n: usize, k: usize, a: &[$t], b: &[$t], c: &mut [$t]) {
            assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
            for i in 0..m {
                for j in 0..n {
                    let mut acc: $t = 0.0;
                    for p in 0..k {
                        acc += a[i * k + p] * b[p * n + j];
                    }
                    c[i * n + j] = acc;
                }
            }
        }
    };
}

naive_nn!(gemm_nn_f64, f64);
naive_nn!(gemm_nn_f32, f32);

/// `C = A·Bᵀ` in f64 with `A: m×k`, `B: n×k` (so `Bᵀ: k×n`), `C: m×n` —
/// the trainer's input-gradient product `dpre · Wᵀ`.
///
/// # Panics
/// If any slice is shorter than its shape requires.
pub fn gemm_nt_f64(m: usize, n: usize, k: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a[i * k + p] * b[j * k + p];
            }
            c[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_checked_2x2() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0f64; 4];
        gemm_nn_f64(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_is_noop() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.5f32, -1.0, 0.5, 3.0];
        let mut c = [0.0f32; 4];
        gemm_nn_f32(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn nt_hand_checked() {
        // A = [1 2], B (2x2 rows are B's rows, we compute A·Bᵀ)
        let a = [1.0, 2.0];
        let b = [3.0, 4.0, 5.0, 6.0]; // rows: [3,4], [5,6]
        let mut c = [0.0f64; 2];
        gemm_nt_f64(1, 2, 2, &a, &b, &mut c);
        assert_eq!(c, [11.0, 17.0]); // [1*3+2*4, 1*5+2*6]
    }

    #[test]
    #[should_panic]
    fn short_buffer_panics() {
        let a = [0.0f64; 3];
        let b = [0.0f64; 4];
        let mut c = [0.0f64; 4];
        gemm_nn_f64(2, 2, 2, &a, &b, &mut c);
    }
}
