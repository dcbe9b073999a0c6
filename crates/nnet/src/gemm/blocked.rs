//! Cache-blocked f32 GEMM — the scalar dispatch class.
//!
//! A classic blocked kernel in portable Rust, i-k-j order over (k, n)
//! blocks with an `MR`-row register tile, standing in for the vendor BLAS
//! (Fugaku BLAS / OpenBLAS) the original DeePMD-kit calls. It runs wherever
//! `dpmd-simd` has no native kernel and whenever `DPMD_FORCE_SCALAR` pins
//! the scalar class.

/// Block edge for the k dimension.
const KC: usize = 256;
/// Block edge for the n dimension.
const NC: usize = 512;
/// Rows of `C` per register tile. 8 rows × 16 f32 lanes fills the vector
/// register file of a 512-bit target without spilling.
const MR: usize = 8;
/// Lanes per fixed-width inner chunk.
const L: usize = 16;

/// `C = A·B` with `A: m×k`, `B: k×n`, `C: m×n`, row-major (overwrite; see
/// [`crate::gemm`] for the output contract).
///
/// Every output element accumulates in globally ascending `p` order with
/// one rounding per multiply and per add (the tile's local accumulators are
/// exact copies in and out), so results are bitwise identical to
/// [`super::naive::gemm_nn_f32`] at every shape — full `MR`-row tiles and
/// the row-at-a-time remainder (all of an `m < MR` call) alike.
///
/// The tile streams each row of `B` against `MR` rows of `C` at once
/// (cutting `B` traffic `MR`-fold versus the row-at-a-time loop), and walks
/// the accumulator row in fixed `L`-wide chunks through array references so
/// LLVM emits straight-line vector code instead of a zipped-iterator chain.
///
/// # Panics
/// If any slice is shorter than its shape requires.
pub fn gemm_nn_f32(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    c[..m * n].fill(0.0);
    let mut acc = [[0.0f32; NC]; MR];
    let mut p0 = 0;
    while p0 < k {
        let pb = KC.min(k - p0);
        let mut j0 = 0;
        while j0 < n {
            let jb = NC.min(n - j0);
            let mut i = 0;
            while i + MR <= m {
                for (r, accr) in acc.iter_mut().enumerate() {
                    accr[..jb]
                        .copy_from_slice(&c[(i + r) * n + j0..(i + r) * n + j0 + jb]);
                }
                for dp in 0..pb {
                    let brow = &b[(p0 + dp) * n + j0..(p0 + dp) * n + j0 + jb];
                    let mut av = [0.0f32; MR];
                    for (r, v) in av.iter_mut().enumerate() {
                        *v = a[(i + r) * k + p0 + dp];
                    }
                    // Main vector body: exact chunks of L lanes.
                    let chunks = jb / L;
                    for ch in 0..chunks {
                        let base = ch * L;
                        let bb: &[f32; L] =
                            (&brow[base..base + L]).try_into().unwrap();
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let cc: &mut [f32; L] =
                                (&mut accr[base..base + L]).try_into().unwrap();
                            for l in 0..L {
                                cc[l] += av[r] * bb[l];
                            }
                        }
                    }
                    // Predicated tail (jb % L columns).
                    for j in chunks * L..jb {
                        for (r, accr) in acc.iter_mut().enumerate() {
                            accr[j] += av[r] * brow[j];
                        }
                    }
                }
                for (r, accr) in acc.iter().enumerate() {
                    c[(i + r) * n + j0..(i + r) * n + j0 + jb]
                        .copy_from_slice(&accr[..jb]);
                }
                i += MR;
            }
            // Remainder rows (m % MR), row at a time.
            while i < m {
                let arow = &a[i * k + p0..i * k + p0 + pb];
                let crow = &mut c[i * n + j0..i * n + j0 + jb];
                for (dp, &av) in arow.iter().enumerate() {
                    let brow = &b[(p0 + dp) * n + j0..(p0 + dp) * n + j0 + jb];
                    for (cv, &bv) in crow.iter_mut().zip(brow) {
                        *cv += av * bv;
                    }
                }
                i += 1;
            }
            j0 += jb;
        }
        p0 += pb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::naive;

    /// Sizes straddling the (k, n) block edges exercise the remainder
    /// handling of every loop level.
    #[test]
    fn blocked_handles_non_multiple_blocks() {
        for &(m, n, k) in &[(4, NC + 3, KC + 5), (1, 2 * NC, 2 * KC + 1), (7, 13, 300), (2 * MR + 3, NC + L + 1, KC + 1)] {
            let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..k * n).map(|i| (i as f32 * 0.11).cos()).collect();
            let mut c_ref = vec![0.0f32; m * n];
            let mut c_blk = vec![f32::NAN; m * n];
            naive::gemm_nn_f32(m, n, k, &a, &b, &mut c_ref);
            gemm_nn_f32(m, n, k, &a, &b, &mut c_blk);
            assert_eq!(c_ref, c_blk, "{m}x{n}x{k} not bitwise naive");
        }
    }
}
