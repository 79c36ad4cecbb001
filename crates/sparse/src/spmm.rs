//! Sparse matrix × multiple vectors (SpMM).
//!
//! MPK consumers frequently advance a *block* of vectors (block Krylov,
//! subspace iteration — e.g. the ChASE eigensolver the paper cites). SpMM
//! amortizes each matrix element over `m` vectors: one read of `A[r, c]`
//! feeds `m` multiply-adds, so matrix traffic per vector drops by `m` —
//! the same economics FBMPK exploits across *iterations*, here exploited
//! across *right-hand sides*. Vectors are stored row-major
//! (`x[c * m + v]`), the block analog of the paper's back-to-back layout:
//! all `m` operands gathered per column share cache lines.
//!
//! # Accumulation order
//!
//! Every column of the result is summed exactly as [`crate::spmv::spmv`]
//! sums it: the accumulator starts at `0.0` and adds `A[r, j] * x[j]` in
//! CSR order, one rounded multiply and one rounded add per nonzero, with
//! no FMA and no reassociation. The kernel walks the block in chunks of
//! up to four columns held in a fixed-size register accumulator and
//! may vectorize *across* the columns of a chunk, never *within* one
//! column's sum. Column `v` of `spmm` is therefore bit-identical to
//! `spmv` on that column alone, whatever the block width and however it
//! is chunked — which is why a batched server response equals the one the
//! same request gets on its own.

use crate::Csr;

/// A dense block of `m` vectors of length `n`, stored row-major
/// (`data[i * m + v]` = component `i` of vector `v`) — the interleaved
/// layout that keeps per-row gathers contiguous.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVec {
    data: Vec<f64>,
    n: usize,
    m: usize,
}

impl MultiVec {
    /// Zero block of `m` vectors of length `n`.
    pub fn zeros(n: usize, m: usize) -> Self {
        assert!(m > 0, "need at least one vector");
        MultiVec { data: vec![0.0; n * m], n, m }
    }

    /// Builds from column vectors.
    ///
    /// # Panics
    /// Panics when vectors are empty or ragged.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        assert!(!cols.is_empty(), "need at least one vector");
        let n = cols[0].len();
        let m = cols.len();
        let mut mv = MultiVec::zeros(n, m);
        for (v, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), n, "ragged vector block");
            for (i, &x) in col.iter().enumerate() {
                mv.data[i * m + v] = x;
            }
        }
        mv
    }

    /// Extracts vector `v` as a contiguous `Vec`.
    pub fn column(&self, v: usize) -> Vec<f64> {
        assert!(v < self.m);
        (0..self.n).map(|i| self.data[i * self.m + v]).collect()
    }

    /// Vector length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of vectors.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Component `i` of vector `v`.
    #[inline]
    pub fn get(&self, i: usize, v: usize) -> f64 {
        self.data[i * self.m + v]
    }

    /// Raw interleaved storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Widest column chunk the kernel accumulates in registers; wider blocks
/// are walked as several chunks per row plus a 1–3 column remainder.
const CHUNK: usize = 4;

/// Computes `Y = A X` for a block of interleaved vectors (see the module
/// docs for the per-column accumulation order it keeps).
///
/// # Panics
/// Panics on dimension mismatches.
pub fn spmm(a: &Csr, x: &MultiVec, y: &mut MultiVec) {
    assert_eq!(x.n, a.ncols(), "X row count must equal ncols");
    assert_eq!(y.n, a.nrows(), "Y row count must equal nrows");
    assert_eq!(x.m, y.m, "operand blocks differ in width");
    let m = x.m;
    let full = m - m % CHUNK;
    let (col_idx, values) = (a.col_idx(), a.values());
    for (span, out) in a.row_ptr().windows(2).zip(y.data.chunks_exact_mut(m)) {
        let cols = &col_idx[span[0]..span[1]];
        let vals = &values[span[0]..span[1]];
        for c in (0..full).step_by(CHUNK) {
            row_chunk::<CHUNK>(cols, vals, &x.data, m, c, &mut out[c..]);
        }
        match m - full {
            0 => {}
            1 => row_chunk::<1>(cols, vals, &x.data, m, full, &mut out[full..]),
            2 => row_chunk::<2>(cols, vals, &x.data, m, full, &mut out[full..]),
            _ => row_chunk::<3>(cols, vals, &x.data, m, full, &mut out[full..]),
        }
    }
}

/// One row of `Y = A X` restricted to columns `c..c + W`: each lane of the
/// `[f64; W]` accumulator sums its own column in CSR order.
#[inline(always)]
fn row_chunk<const W: usize>(
    cols: &[u32],
    vals: &[f64],
    x: &[f64],
    m: usize,
    c: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    for (&col, &v) in cols.iter().zip(vals) {
        let base = col as usize * m + c;
        let xs: &[f64; W] = x[base..base + W].try_into().expect("chunk of width W");
        for (a, &xv) in acc.iter_mut().zip(xs) {
            *a += v * xv;
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// Computes the block power `Aᵏ X` by repeated SpMM (each step reads `A`
/// once for all `m` vectors — `m`-fold matrix-traffic amortization over
/// running the scalar MPK per column).
pub fn block_power(a: &Csr, x: &MultiVec, k: usize) -> MultiVec {
    assert_eq!(a.nrows(), a.ncols(), "block power needs a square matrix");
    let mut cur = x.clone();
    let mut nxt = MultiVec::zeros(x.n, x.m);
    for _ in 0..k {
        spmm(a, &cur, &mut nxt);
        std::mem::swap(&mut cur, &mut nxt);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::spmv_alloc;

    fn sample() -> Csr {
        Csr::from_dense(&[
            &[4.0, 1.0, 0.0, 2.0],
            &[1.0, 3.0, 3.0, 0.0],
            &[0.0, 3.0, 5.0, 1.0],
            &[2.0, 0.0, 1.0, 6.0],
        ])
    }

    #[test]
    fn spmm_matches_per_vector_spmv() {
        let a = sample();
        let cols =
            vec![vec![1.0, 0.0, -1.0, 2.0], vec![0.5, 0.5, 0.5, 0.5], vec![3.0, -2.0, 1.0, 0.0]];
        let x = MultiVec::from_columns(&cols);
        let mut y = MultiVec::zeros(4, 3);
        spmm(&a, &x, &mut y);
        for (v, col) in cols.iter().enumerate() {
            assert_eq!(y.column(v), spmv_alloc(&a, col), "vector {v}");
        }
    }

    #[test]
    fn block_power_matches_scalar_powers() {
        let a = sample();
        let cols = vec![vec![1.0, 1.0, 1.0, 1.0], vec![1.0, -1.0, 1.0, -1.0]];
        let x = MultiVec::from_columns(&cols);
        let y = block_power(&a, &x, 3);
        for (v, col) in cols.iter().enumerate() {
            let mut want = col.clone();
            for _ in 0..3 {
                want = spmv_alloc(&a, &want);
            }
            let got = y.column(v);
            for (g, w) in got.iter().zip(&want) {
                assert!((g - w).abs() < 1e-12 * w.abs().max(1.0), "vector {v}");
            }
        }
    }

    #[test]
    fn interleaved_layout_round_trips() {
        let cols = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mv = MultiVec::from_columns(&cols);
        assert_eq!(mv.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(mv.get(1, 0), 2.0);
        assert_eq!(mv.get(0, 1), 3.0);
        assert_eq!(mv.column(1), vec![3.0, 4.0]);
    }

    #[test]
    fn k_zero_block_power_is_identity() {
        let a = sample();
        let x = MultiVec::from_columns(&[vec![1.0, 2.0, 3.0, 4.0]]);
        assert_eq!(block_power(&a, &x, 0), x);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_block_rejected() {
        MultiVec::from_columns(&[vec![1.0, 2.0], vec![1.0]]);
    }
}
