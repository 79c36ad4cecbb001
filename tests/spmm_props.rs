//! Bit-identity of the register-blocked SpMM across block widths.
//!
//! `spmm` walks a block in column chunks of up to four with a 1–3 column
//! remainder, but each column must keep the scalar summation order: start
//! at `0.0`, add `A[r, j] * x[j]` in CSR order. So every column of `spmm`
//! and `block_power` must have exactly the bits of a naive per-column
//! sequential sum, of `spmv`, and of a width-1 run on that column alone, at every
//! width — 1–9 and 16 cover every chunk remainder, one and several full
//! chunks.

use fbmpk_serve::spec::MatrixSpec;
use fbmpk_sparse::spmm::{block_power, spmm, MultiVec};
use fbmpk_sparse::spmv::spmv_alloc;
use fbmpk_sparse::{Coo, Csr};
use proptest::prelude::*;

const WIDTHS: [usize; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16];
const K: usize = 3;

/// `A x` summed row by row in CSR order: the reference order.
fn naive_spmv(a: &Csr, x: &[f64]) -> Vec<f64> {
    (0..a.nrows())
        .map(|r| {
            let mut sum = 0.0;
            for (&c, &v) in a.row_cols(r).iter().zip(a.row_vals(r)) {
                sum += v * x[c as usize];
            }
            sum
        })
        .collect()
}

fn naive_power(a: &Csr, x: &[f64], k: usize) -> Vec<f64> {
    (0..k).fold(x.to_vec(), |cur, _| naive_spmv(a, &cur))
}

/// `m` columns whose entries span many magnitudes and both signs, so a
/// reordered sum would round differently.
fn block(n: usize, m: usize) -> Vec<Vec<f64>> {
    (0..m)
        .map(|v| {
            (0..n)
                .map(|i| {
                    let h = (i as u64 * 2654435761 + v as u64 * 40503 + 17) % 1999;
                    (h as f64 / 999.5 - 1.0) * 10f64.powi((h % 9) as i32 - 4)
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_columns_bit_identical(a: &Csr, name: &str, m: usize) {
    let n = a.nrows();
    let cols = block(n, m);
    let x = MultiVec::from_columns(&cols);
    let mut y = MultiVec::zeros(n, m);
    spmm(a, &x, &mut y);
    let p = block_power(a, &x, K);
    for (v, col) in cols.iter().enumerate() {
        let solo_x = MultiVec::from_columns(std::slice::from_ref(col));
        let mut solo_y = MultiVec::zeros(n, 1);
        spmm(a, &solo_x, &mut solo_y);
        let got = bits(&y.column(v));
        assert_eq!(got, bits(&naive_spmv(a, col)), "{name}: spmm width {m}, column {v}");
        assert_eq!(got, bits(&spmv_alloc(a, col)), "{name}: spmm width {m} vs spmv, column {v}");
        assert_eq!(got, bits(&solo_y.column(0)), "{name}: spmm width {m} vs 1, column {v}");
        let got = bits(&p.column(v));
        assert_eq!(got, bits(&naive_power(a, col, K)), "{name}: block_power width {m}, column {v}");
        assert_eq!(
            got,
            bits(&block_power(a, &solo_x, K).column(0)),
            "{name}: block_power width {m} vs 1, column {v}"
        );
    }
}

/// Rows 0, every fifth row and the last row store nothing.
fn with_empty_rows(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for r in (0..n).filter(|&r| r % 5 != 0 && r != n - 1) {
        for d in [0, 1, 7, 31] {
            let c = (r * 13 + d * 17) % n;
            coo.push(r, c, 1.0 / (1.0 + d as f64) - 0.3 * (r % 3) as f64).unwrap();
        }
    }
    coo.to_csr()
}

#[test]
fn spmm_and_block_power_are_bit_identical_across_widths() {
    let cage =
        fbmpk_gen::cage::cage_like(fbmpk_gen::cage::CageParams { n: 400, neighbors: 18, seed: 4 });
    assert!(!cage.is_symmetric(0.0), "cage_like is the unsymmetric case");
    let empty = with_empty_rows(300);
    assert!((0..empty.nrows()).any(|r| empty.row_nnz(r) == 0), "some rows store nothing");
    let cases = [
        ("stencil", fbmpk_gen::poisson::grid2d_5pt(23, 19)),
        ("banded spec", MatrixSpec::parse("banded:1500:10:200:5").unwrap().build()),
        ("cage_like", cage),
        ("empty rows", empty),
    ];
    for (name, a) in &cases {
        for m in WIDTHS {
            assert_columns_bit_identical(a, name, m);
        }
    }
}

/// Random sparse square matrix, dimension 1..=40, sparse enough that
/// empty rows are common.
fn arb_matrix() -> impl Strategy<Value = Csr> {
    (1usize..=40).prop_flat_map(|n| {
        proptest::collection::vec((0..n, 0..n, -4.0f64..4.0), 0..(2 * n)).prop_map(move |trips| {
            let mut coo = Coo::new(n, n);
            for (r, c, v) in trips {
                coo.push(r, c, v).unwrap();
            }
            coo.to_csr()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_matrices_keep_column_bits_at_any_width(a in arb_matrix(), m in 1usize..=17) {
        let n = a.nrows();
        let cols = block(n, m);
        let x = MultiVec::from_columns(&cols);
        let mut y = MultiVec::zeros(n, m);
        spmm(&a, &x, &mut y);
        let p = block_power(&a, &x, K);
        for (v, col) in cols.iter().enumerate() {
            prop_assert_eq!(bits(&y.column(v)), bits(&naive_spmv(&a, col)));
            prop_assert_eq!(bits(&p.column(v)), bits(&naive_power(&a, col, K)));
        }
    }
}
