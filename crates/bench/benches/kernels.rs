//! Micro/ablation benches for the design choices DESIGN.md calls out:
//! SpMV storage formats (CSR vs SELL-C-σ), ABMC blocking strategies,
//! coloring orderings, and preprocessing stages.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fbmpk_bench::runner::start_vector;
use fbmpk_bench::BenchConfig;
use fbmpk_reorder::{
    coloring::{greedy_coloring, ColoringOrdering},
    graph::Graph,
    Abmc, AbmcParams, BlockingStrategy,
};
use fbmpk_sparse::sellcs::SellCs;
use fbmpk_sparse::spmv::spmv;
use fbmpk_sparse::TriangularSplit;

fn bench_spmv_formats(c: &mut Criterion) {
    let cfg = BenchConfig::smoke();
    let a = fbmpk_gen::suite::suite_entry("pwtk").unwrap().generate(cfg.scale, cfg.seed);
    let n = a.nrows();
    let x = start_vector(n);
    let mut y = vec![0.0; n];
    let mut group = c.benchmark_group("spmv_formats");
    group.sample_size(20);
    group.bench_function("csr", |b| b.iter(|| spmv(&a, &x, &mut y)));
    for (chunk, sigma) in [(8usize, 0usize), (8, 64)] {
        let s = SellCs::from_csr(&a, chunk, sigma);
        group.bench_with_input(
            BenchmarkId::new("sell_c_sigma", format!("C{chunk}_s{sigma}")),
            &s,
            |b, s| b.iter(|| s.spmv(&x, &mut y)),
        );
    }
    group.finish();
}

fn bench_abmc_strategies(c: &mut Criterion) {
    let cfg = BenchConfig::smoke();
    let a = fbmpk_gen::suite::suite_entry("G3_circuit").unwrap().generate(cfg.scale, cfg.seed);
    let mut group = c.benchmark_group("abmc_blocking");
    group.sample_size(10);
    for (label, strategy) in
        [("contiguous", BlockingStrategy::Contiguous), ("aggregated", BlockingStrategy::Aggregated)]
    {
        group.bench_function(label, |b| {
            b.iter(|| {
                std::hint::black_box(Abmc::new(
                    &a,
                    AbmcParams { nblocks: 128, strategy, ..Default::default() },
                ))
            })
        });
    }
    group.finish();
}

fn bench_coloring_orderings(c: &mut Criterion) {
    let cfg = BenchConfig::smoke();
    let a = fbmpk_gen::suite::suite_entry("cage14").unwrap().generate(cfg.scale, cfg.seed);
    let g = Graph::from_matrix(&a);
    let mut group = c.benchmark_group("coloring_orderings");
    group.sample_size(10);
    for (label, ord) in [
        ("natural", ColoringOrdering::Natural),
        ("largest_degree_first", ColoringOrdering::LargestDegreeFirst),
        ("smallest_last", ColoringOrdering::SmallestLast),
    ] {
        group.bench_function(label, |b| b.iter(|| std::hint::black_box(greedy_coloring(&g, ord))));
    }
    group.finish();
}

fn bench_preprocessing(c: &mut Criterion) {
    let cfg = BenchConfig::smoke();
    let a = fbmpk_gen::suite::suite_entry("Serena").unwrap().generate(cfg.scale, cfg.seed);
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    group.bench_function("triangular_split", |b| {
        b.iter(|| std::hint::black_box(TriangularSplit::split(&a).unwrap()))
    });
    group.bench_function("rcm", |b| b.iter(|| std::hint::black_box(fbmpk_reorder::rcm(&a))));
    group.finish();
}

fn bench_symgs_and_spmm(c: &mut Criterion) {
    use fbmpk::{FbmpkOptions, FbmpkPlan};
    use fbmpk_sparse::spmm::{spmm, MultiVec};
    let cfg = BenchConfig::smoke();
    let a = fbmpk_gen::suite::suite_entry("ldoor").unwrap().generate(cfg.scale, cfg.seed);
    let n = a.nrows();
    let mut group = c.benchmark_group("kernels_extra");
    group.sample_size(20);
    // SYMGS sweep vs one SpMV (same traffic shape: L, U, D once each).
    let plan = FbmpkPlan::new(&a, FbmpkOptions::default()).unwrap();
    let b = start_vector(n);
    let mut x = vec![0.0; n];
    group.bench_function("symgs_sweep", |bch| bch.iter(|| plan.symgs_sweep(&b, &mut x)));
    // SpMM at m = 1, 2 (remainder chunks only), 4 (one full chunk) and 8
    // (two) vs 4 sequential SpMVs: matrix-read amortization.
    let cols: Vec<Vec<f64>> = (0..8).map(|_| start_vector(n)).collect();
    for m in [1, 2, 4, 8] {
        let xm = MultiVec::from_columns(&cols[..m]);
        let mut ym = MultiVec::zeros(n, m);
        group.bench_function(format!("spmm_m{m}"), |bch| bch.iter(|| spmm(&a, &xm, &mut ym)));
    }
    let mut y = vec![0.0; n];
    group.bench_function("spmv_x4", |bch| {
        bch.iter(|| {
            for col in &cols[..4] {
                spmv(&a, col, &mut y);
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_spmv_formats,
    bench_abmc_strategies,
    bench_coloring_orderings,
    bench_preprocessing,
    bench_symgs_and_spmm
);
criterion_main!(benches);
