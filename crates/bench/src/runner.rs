//! Experiment implementations — one function per paper table/figure.
//!
//! All timing experiments compare the standard MPK baseline and FBMPK on
//! the same thread pool size and the same synthetic suite; measurement
//! follows the paper's methodology (geometric mean over repetitions,
//! preprocessing excluded — §IV-C).

use crate::BenchConfig;
use fbmpk::{
    probe_llc_bytes, BlockingMode, FbmpkOptions, FbmpkPlan, KernelVariant, LevelBlockPlan,
    ObsOptions, StandardMpk, SyncMode, TuneOptions, TunedPlan, VectorLayout,
};
use fbmpk_gen::suite::SuiteEntry;
use fbmpk_memsim::{
    trace_fbmpk, trace_fbmpk_attributed, trace_level_blocked, trace_standard_mpk, CacheConfig,
    FbmpkTraceAttribution, TracedLayout,
};
use fbmpk_obs::{
    AttributionReport, BlockLedger, CellLedger, Histogram, HwAttributionProbe, HwSample, HwSession,
    MeasuredLedger, Span, SpanKind, TraceBuilder,
};
use fbmpk_reorder::{
    balance_ratio, cut_edges, multilevel_blocks, Abmc, AbmcParams, BlockingStrategy, Graph,
};
use fbmpk_sparse::spmv::spmv;
use fbmpk_sparse::stats::MatrixStats;
use fbmpk_sparse::vecops::rel_err_inf;
use fbmpk_sparse::{Csr, TriangularSplit};
use std::time::Instant;

/// A generated suite input.
pub struct MatrixCase {
    /// The Table II entry this case instantiates.
    pub entry: SuiteEntry,
    /// The generated matrix at the configured scale.
    pub matrix: Csr,
}

/// Generates the full 14-matrix suite at the configured scale.
pub fn load_suite(cfg: &BenchConfig) -> Vec<MatrixCase> {
    fbmpk_gen::paper_suite()
        .into_iter()
        .map(|entry| {
            let matrix = entry.generate(cfg.scale, cfg.seed);
            MatrixCase { entry, matrix }
        })
        .collect()
}

/// Untimed warmup invocations before the measured repetitions of
/// [`time_geomean`] — enough to fault in pages, warm caches/branch
/// predictors, and let frequency scaling settle before the first
/// measurement enters the geomean.
pub const WARMUP_REPS: usize = 2;

/// A timing measurement that could not produce a number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingError {
    /// `reps == 0` was requested — there is no honest value to return,
    /// and silently substituting one (the old behaviour clamped to 1 and
    /// timed anyway) hides a caller bug.
    ZeroReps,
}

impl std::fmt::Display for TimingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimingError::ZeroReps => write!(f, "timing requested with reps = 0"),
        }
    }
}

impl std::error::Error for TimingError {}

/// The result of one timing measurement: the paper's geomean aggregate
/// (§IV-C) *plus* every raw per-rep sample, in measurement order — the
/// perf database persists the samples so later analyses (bootstrap CIs,
/// cross-revision ratio tests) are not limited to one precomputed
/// aggregate.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Geometric mean over [`Timing::samples`].
    pub geomean: f64,
    /// Per-rep wall-clock seconds (each clamped to ≥ 1 ps so a pathological
    /// zero-length measurement cannot poison log-space aggregation).
    pub samples: Vec<f64>,
}

/// Times `reps` invocations of `f` (after [`WARMUP_REPS`] untimed warmup
/// runs) and returns the geomean together with the raw samples.
///
/// # Errors
/// [`TimingError::ZeroReps`] when `reps == 0`.
pub fn time_geomean<F: FnMut()>(mut f: F, reps: usize) -> Result<Timing, TimingError> {
    if reps == 0 {
        return Err(TimingError::ZeroReps);
    }
    for _ in 0..WARMUP_REPS {
        f();
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64().max(1e-12));
    }
    let geomean = crate::report::geomean(&samples);
    Ok(Timing { geomean, samples })
}

/// Experiment-internal shorthand: [`BenchConfig`] clamps `reps` to ≥ 1 at
/// construction, so inside the experiment functions `reps == 0` is
/// unreachable and the error arm would only obscure the measurement code.
fn timed<F: FnMut()>(f: F, reps: usize) -> Timing {
    time_geomean(f, reps).expect("BenchConfig guarantees reps >= 1")
}

/// Deterministic non-trivial start vector.
pub fn start_vector(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + 0.5 * ((i * 2_654_435_761usize) as f64 / usize::MAX as f64)).collect()
}

/// ABMC parameters used by all experiments: the paper's default of 512
/// blocks (clamped so tiny scaled matrices keep ≥ 2 rows per block), with
/// contiguous blocking — on this suite the BFS-aggregated blocking
/// scrambles the generators' already-local row numbering and loses more
/// gather locality than the coloring gains (see the `abmc_blocking`
/// criterion bench for the ablation).
pub fn abmc_params(n: usize) -> AbmcParams {
    AbmcParams {
        nblocks: 512.min(n / 2).max(1),
        strategy: fbmpk_reorder::BlockingStrategy::Contiguous,
        ..Default::default()
    }
}

/// Builds the FBMPK plan configuration the timing experiments use: the
/// serial pipeline (§III-B, no reordering needed) for one thread, the
/// ABMC-colored parallel pipeline (§III-D/E) otherwise.
pub fn fbmpk_options(n: usize, threads: usize, layout: VectorLayout) -> FbmpkOptions {
    if threads == 1 {
        FbmpkOptions { layout, ..Default::default() }
    } else {
        FbmpkOptions {
            nthreads: threads,
            reorder: Some(abmc_params(n)),
            layout,
            ..Default::default()
        }
    }
}

// ---------------------------------------------------------------- table 2

/// One row of Table II (paper values + generated realization).
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Matrix name.
    pub name: String,
    /// Generated dimension.
    pub rows: usize,
    /// Generated nonzero count.
    pub nnz: usize,
    /// Generated mean row density.
    pub nnz_per_row: f64,
    /// Paper dimension.
    pub paper_rows: usize,
    /// Paper `#nnz/N`.
    pub paper_nnz_per_row: f64,
    /// Whether the generated matrix is symmetric.
    pub symmetric: bool,
}

/// Reproduces Table II: the matrix inventory at the configured scale.
pub fn table2(cases: &[MatrixCase]) -> Vec<Table2Row> {
    cases
        .iter()
        .map(|c| {
            let s = MatrixStats::compute(&c.matrix);
            Table2Row {
                name: c.entry.name.to_string(),
                rows: s.nrows,
                nnz: s.nnz,
                nnz_per_row: s.nnz_per_row,
                paper_rows: c.entry.paper_rows,
                paper_nnz_per_row: c.entry.paper_nnz_per_row(),
                symmetric: s.symmetric,
            }
        })
        .collect()
}

// ----------------------------------------------------------------- fig 7

/// One bar of Fig. 7.
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Matrix name.
    pub name: String,
    /// Power `k`.
    pub k: usize,
    /// Baseline (standard MPK) seconds.
    pub t_baseline: f64,
    /// FBMPK seconds.
    pub t_fbmpk: f64,
    /// `t_baseline / t_fbmpk`.
    pub speedup: f64,
    /// Raw per-rep baseline seconds (for the perf database).
    pub samples_baseline: Vec<f64>,
    /// Raw per-rep FBMPK seconds.
    pub samples_fbmpk: Vec<f64>,
    /// Stable fingerprint of the FBMPK plan options (perf-database key).
    pub options_fp: u64,
}

/// Measures FBMPK vs the standard baseline for one matrix and power.
pub fn measure_speedup(cfg: &BenchConfig, case: &MatrixCase, k: usize) -> SpeedupRow {
    let a = &case.matrix;
    let n = a.nrows();
    let x0 = start_vector(n);
    let baseline = StandardMpk::new(a, cfg.threads).expect("square");
    let opts = fbmpk_options(n, cfg.threads, VectorLayout::BackToBack);
    let options_fp = opts.config_fingerprint();
    let plan = FbmpkPlan::new(a, opts).expect("square");
    let baseline_t = timed(|| std::hint::black_box(baseline.power(&x0, k)).truncate(0), cfg.reps);
    let fbmpk_t = timed(|| std::hint::black_box(plan.power(&x0, k)).truncate(0), cfg.reps);
    SpeedupRow {
        name: case.entry.name.to_string(),
        k,
        t_baseline: baseline_t.geomean,
        t_fbmpk: fbmpk_t.geomean,
        speedup: baseline_t.geomean / fbmpk_t.geomean,
        samples_baseline: baseline_t.samples,
        samples_fbmpk: fbmpk_t.samples,
        options_fp,
    }
}

/// Reproduces Fig. 7: speedup of FBMPK over the baseline at `k = 5`.
pub fn fig7(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<SpeedupRow> {
    cases.iter().map(|c| measure_speedup(cfg, c, 5)).collect()
}

/// Reproduces Fig. 8: speedup for `k = 3..=9` per matrix.
pub fn fig8(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<SpeedupRow> {
    let mut rows = Vec::new();
    for c in cases {
        for k in 3..=9 {
            rows.push(measure_speedup(cfg, c, k));
        }
    }
    rows
}

// ----------------------------------------------------------------- fig 9

/// One bar of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Matrix name.
    pub name: String,
    /// Power `k`.
    pub k: usize,
    /// Simulated DRAM bytes, standard MPK.
    pub dram_standard: u64,
    /// Simulated DRAM bytes, FBMPK.
    pub dram_fbmpk: u64,
    /// `dram_fbmpk / dram_standard` (the paper's y-axis).
    pub ratio: f64,
    /// The idealized `(k+1)/2k`.
    pub ideal: f64,
    /// Fraction of FBMPK's DRAM traffic attributed to vector arrays — the
    /// §V-C mechanism behind per-matrix variation.
    pub vector_fraction: f64,
}

/// Picks an LLC size for the replay: the paper's platforms hold roughly
/// 1/30 of the working set in LLC, so scale the simulated cache with the
/// matrix (clamped to [256 KiB, 64 MiB], rounded to a power of two).
pub fn scaled_llc(matrix_bytes: usize) -> CacheConfig {
    let target = (matrix_bytes / 30).clamp(256 << 10, 64 << 20);
    let size = target.next_power_of_two();
    CacheConfig { size_bytes: size, line_bytes: 64, assoc: 16 }
}

/// Reproduces Fig. 9: simulated DRAM traffic ratio for `k = 3, 6, 9`.
pub fn fig9(cases: &[MatrixCase]) -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for c in cases {
        let a = &c.matrix;
        let llc = [scaled_llc(a.nnz() * 12 + 8 * (a.nrows() + 1))];
        for k in [3usize, 6, 9] {
            let std = trace_standard_mpk(a, k, &llc);
            let fb = trace_fbmpk(a, k, TracedLayout::BackToBack, &llc);
            rows.push(Fig9Row {
                name: c.entry.name.to_string(),
                k,
                dram_standard: std.total(),
                dram_fbmpk: fb.total(),
                ratio: fb.total() as f64 / std.total() as f64,
                ideal: fbmpk::model::ideal_ratio(k),
                vector_fraction: fb.vector_fraction(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- fig 10

/// One matrix of Fig. 10: ablation of the two optimizations.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Matrix name.
    pub name: String,
    /// Baseline seconds.
    pub t_baseline: f64,
    /// FB only (split vectors).
    pub speedup_fb: f64,
    /// FB + BtB (interleaved vectors).
    pub speedup_fb_btb: f64,
}

/// Reproduces Fig. 10: baseline vs FB vs FB+BtB at `k = 5`.
pub fn fig10(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<Fig10Row> {
    let k = 5;
    cases
        .iter()
        .map(|c| {
            let a = &c.matrix;
            let n = a.nrows();
            let x0 = start_vector(n);
            let baseline = StandardMpk::new(a, cfg.threads).expect("square");
            let fb = FbmpkPlan::new(a, fbmpk_options(n, cfg.threads, VectorLayout::Split))
                .expect("square");
            let btb = FbmpkPlan::new(a, fbmpk_options(n, cfg.threads, VectorLayout::BackToBack))
                .expect("square");
            let t_baseline =
                timed(|| std::hint::black_box(baseline.power(&x0, k)).truncate(0), cfg.reps)
                    .geomean;
            let t_fb =
                timed(|| std::hint::black_box(fb.power(&x0, k)).truncate(0), cfg.reps).geomean;
            let t_btb =
                timed(|| std::hint::black_box(btb.power(&x0, k)).truncate(0), cfg.reps).geomean;
            Fig10Row {
                name: c.entry.name.to_string(),
                t_baseline,
                speedup_fb: t_baseline / t_fb,
                speedup_fb_btb: t_baseline / t_btb,
            }
        })
        .collect()
}

// --------------------------------------------------------------- table 3

/// One row of Table III.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Matrix name.
    pub name: String,
    /// `t_original / t_abmc` for a single SpMV — the paper's "slowdown"
    /// normalization, where values > 1 mean ABMC *improved* the SpMV.
    pub ratio: f64,
}

/// Reproduces Table III: single-SpMV performance on the ABMC-permuted
/// matrix, normalized to the original ordering.
pub fn table3(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<Table3Row> {
    cases
        .iter()
        .map(|c| {
            let a = &c.matrix;
            let n = a.nrows();
            let abmc = Abmc::new(a, abmc_params(n));
            let b = abmc.apply(a);
            let x = start_vector(n);
            let xp = abmc.permutation().apply_vec_alloc(&x);
            let mut y = vec![0.0; n];
            let t_orig = timed(|| spmv(a, &x, &mut y), cfg.reps).geomean;
            let t_abmc = timed(|| spmv(&b, &xp, &mut y), cfg.reps).geomean;
            Table3Row { name: c.entry.name.to_string(), ratio: t_orig / t_abmc }
        })
        .collect()
}

// --------------------------------------------------------------- table 4

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Matrix name.
    pub name: String,
    /// Plain CSR bytes.
    pub csr_bytes: usize,
    /// Split `L + U + d` bytes.
    pub split_bytes: usize,
    /// `split / csr`.
    pub overhead: f64,
}

/// Reproduces Table IV: storage of the split format vs plain CSR.
pub fn table4(cases: &[MatrixCase]) -> Vec<Table4Row> {
    cases
        .iter()
        .map(|c| {
            let a = &c.matrix;
            let split = TriangularSplit::split(a).expect("square");
            let csr_bytes = TriangularSplit::csr_storage_bytes(a.nrows(), a.nnz());
            let split_bytes = split.storage_bytes();
            Table4Row {
                name: c.entry.name.to_string(),
                csr_bytes,
                split_bytes,
                overhead: split_bytes as f64 / csr_bytes as f64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 11

/// One bar of Fig. 11.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Matrix name.
    pub name: String,
    /// ABMC reorder seconds (one-off).
    pub reorder_seconds: f64,
    /// Single-thread SpMV seconds.
    pub spmv_seconds: f64,
    /// Preprocessing cost expressed in SpMV invocations (the y-axis).
    pub n_spmvs: f64,
}

/// Reproduces Fig. 11: ABMC preprocessing cost normalized to single-thread
/// SpMV invocations.
pub fn fig11(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<Fig11Row> {
    cases
        .iter()
        .map(|c| {
            let a = &c.matrix;
            let n = a.nrows();
            let t0 = Instant::now();
            let abmc = Abmc::new(a, abmc_params(n));
            let _b = abmc.apply(a);
            let reorder_seconds = t0.elapsed().as_secs_f64();
            let x = start_vector(n);
            let mut y = vec![0.0; n];
            let spmv_seconds = timed(|| spmv(a, &x, &mut y), cfg.reps).geomean;
            Fig11Row {
                name: c.entry.name.to_string(),
                reorder_seconds,
                spmv_seconds,
                n_spmvs: reorder_seconds / spmv_seconds,
            }
        })
        .collect()
}

// ---------------------------------------------------------------- fig 12

/// One point of Fig. 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Matrix name.
    pub name: String,
    /// Thread count.
    pub threads: usize,
    /// FBMPK speedup over the *single-threaded baseline MPK* (the paper's
    /// normalization).
    pub speedup: f64,
}

/// Reproduces Fig. 12: scalability at `k = 5` over a thread sweep.
pub fn fig12(cfg: &BenchConfig, cases: &[MatrixCase], threads: &[usize]) -> Vec<Fig12Row> {
    let k = 5;
    let mut rows = Vec::new();
    for c in cases {
        let a = &c.matrix;
        let n = a.nrows();
        let x0 = start_vector(n);
        let serial_baseline = StandardMpk::new(a, 1).expect("square");
        let t_serial =
            timed(|| std::hint::black_box(serial_baseline.power(&x0, k)).truncate(0), cfg.reps)
                .geomean;
        for &t in threads {
            let plan =
                FbmpkPlan::new(a, fbmpk_options(n, t, VectorLayout::BackToBack)).expect("square");
            let tt =
                timed(|| std::hint::black_box(plan.power(&x0, k)).truncate(0), cfg.reps).geomean;
            rows.push(Fig12Row {
                name: c.entry.name.to_string(),
                threads: t,
                speedup: t_serial / tt,
            });
        }
    }
    rows
}

// ------------------------------------------------------------- ablations

/// One point of the block-count ablation (paper §III-D: "The maximum
/// number of elements in each block can be set, with a trade-off between
/// performance and parallelism ... a default of either 512 or 1024").
#[derive(Debug, Clone)]
pub struct BlockAblationRow {
    /// Matrix name.
    pub name: String,
    /// Number of ABMC blocks requested.
    pub nblocks: usize,
    /// Colors produced (barrier count per sweep).
    pub ncolors: usize,
    /// Blocks in the widest color (available parallelism).
    pub max_color_width: usize,
    /// FBMPK seconds at `k = 5`.
    pub t_fbmpk: f64,
    /// Speedup over the baseline at the same thread count.
    pub speedup: f64,
}

/// Sweeps the ABMC block count, measuring the §III-D trade-off: more
/// blocks → more within-color parallelism but more colors/barriers and
/// less intra-block locality.
pub fn ablation_blocks(
    cfg: &BenchConfig,
    case: &MatrixCase,
    counts: &[usize],
) -> Vec<BlockAblationRow> {
    let a = &case.matrix;
    let n = a.nrows();
    let x0 = start_vector(n);
    let k = 5;
    let baseline = StandardMpk::new(a, cfg.threads).expect("square");
    let t_base =
        timed(|| std::hint::black_box(baseline.power(&x0, k)).truncate(0), cfg.reps).geomean;
    counts
        .iter()
        .map(|&nblocks| {
            let abmc = Abmc::new(
                a,
                AbmcParams {
                    nblocks: nblocks.min(n / 2).max(1),
                    strategy: fbmpk_reorder::BlockingStrategy::Contiguous,
                    ..Default::default()
                },
            );
            let (ncolors, width) = (abmc.ncolors(), abmc.max_color_width());
            let opts = FbmpkOptions {
                nthreads: cfg.threads,
                reorder: Some(AbmcParams {
                    nblocks: nblocks.min(n / 2).max(1),
                    strategy: fbmpk_reorder::BlockingStrategy::Contiguous,
                    ..Default::default()
                }),
                layout: VectorLayout::BackToBack,
                ..Default::default()
            };
            let plan = FbmpkPlan::new(a, opts).expect("square");
            let t_fbmpk =
                timed(|| std::hint::black_box(plan.power(&x0, k)).truncate(0), cfg.reps).geomean;
            BlockAblationRow {
                name: case.entry.name.to_string(),
                nblocks,
                ncolors,
                max_color_width: width,
                t_fbmpk,
                speedup: t_base / t_fbmpk,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ sync

/// One point of the `repro sync` comparison: barrier-per-color vs
/// barrier-free point-to-point block synchronization on the same ABMC
/// reordering and thread count.
#[derive(Debug, Clone)]
pub struct SyncRow {
    /// Matrix name.
    pub name: String,
    /// Thread count.
    pub threads: usize,
    /// ABMC colors (barriers per sweep in [`SyncMode::ColorBarrier`]).
    pub ncolors: usize,
    /// ABMC blocks (synchronization granules in
    /// [`SyncMode::PointToPoint`]).
    pub nblocks: usize,
    /// Directed dependency edges in the per-block wait lists.
    pub dep_edges: usize,
    /// FBMPK seconds at `k = 5`, barrier mode.
    pub t_barrier: f64,
    /// FBMPK seconds at `k = 5`, point-to-point mode.
    pub t_p2p: f64,
    /// `t_barrier / t_p2p` (> 1 means point-to-point wins).
    pub speedup: f64,
    /// Whether the two modes produced bit-identical `A^k x0` — must always
    /// be `true`; reported so a regression is visible in the JSON.
    pub identical: bool,
    /// Raw per-rep barrier-mode seconds (for the perf database).
    pub samples_barrier: Vec<f64>,
    /// Raw per-rep point-to-point seconds.
    pub samples_p2p: Vec<f64>,
    /// §III-B modeled matrix bytes per `A^k x0` (same for both modes).
    pub modeled_matrix_bytes: u64,
    /// Stable fingerprint of the barrier-mode plan options.
    pub options_fp_barrier: u64,
    /// Stable fingerprint of the point-to-point plan options.
    pub options_fp_p2p: u64,
    /// Stall-watchdog fallbacks the point-to-point plan recorded during
    /// the measured reps (0 on a healthy run; nonzero marks the samples
    /// as degraded — some reps executed under the barrier schedule).
    pub fallbacks: u64,
}

/// Measures FBMPK power (`k = 5`) under both [`SyncMode`]s on the same
/// ABMC reordering, verifying bit-identical results before reporting the
/// timing ratio. The colored schedule is used even at one thread so both
/// modes traverse identical block structure at every point of the sweep.
pub fn sync_modes(cfg: &BenchConfig, cases: &[MatrixCase], threads: &[usize]) -> Vec<SyncRow> {
    let k = 5;
    let mut rows = Vec::new();
    for c in cases {
        let a = &c.matrix;
        let n = a.nrows();
        let x0 = start_vector(n);
        for &t in threads {
            let base = FbmpkOptions {
                nthreads: t,
                reorder: Some(abmc_params(n)),
                layout: VectorLayout::BackToBack,
                ..Default::default()
            };
            let barrier_opts = FbmpkOptions { sync: SyncMode::ColorBarrier, ..base };
            let p2p_opts = FbmpkOptions { sync: SyncMode::PointToPoint, ..base };
            let barrier = FbmpkPlan::new(a, barrier_opts).expect("square");
            let p2p = FbmpkPlan::new(a, p2p_opts).expect("square");
            let identical = barrier.power(&x0, k) == p2p.power(&x0, k);
            let barrier_t =
                timed(|| std::hint::black_box(barrier.power(&x0, k)).truncate(0), cfg.reps);
            let p2p_t = timed(|| std::hint::black_box(p2p.power(&x0, k)).truncate(0), cfg.reps);
            let stats = p2p.stats();
            rows.push(SyncRow {
                name: c.entry.name.to_string(),
                threads: t,
                ncolors: stats.ncolors,
                nblocks: stats.nblocks,
                dep_edges: p2p.block_deps().map_or(0, |d| d.nedges()),
                t_barrier: barrier_t.geomean,
                t_p2p: p2p_t.geomean,
                speedup: barrier_t.geomean / p2p_t.geomean,
                identical,
                samples_barrier: barrier_t.samples,
                samples_p2p: p2p_t.samples,
                modeled_matrix_bytes: barrier.modeled_matrix_bytes(k),
                options_fp_barrier: barrier_opts.config_fingerprint(),
                options_fp_p2p: p2p_opts.config_fingerprint(),
                fallbacks: p2p.fallbacks(),
            });
        }
    }
    rows
}

// ------------------------------------------------------------- partition

/// One row of the `repro partition` comparison: one blocking strategy's
/// partition quality (cut edges, balance) and its point-to-point sweep
/// behavior (wait-list edges, wait fraction, bandwidth) on one matrix.
#[derive(Debug, Clone)]
pub struct PartitionRow {
    /// Matrix name.
    pub name: String,
    /// Blocking strategy tag (`contiguous` / `aggregated` / `multilevel`).
    pub strategy: String,
    /// Thread count.
    pub threads: usize,
    /// ABMC blocks produced.
    pub nblocks: usize,
    /// ABMC colors produced.
    pub ncolors: usize,
    /// Undirected row-structure edges cut by the partition — the
    /// objective the multilevel partitioner minimizes.
    pub cut_edges: usize,
    /// Directed dependency edges in the P2P per-block wait lists (what
    /// the cut edges become after coloring).
    pub dep_edges: usize,
    /// Heaviest block weight over the mean (1.0 = perfectly balanced).
    pub balance: f64,
    /// Point-to-point FBMPK seconds at `k = 5` (geomean).
    pub t_p2p: f64,
    /// `modeled_matrix_bytes / t_p2p / 1e9`.
    pub gbs: f64,
    /// Fraction of thread time in flag waits, from a recording twin.
    pub wait_frac: f64,
    /// P2P, barrier, and recording runs all produced bit-identical
    /// `A^k x0` for this strategy — must always be `true`.
    pub identical: bool,
    /// Raw per-rep p2p seconds (for the perf database).
    pub samples: Vec<f64>,
    /// Stable fingerprint of the p2p plan options.
    pub options_fp: u64,
    /// §III-B modeled matrix bytes per invocation.
    pub modeled_matrix_bytes: u64,
    /// Stall-watchdog fallbacks during the measured reps.
    pub fallbacks: u64,
}

/// Stable lowercase tag for a blocking strategy (table and perf-DB
/// kernel labels).
pub fn strategy_tag(s: BlockingStrategy) -> &'static str {
    match s {
        BlockingStrategy::Contiguous => "contiguous",
        BlockingStrategy::Aggregated => "aggregated",
        BlockingStrategy::Multilevel => "multilevel",
    }
}

/// Compares the three ABMC blocking strategies under point-to-point
/// synchronization at `k = 5`: partition quality (cut edges, balance),
/// the dependency-edge count the cut induces, the recorded flag-wait
/// fraction, and the achieved bandwidth. Each strategy's p2p run is
/// verified bit-identical to its barrier and recording twins before any
/// timing is reported.
pub fn partition(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<PartitionRow> {
    let k = 5;
    let mut rows = Vec::new();
    // The paper suite's irregular entries (G3_circuit, cage14) plus a
    // synthetic symmetric R-MAT power-law graph — the second irregular
    // class the partitioner targets, absent from Table II.
    let rmat_scale = ((2_000_000.0 * cfg.scale).max(256.0).log2().round() as u32).clamp(8, 20);
    let rmat = fbmpk_gen::rmat::rmat(fbmpk_gen::rmat::RmatParams {
        scale: rmat_scale,
        edge_factor: 8,
        symmetric: true,
        seed: cfg.seed.max(1),
        ..Default::default()
    });
    let named: Vec<(&str, &Csr)> = cases
        .iter()
        .map(|c| (c.entry.name, &c.matrix))
        .chain(std::iter::once(("rmat", &rmat)))
        .collect();
    for (case_name, a) in named {
        let n = a.nrows();
        let x0 = start_vector(n);
        let g = Graph::from_matrix(a);
        let nblocks = abmc_params(n).nblocks;
        for strategy in [
            BlockingStrategy::Contiguous,
            BlockingStrategy::Aggregated,
            BlockingStrategy::Multilevel,
        ] {
            let params = AbmcParams { nblocks, strategy, ..Default::default() };
            // The same Blocking `Abmc::new` builds, evaluated on the
            // original row-structure graph.
            let blocking = match strategy {
                BlockingStrategy::Contiguous => {
                    fbmpk_reorder::blocking::contiguous_blocks(n, nblocks)
                }
                BlockingStrategy::Aggregated => fbmpk_reorder::blocking::aggregated_blocks(
                    &g,
                    fbmpk_reorder::blocking::block_size_for_count(n, nblocks),
                ),
                BlockingStrategy::Multilevel => multilevel_blocks(&g, nblocks),
            };
            let cut = cut_edges(&g, &blocking);
            let balance = balance_ratio(&g, &blocking);
            let p2p_opts = FbmpkOptions {
                nthreads: cfg.threads,
                reorder: Some(params),
                layout: VectorLayout::BackToBack,
                sync: SyncMode::PointToPoint,
                ..Default::default()
            };
            let barrier_opts = FbmpkOptions { sync: SyncMode::ColorBarrier, ..p2p_opts };
            let p2p = FbmpkPlan::new(a, p2p_opts).expect("square");
            let barrier = FbmpkPlan::new(a, barrier_opts).expect("square");
            let want = p2p.power(&x0, k);
            let identical = want == barrier.power(&x0, k);
            let t = timed(|| std::hint::black_box(p2p.power(&x0, k)).truncate(0), cfg.reps);
            // Recording twin: one instrumented run for the wait fraction,
            // checked bit-identical to the production configuration.
            let rec = FbmpkPlan::new(a, FbmpkOptions { obs: ObsOptions::recording(), ..p2p_opts })
                .expect("square");
            let identical = identical && rec.power(&x0, k) == want;
            let wait_frac = rec.recorder().expect("recording plan has a recorder").wait_fraction();
            let stats = p2p.stats();
            let modeled = p2p.modeled_matrix_bytes(k);
            rows.push(PartitionRow {
                name: case_name.to_string(),
                strategy: strategy_tag(strategy).to_string(),
                threads: cfg.threads,
                nblocks: stats.nblocks,
                ncolors: stats.ncolors,
                cut_edges: cut,
                dep_edges: p2p.block_deps().map_or(0, |d| d.nedges()),
                balance,
                t_p2p: t.geomean,
                gbs: modeled as f64 / t.geomean / 1e9,
                wait_frac,
                identical,
                samples: t.samples,
                options_fp: p2p_opts.config_fingerprint(),
                modeled_matrix_bytes: modeled,
                fallbacks: p2p.fallbacks(),
            });
        }
    }
    rows
}

// ------------------------------------------------------------------ tune

/// One row of the `repro tune` report: what the inspector–executor layer
/// selected for a suite matrix and the measured single-SpMV speedup of the
/// tuned kernel over the scalar CSR reference on the same pool/partition.
#[derive(Debug, Clone)]
pub struct TuneRow {
    /// Matrix name.
    pub name: String,
    /// Dimension.
    pub rows: usize,
    /// Nonzeros.
    pub nnz: usize,
    /// Mean row length (the dominant cost-model feature).
    pub mean_row_nnz: f64,
    /// Row-length coefficient of variation.
    pub row_cv: f64,
    /// The variant the tuner selected.
    pub variant: String,
    /// Scalar CSR seconds per SpMV (geomean).
    pub t_scalar: f64,
    /// Tuned-variant seconds per SpMV (geomean).
    pub t_tuned: f64,
    /// `t_scalar / t_tuned`.
    pub speedup: f64,
    /// Speedup the one-shot micro-probe itself measured during planning.
    pub probed_speedup: f64,
    /// One-off inspection + selection cost in seconds.
    pub inspect_seconds: f64,
    /// Raw per-rep scalar-CSR seconds (for the perf database).
    pub samples_scalar: Vec<f64>,
    /// Raw per-rep tuned-variant seconds.
    pub samples_tuned: Vec<f64>,
    /// Detected SIMD dispatch level ("scalar", "avx2", "neon").
    pub simd: String,
    /// 4-way-unrolled CSR seconds per SpMV (geomean) on the same pool.
    pub t_unrolled4: f64,
    /// Explicit lane-kernel CSR seconds per SpMV (geomean) on the same
    /// pool, whatever [`fbmpk_sparse::simd::detect`] resolves to.
    pub t_simd: f64,
    /// Raw per-rep unrolled-CSR seconds.
    pub samples_unrolled4: Vec<f64>,
    /// Raw per-rep lane-kernel seconds.
    pub samples_simd: Vec<f64>,
}

/// Runs the auto-tuner on every suite matrix and re-measures the selected
/// variant against the scalar baseline (probe excluded, like all
/// preprocessing in the paper's methodology).
pub fn tune(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<TuneRow> {
    cases
        .iter()
        .map(|c| {
            let a = &c.matrix;
            let n = a.nrows();
            let plan = TunedPlan::new(
                a,
                TuneOptions {
                    nthreads: cfg.threads,
                    probe: true,
                    probe_reps: cfg.reps.max(3),
                    ..Default::default()
                },
            );
            let x = start_vector(n);
            let mut y = vec![0.0; n];
            let scalar_t = timed(|| plan.spmv_scalar(&x, &mut y), cfg.reps);
            let tuned_t = timed(|| plan.spmv(&x, &mut y), cfg.reps);
            let unrolled_t =
                timed(|| plan.spmv_with(KernelVariant::CsrUnrolled4, &x, &mut y), cfg.reps);
            let simd_level = plan.simd_level();
            let simd_variant = KernelVariant::CsrSimd { width: simd_level.width() };
            let simd_t = timed(|| plan.spmv_with(simd_variant, &x, &mut y), cfg.reps);
            let f = plan.features();
            TuneRow {
                name: c.entry.name.to_string(),
                rows: f.n,
                nnz: f.nnz,
                mean_row_nnz: f.mean_row_nnz,
                row_cv: f.row_cv,
                variant: plan.variant().to_string(),
                t_scalar: scalar_t.geomean,
                t_tuned: tuned_t.geomean,
                speedup: scalar_t.geomean / tuned_t.geomean,
                probed_speedup: plan.report().probed_speedup(),
                inspect_seconds: plan.report().inspect_seconds,
                samples_scalar: scalar_t.samples,
                samples_tuned: tuned_t.samples,
                simd: simd_level.tag().to_string(),
                t_unrolled4: unrolled_t.geomean,
                t_simd: simd_t.geomean,
                samples_unrolled4: unrolled_t.samples,
                samples_simd: simd_t.samples,
            }
        })
        .collect()
}

// -------------------------------------------------------------- blocking

/// One row of the `repro blocking` report: streaming vs level-blocked
/// FBMPK execution at one power, plus the cache simulator's DRAM read
/// bytes for the same two schedules.
#[derive(Debug, Clone)]
pub struct BlockingRow {
    /// Matrix name.
    pub name: String,
    /// Power `k`.
    pub k: usize,
    /// Resolved powers-per-stage band (`kb`) the auto-sizer picked for
    /// the probed host LLC (what the timed execution ran with).
    pub tile_powers: usize,
    /// Band re-resolved for the *simulated* LLC of the traffic replay —
    /// the simulator's cache is scaled to the matrix, so the schedule
    /// must be sized for it, not for the host. `1` means the auto-sizer
    /// found no shell window worth holding (blocking degenerates to
    /// streaming stages).
    pub tile_powers_sim: usize,
    /// BFS shell count of the wavefront schedule.
    pub nlevels: usize,
    /// Streaming FBMPK seconds (geomean).
    pub t_streaming: f64,
    /// Level-blocked seconds (geomean).
    pub t_blocked: f64,
    /// `t_streaming / t_blocked`.
    pub speedup: f64,
    /// Whether the two schedules agree within `1e-9` relative error
    /// (they associate differently, so bit-identity is not expected).
    pub agrees: bool,
    /// Simulated DRAM read bytes, streaming FBMPK.
    pub dram_read_streaming: u64,
    /// Simulated DRAM read bytes, level-blocked wavefront.
    pub dram_read_blocked: u64,
    /// Raw per-rep streaming seconds (for the perf database).
    pub samples_streaming: Vec<f64>,
    /// Raw per-rep level-blocked seconds.
    pub samples_blocked: Vec<f64>,
    /// Config fingerprint of the streaming options.
    pub options_fp_streaming: u64,
    /// Config fingerprint of the level-blocked options.
    pub options_fp_blocked: u64,
    /// Modeled matrix bytes of the streaming schedule (roofline anchor).
    pub modeled_matrix_bytes: u64,
}

/// Measures streaming vs level-blocked FBMPK at `k = 8` (deep enough
/// that the wavefront re-streams the matrix at least twice less often on
/// cache-resident bands) and replays both schedules through the cache
/// simulator for the DRAM-traffic claim of DESIGN.md §12.
pub fn blocking(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<BlockingRow> {
    let k = 8usize;
    let mut rows = Vec::new();
    for c in cases {
        let a = &c.matrix;
        let n = a.nrows();
        let x0 = start_vector(n);
        let stream_opts = fbmpk_options(n, cfg.threads, VectorLayout::BackToBack);
        let mut blocked_opts = stream_opts;
        blocked_opts.blocking = BlockingMode::LevelBlocked { tile_powers: None };
        let streaming = FbmpkPlan::new(a, stream_opts).expect("square");
        let blocked = FbmpkPlan::new(a, blocked_opts).expect("square");
        let want = streaming.power(&x0, k);
        let got = blocked.power(&x0, k);
        let agrees = rel_err_inf(&got, &want) < 1e-9;
        let stream_t =
            timed(|| std::hint::black_box(streaming.power(&x0, k)).truncate(0), cfg.reps);
        let blocked_t = timed(|| std::hint::black_box(blocked.power(&x0, k)).truncate(0), cfg.reps);
        // Re-derive the band the plan's auto-sizer resolved so the
        // simulator replays the same schedule shape.
        let lb = LevelBlockPlan::new(a, cfg.threads, None, probe_llc_bytes());
        let kb = lb.resolve_tile_powers(k);
        let llc = [scaled_llc(a.nnz() * 12 + 8 * (a.nrows() + 1))];
        // The replayed schedule must be sized for the simulated cache,
        // exactly as the auto-sizer would on a machine with that LLC.
        let kb_sim = LevelBlockPlan::new(a, cfg.threads, None, llc[0].size_bytes as u64)
            .resolve_tile_powers(k);
        let sim_stream = trace_fbmpk(a, k, TracedLayout::BackToBack, &llc);
        let sim_blocked = trace_level_blocked(a, k, kb_sim, &llc);
        rows.push(BlockingRow {
            name: c.entry.name.to_string(),
            k,
            tile_powers: kb,
            tile_powers_sim: kb_sim,
            nlevels: lb.levels().nlevels(),
            t_streaming: stream_t.geomean,
            t_blocked: blocked_t.geomean,
            speedup: stream_t.geomean / blocked_t.geomean,
            agrees,
            dram_read_streaming: sim_stream.dram_read_bytes,
            dram_read_blocked: sim_blocked.dram_read_bytes,
            samples_streaming: stream_t.samples,
            samples_blocked: blocked_t.samples,
            options_fp_streaming: stream_opts.config_fingerprint(),
            options_fp_blocked: blocked_opts.config_fingerprint(),
            modeled_matrix_bytes: streaming.modeled_matrix_bytes(k),
        });
    }
    rows
}

// --------------------------------------------------------------- profile

/// One row of the `repro profile` report: in-kernel observability for one
/// matrix at `k = 5` under both synchronization modes.
///
/// Timings come from *non-recording* plans (the production configuration);
/// wait fractions, traces and hardware counters come from separately built
/// recording plans whose results are checked bit-identical against the
/// non-recording ones.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Matrix name.
    pub name: String,
    /// Thread count.
    pub threads: usize,
    /// Power `k`.
    pub k: usize,
    /// ABMC colors.
    pub ncolors: usize,
    /// ABMC blocks.
    pub nblocks: usize,
    /// Seconds per `A^k x0`, [`SyncMode::ColorBarrier`], recording off.
    pub t_barrier: f64,
    /// Seconds per `A^k x0`, [`SyncMode::PointToPoint`], recording off.
    pub t_p2p: f64,
    /// Modeled bytes of matrix data streamed per power computation:
    /// §III-B triangle read counts × split storage footprint.
    pub modeled_matrix_bytes: u64,
    /// `modeled_matrix_bytes / t_barrier` in GB/s — the effective matrix
    /// bandwidth the sweep sustains, comparable to STREAM numbers.
    pub bw_barrier_gbs: f64,
    /// Same for point-to-point mode.
    pub bw_p2p_gbs: f64,
    /// Simulated DRAM traffic for the same computation (cache replay at
    /// the scaled LLC) — what a finite cache actually moves.
    pub sim_dram_bytes: u64,
    /// `sim_dram_bytes / modeled_matrix_bytes`: > 1 means the vectors and
    /// cache misses add traffic beyond the compulsory matrix streams.
    pub traffic_vs_model: f64,
    /// Fraction of total thread time spent in waits (barrier +
    /// epoch-spin), barrier mode, from the recorded run.
    pub wait_frac_barrier: f64,
    /// Same for point-to-point mode (flag waits).
    pub wait_frac_p2p: f64,
    /// Recording plans produced bit-identical `A^k x0` to non-recording
    /// ones — must always be `true`; reported so a regression is visible.
    pub identical: bool,
    /// Hardware counters over one recorded barrier-mode run; `None` when
    /// `perf_event_open` is unavailable (the model-only degradation path).
    pub hw: Option<HwSample>,
    /// Spans lost to ring-buffer overflow across both recorded runs
    /// (0 unless the span capacity is undersized for `k`/colors).
    pub dropped_spans: u64,
    /// Raw per-rep barrier-mode seconds (for the perf database).
    pub samples_barrier: Vec<f64>,
    /// Raw per-rep point-to-point seconds.
    pub samples_p2p: Vec<f64>,
    /// Stable fingerprint of the barrier-mode plan options.
    pub options_fp_barrier: u64,
    /// Stable fingerprint of the point-to-point plan options.
    pub options_fp_p2p: u64,
    /// Watchdog→barrier fallbacks across all four plans of this row
    /// (nonzero marks the p2p samples as degraded).
    pub fallbacks: u64,
    /// Process-wide stall-watchdog fires during this row's measurements.
    pub watchdog_fires: u64,
    /// Deterministic fault-injection sites hit during this row (always 0
    /// without the `fault-inject` feature).
    pub fault_injection_hits: u64,
    /// Spans the two recorded runs added to the trace.
    pub spans_recorded: u64,
    /// Stall-watchdog arms during this row's measurements.
    pub watchdog_arms: u64,
    /// Durations of the recorded barrier-mode run's wait spans, in ns.
    pub wait_span_ns: Histogram,
}

/// Runs the profiling experiment: times both sync modes without
/// observability, then re-runs each once with the span recorder enabled to
/// extract per-thread wait fractions, a chrome://tracing timeline (two
/// trace processes per matrix, one per sync mode), hardware counters where
/// available, and the wait-span distribution. Returns the rows plus the
/// accumulated trace.
pub fn profile(
    cfg: &BenchConfig,
    cases: &[MatrixCase],
    roofline_gbs: Option<f64>,
) -> (Vec<ProfileRow>, TraceBuilder) {
    let k = 5;
    let mut rows = Vec::new();
    let mut trace = TraceBuilder::new();
    // Plan-construction phase spans (inspection, partitioning, leveling)
    // land in the chrome://tracing timeline next to the kernel spans.
    fbmpk_obs::phases::set_recording(true);
    let live = fbmpk_obs::live::enabled();
    if let (true, Some(ceiling)) = (live, roofline_gbs) {
        fbmpk_obs::live::global()
            .gauge("fbmpk_bench_roofline_gbs", "Measured STREAM-triad bandwidth ceiling", 1)
            .set(0, ceiling);
    }
    for (i, c) in cases.iter().enumerate() {
        let a = &c.matrix;
        let n = a.nrows();
        let x0 = start_vector(n);
        // The colored schedule even at one thread, like `sync_modes`, so
        // both modes traverse identical block structure.
        let base = FbmpkOptions {
            nthreads: cfg.threads,
            reorder: Some(abmc_params(n)),
            layout: VectorLayout::BackToBack,
            ..Default::default()
        };
        let barrier_opts = FbmpkOptions { sync: SyncMode::ColorBarrier, ..base };
        let p2p_opts = FbmpkOptions { sync: SyncMode::PointToPoint, ..base };
        let (arms0, fires0) = fbmpk_parallel::sync::watchdog_stats();
        let inject0 = fbmpk_parallel::fault::injection_hits();
        let barrier = FbmpkPlan::new(a, barrier_opts).expect("square");
        let p2p = FbmpkPlan::new(a, p2p_opts).expect("square");
        let barrier_t = timed(|| std::hint::black_box(barrier.power(&x0, k)).truncate(0), cfg.reps);
        let p2p_t = timed(|| std::hint::black_box(p2p.power(&x0, k)).truncate(0), cfg.reps);
        let (t_barrier, t_p2p) = (barrier_t.geomean, p2p_t.geomean);

        // Recording twins: run once each; the barrier run doubles as the
        // hardware-counter measurement window.
        let rec = FbmpkOptions { obs: ObsOptions::recording(), ..base };
        let rb = FbmpkPlan::new(a, FbmpkOptions { sync: SyncMode::ColorBarrier, ..rec })
            .expect("square");
        let rp = FbmpkPlan::new(a, FbmpkOptions { sync: SyncMode::PointToPoint, ..rec })
            .expect("square");
        let session = HwSession::start();
        let yb = rb.power(&x0, k);
        let hw = session.as_ref().and_then(HwSession::sample);
        let yp = rp.power(&x0, k);
        let identical = yb == barrier.power(&x0, k) && yp == p2p.power(&x0, k);

        let rec_b = rb.recorder().expect("recording plan has a recorder");
        let rec_p = rp.recorder().expect("recording plan has a recorder");
        let pid_b = (2 * i + 1) as u32;
        let pid_p = (2 * i + 2) as u32;
        trace.add_process(pid_b, &format!("{} / barrier", c.entry.name));
        trace.add_process(pid_p, &format!("{} / point-to-point", c.entry.name));
        let spans = trace.add_recorder(pid_b, rec_b) + trace.add_recorder(pid_p, rec_p);

        let modeled = barrier.modeled_matrix_bytes(k);
        let sim =
            trace_fbmpk(a, k, TracedLayout::BackToBack, &[scaled_llc(a.nnz() * 12 + 8 * (n + 1))])
                .total();
        let dropped_spans = rec_b.total_dropped() + rec_p.total_dropped();

        let (arms1, fires1) = fbmpk_parallel::sync::watchdog_stats();
        let watchdog_fires = fires1 - fires0;
        let fault_injection_hits = fbmpk_parallel::fault::injection_hits() - inject0;
        let fallbacks = barrier.fallbacks() + p2p.fallbacks() + rb.fallbacks() + rp.fallbacks();

        if live {
            // Feed the `repro top` dashboard: the current matrix's
            // effective bandwidth against the measured triad ceiling.
            let reg = fbmpk_obs::live::global();
            let achieved = modeled as f64 / t_barrier / 1e9;
            reg.gauge(
                "fbmpk_bench_achieved_gbs",
                "Effective matrix bandwidth of the matrix being profiled",
                1,
            )
            .set(0, achieved);
            if let Some(ceiling) = roofline_gbs.filter(|&c| c > 0.0) {
                reg.gauge(
                    "fbmpk_bench_roofline_fraction",
                    "Achieved bandwidth over the STREAM-triad ceiling",
                    1,
                )
                .set(0, achieved / ceiling);
            }
        }
        let mut wait_span_ns = Histogram::new();
        for t in 0..rec_b.nthreads() {
            for s in rec_b.thread_spans(t) {
                if s.kind.is_wait() {
                    wait_span_ns.observe(s.duration_ns());
                }
            }
        }

        let stats = barrier.stats();
        rows.push(ProfileRow {
            name: c.entry.name.to_string(),
            threads: cfg.threads,
            k,
            ncolors: stats.ncolors,
            nblocks: stats.nblocks,
            t_barrier,
            t_p2p,
            modeled_matrix_bytes: modeled,
            bw_barrier_gbs: modeled as f64 / t_barrier / 1e9,
            bw_p2p_gbs: modeled as f64 / t_p2p / 1e9,
            sim_dram_bytes: sim,
            traffic_vs_model: sim as f64 / modeled as f64,
            wait_frac_barrier: rec_b.wait_fraction(),
            wait_frac_p2p: rec_p.wait_fraction(),
            identical,
            hw,
            dropped_spans,
            samples_barrier: barrier_t.samples,
            samples_p2p: p2p_t.samples,
            options_fp_barrier: barrier_opts.config_fingerprint(),
            options_fp_p2p: p2p_opts.config_fingerprint(),
            fallbacks,
            watchdog_fires,
            fault_injection_hits,
            spans_recorded: spans as u64,
            watchdog_arms: arms1 - arms0,
            wait_span_ns,
        });
    }
    let phase_pid = (2 * cases.len() + 1) as u32;
    trace.add_process(phase_pid, "plan phases");
    fbmpk_obs::phases::add_to_trace(&mut trace, phase_pid);
    fbmpk_obs::phases::set_recording(false);
    (rows, trace)
}

// ----------------------------------------------------------- attribution

/// One matrix's result from the `repro attribution` experiment: the three
/// reconciled byte ledgers at (block × power) granularity plus the
/// simulated phase/node splits and the p2p timing that anchors the
/// perf-database record.
#[derive(Debug, Clone)]
pub struct AttributionCase {
    /// Matrix name (suite entry or `rmat`).
    pub name: String,
    /// Thread count.
    pub threads: usize,
    /// Power `k` of the attributed run.
    pub k: usize,
    /// The merged modeled/simulated/measured ledgers.
    pub report: AttributionReport,
    /// Simulated DRAM bytes per sweep phase (including `other` for
    /// setup traffic and the final flush) — sums exactly to
    /// [`AttributionCase::sim_dram_total`].
    pub sim_phase_bytes: Vec<(&'static str, u64)>,
    /// Simulated DRAM bytes per NUMA node under the pool's first-touch
    /// placement (`u32::MAX` = outside every registered range).
    pub node_bytes: Vec<(u32, u64)>,
    /// Simulated DRAM bytes not attributable to a (block, power) cell.
    pub sim_unattributed: u64,
    /// Whole-kernel simulated DRAM bytes.
    pub sim_dram_total: u64,
    /// Measured bytes without a block id (flat head/tail stages);
    /// `None` when hardware counters are unavailable.
    pub measured_unattributed: Option<u64>,
    /// Whether `perf_event_open` produced a usable measured ledger.
    pub measured_available: bool,
    /// Whole-kernel simulated DRAM over §III-B modeled bytes.
    pub traffic_vs_model: f64,
    /// Point-to-point FBMPK seconds at this `k` (geomean).
    pub t_p2p: f64,
    /// Raw per-rep seconds (for the perf database).
    pub samples: Vec<f64>,
    /// Stable fingerprint of the p2p plan options.
    pub options_fp: u64,
    /// §III-B modeled matrix bytes per invocation.
    pub modeled_matrix_bytes: u64,
    /// Probed runs produced bit-identical `A^k x0` to the plain kernel —
    /// must always be `true`.
    pub identical: bool,
}

/// Counts, per block, the stored off-diagonal entries (`L` + `U`) whose
/// column falls outside the block's row range — the partition's cut edges
/// through each block, the structural covariate of the excess-traffic
/// correlation.
pub fn block_cut_edges(split: &TriangularSplit, block_row_start: &[usize]) -> Vec<u64> {
    let nblocks = block_row_start.len().saturating_sub(1);
    let mut cut = vec![0u64; nblocks];
    for (b, c) in cut.iter_mut().enumerate() {
        let (lo, hi) = (block_row_start[b], block_row_start[b + 1]);
        for tri in [&split.lower, &split.upper] {
            let (ptr, col) = (tri.row_ptr(), tri.col_idx());
            for r in lo..hi {
                *c += col[ptr[r]..ptr[r + 1]]
                    .iter()
                    .filter(|&&j| (j as usize) < lo || (j as usize) >= hi)
                    .count() as u64;
            }
        }
    }
    cut
}

/// The sweep-phase label value a measured [`SpanKind`] maps to — mirrors
/// [`fbmpk_memsim::SweepPhase::name`] so measured and simulated samples of
/// the live `fbmpk_block_bytes_total` family share one phase vocabulary.
fn span_phase_name(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Head => "head",
        SpanKind::Forward => "forward",
        SpanKind::Backward => "backward",
        SpanKind::Tail => "tail",
        _ => "other",
    }
}

/// The live-endpoint source behind `fbmpk_block_bytes_total`: a row set
/// replaced wholesale per attributed matrix (the family describes the
/// matrix currently under attribution, not a process-lifetime total).
type LiveRow = (Vec<(String, String)>, u64);

struct AttributionLiveSource {
    rows: std::sync::Mutex<Vec<LiveRow>>,
}

impl fbmpk_obs::live::LiveSource for AttributionLiveSource {
    fn collect(&self) -> Vec<fbmpk_obs::live::FamilySnapshot> {
        let rows = self.rows.lock().expect("attribution live rows");
        if rows.is_empty() {
            return Vec::new();
        }
        vec![fbmpk_obs::live::FamilySnapshot {
            name: "fbmpk_block_bytes_total".into(),
            help: "DRAM bytes per block/phase/ledger for the matrix under attribution \
                   (worst blocks by traffic-vs-model ratio)"
                .into(),
            kind: fbmpk_obs::live::MetricKind::Counter,
            samples: rows
                .iter()
                .map(|(labels, v)| fbmpk_obs::live::LiveSample {
                    labels: labels.clone(),
                    value: fbmpk_obs::live::SampleValue::Counter(*v),
                })
                .collect(),
        }]
    }
}

/// The process-global [`AttributionLiveSource`], registered with the live
/// registry on first use. The `Arc` lives in the `static` so the weak
/// registration never goes stale.
fn attribution_live_source() -> &'static std::sync::Arc<AttributionLiveSource> {
    use std::sync::{Arc, OnceLock};
    static SRC: OnceLock<Arc<AttributionLiveSource>> = OnceLock::new();
    SRC.get_or_init(|| {
        let src = Arc::new(AttributionLiveSource { rows: std::sync::Mutex::new(Vec::new()) });
        let as_dyn: Arc<dyn fbmpk_obs::live::LiveSource> = src.clone();
        fbmpk_obs::live::global().register_source(Arc::downgrade(&as_dyn));
        src
    })
}

/// Number of worst-ratio blocks published on the live endpoint per
/// matrix — bounds the `fbmpk_block_bytes_total` family (and the `repro
/// top` drill-down pane) regardless of the plan's block count.
pub const LIVE_ATTRIBUTION_BLOCKS: usize = 16;

/// Replaces the live `fbmpk_block_bytes_total` rows with this matrix's
/// worst blocks: modeled bytes under `phase="total"`, simulated and
/// measured bytes per sweep phase.
fn publish_block_bytes_live(
    matrix: &str,
    report: &AttributionReport,
    sim_block_phase: &std::collections::BTreeMap<(u32, &'static str), u64>,
    meas_block_phase: Option<&std::collections::BTreeMap<(u32, &'static str), u64>>,
) {
    let label = |block: u32, phase: &str, ledger: &str| {
        vec![
            ("matrix".to_string(), matrix.to_string()),
            ("block".to_string(), block.to_string()),
            ("phase".to_string(), phase.to_string()),
            ("ledger".to_string(), ledger.to_string()),
        ]
    };
    let mut rows = Vec::new();
    for bl in report.worst_blocks(LIVE_ATTRIBUTION_BLOCKS) {
        rows.push((label(bl.block, "total", "modeled"), bl.modeled_bytes));
        for (&(b, phase), &v) in sim_block_phase.iter().filter(|((b, _), _)| *b == bl.block) {
            rows.push((label(b, phase, "simulated"), v));
        }
        if let Some(meas) = meas_block_phase {
            for (&(b, phase), &v) in meas.iter().filter(|((b, _), _)| *b == bl.block) {
                rows.push((label(b, phase, "measured"), v));
            }
        }
    }
    *attribution_live_source().rows.lock().expect("attribution live rows") = rows;
}

/// Runs the traffic-attribution experiment: for each suite matrix (plus
/// the synthetic `rmat` power-law case the partitioner targets) it builds
/// the point-to-point plan at `k = 5` and reconciles three byte ledgers at
/// (block × power) granularity — §III-B modeled bytes, cache-simulated
/// DRAM bytes, and per-thread hardware-counter estimates sampled at the
/// block boundaries the kernels already instrument.
///
/// The measured ledger degrades gracefully: when `perf_event_open` is
/// unavailable (containers, CI) it is reported as `None`, one notice goes
/// to stderr for the whole run, and the modeled/simulated ledgers are
/// unaffected. Probed runs are verified bit-identical to the plain kernel
/// before anything is reported.
pub fn attribution(cfg: &BenchConfig, cases: &[MatrixCase]) -> Vec<AttributionCase> {
    use std::collections::BTreeMap;
    let k = 5;
    // Same irregular extension as `partition`: a symmetric R-MAT
    // power-law graph whose boundary blocks stress the cut-edge signal.
    let rmat_scale = ((2_000_000.0 * cfg.scale).max(256.0).log2().round() as u32).clamp(8, 20);
    let rmat = fbmpk_gen::rmat::rmat(fbmpk_gen::rmat::RmatParams {
        scale: rmat_scale,
        edge_factor: 8,
        symmetric: true,
        seed: cfg.seed.max(1),
        ..Default::default()
    });
    let named: Vec<(&str, &Csr)> = cases
        .iter()
        .map(|c| (c.entry.name, &c.matrix))
        .chain(std::iter::once(("rmat", &rmat)))
        .collect();
    let topo = fbmpk_parallel::NumaTopology::detect();
    let node_of_share: Vec<u32> =
        (0..cfg.threads.max(1)).map(|t| topo.node_of_worker(t) as u32).collect();
    let live = fbmpk_obs::live::enabled();
    let mut degrade_noted = false;
    let mut out = Vec::new();
    for (case_name, a) in named {
        let n = a.nrows();
        let x0 = start_vector(n);
        // Point-to-point only: it is the one schedule whose span stream
        // carries real block ids, so all three ledgers share a key.
        let p2p_opts = FbmpkOptions {
            nthreads: cfg.threads,
            reorder: Some(abmc_params(n)),
            layout: VectorLayout::BackToBack,
            sync: SyncMode::PointToPoint,
            ..Default::default()
        };
        let plan = FbmpkPlan::new(a, p2p_opts).expect("square");
        let want = plan.power(&x0, k);
        let starts = plan.block_row_start().to_vec();
        let colors = plan.block_color();
        let nblocks = starts.len().saturating_sub(1);

        // Modeled ledger: §III-B bytes decomposed per (power, block).
        let modeled_pb = plan.modeled_block_power_bytes(k);
        let modeled_total = plan.modeled_matrix_bytes(k);

        // Simulated ledger: the labeled cache replay, with per-node
        // classification under the pool's first-touch share protocol.
        let attr =
            FbmpkTraceAttribution { block_row_start: &starts, node_of_share: &node_of_share };
        let labeled = trace_fbmpk_attributed(
            plan.split(),
            k,
            TracedLayout::BackToBack,
            &[scaled_llc(a.nnz() * 12 + 8 * (n + 1))],
            &attr,
        );
        let mut sim_cells: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        let mut sim_blocks = vec![0u64; nblocks];
        let mut sim_block_phase: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
        let mut sim_phase: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut sim_unattributed = 0u64;
        for (label, t) in &labeled.labels {
            let bytes = t.dram_total();
            *sim_phase.entry(label.phase.name()).or_insert(0) += bytes;
            if label.block == u32::MAX || label.power == 0 || label.block as usize >= nblocks {
                sim_unattributed += bytes;
            } else {
                *sim_cells.entry((label.block, label.power)).or_insert(0) += bytes;
                sim_blocks[label.block as usize] += bytes;
                *sim_block_phase.entry((label.block, label.phase.name())).or_insert(0) += bytes;
            }
        }

        // Measured ledger: per-thread counter deltas at block boundaries.
        // The warmup probed run opens each lane's session (each lane's
        // first delta only covers work after its open) and is drained
        // away; the second probed run is the measurement window.
        let mut probe = HwAttributionProbe::new(cfg.threads.max(1));
        let y_warm = plan.power_probed(&x0, k, &probe).expect("probed run");
        probe.drain();
        let y_probed = plan.power_probed(&x0, k, &probe).expect("probed run");
        let lanes = probe.drain();
        let measured_available = probe.available();
        let identical = y_warm == want && y_probed == want;
        if !measured_available && !degrade_noted {
            degrade_noted = true;
            eprintln!(
                "attribution: perf_event_open unavailable -- measured ledger disabled \
                 (modeled + simulated ledgers unaffected)"
            );
        }
        let measured = measured_available.then(|| MeasuredLedger::from_lanes(&lanes, k));
        let meas_blocks = measured.as_ref().map(MeasuredLedger::block_bytes);
        let meas_block_phase: Option<BTreeMap<(u32, &'static str), u64>> =
            measured_available.then(|| {
                let mut m = BTreeMap::new();
                for e in lanes.iter().flatten().filter(|e| e.block != Span::NO_ID) {
                    *m.entry((e.block, span_phase_name(e.kind))).or_insert(0) +=
                        e.llc_misses * fbmpk_obs::attribution::LINE_BYTES;
                }
                m
            });

        // Merge the ledgers: block-major cells, then per-block rollups
        // with the structural cut-edge context.
        let cut = block_cut_edges(plan.split(), &starts);
        let mut cells = Vec::with_capacity(nblocks * k);
        for b in 0..nblocks {
            for p in 1..=k {
                cells.push(CellLedger {
                    block: b as u32,
                    color: colors[b],
                    power: p as u32,
                    modeled_bytes: modeled_pb[p - 1][b],
                    simulated_bytes: sim_cells.get(&(b as u32, p as u32)).copied().unwrap_or(0),
                    measured_bytes: measured
                        .as_ref()
                        .map(|m| m.cells.get(&(b as u32, p as u32)).copied().unwrap_or(0)),
                });
            }
        }
        let blocks: Vec<BlockLedger> = (0..nblocks)
            .map(|b| BlockLedger {
                block: b as u32,
                color: colors[b],
                rows: (starts[b + 1] - starts[b]) as u64,
                cut_edges: cut[b],
                modeled_bytes: (0..k).map(|p| modeled_pb[p][b]).sum(),
                simulated_bytes: sim_blocks[b],
                measured_bytes: meas_blocks
                    .as_ref()
                    .map(|m| m.get(&(b as u32)).copied().unwrap_or(0)),
            })
            .collect();
        let report = AttributionReport::new(cells, blocks);

        if live {
            publish_block_bytes_live(
                case_name,
                &report,
                &sim_block_phase,
                meas_block_phase.as_ref(),
            );
        }

        let t = timed(|| std::hint::black_box(plan.power(&x0, k)).truncate(0), cfg.reps);
        let sim_dram_total = labeled.report.total();
        out.push(AttributionCase {
            name: case_name.to_string(),
            threads: cfg.threads,
            k,
            report,
            sim_phase_bytes: sim_phase.into_iter().collect(),
            node_bytes: labeled.nodes.iter().map(|(&nid, nt)| (nid, nt.dram_total())).collect(),
            sim_unattributed,
            sim_dram_total,
            measured_unattributed: measured.as_ref().map(|m| m.unattributed_bytes),
            measured_available,
            traffic_vs_model: sim_dram_total as f64 / modeled_total.max(1) as f64,
            t_p2p: t.geomean,
            samples: t.samples,
            options_fp: p2p_opts.config_fingerprint(),
            modeled_matrix_bytes: modeled_total,
            identical,
        });
    }
    out
}

// ----------------------------------------------------------------- model

/// One row of the access-count validation table (§III-B formulas).
#[derive(Debug, Clone)]
pub struct ModelRow {
    /// Power `k`.
    pub k: usize,
    /// Standard MPK full-matrix reads.
    pub standard_reads: usize,
    /// FBMPK lower-triangle reads.
    pub fb_lower_reads: usize,
    /// FBMPK upper-triangle reads.
    pub fb_upper_reads: usize,
    /// FBMPK effective reads of `A` (`(L + U) / 2`).
    pub fb_effective_reads: f64,
    /// The idealized ratio `(k+1)/2k`.
    pub ideal_ratio: f64,
}

/// Validates the paper's §III-B access-count formulas for a range of `k`.
pub fn model_table(kmax: usize) -> Vec<ModelRow> {
    (1..=kmax)
        .map(|k| {
            let (l, u) = fbmpk::kernel::triangle_reads(k);
            ModelRow {
                k,
                standard_reads: k,
                fb_lower_reads: l,
                fb_upper_reads: u,
                fb_effective_reads: (l + u) as f64 / 2.0,
                ideal_ratio: fbmpk::model::ideal_ratio(k),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> BenchConfig {
        BenchConfig { scale: 0.0005, threads: 2, reps: 1, seed: 1 }
    }

    #[test]
    fn suite_loads_and_all_experiments_run_at_tiny_scale() {
        let cfg = tiny_cfg();
        let cases: Vec<MatrixCase> = load_suite(&cfg).into_iter().take(3).collect();
        assert_eq!(cases.len(), 3);
        assert_eq!(table2(&cases).len(), 3);
        let f7 = fig7(&cfg, &cases);
        assert!(f7.iter().all(|r| r.speedup > 0.0 && r.t_baseline > 0.0));
        let f9 = fig9(&cases);
        assert_eq!(f9.len(), 9);
        assert!(f9.iter().all(|r| r.ratio > 0.2 && r.ratio < 2.0));
        let f10 = fig10(&cfg, &cases);
        assert!(f10.iter().all(|r| r.speedup_fb > 0.0 && r.speedup_fb_btb > 0.0));
        let t3 = table3(&cfg, &cases);
        assert!(t3.iter().all(|r| r.ratio > 0.0));
        let t4 = table4(&cases);
        // Table IV: storage within ~15% of plain CSR for all inputs.
        assert!(t4.iter().all(|r| r.overhead > 0.85 && r.overhead < 1.35), "{t4:?}");
        let f11 = fig11(&cfg, &cases);
        assert!(f11.iter().all(|r| r.n_spmvs > 0.0));
        let f12 = fig12(&cfg, &cases, &[1, 2]);
        assert_eq!(f12.len(), 6);
        let sy = sync_modes(&cfg, &cases[..1], &[1, 2]);
        assert_eq!(sy.len(), 2);
        assert!(sy.iter().all(|r| r.identical && r.t_barrier > 0.0 && r.t_p2p > 0.0));
        let pa = partition(&cfg, &cases[..1]);
        assert_eq!(pa.len(), 6, "three strategies per matrix, suite case + rmat");
        assert!(pa.iter().any(|r| r.name == "rmat"), "synthetic rmat case appended");
        assert!(pa.iter().all(|r| r.identical), "strategy run not bit-identical: {pa:?}");
        assert!(pa.iter().all(|r| r.t_p2p > 0.0 && r.gbs > 0.0 && r.balance >= 1.0));
        assert!(pa.iter().all(|r| (0.0..=1.0).contains(&r.wait_frac)));
        let at = attribution(&cfg, &cases[..1]);
        assert_eq!(at.len(), 2, "suite case + rmat");
        for r in &at {
            assert!(r.identical, "probed run not bit-identical: {}", r.name);
            assert!(r.t_p2p > 0.0 && r.traffic_vs_model > 0.0);
            // Conservation: modeled cells sum exactly to the whole-plan
            // §III-B bytes; simulated cells + unattributed sum exactly to
            // the whole-kernel simulated DRAM total.
            assert_eq!(r.report.modeled_total, r.modeled_matrix_bytes, "{}", r.name);
            let sim_cells: u64 = r.report.cells.iter().map(|c| c.simulated_bytes).sum();
            assert_eq!(sim_cells + r.sim_unattributed, r.sim_dram_total, "{}", r.name);
            let phase_sum: u64 = r.sim_phase_bytes.iter().map(|&(_, v)| v).sum();
            assert_eq!(phase_sum, r.sim_dram_total, "{}", r.name);
            assert_eq!(r.measured_available, r.report.measured_total.is_some(), "{}", r.name);
        }
        let tr = tune(&cfg, &cases);
        assert_eq!(tr.len(), 3);
        assert!(tr.iter().all(|r| r.t_scalar > 0.0 && r.t_tuned > 0.0 && !r.variant.is_empty()));
        let (pr, trace) = profile(&cfg, &cases[..1], Some(10.0));
        assert_eq!(pr.len(), 1);
        let p = &pr[0];
        assert!(p.identical, "recording changed the numerics");
        assert_eq!(p.fallbacks, 0, "healthy run must not fall back");
        assert_eq!(p.watchdog_fires, 0, "healthy run must not trip the watchdog");
        assert_eq!(p.fault_injection_hits, 0);
        assert!(p.t_barrier > 0.0 && p.t_p2p > 0.0);
        assert!(p.modeled_matrix_bytes > 0 && p.sim_dram_bytes > 0);
        assert!(p.traffic_vs_model > 0.0);
        assert!((0.0..=1.0).contains(&p.wait_frac_barrier), "{}", p.wait_frac_barrier);
        assert!((0.0..=1.0).contains(&p.wait_frac_p2p), "{}", p.wait_frac_p2p);
        assert_eq!(p.dropped_spans, 0);
        assert!(!trace.is_empty());
        assert!(p.spans_recorded > 0);
    }

    #[test]
    fn model_table_matches_paper() {
        let m = model_table(9);
        assert_eq!(m.len(), 9);
        let k5 = &m[4];
        assert_eq!(k5.standard_reads, 5);
        assert_eq!(k5.fb_lower_reads, 3);
        assert_eq!(k5.fb_upper_reads, 3);
        assert!((k5.fb_effective_reads - 3.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_llc_clamps_and_pow2() {
        let small = scaled_llc(1000);
        assert_eq!(small.size_bytes, 256 << 10);
        let big = scaled_llc(usize::MAX / 64);
        assert_eq!(big.size_bytes, 64 << 20);
        let mid = scaled_llc(100 << 20);
        assert!(mid.size_bytes.is_power_of_two());
    }

    #[test]
    fn geomean_timer_returns_samples_and_rejects_zero_reps() {
        let t =
            time_geomean(|| std::thread::sleep(std::time::Duration::from_micros(50)), 2).unwrap();
        assert!(t.geomean > 0.0);
        assert_eq!(t.samples.len(), 2);
        assert!(t.samples.iter().all(|&s| s > 0.0));
        // The geomean is derived from exactly those samples.
        assert!((t.geomean - crate::report::geomean(&t.samples)).abs() <= 1e-12 * t.geomean);
        assert_eq!(time_geomean(|| (), 0).unwrap_err(), TimingError::ZeroReps);
    }
}
