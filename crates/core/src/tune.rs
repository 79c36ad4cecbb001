//! Inspector–executor auto-tuning for SpMV-sequence hot paths.
//!
//! OSKI-style: the FBMPK use case (Krylov solvers, polynomial filters)
//! performs *sequences* of products with one matrix, so a one-off
//! inspection pass is amortized over many invocations. The inspector
//! computes structural features, a cost model proposes candidate kernel
//! variants, and (optionally) a one-shot micro-probe times the candidates
//! and keeps the fastest. Callers that plan repeatedly against the same
//! matrix key their own caches by [`fingerprint`] (the request server's
//! single-flight plan cache does).
//!
//! The variant space:
//!
//! * [`KernelVariant::CsrScalar`] — the reference row loop,
//! * [`KernelVariant::CsrUnrolled4`] — 4 independent accumulators per row,
//! * [`KernelVariant::CsrRowSplit`] — scalar for short rows, unrolled for
//!   long ones (skewed row-length distributions),
//! * [`KernelVariant::CsrSimd`] — lane-vectorized row dot products
//!   (offered only when [`fbmpk_sparse::simd::detect`] finds an
//!   accelerated instruction set),
//! * [`KernelVariant::SellCs`] — SELL-C-σ chunked storage (regular short
//!   rows; serial only).
//!
//! Parallel execution always partitions rows by merge-path diagonals over
//! `row_ptr` (see `fbmpk_parallel::partition::merge_path_partition`), so a
//! thread's share of `rows + nnz` work is bounded regardless of skew.

use crate::levelblock::{probe_llc_bytes, LevelBlockPlan};
use crate::plan::{FbmpkOptions, FbmpkPlan, ObsOptions};
use crate::schedule::SyncMode;
use crate::sink::NullSink;
use fbmpk_obs::recorder::{Span, SpanKind};
use fbmpk_obs::{NoopProbe, Probe, Recorder, SpanProbe};
use fbmpk_parallel::partition::merge_path_partition;
use fbmpk_parallel::{SharedSlice, ThreadPool};
use fbmpk_reorder::{AbmcParams, BlockingStrategy, Graph};
use fbmpk_sparse::sellcs::SellCs;
use fbmpk_sparse::simd::{self, SimdLevel};
use fbmpk_sparse::spmv::{spmv_rows, spmv_rows_rowsplit, spmv_rows_unrolled4};
use fbmpk_sparse::stats::MatrixStats;
use fbmpk_sparse::Csr;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Row-length threshold below which the row-split variant keeps the plain
/// scalar loop (also the unroll width, so the short path is exact-scalar).
pub const ROWSPLIT_THRESHOLD: usize = 4;

/// Default SELL chunk height C.
pub const SELL_C: usize = 8;

/// Default SELL sorting window σ (a multiple of [`SELL_C`]).
pub const SELL_SIGMA: usize = 64;

/// Maximum acceptable SELL padding ratio; beyond this the format wastes
/// more bandwidth on padding than chunking can recover.
pub const SELL_MAX_PADDING: f64 = 1.3;

/// The kernel variants the tuner selects among.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Reference scalar CSR row loop.
    CsrScalar,
    /// 4-way unrolled CSR row loop.
    CsrUnrolled4,
    /// Per-row dispatch: scalar below `threshold` nonzeros, unrolled above.
    CsrRowSplit {
        /// Row-length cutoff between the scalar and unrolled paths.
        threshold: usize,
    },
    /// Lane-vectorized row dot products via `fbmpk_sparse::simd`.
    CsrSimd {
        /// Vector width in f64 lanes of the instruction set the cost model
        /// saw when it offered this candidate (descriptive; dispatch always
        /// follows the runtime-detected level).
        width: usize,
    },
    /// SELL-C-σ chunked execution (serial only).
    SellCs {
        /// Chunk height.
        c: usize,
        /// Sorting window.
        sigma: usize,
    },
}

impl std::fmt::Display for KernelVariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelVariant::CsrScalar => write!(f, "csr-scalar"),
            KernelVariant::CsrUnrolled4 => write!(f, "csr-unrolled4"),
            KernelVariant::CsrRowSplit { threshold } => write!(f, "csr-rowsplit(t={threshold})"),
            KernelVariant::CsrSimd { width } => write!(f, "csr-simd{width}"),
            KernelVariant::SellCs { c, sigma } => write!(f, "sell-{c}-{sigma}"),
        }
    }
}

/// Structural features the inspector extracts — the cost model's inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixFeatures {
    /// Dimension.
    pub n: usize,
    /// Stored nonzeros.
    pub nnz: usize,
    /// Mean nonzeros per row.
    pub mean_row_nnz: f64,
    /// Variance of nonzeros per row.
    pub var_row_nnz: f64,
    /// Coefficient of variation of row lengths (`sqrt(var) / mean`;
    /// 0 = perfectly regular).
    pub row_cv: f64,
    /// Longest row.
    pub max_row_nnz: usize,
    /// Structural bandwidth `max |i - j|`.
    pub bandwidth: usize,
    /// Numerically symmetric (tol `1e-12`).
    pub symmetric: bool,
}

impl MatrixFeatures {
    /// Inspects `a` in one pass over the structure (plus the symmetry
    /// check, which the underlying stats routine performs on the values).
    pub fn inspect(a: &Csr) -> Self {
        let stats = MatrixStats::compute(a);
        let n = stats.nrows;
        let mean = stats.nnz_per_row;
        let var = if n == 0 {
            0.0
        } else {
            (0..n)
                .map(|r| {
                    let d = a.row_nnz(r) as f64 - mean;
                    d * d
                })
                .sum::<f64>()
                / n as f64
        };
        let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
        MatrixFeatures {
            n,
            nnz: stats.nnz,
            mean_row_nnz: mean,
            var_row_nnz: var,
            row_cv: cv,
            max_row_nnz: stats.max_row_nnz,
            bandwidth: stats.bandwidth,
            symmetric: stats.symmetric,
        }
    }
}

/// Tuning controls.
#[derive(Debug, Clone, Copy)]
pub struct TuneOptions {
    /// Worker threads for the executor.
    pub nthreads: usize,
    /// Run the one-shot micro-probe (time each candidate, keep the
    /// fastest). When `false` the cost model's first choice wins.
    pub probe: bool,
    /// SpMV repetitions per candidate in the micro-probe.
    pub probe_reps: usize,
    /// Sweep synchronization mode handed to FBMPK plans derived from this
    /// tuning via [`TunedPlan::fbmpk_plan`]. Plain SpMV has no intra-sweep
    /// dependencies, so the mode does not affect the tuned executor itself.
    pub sync: SyncMode,
    /// In-kernel observability: when recording, each tuned SpMV appends
    /// one per-thread span to the plan's recorder, and FBMPK plans
    /// derived via [`TunedPlan::fbmpk_plan`] record too.
    pub obs: ObsOptions,
    /// ABMC blocking strategy for FBMPK plans derived via
    /// [`TunedPlan::fbmpk_plan_auto`]. `None` (the default) lets the
    /// cut-edge cost model choose: the strategy whose partition cuts the
    /// fewest row-structure edges — and therefore induces the fewest
    /// cross-block P2P dependency waits — wins.
    pub abmc_blocking: Option<BlockingStrategy>,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            nthreads: 1,
            probe: true,
            probe_reps: 3,
            sync: SyncMode::default(),
            obs: ObsOptions::default(),
            abmc_blocking: None,
        }
    }
}

/// What the tuner decided and why — surfaced by `repro tune`.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// The selected variant.
    pub variant: KernelVariant,
    /// `(variant, best seconds per SpMV)` for every probed candidate;
    /// empty when the probe was disabled.
    pub probed: Vec<(KernelVariant, f64)>,
    /// Probe time of the scalar baseline (0 when not probed).
    pub scalar_seconds: f64,
    /// Probe time of the selected variant (0 when not probed).
    pub chosen_seconds: f64,
    /// SELL padding ratio when a SELL candidate was built.
    pub sell_padding: Option<f64>,
    /// Seconds the whole inspection + selection took.
    pub inspect_seconds: f64,
}

impl TuneReport {
    /// Probe-measured speedup of the chosen variant over scalar CSR
    /// (1.0 when the probe was disabled).
    pub fn probed_speedup(&self) -> f64 {
        if self.scalar_seconds > 0.0 && self.chosen_seconds > 0.0 {
            self.scalar_seconds / self.chosen_seconds
        } else {
            1.0
        }
    }
}

/// A tuned, reusable SpMV executor: matrix storage (CSR and, when
/// selected, SELL-C-σ), kernel variant, merge-path row partition, and
/// worker pool.
pub struct TunedPlan {
    a: Csr,
    sell: Option<SellCs>,
    variant: KernelVariant,
    simd: SimdLevel,
    features: MatrixFeatures,
    ranges: Vec<Range<usize>>,
    pool: Arc<ThreadPool>,
    sync: SyncMode,
    obs: ObsOptions,
    recorder: Option<Arc<Recorder>>,
    /// BFS-shell blocking plan for [`TunedPlan::power`], built lazily on
    /// the first deep-power call (the BFS costs an O(nnz) pass that plain
    /// SpMV users should not pay). `None` inside means "built, not
    /// profitable on this matrix".
    levelblock: OnceLock<Option<LevelBlockPlan>>,
    /// Explicit strategy override from [`TuneOptions::abmc_blocking`].
    abmc_blocking: Option<BlockingStrategy>,
    /// Lazily-resolved cut-edge comparison (built on the first
    /// [`TunedPlan::blocking_strategy`] call without an override; the
    /// partitions cost O(nnz·levels) that plain-SpMV users never pay).
    selected_blocking: OnceLock<(BlockingStrategy, Vec<(BlockingStrategy, usize)>)>,
    report: TuneReport,
}

impl TunedPlan {
    /// Inspects `a`, selects a variant, and builds the executor.
    ///
    /// # Panics
    /// Panics when `a` is rectangular or `options.nthreads == 0`.
    pub fn new(a: &Csr, options: TuneOptions) -> Self {
        Self::with_pool(a, options, Arc::new(ThreadPool::new(options.nthreads)))
    }

    /// Like [`TunedPlan::new`] but reusing an existing pool (whose size
    /// must equal `options.nthreads`).
    ///
    /// # Panics
    /// Panics on dimension or thread-count mismatches.
    pub fn with_pool(a: &Csr, options: TuneOptions, pool: Arc<ThreadPool>) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "tuning requires a square matrix");
        assert!(options.nthreads > 0, "need at least one thread");
        assert_eq!(pool.nthreads(), options.nthreads, "pool size mismatch");
        let t0 = Instant::now();
        let _whole = fbmpk_obs::phases::span("tune.inspect");
        let features = {
            let _p = fbmpk_obs::phases::span("tune.inspect.features");
            MatrixFeatures::inspect(a)
        };
        let simd_level = simd::detect();
        let candidates = cost_model_candidates(&features, options.nthreads, simd_level);

        // Build SELL storage once if any candidate needs it, and drop the
        // candidate when padding exceeds the profitability bound.
        let mut sell: Option<SellCs> = None;
        let mut sell_padding = None;
        let candidates: Vec<KernelVariant> = {
            let _p = fbmpk_obs::phases::span("tune.inspect.sell_build");
            candidates
                .into_iter()
                .filter(|cand| match *cand {
                    KernelVariant::SellCs { c, sigma } => {
                        let built = SellCs::from_csr(a, c, sigma);
                        let ratio = built.padding_ratio();
                        sell_padding = Some(ratio);
                        if ratio <= SELL_MAX_PADDING {
                            sell = Some(built);
                            true
                        } else {
                            false
                        }
                    }
                    _ => true,
                })
                .collect()
        };

        let ranges = merge_path_partition(a.row_ptr(), options.nthreads);

        let (variant, probed) = if options.probe && features.nnz > 0 {
            let _p = fbmpk_obs::phases::span("tune.inspect.probe");
            probe_candidates(a, sell.as_ref(), &ranges, &pool, &candidates, options.probe_reps)
        } else {
            // Cost-model order is best-first; candidates[0] always exists
            // (the scalar baseline is unconditional).
            (candidates[0], Vec::new())
        };
        if !matches!(variant, KernelVariant::SellCs { .. }) {
            // Keep SELL storage only when it won; otherwise it is dead weight.
            sell = None;
        }

        let scalar_seconds =
            probed.iter().find(|(v, _)| *v == KernelVariant::CsrScalar).map_or(0.0, |&(_, s)| s);
        let chosen_seconds = probed.iter().find(|(v, _)| *v == variant).map_or(0.0, |&(_, s)| s);
        let report = TuneReport {
            variant,
            probed,
            scalar_seconds,
            chosen_seconds,
            sell_padding,
            inspect_seconds: t0.elapsed().as_secs_f64(),
        };
        let recorder = if options.obs.record {
            Some(Arc::new(Recorder::new(options.nthreads, options.obs.span_capacity)))
        } else {
            None
        };
        TunedPlan {
            a: a.clone(),
            sell,
            variant,
            simd: simd_level,
            features,
            ranges,
            pool,
            sync: options.sync,
            obs: options.obs,
            recorder,
            levelblock: OnceLock::new(),
            abmc_blocking: options.abmc_blocking,
            selected_blocking: OnceLock::new(),
            report,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.a.nrows()
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Csr {
        &self.a
    }

    /// The selected kernel variant.
    pub fn variant(&self) -> KernelVariant {
        self.variant
    }

    /// The SIMD level detected when this plan was built.
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// The inspector's features.
    pub fn features(&self) -> &MatrixFeatures {
        &self.features
    }

    /// The tuning report (probe timings, selection rationale inputs).
    pub fn report(&self) -> &TuneReport {
        &self.report
    }

    /// The merge-path row partition the parallel executor uses.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// The sweep synchronization mode plans derived from this tuning use.
    pub fn sync_mode(&self) -> SyncMode {
        self.sync
    }

    /// The span recorder, when [`ObsOptions::record`] was set.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// Builds an FBMPK plan for the same matrix that *shares* this plan's
    /// worker pool and inherits its [`SyncMode`] — the bridge from tuned
    /// plain-SpMV sequences to the fused forward/backward kernel.
    /// `reorder` supplies the ABMC parameters (required whenever the pool
    /// is parallel, same as [`FbmpkPlan::new`]).
    ///
    /// # Errors
    /// Propagates [`FbmpkPlan::with_pool`] errors (e.g. a parallel pool
    /// without reordering).
    pub fn fbmpk_plan(&self, reorder: Option<AbmcParams>) -> crate::Result<FbmpkPlan> {
        let options = FbmpkOptions {
            nthreads: self.pool.nthreads(),
            reorder,
            sync: self.sync,
            obs: self.obs,
            ..FbmpkOptions::default()
        };
        FbmpkPlan::with_pool(&self.a, options, Arc::clone(&self.pool))
    }

    /// The ABMC blocking strategy the tuner picks for `nblocks` blocks:
    /// the [`TuneOptions::abmc_blocking`] override when set, otherwise
    /// the strategy whose partition cuts the fewest row-structure edges
    /// (see [`select_blocking_strategy`]). The comparison runs once per
    /// tuned plan and is cached for the first `nblocks` asked.
    pub fn blocking_strategy(&self, nblocks: usize) -> BlockingStrategy {
        if let Some(s) = self.abmc_blocking {
            return s;
        }
        self.selected_blocking.get_or_init(|| select_blocking_strategy(&self.a, nblocks)).0
    }

    /// The per-strategy cut-edge counts behind the auto selection —
    /// `None` until [`TunedPlan::blocking_strategy`] has resolved them
    /// (or forever, under an explicit override).
    pub fn blocking_cut_edges(&self) -> Option<&[(BlockingStrategy, usize)]> {
        self.selected_blocking.get().map(|(_, cuts)| cuts.as_slice())
    }

    /// Like [`TunedPlan::fbmpk_plan`], with ABMC parameters assembled
    /// from `nblocks` and the tuner-selected blocking strategy.
    ///
    /// # Errors
    /// Propagates [`FbmpkPlan::with_pool`] errors.
    pub fn fbmpk_plan_auto(&self, nblocks: usize) -> crate::Result<FbmpkPlan> {
        let params =
            AbmcParams { nblocks, strategy: self.blocking_strategy(nblocks), ..Default::default() };
        self.fbmpk_plan(Some(params))
    }

    /// Computes `y = A x` with the tuned kernel.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        // Dispatch on the recorder: the common (no-recorder) case
        // monomorphizes to the uninstrumented executor.
        match &self.recorder {
            Some(rec) => self.spmv_probed(x, y, &SpanProbe::new(rec)),
            None => self.spmv_probed(x, y, &NoopProbe),
        }
    }

    fn spmv_probed<P: Probe>(&self, x: &[f64], y: &mut [f64], probe: &P) {
        assert_eq!(x.len(), self.a.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.a.nrows(), "y length must equal nrows");
        if let Some(sell) = &self.sell {
            let t0 = probe.now();
            sell.spmv(x, y);
            if P::ENABLED {
                // SAFETY: serial path — lane 0 belongs to this thread.
                unsafe { probe.record(0, spmv_span(self.a.nrows(), t0, probe.now())) };
            }
            return;
        }
        if self.pool.nthreads() == 1 {
            let t0 = probe.now();
            run_variant(self.variant, &self.a, x, y, 0, self.a.nrows());
            if P::ENABLED {
                // SAFETY: serial path — lane 0 belongs to this thread.
                unsafe { probe.record(0, spmv_span(self.a.nrows(), t0, probe.now())) };
            }
            return;
        }
        let variant = self.variant;
        let a = &self.a;
        let ranges = &self.ranges;
        let shared = SharedSlice::new(y);
        self.pool.run(&|t| {
            let r = ranges[t].clone();
            let t0 = probe.now();
            // SAFETY: ranges are disjoint; thread t writes only rows in
            // ranges[t], and x is read-only for the whole call.
            let yt = unsafe { shared.slice_mut(r.clone()) };
            // The variant kernels index the output by absolute row, so hand
            // each thread the full-length view of its own rows.
            run_variant_into(variant, a, x, yt, r.start, r.end);
            if P::ENABLED {
                // SAFETY: `t` is this worker's own lane.
                unsafe { probe.record(t, spmv_span(r.len(), t0, probe.now())) };
            }
        });
    }

    /// Computes `y = A x` with the scalar reference kernel on the same
    /// partition and pool — the baseline `repro tune` reports speedups
    /// against.
    ///
    /// # Panics
    /// Panics on length mismatches.
    pub fn spmv_scalar(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_with(KernelVariant::CsrScalar, x, y);
    }

    /// Computes `y = A x` with an explicit CSR kernel variant on the same
    /// partition and pool — the harness's scalar/unrolled/SIMD comparison
    /// rows all run through here so only the inner kernel differs.
    ///
    /// # Panics
    /// Panics on length mismatches or a [`KernelVariant::SellCs`] variant
    /// (SELL needs built chunk storage; use [`TunedPlan::spmv`] on a plan
    /// that selected it).
    pub fn spmv_with(&self, variant: KernelVariant, x: &[f64], y: &mut [f64]) {
        assert!(
            !matches!(variant, KernelVariant::SellCs { .. }),
            "SELL has no row-range form; spmv_with takes CSR variants only"
        );
        assert_eq!(x.len(), self.a.ncols(), "x length must equal ncols");
        assert_eq!(y.len(), self.a.nrows(), "y length must equal nrows");
        if self.pool.nthreads() == 1 {
            run_variant(variant, &self.a, x, y, 0, self.a.nrows());
            return;
        }
        let a = &self.a;
        let ranges = &self.ranges;
        let shared = SharedSlice::new(y);
        self.pool.run(&|t| {
            let r = ranges[t].clone();
            // SAFETY: disjoint ranges per thread, x read-only.
            let yt = unsafe { shared.slice_mut(r.clone()) };
            run_variant_into(variant, a, x, yt, r.start, r.end);
        });
    }

    /// Computes `Aᵏ x₀` by `k` tuned SpMV rounds — or, for deep powers
    /// (`k >= 4`) where the BFS-shell working set fits the last-level
    /// cache, by the level-blocked wavefront schedule, which streams the
    /// matrix only `⌈k / kb⌉` times instead of `k`.
    pub fn power(&self, x0: &[f64], k: usize) -> Vec<f64> {
        assert_eq!(x0.len(), self.n(), "x0 length mismatch");
        if k >= 4 {
            if let Some(lb) = self.level_block_for(k) {
                let run = match &self.recorder {
                    Some(rec) => lb.run_probed(&self.pool, x0, k, &NullSink, &SpanProbe::new(rec)),
                    None => lb.run_probed(&self.pool, x0, k, &NullSink, &NoopProbe),
                };
                if let Ok(out) = run {
                    return out;
                }
                // A worker fault degrades to the streaming rounds below.
            }
        }
        let mut x = x0.to_vec();
        if k == 0 {
            return x;
        }
        let mut y = vec![0.0; self.n()];
        for _ in 0..k {
            self.spmv(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
        }
        x
    }

    /// The level-blocking plan when it is profitable for this `k`: built
    /// once per tuned plan, and used only when the auto-sized band covers
    /// at least two powers (otherwise the wavefront degenerates to
    /// barrier-heavy streaming with no traffic savings).
    fn level_block_for(&self, k: usize) -> Option<&LevelBlockPlan> {
        let lb = self
            .levelblock
            .get_or_init(|| {
                if self.features.nnz == 0 {
                    return None;
                }
                let lb =
                    LevelBlockPlan::new(&self.a, self.pool.nthreads(), None, probe_llc_bytes());
                // A single shell means the whole matrix is one tile —
                // blocking cannot beat streaming there.
                (lb.levels().nlevels() >= 2).then_some(lb)
            })
            .as_ref()?;
        (lb.resolve_tile_powers(k) >= 2).then_some(lb)
    }

    /// Computes `y = Σ_{i=0..=k} coeffs[i] · Aⁱ x₀` (`k = coeffs.len()-1`)
    /// as a sequence of tuned SpMVs.
    ///
    /// # Panics
    /// Panics when `coeffs` is empty or `x0.len() != n`.
    pub fn sspmv(&self, coeffs: &[f64], x0: &[f64]) -> Vec<f64> {
        assert!(!coeffs.is_empty(), "need at least the alpha_0 coefficient");
        assert_eq!(x0.len(), self.n(), "x0 length mismatch");
        let mut acc: Vec<f64> = x0.iter().map(|&v| coeffs[0] * v).collect();
        let mut x = x0.to_vec();
        let mut y = vec![0.0; self.n()];
        for &c in &coeffs[1..] {
            self.spmv(&x, &mut y);
            std::mem::swap(&mut x, &mut y);
            if c != 0.0 {
                for (a, &v) in acc.iter_mut().zip(&x) {
                    *a += c * v;
                }
            }
        }
        acc
    }
}

/// One tuned-SpMV span (serial or one thread's share).
#[inline(always)]
fn spmv_span(rows: usize, start_ns: u64, end_ns: u64) -> Span {
    Span {
        kind: SpanKind::Spmv,
        color: Span::NO_ID,
        block: Span::NO_ID,
        detail: rows as u32,
        start_ns,
        end_ns,
    }
}

/// Orders candidate variants best-first from structural features plus the
/// detected SIMD level. The scalar baseline is always present (and always
/// last unless nothing else applies), so `[0]` is the model's pick when
/// probing is off.
fn cost_model_candidates(
    f: &MatrixFeatures,
    nthreads: usize,
    simd: SimdLevel,
) -> Vec<KernelVariant> {
    let mut out = Vec::new();
    let mean = f.mean_row_nnz;
    // SELL-C-σ pays off on regular row lengths (low CV keeps padding
    // small) and is implemented serial-only. `from_csr` cost is bounded by
    // the padding filter applied by the caller.
    if nthreads == 1 && f.n >= SELL_SIGMA && mean >= 2.0 && f.row_cv <= 0.6 {
        out.push(KernelVariant::SellCs { c: SELL_C, sigma: SELL_SIGMA });
    }
    // Vector lanes need rows long enough to fill at least one gather;
    // below that the lane setup dominates and the scalar paths win.
    if simd.is_accelerated() && mean >= 4.0 {
        out.push(KernelVariant::CsrSimd { width: simd.width() });
    }
    // Unrolling needs rows long enough to fill 4 accumulators; skewed
    // distributions prefer the per-row dispatch so short rows skip the
    // unroll setup.
    if mean >= 4.0 {
        if f.row_cv > 0.5 {
            out.push(KernelVariant::CsrRowSplit { threshold: ROWSPLIT_THRESHOLD });
            out.push(KernelVariant::CsrUnrolled4);
        } else {
            out.push(KernelVariant::CsrUnrolled4);
            out.push(KernelVariant::CsrRowSplit { threshold: ROWSPLIT_THRESHOLD });
        }
    } else if f.max_row_nnz > 2 * ROWSPLIT_THRESHOLD {
        // Mostly-short rows with a heavy tail: only the dispatching
        // variant can win.
        out.push(KernelVariant::CsrRowSplit { threshold: ROWSPLIT_THRESHOLD });
    }
    out.push(KernelVariant::CsrScalar);
    out
}

/// Runs the row-range kernel for `variant` writing into a full-length
/// output slice (`y.len() == a.nrows()`).
fn run_variant(variant: KernelVariant, a: &Csr, x: &[f64], y: &mut [f64], lo: usize, hi: usize) {
    match variant {
        KernelVariant::CsrScalar => spmv_rows(a, x, y, lo, hi),
        KernelVariant::CsrUnrolled4 => spmv_rows_unrolled4(a, x, y, lo, hi),
        KernelVariant::CsrRowSplit { threshold } => spmv_rows_rowsplit(a, x, y, lo, hi, threshold),
        KernelVariant::CsrSimd { .. } => simd::spmv_rows_simd(a, x, y, lo, hi),
        // SELL has no row-range form; executor handles it before dispatch.
        KernelVariant::SellCs { .. } => unreachable!("SELL dispatches whole-matrix"),
    }
}

/// Like [`run_variant`] but `y` is the sub-slice for rows `lo..hi` only
/// (the parallel path hands each thread just its own rows).
fn run_variant_into(
    variant: KernelVariant,
    a: &Csr,
    x: &[f64],
    y: &mut [f64],
    lo: usize,
    hi: usize,
) {
    debug_assert_eq!(y.len(), hi - lo);
    let row_ptr = a.row_ptr();
    let col_idx = a.col_idx();
    let values = a.values();
    match variant {
        KernelVariant::CsrScalar => {
            for r in lo..hi {
                let mut sum = 0.0;
                for j in row_ptr[r]..row_ptr[r + 1] {
                    sum += values[j] * x[col_idx[j] as usize];
                }
                y[r - lo] = sum;
            }
        }
        KernelVariant::CsrUnrolled4 => {
            for r in lo..hi {
                let (s, e) = (row_ptr[r], row_ptr[r + 1]);
                y[r - lo] = fbmpk_sparse::spmv::row_dot_unrolled4(&col_idx[s..e], &values[s..e], x);
            }
        }
        KernelVariant::CsrRowSplit { threshold } => {
            for r in lo..hi {
                let (s, e) = (row_ptr[r], row_ptr[r + 1]);
                if e - s <= threshold {
                    let mut sum = 0.0;
                    for j in s..e {
                        sum += values[j] * x[col_idx[j] as usize];
                    }
                    y[r - lo] = sum;
                } else {
                    y[r - lo] =
                        fbmpk_sparse::spmv::row_dot_unrolled4(&col_idx[s..e], &values[s..e], x);
                }
            }
        }
        KernelVariant::CsrSimd { .. } => {
            for r in lo..hi {
                let (s, e) = (row_ptr[r], row_ptr[r + 1]);
                y[r - lo] = simd::row_dot(&col_idx[s..e], &values[s..e], x);
            }
        }
        KernelVariant::SellCs { .. } => unreachable!("SELL dispatches whole-matrix"),
    }
}

/// Times each candidate (`reps` SpMVs, keep the best rep) and returns the
/// fastest plus all measurements.
fn probe_candidates(
    a: &Csr,
    sell: Option<&SellCs>,
    ranges: &[Range<usize>],
    pool: &Arc<ThreadPool>,
    candidates: &[KernelVariant],
    reps: usize,
) -> (KernelVariant, Vec<(KernelVariant, f64)>) {
    let n = a.nrows();
    // A deterministic, nonzero probe vector; values are irrelevant to
    // timing but must not be denormal.
    let x: Vec<f64> = (0..n).map(|i| 1.0 + 0.001 * (i % 97) as f64).collect();
    let mut y = vec![0.0; n];
    let reps = reps.max(1);
    let mut measured = Vec::with_capacity(candidates.len() + 1);
    let mut run_one = |variant: KernelVariant| -> f64 {
        let mut best = f64::INFINITY;
        // One untimed warm-up fills caches and faults pages.
        run_probe_spmv(variant, a, sell, ranges, pool, &x, &mut y);
        for _ in 0..reps {
            let t0 = Instant::now();
            run_probe_spmv(variant, a, sell, ranges, pool, &x, &mut y);
            best = best.min(t0.elapsed().as_secs_f64());
        }
        best
    };
    for &cand in candidates {
        let secs = run_one(cand);
        measured.push((cand, secs));
    }
    if !measured.iter().any(|(v, _)| *v == KernelVariant::CsrScalar) {
        let secs = run_one(KernelVariant::CsrScalar);
        measured.push((KernelVariant::CsrScalar, secs));
    }
    let best = measured
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least the scalar candidate")
        .0;
    (best, measured)
}

fn run_probe_spmv(
    variant: KernelVariant,
    a: &Csr,
    sell: Option<&SellCs>,
    ranges: &[Range<usize>],
    pool: &Arc<ThreadPool>,
    x: &[f64],
    y: &mut [f64],
) {
    if let KernelVariant::SellCs { .. } = variant {
        sell.expect("SELL candidate requires built storage").spmv(x, y);
        return;
    }
    if pool.nthreads() == 1 {
        run_variant(variant, a, x, y, 0, a.nrows());
        return;
    }
    let shared = SharedSlice::new(y);
    pool.run(&|t| {
        let r = ranges[t].clone();
        // SAFETY: disjoint ranges per thread, x read-only.
        let yt = unsafe { shared.slice_mut(r.clone()) };
        run_variant_into(variant, a, x, yt, r.start, r.end);
    });
}

/// Compares the three ABMC blocking strategies on `a`'s row-structure
/// graph by cut-edge count and returns the winner plus every candidate's
/// count. A cut edge is an adjacency between rows in different blocks —
/// exactly the structure that becomes a cross-block dependency (and a
/// point-to-point flag wait) after coloring, so fewer cut edges means
/// fewer waits and better block-local reuse. Ties prefer the cheaper
/// build, in order contiguous → aggregated → multilevel. Each candidate
/// builds the same `Blocking` that [`fbmpk_reorder::Abmc::new`] would,
/// so the counts describe the partitions actually executed.
pub fn select_blocking_strategy(
    a: &Csr,
    nblocks: usize,
) -> (BlockingStrategy, Vec<(BlockingStrategy, usize)>) {
    use fbmpk_reorder::blocking::{aggregated_blocks, block_size_for_count, contiguous_blocks};
    use fbmpk_reorder::{cut_edges, multilevel_blocks};
    let n = a.nrows();
    if n == 0 || nblocks <= 1 {
        // One block (or nothing) cuts no edges anywhere; take the trivial
        // partition without building graphs.
        return (BlockingStrategy::Contiguous, Vec::new());
    }
    let g = Graph::from_matrix(a);
    let cuts = vec![
        (BlockingStrategy::Contiguous, cut_edges(&g, &contiguous_blocks(n, nblocks))),
        (
            BlockingStrategy::Aggregated,
            cut_edges(&g, &aggregated_blocks(&g, block_size_for_count(n, nblocks))),
        ),
        (BlockingStrategy::Multilevel, cut_edges(&g, &multilevel_blocks(&g, nblocks))),
    ];
    let best = cuts.iter().min_by_key(|&&(_, c)| c).expect("three candidates").0;
    (best, cuts)
}

/// Structural + numerical fingerprint: FNV-1a over dimensions and the
/// complete `row_ptr`, `col_idx`, and value-bit streams. Any entry change
/// — structural or numerical — changes the fingerprint, so a cached plan
/// can never be served for a modified matrix. Cost is one O(nnz) pass,
/// comparable to a single SpMV and paid once per cache lookup.
pub fn fingerprint(a: &Csr) -> u64 {
    let mut h = crate::fingerprint::Fnv64::new();
    h.write_usize(a.nrows());
    h.write_usize(a.ncols());
    h.write_usize(a.nnz());
    for &p in a.row_ptr() {
        h.write_usize(p);
    }
    for &c in a.col_idx() {
        h.write_u64(c as u64);
    }
    for &v in a.values() {
        h.write_f64(v);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk_sparse::spmv::spmv;
    use fbmpk_sparse::vecops::rel_err_inf;

    fn grid(n: usize) -> Csr {
        fbmpk_gen::poisson::grid2d_5pt(n, n)
    }

    fn skewed(seed: u64) -> Csr {
        fbmpk_gen::rmat::rmat(fbmpk_gen::rmat::RmatParams {
            scale: 8,
            edge_factor: 8,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn tuned_spmv_matches_scalar_all_variants() {
        let a = grid(12);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.0; n];
        spmv(&a, &x, &mut want);
        for variant in [
            KernelVariant::CsrScalar,
            KernelVariant::CsrUnrolled4,
            KernelVariant::CsrRowSplit { threshold: ROWSPLIT_THRESHOLD },
        ] {
            let mut got = vec![0.0; n];
            run_variant(variant, &a, &x, &mut got, 0, n);
            assert!(rel_err_inf(&got, &want) < 1e-12, "{variant}");
        }
    }

    #[test]
    fn tuned_plan_serial_and_parallel_match_reference() {
        for a in [grid(10), skewed(3)] {
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| 1.0 - 0.01 * (i % 31) as f64).collect();
            let mut want = vec![0.0; n];
            spmv(&a, &x, &mut want);
            for nthreads in [1, 2, 4] {
                let plan = TunedPlan::new(
                    &a,
                    TuneOptions { nthreads, probe: true, probe_reps: 1, ..Default::default() },
                );
                let mut got = vec![0.0; n];
                plan.spmv(&x, &mut got);
                assert!(
                    rel_err_inf(&got, &want) < 1e-12,
                    "nthreads={nthreads} variant={}",
                    plan.variant()
                );
            }
        }
    }

    #[test]
    fn power_and_sspmv_match_untuned() {
        let a = grid(8);
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let baseline = crate::StandardMpk::new(&a, 1).unwrap();
        let plan = TunedPlan::new(
            &a,
            TuneOptions { nthreads: 2, probe: false, probe_reps: 1, ..Default::default() },
        );
        for k in [1, 2, 5] {
            let want = baseline.power(&x0, k);
            let got = plan.power(&x0, k);
            assert!(rel_err_inf(&got, &want) < 1e-12, "k={k}");
        }
        let coeffs = [0.5, -1.0, 0.0, 2.0];
        let want = baseline.sspmv(&coeffs, &x0);
        let got = plan.sspmv(&coeffs, &x0);
        assert!(rel_err_inf(&got, &want) < 1e-12);
    }

    #[test]
    fn cost_model_prefers_rowsplit_on_skew() {
        let f = MatrixFeatures {
            n: 1000,
            nnz: 16_000,
            mean_row_nnz: 16.0,
            var_row_nnz: 400.0,
            row_cv: 1.25,
            max_row_nnz: 300,
            bandwidth: 900,
            symmetric: false,
        };
        let c = cost_model_candidates(&f, 4, SimdLevel::Scalar);
        assert_eq!(c[0], KernelVariant::CsrRowSplit { threshold: ROWSPLIT_THRESHOLD });
        assert_eq!(*c.last().unwrap(), KernelVariant::CsrScalar);
        // SELL never offered in parallel mode.
        assert!(!c.iter().any(|v| matches!(v, KernelVariant::SellCs { .. })));
    }

    #[test]
    fn cost_model_offers_sell_for_regular_serial() {
        let f = MatrixFeatures {
            n: 4096,
            nnz: 20_480,
            mean_row_nnz: 5.0,
            var_row_nnz: 0.25,
            row_cv: 0.1,
            max_row_nnz: 5,
            bandwidth: 64,
            symmetric: true,
        };
        let c = cost_model_candidates(&f, 1, SimdLevel::Scalar);
        assert!(matches!(c[0], KernelVariant::SellCs { .. }));
    }

    #[test]
    fn cost_model_offers_simd_only_when_accelerated() {
        let f = MatrixFeatures {
            n: 1000,
            nnz: 8_000,
            mean_row_nnz: 8.0,
            var_row_nnz: 1.0,
            row_cv: 0.125,
            max_row_nnz: 10,
            bandwidth: 100,
            symmetric: true,
        };
        let with = cost_model_candidates(&f, 4, SimdLevel::Avx2);
        assert!(
            with.contains(&KernelVariant::CsrSimd { width: 4 }),
            "accelerated level must offer the SIMD variant: {with:?}"
        );
        let simd_pos =
            with.iter().position(|v| matches!(v, KernelVariant::CsrSimd { .. })).unwrap();
        let unrolled_pos = with.iter().position(|v| *v == KernelVariant::CsrUnrolled4).unwrap();
        assert!(simd_pos < unrolled_pos, "SIMD ranks above unrolled when available");
        let without = cost_model_candidates(&f, 4, SimdLevel::Scalar);
        assert!(
            !without.iter().any(|v| matches!(v, KernelVariant::CsrSimd { .. })),
            "scalar level must not offer the SIMD variant"
        );
        // Short rows never offer SIMD even on accelerated hardware.
        let short = MatrixFeatures { mean_row_nnz: 2.0, ..f };
        let c = cost_model_candidates(&short, 4, SimdLevel::Avx2);
        assert!(!c.iter().any(|v| matches!(v, KernelVariant::CsrSimd { .. })));
    }

    #[test]
    fn simd_variant_matches_scalar_reference() {
        for a in [grid(12), skewed(7)] {
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).cos()).collect();
            let mut want = vec![0.0; n];
            spmv(&a, &x, &mut want);
            let width = fbmpk_sparse::simd::detect().width();
            let mut got = vec![0.0; n];
            run_variant(KernelVariant::CsrSimd { width }, &a, &x, &mut got, 0, n);
            assert!(rel_err_inf(&got, &want) < 1e-12);
            // The sub-slice executor form used by the parallel path.
            let mut got2 = vec![0.0; n / 2];
            run_variant_into(KernelVariant::CsrSimd { width }, &a, &x, &mut got2, 0, n / 2);
            assert_eq!(&got[..n / 2], &got2[..], "full and sub-slice forms must agree");
        }
    }

    #[test]
    fn tuned_plan_with_simd_variant_runs_parallel() {
        let a = grid(16);
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.05).collect();
        let mut want = vec![0.0; n];
        spmv(&a, &x, &mut want);
        for nthreads in [1, 3] {
            let mut plan = TunedPlan::new(
                &a,
                TuneOptions { nthreads, probe: false, probe_reps: 1, ..Default::default() },
            );
            // Force the SIMD variant regardless of what the model picked so
            // the executor path is covered on every host.
            plan.variant = KernelVariant::CsrSimd { width: plan.simd_level().width() };
            plan.sell = None;
            let mut got = vec![0.0; n];
            plan.spmv(&x, &mut got);
            assert!(rel_err_inf(&got, &want) < 1e-12, "nthreads={nthreads}");
        }
    }

    #[test]
    fn deep_power_uses_level_blocking_and_matches_reference() {
        // Elongated grid: many narrow BFS shells, so the auto band under
        // the default LLC easily covers >= 2 powers.
        let a = fbmpk_gen::poisson::grid2d_5pt(4, 200);
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
        let baseline = crate::StandardMpk::new(&a, 1).unwrap();
        for nthreads in [1, 2] {
            let plan = TunedPlan::new(
                &a,
                TuneOptions { nthreads, probe: false, probe_reps: 1, ..Default::default() },
            );
            assert!(
                plan.level_block_for(6).is_some(),
                "narrow-shell matrix at k=6 must engage level blocking"
            );
            for k in [4, 5, 6, 9] {
                let want = baseline.power(&x0, k);
                let got = plan.power(&x0, k);
                assert!(rel_err_inf(&got, &want) < 1e-11, "nthreads={nthreads} k={k}");
            }
        }
    }

    #[test]
    fn shallow_power_skips_level_blocking() {
        let a = grid(8);
        let plan = TunedPlan::new(
            &a,
            TuneOptions { nthreads: 1, probe: false, probe_reps: 1, ..Default::default() },
        );
        // k < 4 never consults the blocking plan; the lazy cell stays empty.
        let _ = plan.power(&vec![1.0; plan.n()], 3);
        assert!(plan.levelblock.get().is_none(), "k=3 must not build the BFS plan");
    }

    #[test]
    fn strategy_selection_compares_all_three_by_cut_edges() {
        let a = skewed(11);
        let (best, cuts) = select_blocking_strategy(&a, 32);
        assert_eq!(cuts.len(), 3, "all three strategies evaluated");
        let best_cut = cuts.iter().find(|(s, _)| *s == best).unwrap().1;
        assert!(cuts.iter().all(|&(_, c)| best_cut <= c), "winner has the minimum cut: {cuts:?}");
        // Deterministic: same matrix, same answer.
        assert_eq!(select_blocking_strategy(&a, 32), (best, cuts));
        // Degenerate sizes take the trivial partition without graph work.
        assert_eq!(select_blocking_strategy(&a, 1).0, BlockingStrategy::Contiguous);
        assert_eq!(select_blocking_strategy(&Csr::zero(0, 0), 4).1, Vec::new());
    }

    #[test]
    fn tuned_plan_resolves_strategy_lazily_and_derives_plans() {
        let a = skewed(4);
        let plan = TunedPlan::new(
            &a,
            TuneOptions { nthreads: 2, probe: false, probe_reps: 1, ..Default::default() },
        );
        assert!(plan.blocking_cut_edges().is_none(), "no comparison before first ask");
        let chosen = plan.blocking_strategy(32);
        let cuts = plan.blocking_cut_edges().expect("comparison resolved");
        assert_eq!(cuts.len(), 3);
        assert_eq!(plan.blocking_strategy(32), chosen, "cached choice is stable");
        // The derived FBMPK plan runs and matches the reference.
        let fb = plan.fbmpk_plan_auto(32).unwrap();
        let n = a.nrows();
        let x0: Vec<f64> = (0..n).map(|i| ((i * 3 % 13) as f64) - 6.0).collect();
        let want = crate::StandardMpk::new(&a, 1).unwrap().power(&x0, 4);
        assert!(rel_err_inf(&fb.power(&x0, 4), &want) < 1e-11);
        // An explicit override bypasses the comparison entirely.
        let forced = TunedPlan::new(
            &a,
            TuneOptions {
                nthreads: 2,
                probe: false,
                probe_reps: 1,
                abmc_blocking: Some(BlockingStrategy::Multilevel),
                ..Default::default()
            },
        );
        assert_eq!(forced.blocking_strategy(32), BlockingStrategy::Multilevel);
        assert!(forced.blocking_cut_edges().is_none());
    }

    #[test]
    fn fingerprint_distinguishes_matrices() {
        let a = grid(8);
        let b = grid(9);
        assert_eq!(fingerprint(&a), fingerprint(&a));
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // A values-only change must also be detected.
        let mut dense = a.to_dense();
        dense[1][0] += 0.5;
        let refs: Vec<&[f64]> = dense.iter().map(|r| r.as_slice()).collect();
        let c = Csr::from_dense(&refs);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    #[test]
    fn report_has_probe_data() {
        let a = grid(10);
        let plan = TunedPlan::new(
            &a,
            TuneOptions { nthreads: 1, probe: true, probe_reps: 2, ..Default::default() },
        );
        let r = plan.report();
        assert!(!r.probed.is_empty());
        assert!(r.probed.iter().any(|(v, _)| *v == KernelVariant::CsrScalar));
        assert!(r.scalar_seconds > 0.0);
        assert!(r.chosen_seconds > 0.0);
        assert!(r.chosen_seconds <= r.scalar_seconds, "probe must pick the fastest");
        assert!(r.probed_speedup() >= 1.0);
    }

    #[test]
    fn empty_matrix_tunes_without_panic() {
        let a = Csr::zero(5, 5);
        let plan = TunedPlan::new(&a, TuneOptions::default());
        let mut y = vec![1.0; 5];
        plan.spmv(&[1.0; 5], &mut y);
        assert_eq!(y, vec![0.0; 5]);
    }
}
