//! The kernel workloads (`mpk-fem`, `krylov-circuit`) and the probe of the
//! kernel layers (`reorder`, `sparse`, `core`, `parallel`, `memsim`) that
//! every traced run makes on its own matrix.

use std::cell::Cell;
use std::time::{Duration, Instant};

use fbmpk::{FbmpkOptions, FbmpkPlan, ObsOptions, StandardMpk, TunedPlan, VectorLayout};
use fbmpk_memsim::{trace_fbmpk, trace_standard_mpk, TracedLayout};
use fbmpk_reorder::{Abmc, AbmcParams};
use fbmpk_sparse::{Csr, TriangularSplit};

use crate::gate::{agrees_all, bit_identical};
use crate::inputs::{suite_matrix, vector};
use crate::report::{peak_rss_mb, triad_gbs, Diagnostics, Metrics, Outcome, Report};
use crate::stats::{median, Run};
use crate::trace::Tracer;

/// The kernel call a workload times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `power(x, k)`: `Aᵏx` only.
    Power(usize),
    /// `krylov(x, k)`: every iterate `Ax … Aᵏx`.
    Krylov(usize),
}

impl Op {
    /// The power `k`.
    pub fn k(self) -> usize {
        match self {
            Op::Power(k) | Op::Krylov(k) => k,
        }
    }

    /// Runs the call on an FBMPK plan.
    pub fn on_plan(self, plan: &FbmpkPlan, x: &[f64]) -> Vec<Vec<f64>> {
        match self {
            Op::Power(k) => vec![plan.power(x, k)],
            Op::Krylov(k) => plan.krylov(x, k),
        }
    }

    /// Runs the call on the serial standard MPK, the correctness reference.
    pub fn on_reference(self, a: &Csr, x: &[f64]) -> Vec<Vec<f64>> {
        let mpk = StandardMpk::new(a, 1).expect("workload matrices are square");
        match self {
            Op::Power(k) => vec![mpk.power(x, k)],
            Op::Krylov(k) => mpk.krylov(x, k),
        }
    }
}

/// Whether every vector of `got` holds the bits of `want`.
pub fn same_bits(got: &[Vec<f64>], want: &[Vec<f64>]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| bit_identical(g, w))
}

/// One kernel workload. One caller runs the call in a closed loop.
#[derive(Debug, Clone, Copy)]
pub struct KernelWorkload {
    /// Table II analog generating the matrix.
    pub matrix: &'static str,
    /// Fraction of the paper's dimension.
    pub scale: f64,
    /// The timed call.
    pub op: Op,
    /// Kernel threads.
    pub threads: usize,
    /// Plan builds whose median is `setup_s`; each serves an equal share
    /// of the timed calls.
    pub setup_builds: usize,
    /// Scale of the smaller analog replayed through the cache simulator.
    pub memsim_scale: f64,
}

/// `power(x, 5)` on the Flan_1565 analog at ~140 MB of CSR (11.4M nnz),
/// above the host's LLC: the paper's bandwidth-bound case.
pub const MPK_FEM: KernelWorkload = KernelWorkload {
    matrix: "Flan_1565",
    scale: 0.1,
    op: Op::Power(5),
    threads: 2,
    setup_builds: 9,
    memsim_scale: 0.004,
};

/// `krylov(x, 8)` on the G3_circuit analog at ~10 MB (0.76M nnz): many
/// colors with little work each, so sync and imbalance dominate.
pub const KRYLOV_CIRCUIT: KernelWorkload = KernelWorkload {
    matrix: "G3_circuit",
    scale: 0.1,
    op: Op::Krylov(8),
    threads: 2,
    setup_builds: 15,
    memsim_scale: 0.01,
};

/// The fig7 plan configuration: ABMC with contiguous blocks, back-to-back
/// vector layout.
fn fig7_options(n: usize, threads: usize) -> FbmpkOptions {
    fbmpk_bench::runner::fbmpk_options(n, threads, VectorLayout::BackToBack)
}

/// Runs a kernel workload; `trace` selects the per-layer run.
pub fn run(w: &KernelWorkload, seed: u64, seconds: f64, trace: bool) -> Report {
    let a = suite_matrix(w.matrix, w.scale, seed);
    let x = vector(a.nrows(), seed);
    let reference = w.op.on_reference(&a, &x);
    if trace {
        return traced(w, &a, &x, &reference, seed, seconds);
    }
    let options = fig7_options(a.nrows(), w.threads);
    let mut setup = Vec::with_capacity(w.setup_builds);
    let mut out = Outcome::default();
    let (mut run, mut timed_s, mut ncolors) = (Run::default(), 0.0, 0);
    // Build, call, drop, and again: the builds and the calls sample the
    // host all through the run instead of in one stretch of it, and the
    // calls run on as many plans, so no single plan's memory placement
    // sets the figure.
    for _ in 0..w.setup_builds {
        let t0 = Instant::now();
        let plan = FbmpkPlan::new(&a, options).expect("workload matrices are square");
        setup.push(t0.elapsed().as_secs_f64());
        ncolors = plan.stats().ncolors;
        let first = w.op.on_plan(&plan, &x);
        let first_ok = agrees_all(&first, &reference);
        out.record(first_ok);
        let first = &first;
        let share = closed_loop(seconds / w.setup_builds as f64, &mut out, || {
            let y = w.op.on_plan(&plan, &x);
            move || first_ok && same_bits(&y, first)
        });
        timed_s += share.wall_s;
        run.merge(share);
    }
    run.wall_s = timed_s;
    let (metrics, tail) = run.end_to_end(&setup, peak_rss_mb());
    out.metrics = metrics;
    let diag = Diagnostics {
        samples: run.latency_ms.len(),
        tail_pct: tail.pct,
        tail_ms: tail.value,
        tail_beyond: tail.beyond,
        ncolors,
        late_ms_p99: run.late_p99_ms(),
        triad_gbs: triad_gbs(),
        ..Default::default()
    };
    Report { outcome: out, diag, trace: None }
}

/// Calls `call` back to back for `seconds`. `call` returns the check of
/// its own result, which runs after the clock stops; its verdict goes to
/// `out`.
fn closed_loop<C: FnOnce() -> bool>(
    seconds: f64,
    out: &mut Outcome,
    mut call: impl FnMut() -> C,
) -> Run {
    let mut run = Run::default();
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut prev_end = start;
    loop {
        let t0 = Instant::now();
        if t0 >= stop {
            break;
        }
        let check = call();
        let t1 = Instant::now();
        let ok = check();
        out.record(ok);
        run.good += usize::from(ok);
        run.latency_ms.push((t1 - t0).as_secs_f64() * 1e3);
        run.late_ms.push((t0 - prev_end).as_secs_f64() * 1e3);
        prev_end = Instant::now();
    }
    run.wall_s = (prev_end - start).as_secs_f64();
    run
}

/// The traced run of a kernel workload.
fn traced(
    w: &KernelWorkload,
    a: &Csr,
    x: &[f64],
    reference: &[Vec<f64>],
    seed: u64,
    seconds: f64,
) -> Report {
    let tr = Tracer::new();
    let mut out = Outcome::default();
    let triad = triad_gbs();
    let layers = kernel_layers(
        &tr,
        &mut out,
        &KernelProbe { a, x, reference, op: w.op, source: PlanSource::Fig7(w.threads) },
        seconds,
        triad,
    );
    let mut metrics = layers.metrics;
    let small = suite_matrix(w.matrix, w.memsim_scale, seed);
    metrics.extend(memsim_layers(&tr, &small, w.op.k()));
    metrics.extend(crate::serve::serve_layers_probe(&tr, &mut out, seed));
    metrics.push(("load.late_ms_p99", layers.late_p99_ms));
    metrics.push(("obs.trace_overhead_frac", layers.p50_traced_ms / layers.p50_untraced_ms - 1.0));
    out.metrics = metrics;
    let diag = Diagnostics {
        samples: layers.samples,
        ncolors: layers.ncolors,
        late_ms_p99: layers.late_p99_ms,
        triad_gbs: triad,
        ..Default::default()
    };
    Report { outcome: out, diag, trace: Some(tr) }
}

/// Where the probed plan comes from.
#[derive(Debug, Clone, Copy)]
pub enum PlanSource {
    /// `FbmpkPlan::new` in the fig7 configuration at this many threads.
    Fig7(usize),
    /// The serving layer's plan: `TunedPlan` with the server's options,
    /// then `fbmpk_plan_auto`, at this many kernel threads.
    Served(usize),
}

/// The inputs of a kernel-layer probe.
pub struct KernelProbe<'a> {
    /// The matrix.
    pub a: &'a Csr,
    /// The input vector.
    pub x: &'a [f64],
    /// `op` on the serial reference.
    pub reference: &'a [Vec<f64>],
    /// The call timed.
    pub op: Op,
    /// How the plan is built.
    pub source: PlanSource,
}

/// What the kernel-layer probe measured.
pub struct KernelLayers {
    /// The `reorder.*`, `sparse.*`, `core.*` and `parallel.*` metrics.
    pub metrics: Metrics,
    /// Median call latency with tracing off, in ms.
    pub p50_untraced_ms: f64,
    /// Median call latency with span recording on, in ms.
    pub p50_traced_ms: f64,
    /// 99th percentile of the gap between calls, in ms.
    pub late_p99_ms: f64,
    /// Calls timed, traced and untraced.
    pub samples: usize,
    /// ABMC colors.
    pub ncolors: usize,
}

/// Alternating untraced/traced chunks per probe, so drift over the run
/// hits both sides alike.
const CHUNKS: usize = 8;

/// Times each kernel layer's public calls on `p.a`, then runs the call
/// for `seconds` in alternating chunks on a plain plan and on a plan with
/// span recording on. Every call is checked; verdicts go to `out`.
pub fn kernel_layers(
    tr: &Tracer,
    out: &mut Outcome,
    p: &KernelProbe<'_>,
    seconds: f64,
    triad_gbs: f64,
) -> KernelLayers {
    let n = p.a.nrows();
    let served = |threads, obs| TunedPlan::new(p.a, crate::serve::tune_options(threads, obs));
    let (params, spmv_ms) = match p.source {
        PlanSource::Fig7(threads) => {
            let params = fig7_options(n, threads).reorder.expect("parallel fig7 plans reorder");
            let mpk = StandardMpk::new(p.a, threads).expect("square");
            (params, tr.median_ms("sparse.spmv", 9, || mpk.power(p.x, 1)))
        }
        PlanSource::Served(threads) => {
            let tuned = served(threads, ObsOptions::default());
            let nblocks = crate::serve::nblocks(threads, n);
            let params = AbmcParams {
                nblocks,
                strategy: tuned.blocking_strategy(nblocks),
                ..Default::default()
            };
            let mut y = vec![0.0; n];
            (params, tr.median_ms("sparse.spmv", 31, || tuned.spmv(p.x, &mut y)))
        }
    };
    let abmc = tr.span("reorder.abmc", || Abmc::new(p.a, params));
    let imbalance = color_imbalance(p.a, &abmc);
    let permuted = abmc.apply(p.a);
    let split = tr.span("sparse.split", || TriangularSplit::split(&permuted).expect("square"));
    let split_mb = split.storage_bytes() as f64 / 1e6;
    drop((split, permuted));

    let build = |obs| match p.source {
        PlanSource::Fig7(threads) => {
            let options = FbmpkOptions { obs, ..fig7_options(n, threads) };
            tr.span("core.plan_build", || FbmpkPlan::new(p.a, options).expect("square"))
        }
        PlanSource::Served(threads) => {
            let tuned = served(threads, obs);
            let nblocks = crate::serve::nblocks(threads, n);
            tr.span("core.plan_build", || tuned.fbmpk_plan_auto(nblocks).expect("square"))
        }
    };
    let plan = build(ObsOptions::default());
    let recording = build(ObsOptions::recording());
    let plan_build_s = median(&tr.durations_ms("core.plan_build")) / 1e3;

    let first = p.op.on_plan(&plan, p.x);
    let first_ok = agrees_all(&first, p.reference);
    out.record(first_ok);
    let first = &first;
    let recorder = recording.recorder().expect("recording plans own a recorder");
    recorder.reset();
    let (mut untraced, mut traced) = (Run::default(), Run::default());
    let (busy_ns, wait_ns) = (Cell::new(0u64), Cell::new(0u64));
    for chunk in 0..CHUNKS {
        let secs = seconds / CHUNKS as f64;
        if chunk % 2 == 0 {
            untraced.merge(closed_loop(secs, out, || {
                let y = p.op.on_plan(&plan, p.x);
                move || first_ok && same_bits(&y, first)
            }));
        } else {
            traced.merge(closed_loop(secs, out, || {
                let y = tr.span("core.call", || p.op.on_plan(&recording, p.x));
                let (busy_ns, wait_ns) = (&busy_ns, &wait_ns);
                move || {
                    for t in 0..recorder.nthreads() {
                        let (wait, total) = recorder.thread_wait_total_ns(t);
                        wait_ns.set(wait_ns.get() + wait);
                        busy_ns.set(busy_ns.get() + total - wait);
                    }
                    recorder.reset();
                    first_ok && same_bits(&y, first)
                }
            }));
        }
    }
    let (busy_ns, wait_ns) = (busy_ns.get(), wait_ns.get());
    let calls = traced.latency_ms.len().max(1) as f64;
    let p50_untraced_ms = median(&untraced.latency_ms);
    let p50_traced_ms = median(&traced.latency_ms);
    let modeled = plan.modeled_matrix_bytes(p.op.k()) as f64;
    let achieved_gbs = modeled / (p50_untraced_ms / 1e3) / 1e9;
    let samples = untraced.latency_ms.len() + traced.latency_ms.len();
    untraced.merge(traced);
    let metrics = vec![
        ("reorder.abmc_s", median(&tr.durations_ms("reorder.abmc")) / 1e3),
        ("reorder.ncolors", abmc.ncolors() as f64),
        ("reorder.nblocks", abmc.nblocks() as f64),
        ("reorder.color_imbalance", imbalance),
        ("sparse.split_s", median(&tr.durations_ms("sparse.split")) / 1e3),
        ("sparse.split_mb", split_mb),
        ("sparse.spmv_ms", spmv_ms),
        ("core.plan_build_s", plan_build_s),
        ("core.reads_per_call", p50_untraced_ms / spmv_ms),
        ("core.modeled_mb_per_call", modeled / 1e6),
        ("core.achieved_gbs", achieved_gbs),
        ("core.roofline_frac", achieved_gbs / triad_gbs),
        ("core.fallbacks", (plan.fallbacks() + recording.fallbacks()) as f64),
        ("parallel.busy_ms", busy_ns as f64 / 1e6 / calls),
        ("parallel.wait_ms", wait_ns as f64 / 1e6 / calls),
        ("parallel.wait_frac", wait_ns as f64 / (busy_ns + wait_ns).max(1) as f64),
    ];
    KernelLayers {
        metrics,
        p50_untraced_ms,
        p50_traced_ms,
        late_p99_ms: untraced.late_p99_ms(),
        samples,
        ncolors: abmc.ncolors(),
    }
}

/// Largest over mean nonzeros per ABMC color.
fn color_imbalance(a: &Csr, abmc: &Abmc) -> f64 {
    let old_of_new = abmc.permutation().order();
    let per_color: Vec<f64> = (0..abmc.ncolors())
        .map(|c| {
            abmc.color_blocks(c)
                .flat_map(|b| abmc.block_rows(b))
                .map(|r| a.row_nnz(old_of_new[r] as usize))
                .sum::<usize>() as f64
        })
        .collect();
    let mean = per_color.iter().sum::<f64>() / per_color.len().max(1) as f64;
    per_color.iter().copied().fold(0.0, f64::max) / mean.max(1.0)
}

/// Simulated DRAM bytes of FBMPK and the standard MPK at power `k` on
/// `a`, with an LLC scaled to the matrix as in Fig. 9.
pub fn memsim_layers(tr: &Tracer, a: &Csr, k: usize) -> Metrics {
    let llc = [fbmpk_bench::runner::scaled_llc(a.nnz() * 12 + 8 * (a.nrows() + 1))];
    let fb = tr.span("memsim.fbmpk", || trace_fbmpk(a, k, TracedLayout::BackToBack, &llc));
    let std = tr.span("memsim.standard", || trace_standard_mpk(a, k, &llc));
    vec![
        ("memsim.dram_mb_fbmpk", fb.total() as f64 / 1e6),
        ("memsim.dram_mb_standard", std.total() as f64 / 1e6),
    ]
}
