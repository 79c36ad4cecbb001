//! The serve workloads (`serve-hot`, `serve-churn`) against an in-process
//! `Server`, their load generator, and the probe of the serving layer
//! every traced run makes.
//!
//! The generator keeps one request in flight per connection (the server
//! answers one request per connection). `serve-hot` runs an open loop on
//! [`HOT_CONNECTIONS`]: requests are due on a seeded Poisson schedule at a
//! fixed offered rate, and latency runs from the due time, so a stall also
//! charges the requests queued behind it. `serve-churn` runs a closed loop
//! on [`CHURN_CONNECTIONS`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fbmpk::{ObsOptions, SyncMode, TuneOptions, TunedPlan};
use fbmpk_serve::client::parse_vector;
use fbmpk_serve::http::render_vector;
use fbmpk_serve::metrics::StatsSnapshot;
use fbmpk_serve::{MatrixSpec, RequestSpec, ServeConfig, Server, XSpec};
use fbmpk_sparse::spmm::{block_power, MultiVec};
use fbmpk_sparse::Csr;

use crate::gate::{agrees, body_matches};
use crate::inputs::{
    body, churn_specs, hot_schedule, hot_specs, vector, x_seed, Arrival, Route, HOT_TENANTS,
    HOT_X_PER_SPEC,
};
use crate::kernel::{kernel_layers, memsim_layers, KernelProbe, Op, PlanSource};
use crate::report::{peak_rss_mb, triad_gbs, Diagnostics, Metrics, Outcome, Report};
use crate::stats::{median, Run};
use crate::trace::Tracer;

/// Kernel threads per cached plan.
pub const KERNEL_THREADS: usize = 1;
/// Server handler threads.
pub const HANDLERS: usize = 2;
/// Serve-hot connections. One: with two, two requests in flight put two
/// kernels and two generator threads on a 2-vCPU host; in six interleaved
/// runs of each, the p90 spread 0.12 with one against 0.20 with two
/// (README.md).
pub const HOT_CONNECTIONS: usize = 1;
/// Serve-churn closed-loop connections.
pub const CHURN_CONNECTIONS: usize = 2;
/// Power of every serve-hot request.
pub const HOT_K: usize = 8;
/// Power of the serve-churn `/v1/mpk` requests.
pub const CHURN_K: usize = 4;
/// Offered serve-hot load. Fixed, never calibrated per run, and well below
/// what one connection sustains at ~10 ms per request on a 2-vCPU host, so
/// the open loop measures service rather than a growing backlog.
pub const HOT_RATE_PER_S: f64 = 30.0;
/// A serve-hot 200 slower than this does not count toward `rate_per_s`:
/// about 2.5 times the quiet-host p90 on one connection (16 ms), so a
/// slowdown of the service shows in the rate long before it reaches a 10x
/// collapse.
pub const HOT_LATENCY_LIMIT_MS: f64 = 40.0;
/// The serve-churn counterpart: about 2.3 times its quiet-host p99
/// (17.4 ms).
pub const CHURN_LATENCY_LIMIT_MS: f64 = 40.0;
/// Server starts whose median is `setup_s`.
const SETUP_STARTS: usize = 15;
/// Client timeout per request.
const TIMEOUT: Duration = Duration::from_secs(10);
/// The matrix serve-churn warms the serving path with; outside the cycle,
/// and larger than its matrices so that one plan build dominates set-up.
const CHURN_WARM_SPEC: &str = "grid:100:100";
/// Length of the short serve-hot episode kernel workloads run in their
/// traced run, to read the server's counters.
const PROBE_EPISODE_S: f64 = 1.5;

fn config() -> ServeConfig {
    ServeConfig { kernel_threads: KERNEL_THREADS, handlers: HANDLERS, ..Default::default() }
}

/// The tuner options the server builds its plans with.
pub fn tune_options(threads: usize, obs: ObsOptions) -> TuneOptions {
    TuneOptions {
        nthreads: threads,
        probe: true,
        sync: SyncMode::PointToPoint,
        obs,
        ..Default::default()
    }
}

/// ABMC blocks of a served plan.
pub fn nblocks(threads: usize, n: usize) -> usize {
    (threads * 4).max(1).min(n.max(1))
}

/// Sends one request on a fresh connection (the server answers one per
/// connection) and reads the whole response into `buf`, which is reused
/// so that the generator allocates nothing per request. Returns the status
/// and the offset of the body in `buf`; an `Err` is a refused, reset or
/// unparseable exchange.
fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    tenant: &str,
    body: &str,
    buf: &mut Vec<u8>,
) -> std::io::Result<(u16, usize)> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nX-Tenant: {tenant}\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    buf.clear();
    stream.read_to_end(buf)?;
    let unparseable =
        || std::io::Error::new(std::io::ErrorKind::InvalidData, "unparseable response");
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n").ok_or_else(unparseable)?;
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(unparseable)?;
    Ok((status, head_end + 4))
}

/// [`exchange`] for a kernel route; the status and body, or `None`.
fn post(addr: SocketAddr, route: Route, tenant: &str, body: &str) -> Option<(u16, Vec<u8>)> {
    let mut buf = Vec::new();
    let (status, at) = exchange(addr, "POST", route.path(), tenant, body, &mut buf).ok()?;
    Some((status, buf.split_off(at)))
}

/// A `GET` whose body is text, or `None`.
fn get(addr: SocketAddr, path: &str) -> Option<String> {
    let mut buf = Vec::new();
    let (_, at) = exchange(addr, "GET", path, "bench", "", &mut buf).ok()?;
    String::from_utf8(buf.split_off(at)).ok()
}

/// Starts a server and runs `warm` against it, [`SETUP_STARTS`] times;
/// returns the last server and the set-up seconds of each start.
fn start_warm(mut warm: impl FnMut(SocketAddr)) -> (Server, Vec<f64>) {
    let mut setup = Vec::with_capacity(SETUP_STARTS);
    let mut server = None;
    for _ in 0..SETUP_STARTS {
        if let Some(mut old) = server.take() {
            Server::shutdown(&mut old);
        }
        let t0 = Instant::now();
        let s = Server::start(config()).expect("bind a loopback port");
        warm(s.local_addr());
        setup.push(t0.elapsed().as_secs_f64());
        server = Some(s);
    }
    (server.expect("at least one start"), setup)
}

/// When the generator issues requests.
enum Pace<'a> {
    /// Each request at its due time, in seconds from the start.
    Open(&'a [f64]),
    /// Each connection's next request when its previous one completes,
    /// for this many seconds.
    Closed(f64),
}

/// One answered (or failed) request.
struct Sample {
    latency_ms: f64,
    late_ms: f64,
    ok: bool,
    index: usize,
    traced: bool,
}

/// Drives `connections` connections through requests `0, 1, …`:
/// `send(i, buf)` issues request `i` through [`exchange`] and
/// `check(i, status, body)` judges it after the clock stops. When
/// `traced(i)` holds, the request and its check run inside spans on the
/// connection's lane of `tr`.
fn drive(
    pace: Pace<'_>,
    connections: usize,
    send: impl Fn(usize, &mut Vec<u8>) -> std::io::Result<(u16, usize)> + Sync,
    check: impl Fn(usize, u16, &[u8]) -> bool + Sync,
    traced: impl Fn(usize) -> bool + Sync,
    tr: &Tracer,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let origin = tr.origin();
    let lanes: Vec<(Vec<Sample>, Tracer)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..connections)
            .map(|c| {
                let (next, pace, send, check, traced) = (&next, &pace, &send, &check, &traced);
                scope.spawn(move || {
                    let lane = Tracer::lane(origin, c + 1);
                    let mut samples = Vec::new();
                    let mut buf = Vec::new();
                    let mut prev_end = start;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let due = match pace {
                            Pace::Open(dues) => {
                                let Some(&due_s) = dues.get(i) else { break };
                                let due = start + Duration::from_secs_f64(due_s);
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                due
                            }
                            Pace::Closed(seconds) => {
                                if start.elapsed().as_secs_f64() >= *seconds {
                                    break;
                                }
                                prev_end
                            }
                        };
                        let sent = Instant::now();
                        let traced = traced(i);
                        let (response, done) = if traced {
                            let r = lane.span("serve.request", || send(i, &mut buf));
                            (r, Instant::now())
                        } else {
                            (send(i, &mut buf), Instant::now())
                        };
                        let clock = if matches!(pace, Pace::Open(_)) { due } else { sent };
                        let ok = match response {
                            Ok((status, at)) if traced => {
                                lane.span("serve.check", || check(i, status, &buf[at..]))
                            }
                            Ok((status, at)) => check(i, status, &buf[at..]),
                            Err(_) => false,
                        };
                        samples.push(Sample {
                            latency_ms: (done - clock).as_secs_f64() * 1e3,
                            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            ok,
                            index: i,
                            traced,
                        });
                        prev_end = Instant::now();
                    }
                    (samples, lane)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("load generator thread")).collect()
    });
    let mut all = Vec::new();
    for (samples, lane) in lanes {
        all.extend(samples);
        tr.absorb(lane);
    }
    all.sort_by_key(|s| s.index);
    all
}

/// Folds samples into a [`Run`], recording each verdict in `out`; a
/// passing answer slower than `limit_ms` is not good.
fn to_run(samples: &[Sample], start_to_end_s: f64, limit_ms: f64, out: &mut Outcome) -> Run {
    let mut run = Run { wall_s: start_to_end_s, ..Default::default() };
    for s in samples {
        out.record(s.ok);
        run.latency_ms.push(s.latency_ms);
        run.late_ms.push(s.late_ms);
        run.good += usize::from(s.ok && s.latency_ms <= limit_ms);
    }
    run
}

/// The server's counters and service-time EWMA from `GET /v1/stats`.
fn server_stats(addr: SocketAddr) -> (StatsSnapshot, f64) {
    let body = get(addr, "/v1/stats").unwrap_or_default();
    let ewma = body
        .lines()
        .find_map(|l| l.strip_prefix("fbmpk_serve_service_ewma_ms "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0);
    (StatsSnapshot::parse(&body), ewma)
}

/// One serve-hot matrix with its inputs and expected answers.
struct HotSpec {
    spec: String,
    csr: Csr,
    /// Request body per input vector.
    bodies: Vec<String>,
    /// `render_vector(block_power(A, x, k))` per input vector.
    power: Vec<String>,
    /// Serial standard-MPK `Aᵏx` per input vector.
    mpk_ref: Vec<Vec<f64>>,
    /// The first `/v1/mpk` body per input vector, once it passed the
    /// reference check.
    mpk: Vec<Option<String>>,
}

fn hot_inputs(seed: u64) -> Vec<HotSpec> {
    hot_specs(seed)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let csr = MatrixSpec::parse(&spec).expect("hot specs parse").build();
            let xs: Vec<Vec<f64>> =
                (0..HOT_X_PER_SPEC).map(|x| vector(csr.nrows(), x_seed(seed, i, x))).collect();
            let bodies =
                (0..HOT_X_PER_SPEC).map(|x| body(&spec, HOT_K, x_seed(seed, i, x))).collect();
            let power = xs
                .iter()
                .map(|x| {
                    render_vector(
                        &block_power(&csr, &MultiVec::from_columns(std::slice::from_ref(x)), HOT_K)
                            .column(0),
                    )
                })
                .collect();
            let mpk_ref =
                xs.iter().map(|x| Op::Power(HOT_K).on_reference(&csr, x).remove(0)).collect();
            HotSpec { spec, csr, bodies, power, mpk_ref, mpk: vec![None; HOT_X_PER_SPEC] }
        })
        .collect()
}

/// Starts the serve-hot server with its plans warm (the set-up), then
/// checks one `/v1/mpk` answer per matrix and vector against the serial
/// reference. Warm and gate calls count as operations.
fn hot_server(hot: &mut [HotSpec], out: &mut Outcome) -> (Server, Vec<f64>) {
    let mut warm_ok = Vec::new();
    let (server, setup) = start_warm(|addr| {
        warm_ok.clear();
        for h in hot.iter() {
            let r = post(addr, Route::Power, "warm", &h.bodies[0]);
            warm_ok.push(
                r.is_some_and(|(status, body)| status == 200 && body_matches(&body, &h.power[0])),
            );
        }
    });
    for ok in warm_ok {
        out.record(ok);
    }
    for h in hot.iter_mut() {
        for x in 0..HOT_X_PER_SPEC {
            let answer = post(server.local_addr(), Route::Mpk, "warm", &h.bodies[x])
                .filter(|(status, _)| *status == 200)
                .and_then(|(_, body)| String::from_utf8(body).ok())
                .filter(|body| parse_vector(body).is_ok_and(|y| agrees(&y, &h.mpk_ref[x])));
            out.record(answer.is_some());
            h.mpk[x] = answer;
        }
    }
    (server, setup)
}

/// Runs the serve-hot schedule against `addr`; every `/v1/power` answer
/// must carry the bits of `block_power`, every `/v1/mpk` answer those of
/// the first one that passed the reference check.
fn hot_load(
    addr: SocketAddr,
    hot: &[HotSpec],
    schedule: &[Arrival],
    traced: impl Fn(usize) -> bool + Sync,
    tr: &Tracer,
) -> Vec<Sample> {
    let dues: Vec<f64> = schedule.iter().map(|a| a.due_s).collect();
    let tenants: Vec<String> = (0..HOT_TENANTS).map(|t| format!("tenant-{t}")).collect();
    drive(
        Pace::Open(&dues),
        HOT_CONNECTIONS,
        |i, buf| {
            let a = &schedule[i];
            exchange(
                addr,
                "POST",
                a.route.path(),
                &tenants[a.tenant],
                &hot[a.spec].bodies[a.x],
                buf,
            )
        },
        |i, status, body| {
            let a = &schedule[i];
            let want = match a.route {
                Route::Power => Some(&hot[a.spec].power[a.x]),
                _ => hot[a.spec].mpk[a.x].as_ref(),
            };
            status == 200 && want.is_some_and(|w| body_matches(body, w))
        },
        traced,
        tr,
    )
}

/// Seconds from the start of a sample set to its last completion.
fn span_s(samples: &[Sample], dues: impl Fn(usize) -> f64) -> f64 {
    samples.iter().map(|s| dues(s.index) + s.latency_ms / 1e3).fold(0.0, f64::max)
}

/// Kernel variants `TunedPlan` picks for `csrs` with the server's options,
/// as `variant×count`.
fn variant_summary<'a>(csrs: impl Iterator<Item = &'a Csr>) -> Vec<String> {
    let mut counts: Vec<(String, usize)> = Vec::new();
    for csr in csrs {
        let v = TunedPlan::new(csr, tune_options(KERNEL_THREADS, ObsOptions::default()))
            .variant()
            .to_string();
        match counts.iter_mut().find(|(name, _)| *name == v) {
            Some((_, n)) => *n += 1,
            None => counts.push((v, 1)),
        }
    }
    counts.into_iter().map(|(v, n)| format!("{v}x{n}")).collect()
}

/// The serve-hot workload.
pub fn hot(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut hot = hot_inputs(seed);
    let mut out = Outcome::default();
    let (mut server, setup) = hot_server(&mut hot, &mut out);
    let addr = server.local_addr();
    let schedule = hot_schedule(seed, HOT_RATE_PER_S, seconds);
    let tr = Tracer::new();
    // In the traced run, the second and fourth quarters of the schedule
    // run with spans on; the other two are the untraced baseline.
    let traced = |i: usize| trace && (schedule[i].due_s / seconds * 4.0) as usize % 2 == 1;
    let samples = hot_load(addr, &hot, &schedule, traced, &tr);
    let run =
        to_run(&samples, span_s(&samples, |i| schedule[i].due_s), HOT_LATENCY_LIMIT_MS, &mut out);
    let csrs = || hot.iter().map(|h| &h.csr);
    if !trace {
        let rss = peak_rss_mb();
        server.shutdown();
        return untraced_report(out, &run, &setup, rss, variant_summary(csrs()));
    }
    let power = power_requests(&samples, &schedule, hot.len());
    let counters = ServerCounters::read(&tr, addr, power);
    server.shutdown();
    let probe = &hot[1];
    let x = vector(probe.csr.nrows(), x_seed(seed, 1, 0));
    let specs: Vec<&str> = hot.iter().map(|h| h.spec.as_str()).collect();
    traced_report(
        tr,
        out,
        TracedServe {
            probe_csr: &probe.csr,
            x: &x,
            k: HOT_K,
            body: &probe.bodies[0],
            specs: &specs,
            counters,
            late_p99_ms: run.late_p99_ms(),
            overhead: trace_overhead(&samples),
            variants: variant_summary(csrs()),
            samples: samples.len(),
        },
    )
}

/// `/v1/power` requests the server answered: the timed ones that passed
/// plus one warm-up request per matrix.
fn power_requests(samples: &[Sample], schedule: &[Arrival], warm: usize) -> usize {
    warm + samples.iter().filter(|s| s.ok && schedule[s.index].route == Route::Power).count()
}

/// The untraced result of a serve workload.
fn untraced_report(
    mut out: Outcome,
    run: &Run,
    setup: &[f64],
    rss_mb: f64,
    variants: Vec<String>,
) -> Report {
    let (metrics, tail) = run.end_to_end(setup, rss_mb);
    out.metrics = metrics;
    let diag = Diagnostics {
        samples: run.latency_ms.len(),
        tail_pct: tail.pct,
        tail_ms: tail.value,
        tail_beyond: tail.beyond,
        tuned_variants: variants,
        late_ms_p99: run.late_p99_ms(),
        triad_gbs: triad_gbs(),
        ..Default::default()
    };
    Report { outcome: out, diag, trace: None }
}

/// Median latency of traced requests over untraced ones, minus one.
fn trace_overhead(samples: &[Sample]) -> f64 {
    let side = |traced: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.traced == traced).map(|s| s.latency_ms).collect()
    };
    let (on, off) = (side(true), side(false));
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    median(&on) / median(&off) - 1.0
}

/// Server-side figures a traced run reads after its load.
struct ServerCounters {
    healthz_ms: f64,
    stats: StatsSnapshot,
    ewma_ms: f64,
    power_requests: usize,
}

impl ServerCounters {
    fn read(tr: &Tracer, addr: SocketAddr, power_requests: usize) -> Self {
        let healthz_ms = tr.median_ms("serve.healthz", 21, || get(addr, "/healthz"));
        let (stats, ewma_ms) = server_stats(addr);
        ServerCounters { healthz_ms, stats, ewma_ms, power_requests }
    }

    fn metrics(&self) -> Metrics {
        let s = &self.stats;
        let lookups = s.cache_hits + s.cache_misses + s.cache_singleflight_waits;
        let width = if s.batch_executions > 0 {
            self.power_requests as f64 / s.batch_executions as f64
        } else {
            0.0
        };
        vec![
            ("serve.healthz_ms", self.healthz_ms),
            ("serve.batch_width_mean", width),
            ("serve.cache_hit_ratio", s.cache_hits as f64 / lookups.max(1) as f64),
            ("serve.shed", s.shed_total() as f64),
            ("serve.deadline_expired", s.deadline_expired as f64),
            ("serve.worker_fault", s.worker_fault as f64),
            ("serve.degraded", s.degraded as f64),
            ("serve.service_ewma_ms", self.ewma_ms),
        ]
    }
}

/// Seconds the kernel-layer probe of a serve workload runs its calls.
const KERNEL_PROBE_S: f64 = 2.0;
/// Serve-churn matrices whose build the serve-layer probe times.
const CHURN_PROBE_SPECS: usize = 8;

/// What a traced serve run hands to [`traced_report`].
struct TracedServe<'a> {
    /// The matrix the kernel and serve layers are probed on.
    probe_csr: &'a Csr,
    x: &'a [f64],
    k: usize,
    /// A request body naming `probe_csr`.
    body: &'a str,
    /// Matrices whose plan builds are timed.
    specs: &'a [&'a str],
    counters: ServerCounters,
    late_p99_ms: f64,
    overhead: f64,
    variants: Vec<String>,
    samples: usize,
}

fn traced_report(tr: Tracer, mut out: Outcome, t: TracedServe<'_>) -> Report {
    let triad = triad_gbs();
    let op = Op::Power(t.k);
    let reference = op.on_reference(t.probe_csr, t.x);
    let probe = KernelProbe {
        a: t.probe_csr,
        x: t.x,
        reference: &reference,
        op,
        source: PlanSource::Served(KERNEL_THREADS),
    };
    let layers = kernel_layers(&tr, &mut out, &probe, KERNEL_PROBE_S, triad);
    let mut metrics = layers.metrics;
    metrics.extend(memsim_layers(&tr, t.probe_csr, t.k));
    metrics.extend(serve_layers(&tr, t.probe_csr, t.x, t.k, t.body, t.specs));
    metrics.extend(t.counters.metrics());
    metrics.push(("load.late_ms_p99", t.late_p99_ms));
    metrics.push(("obs.trace_overhead_frac", t.overhead));
    out.metrics = metrics;
    let diag = Diagnostics {
        samples: t.samples,
        ncolors: layers.ncolors,
        tuned_variants: t.variants,
        late_ms_p99: t.late_p99_ms,
        triad_gbs: triad,
        ..Default::default()
    };
    Report { outcome: out, diag, trace: Some(tr) }
}

/// Times the serving layer's public calls: request parsing, vector
/// generation and rendering, the batched power kernel at widths 1 and 2,
/// the mpk kernel, and the plan build of each of `specs` (matrix, tuned
/// plan, FBMPK plan: what the server caches per plan), whose bundles stay
/// resident while the live heap per plan is read.
fn serve_layers(
    tr: &Tracer,
    csr: &Csr,
    x: &[f64],
    k: usize,
    body: &str,
    specs: &[&str],
) -> Metrics {
    let n = csr.nrows();
    let spec_parse_us = tr.median_ms("serve.spec_parse", 101, || RequestSpec::parse(body)) * 1e3;
    let x_materialize_us =
        tr.median_ms("serve.x_materialize", 101, || XSpec::Seed(7).materialize(n)) * 1e3;
    let one = MultiVec::from_columns(&[x.to_vec()]);
    let two = MultiVec::from_columns(&[x.to_vec(), x.to_vec()]);
    let y = block_power(csr, &one, k).column(0);
    let render_ms = tr.median_ms("serve.render", 21, || render_vector(&y));
    let block_power_ms = tr.median_ms("serve.block_power", 21, || block_power(csr, &one, k));
    let block_power_w2_ms = tr.median_ms("serve.block_power_w2", 21, || block_power(csr, &two, k));
    let options = tune_options(KERNEL_THREADS, ObsOptions::default());
    let plan = TunedPlan::new(csr, options)
        .fbmpk_plan_auto(nblocks(KERNEL_THREADS, n))
        .expect("served plans build");
    let mpk_ms =
        tr.median_ms("serve.mpk", 21, || plan.try_power_deadline(x, k, TIMEOUT.as_millis() as u64));
    drop(plan);
    let before = crate::heap::live_mb();
    let bundles: Vec<_> = specs
        .iter()
        .map(|s| {
            let spec = MatrixSpec::parse(s).expect("specs parse");
            let csr = tr.span("serve.spec_build", || spec.build());
            let tuned = tr.span("serve.tune", || TunedPlan::new(&csr, options));
            let nb = nblocks(KERNEL_THREADS, csr.nrows());
            let plan = tr.span("serve.fbmpk_build", || {
                tuned.fbmpk_plan_auto(nb).expect("served plans build")
            });
            (csr, tuned, plan)
        })
        .collect();
    let rss_per_plan_mb = (crate::heap::live_mb() - before) / bundles.len() as f64;
    drop(bundles);
    vec![
        ("serve.spec_parse_us", spec_parse_us),
        ("serve.x_materialize_us", x_materialize_us),
        ("serve.render_ms", render_ms),
        ("serve.block_power_ms", block_power_ms),
        ("serve.block_power_w2_ms", block_power_w2_ms),
        ("serve.mpk_ms", mpk_ms),
        ("serve.spec_build_ms", median(&tr.durations_ms("serve.spec_build"))),
        ("serve.tune_ms", median(&tr.durations_ms("serve.tune"))),
        ("serve.fbmpk_build_ms", median(&tr.durations_ms("serve.fbmpk_build"))),
        ("serve.rss_per_plan_mb", rss_per_plan_mb),
    ]
}

/// The serving-layer metrics of a kernel workload's traced run, which
/// touches no server of its own: a short serve-hot episode supplies the
/// server-side figures.
pub fn serve_layers_probe(tr: &Tracer, out: &mut Outcome, seed: u64) -> Metrics {
    let mut hot = hot_inputs(seed);
    let (mut server, _) = hot_server(&mut hot, out);
    let addr = server.local_addr();
    let schedule = hot_schedule(seed, HOT_RATE_PER_S, PROBE_EPISODE_S);
    let samples = hot_load(addr, &hot, &schedule, |_| true, tr);
    for s in &samples {
        out.record(s.ok);
    }
    let counters = ServerCounters::read(tr, addr, power_requests(&samples, &schedule, hot.len()));
    server.shutdown();
    let probe = &hot[1];
    let x = vector(probe.csr.nrows(), x_seed(seed, 1, 0));
    let specs: Vec<&str> = hot.iter().map(|h| h.spec.as_str()).collect();
    let mut metrics = serve_layers(tr, &probe.csr, &x, HOT_K, &probe.bodies[0], &specs);
    metrics.extend(counters.metrics());
    metrics
}

/// One serve-churn matrix with its inputs and references.
struct ChurnSpec {
    spec: String,
    csr: Csr,
    body: String,
    spmv_ref: Vec<f64>,
    mpk_ref: Vec<f64>,
}

fn churn_input(spec: &str, seed: u64, i: usize) -> ChurnSpec {
    let csr = MatrixSpec::parse(spec).expect("churn specs parse").build();
    let x = vector(csr.nrows(), x_seed(seed, i, 0));
    ChurnSpec {
        spec: spec.to_string(),
        body: body(spec, CHURN_K, x_seed(seed, i, 0)),
        spmv_ref: fbmpk_sparse::spmv::spmv_alloc(&csr, &x),
        mpk_ref: Op::Power(CHURN_K).on_reference(&csr, &x).remove(0),
        csr,
    }
}

/// Route of serve-churn request `i`: each matrix alternates between
/// `/v1/mpk` and `/v1/spmv` on successive passes of the cycle.
fn churn_route(i: usize, nspecs: usize) -> Route {
    if (i + i / nspecs).is_multiple_of(2) {
        Route::Mpk
    } else {
        Route::Spmv
    }
}

/// The serve-churn workload.
pub fn churn(seed: u64, seconds: f64, trace: bool) -> Report {
    let churn: Vec<ChurnSpec> =
        churn_specs(seed).iter().enumerate().map(|(i, s)| churn_input(s, seed, i)).collect();
    let n = churn.len();
    let warm = churn_input(CHURN_WARM_SPEC, seed, n);
    let mut out = Outcome::default();
    let mut warm_ok = Vec::new();
    let (mut server, setup) = start_warm(|addr| {
        warm_ok.clear();
        for route in [Route::Spmv, Route::Mpk] {
            let answer = post(addr, route, "warm", &warm.body);
            warm_ok
                .push(answer.is_some_and(|(status, body)| churn_ok(&warm, route, status, &body)));
        }
    });
    for ok in warm_ok {
        out.record(ok);
    }
    let addr = server.local_addr();
    let tr = Tracer::new();
    let t0 = Instant::now();
    // In the traced run, the second and fourth quarters of the run issue
    // requests with spans on; the other two are the untraced baseline.
    let traced = |_: usize| trace && (t0.elapsed().as_secs_f64() / seconds * 4.0) as usize % 2 == 1;
    let samples = drive(
        Pace::Closed(seconds),
        CHURN_CONNECTIONS,
        |i, buf| exchange(addr, "POST", churn_route(i, n).path(), "churn", &churn[i % n].body, buf),
        |i, status, body| churn_ok(&churn[i % n], churn_route(i, n), status, body),
        traced,
        &tr,
    );
    let run = to_run(&samples, t0.elapsed().as_secs_f64(), CHURN_LATENCY_LIMIT_MS, &mut out);
    let csrs = || churn.iter().map(|c| &c.csr);
    if !trace {
        let rss = peak_rss_mb();
        server.shutdown();
        return untraced_report(out, &run, &setup, rss, variant_summary(csrs()));
    }
    let counters = ServerCounters::read(&tr, addr, 0);
    server.shutdown();
    let probe = &churn[1];
    let x = vector(probe.csr.nrows(), x_seed(seed, 1, 0));
    let specs: Vec<&str> = churn.iter().take(CHURN_PROBE_SPECS).map(|c| c.spec.as_str()).collect();
    traced_report(
        tr,
        out,
        TracedServe {
            probe_csr: &probe.csr,
            x: &x,
            k: CHURN_K,
            body: &probe.body,
            specs: &specs,
            counters,
            late_p99_ms: run.late_p99_ms(),
            overhead: trace_overhead(&samples),
            variants: variant_summary(csrs()),
            samples: samples.len(),
        },
    )
}

/// Whether a serve-churn answer is a 200 within [`crate::gate::REL_TOL`]
/// of the serial reference. Every request builds a fresh plan whose
/// tuned variant comes from timing probes, so bits may differ between
/// builds; the reference check applies to every answer.
fn churn_ok(c: &ChurnSpec, route: Route, status: u16, body: &[u8]) -> bool {
    let want = if route == Route::Spmv { &c.spmv_ref } else { &c.mpk_ref };
    status == 200
        && std::str::from_utf8(body).is_ok_and(|b| parse_vector(b).is_ok_and(|y| agrees(&y, want)))
}
