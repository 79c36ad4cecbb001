//! Open-loop load generator for the serving layer (`repro serve`).
//!
//! Drives an in-process [`fbmpk_serve::Server`] with a Poisson-ish
//! arrival schedule that does **not** wait for responses before firing
//! the next request — the defining property of an open-loop generator,
//! and the one that makes overload visible: a closed-loop client slows
//! down with the server and never exposes queue growth.
//!
//! The generator first measures sustainable capacity closed-loop (one
//! request at a time on a warm plan), then offers a configurable
//! multiple of it. Every response is classified by status code plus the
//! typed `X-Fbmpk-*` headers, so the report separates goodput (200s),
//! shedding (429 per rung), deadline expiry (typed 503), worker faults
//! (typed 500), and *untyped* failures (transport errors) — the last
//! must stay zero, because the server promises a typed answer for every
//! accepted connection.

use fbmpk_obs::http;
use fbmpk_serve::client;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Ceiling on the capacity estimate: tiny matrices serve in tens of
/// microseconds, and offering 2x of *that* would need an arrival engine
/// this thread-per-slot design cannot honor. Overload behaviour is
/// identical at 400 offered rps; the cap keeps the run honest.
pub const CAPACITY_CAP_RPS: f64 = 400.0;

/// Ceiling on arrivals per phase, so `--duration-s` typos cannot turn
/// the load run into a fork bomb.
pub const MAX_ARRIVALS: usize = 3000;

/// One load phase to run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Phase label carried into the report and the CSV.
    pub phase: String,
    /// Server address.
    pub addr: SocketAddr,
    /// Offered arrival rate (requests per second).
    pub rate_rps: f64,
    /// How long to keep offering arrivals.
    pub duration: Duration,
    /// Matrix spec for the hot (cache-resident) tenant.
    pub hot_matrix: String,
    /// Power count for kernel requests.
    pub k: usize,
    /// Per-request client timeout.
    pub timeout: Duration,
    /// Seed for the deterministic arrival jitter.
    pub seed: u64,
}

/// Outcome of one request, classified from the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// 200 — counted toward goodput.
    Ok,
    /// 429 with `X-Fbmpk-Shed` — typed backpressure.
    Shed,
    /// 503 with `X-Fbmpk-Deadline: expired`.
    DeadlineExpired,
    /// 503 without a deadline marker (negative cache, build failure).
    Unavailable,
    /// 500 with `X-Fbmpk-Fault` — isolated worker fault.
    Fault,
    /// 400/413 — the generator never sends these on purpose.
    Bad,
    /// Transport-level failure: the server broke its typed-answer
    /// promise (or the host ran out of sockets). Must stay zero.
    Untyped,
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// What happened.
    pub outcome: Outcome,
    /// Wall-clock latency of the request (including any retry wait).
    pub latency_ms: f64,
    /// Whether this arrival was re-sent once after a 429.
    pub retried: bool,
    /// `X-Fbmpk-Batch-Width` when > 1 (the request shared an SpMM).
    pub batched: bool,
    /// `X-Fbmpk-Degraded: 1` (served by the probe-free fallback plan).
    pub degraded: bool,
    /// Transport error text for [`Outcome::Untyped`] samples.
    pub error: Option<String>,
}

/// Aggregated result of one phase.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Phase label.
    pub phase: String,
    /// Offered rate.
    pub offered_rps: f64,
    /// Arrivals fired.
    pub arrivals: usize,
    /// 200 count.
    pub ok: usize,
    /// 429 count (after the retry, if one was attempted).
    pub shed: usize,
    /// Typed deadline 503s.
    pub deadline_expired: usize,
    /// Other 503s.
    pub unavailable: usize,
    /// Typed 500s.
    pub faults: usize,
    /// 400/413s.
    pub bad: usize,
    /// Transport failures — the zero-crash invariant.
    pub untyped_failures: usize,
    /// Arrivals that were retried once after a 429.
    pub retried: usize,
    /// Retried arrivals that then succeeded.
    pub retried_ok: usize,
    /// Requests served from a shared SpMM batch.
    pub batched: usize,
    /// Requests served by the degraded (probe-free) plan.
    pub degraded: usize,
    /// Successful responses per second of wall clock.
    pub goodput_rps: f64,
    /// Median latency over successful requests (ms).
    pub p50_ms: f64,
    /// 99th-percentile latency over successful requests (ms).
    pub p99_ms: f64,
    /// Sorted successful-request latencies in ms (for the perf DB).
    pub ok_latencies_ms: Vec<f64>,
    /// Wall-clock time of the phase.
    pub elapsed: Duration,
}

/// Measures sustainable capacity closed-loop: sequential requests on a
/// warm plan for roughly `window`, returning requests/second capped at
/// [`CAPACITY_CAP_RPS`]. The first request is untimed (it builds the
/// plan). Sequential throughput is the honest floor: same-plan requests
/// serialize on the plan's execution lock, and batching recovers only
/// some of the handler parallelism, so scaling by the handler count
/// would overestimate and make the "baseline" phase an overload.
pub fn measure_capacity(
    addr: SocketAddr,
    matrix: &str,
    k: usize,
    window: Duration,
) -> Result<f64, String> {
    let body = client::kernel_body(matrix, k, "ones");
    let timeout = Duration::from_secs(10);
    let headers = [("X-Tenant", "capacity-probe")];
    // Warm the plan cache (and the tenant quota path) off the clock.
    let warm = http::request(addr, "POST", "/v1/power", &headers, &body, timeout)
        .map_err(|e| format!("capacity probe: transport error: {e}"))?;
    if warm.status != 200 {
        return Err(format!("capacity probe: warmup answered {}", warm.status));
    }
    let start = Instant::now();
    let mut n = 0usize;
    while start.elapsed() < window || n == 0 {
        let r = http::request(addr, "POST", "/v1/power", &headers, &body, timeout)
            .map_err(|e| format!("capacity probe: transport error: {e}"))?;
        if r.status != 200 {
            return Err(format!("capacity probe: answered {}", r.status));
        }
        n += 1;
    }
    let per_req_s = start.elapsed().as_secs_f64() / n as f64;
    Ok((1.0 / per_req_s).min(CAPACITY_CAP_RPS))
}

/// Deterministic 64-bit mix for arrival jitter and scenario choice —
/// keeps the schedule reproducible under `--seed` without an RNG
/// dependency in the hot path.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the `i`-th arrival sends. The mix keeps the hot tenant dominant
/// (so batching and the plan cache are exercised) while a steady
/// trickle of cold tenants, MPK calls, and zero-deadline probes drives
/// every shedding rung and the typed-503 path.
#[derive(Debug, Clone)]
struct Scenario {
    path: &'static str,
    tenant: String,
    matrix: String,
    deadline_ms: Option<u64>,
}

fn scenario(i: usize, cfg: &LoadConfig) -> Scenario {
    let r = mix(cfg.seed, i as u64) % 100;
    if r < 5 {
        // Zero deadline: expired in the queue, typed 503.
        Scenario {
            path: "/v1/power",
            tenant: "hot".into(),
            matrix: cfg.hot_matrix.clone(),
            deadline_ms: Some(0),
        }
    } else if r < 15 {
        // Cold tenant with a distinct matrix: exercises rung 2 (new
        // tenants shed first) and rung 3 (uncached plans shed) plus the
        // build path. A small pool of cold identities keeps the plan
        // cache from growing without bound.
        let id = mix(cfg.seed ^ 0xc01d, i as u64) % 4;
        Scenario {
            path: "/v1/power",
            tenant: format!("cold-{id}"),
            matrix: format!("banded:2000:5:{}:7", 3 + id),
            deadline_ms: None,
        }
    } else if r < 30 {
        // Hot-plan MPK (deadline-supervised execution path).
        Scenario {
            path: "/v1/mpk",
            tenant: "hot".into(),
            matrix: cfg.hot_matrix.clone(),
            deadline_ms: None,
        }
    } else {
        Scenario {
            path: "/v1/power",
            tenant: "hot".into(),
            matrix: cfg.hot_matrix.clone(),
            deadline_ms: None,
        }
    }
}

fn classify(resp: &http::ClientResponse) -> Outcome {
    match resp.status {
        200 => Outcome::Ok,
        429 => Outcome::Shed,
        503 if resp.header("x-fbmpk-deadline") == Some("expired") => Outcome::DeadlineExpired,
        503 => Outcome::Unavailable,
        500 => Outcome::Fault,
        _ => Outcome::Bad,
    }
}

/// Fires one arrival: sends the request, retries exactly once after a
/// short backoff if it was shed (the real client behaviour Retry-After
/// advises, compressed so the phase stays short).
fn fire(cfg: &LoadConfig, sc: &Scenario) -> Sample {
    let body = client::kernel_body(&sc.matrix, cfg.k, "ones");
    let deadline_hdr = sc.deadline_ms.map(|d| d.to_string());
    let mut headers: Vec<(&str, &str)> = vec![("X-Tenant", &sc.tenant)];
    if let Some(d) = &deadline_hdr {
        headers.push(("X-Deadline-Ms", d));
    }
    let start = Instant::now();
    let first = http::request(cfg.addr, "POST", sc.path, &headers, &body, cfg.timeout);
    let (resp, retried) = match first {
        Ok(r) if r.status == 429 && sc.deadline_ms.is_none() => {
            std::thread::sleep(Duration::from_millis(25));
            (http::request(cfg.addr, "POST", sc.path, &headers, &body, cfg.timeout), true)
        }
        other => (other, false),
    };
    let latency_ms = start.elapsed().as_secs_f64() * 1e3;
    match resp {
        Ok(r) => Sample {
            outcome: classify(&r),
            latency_ms,
            retried,
            batched: r
                .header("x-fbmpk-batch-width")
                .and_then(|w| w.parse::<usize>().ok())
                .is_some_and(|w| w > 1),
            degraded: r.header("x-fbmpk-degraded") == Some("1"),
            error: None,
        },
        Err(e) => Sample {
            outcome: Outcome::Untyped,
            latency_ms,
            retried,
            batched: false,
            degraded: false,
            error: Some(format!("{:?}: {e}", e.kind())),
        },
    }
}

/// Runs one open-loop phase: arrivals at `rate_rps` for `duration`,
/// each fired from a worker-pool slot that sleeps until its scheduled
/// instant. Returns the aggregated report.
pub fn run_phase(cfg: &LoadConfig) -> LoadReport {
    let interval_s = 1.0 / cfg.rate_rps.max(1.0);
    let arrivals = ((cfg.duration.as_secs_f64() * cfg.rate_rps) as usize).clamp(1, MAX_ARRIVALS);
    // Enough slots that a request taking `timeout` cannot stall the
    // schedule at the offered rate, bounded to stay a thread pool.
    let workers = ((cfg.rate_rps * 0.5).ceil() as usize).clamp(8, 96).min(arrivals);
    let next = AtomicUsize::new(0);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(arrivals));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= arrivals {
                    return;
                }
                // Scheduled arrival time with deterministic +/- 40%
                // jitter, so arrivals are not a metronome.
                let jitter = (mix(cfg.seed ^ 0x717e, i as u64) % 80) as f64 / 100.0 - 0.4;
                let at = Duration::from_secs_f64((i as f64 + jitter).max(0.0) * interval_s);
                let elapsed = t0.elapsed();
                if at > elapsed {
                    std::thread::sleep(at - elapsed);
                }
                let s = fire(cfg, &scenario(i, cfg));
                samples.lock().expect("samples").push(s);
            });
        }
    });
    let elapsed = t0.elapsed();
    let samples = samples.into_inner().expect("samples");
    summarize(cfg, &samples, elapsed)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Nearest-rank: the smallest value with at least p of the mass at
    // or below it (p50 of 1..=100 is 50, not an interpolation).
    let idx = ((sorted.len() as f64 * p).ceil() as usize).saturating_sub(1);
    sorted[idx.min(sorted.len() - 1)]
}

fn summarize(cfg: &LoadConfig, samples: &[Sample], elapsed: Duration) -> LoadReport {
    let count = |o: Outcome| samples.iter().filter(|s| s.outcome == o).count();
    // An untyped failure is a bug somewhere (server, generator, or
    // host); print the breakdown so a red CI run is triageable.
    let mut errs: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for s in samples {
        if let Some(e) = &s.error {
            *errs.entry(e.as_str()).or_default() += 1;
        }
    }
    for (e, n) in &errs {
        eprintln!("serve [{}]: {n} untyped failure(s): {e}", cfg.phase);
    }
    let mut ok_latencies_ms: Vec<f64> =
        samples.iter().filter(|s| s.outcome == Outcome::Ok).map(|s| s.latency_ms).collect();
    ok_latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let ok = ok_latencies_ms.len();
    LoadReport {
        phase: cfg.phase.clone(),
        offered_rps: cfg.rate_rps,
        arrivals: samples.len(),
        ok,
        shed: count(Outcome::Shed),
        deadline_expired: count(Outcome::DeadlineExpired),
        unavailable: count(Outcome::Unavailable),
        faults: count(Outcome::Fault),
        bad: count(Outcome::Bad),
        untyped_failures: count(Outcome::Untyped),
        retried: samples.iter().filter(|s| s.retried).count(),
        retried_ok: samples.iter().filter(|s| s.retried && s.outcome == Outcome::Ok).count(),
        batched: samples.iter().filter(|s| s.batched).count(),
        degraded: samples.iter().filter(|s| s.degraded).count(),
        goodput_rps: ok as f64 / elapsed.as_secs_f64().max(1e-9),
        p50_ms: percentile(&ok_latencies_ms, 0.50),
        p99_ms: percentile(&ok_latencies_ms, 0.99),
        ok_latencies_ms,
        elapsed,
    }
}

/// CSV header matching [`csv_row`].
pub const CSV_HEADER: [&str; 16] = [
    "phase",
    "offered_rps",
    "arrivals",
    "ok",
    "shed",
    "deadline_503",
    "unavailable_503",
    "fault_500",
    "bad_400",
    "untyped_failures",
    "retried",
    "retried_ok",
    "batched",
    "goodput_rps",
    "p50_ms",
    "p99_ms",
];

/// One CSV row for a phase report.
pub fn csv_row(r: &LoadReport) -> Vec<String> {
    vec![
        r.phase.clone(),
        format!("{:.1}", r.offered_rps),
        r.arrivals.to_string(),
        r.ok.to_string(),
        r.shed.to_string(),
        r.deadline_expired.to_string(),
        r.unavailable.to_string(),
        r.faults.to_string(),
        r.bad.to_string(),
        r.untyped_failures.to_string(),
        r.retried.to_string(),
        r.retried_ok.to_string(),
        r.batched.to_string(),
        format!("{:.1}", r.goodput_rps),
        format!("{:.3}", r.p50_ms),
        format!("{:.3}", r.p99_ms),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_sane_indices() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.50), 50.0);
        assert_eq!(percentile(&sorted, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn scenario_mix_is_deterministic_and_covers_all_paths() {
        let cfg = LoadConfig {
            phase: "t".into(),
            addr: "127.0.0.1:1".parse().unwrap(),
            rate_rps: 10.0,
            duration: Duration::from_secs(1),
            hot_matrix: "grid:10:10".into(),
            k: 3,
            timeout: Duration::from_secs(1),
            seed: 42,
        };
        let a: Vec<_> = (0..200).map(|i| scenario(i, &cfg)).collect();
        let b: Vec<_> = (0..200).map(|i| scenario(i, &cfg)).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tenant, y.tenant);
            assert_eq!(x.path, y.path);
        }
        assert!(a.iter().any(|s| s.deadline_ms == Some(0)), "deadline probes present");
        assert!(a.iter().any(|s| s.tenant.starts_with("cold-")), "cold tenants present");
        assert!(a.iter().any(|s| s.path == "/v1/mpk"), "mpk calls present");
        assert!(
            a.iter().filter(|s| s.tenant == "hot" && s.path == "/v1/power").count() > 100,
            "hot tenant dominates"
        );
    }

    #[test]
    fn end_to_end_against_a_live_server() {
        let mut server = fbmpk_serve::Server::start(fbmpk_serve::ServeConfig {
            kernel_threads: 1,
            handlers: 2,
            queue_cap: 8,
            ..Default::default()
        })
        .expect("start server");
        let cfg = LoadConfig {
            phase: "smoke".into(),
            addr: server.local_addr(),
            rate_rps: 40.0,
            duration: Duration::from_millis(500),
            hot_matrix: "grid:12:12".into(),
            k: 4,
            timeout: Duration::from_secs(10),
            seed: 7,
        };
        let report = run_phase(&cfg);
        assert!(report.arrivals > 0);
        assert!(report.ok > 0, "some goodput: {report:?}");
        assert_eq!(report.untyped_failures, 0, "typed answers only: {report:?}");
        let row = csv_row(&report);
        assert_eq!(row.len(), CSV_HEADER.len());
        server.shutdown();
    }
}
