//! `repro top` — a 1 Hz plain-ANSI dashboard over the live metrics
//! endpoint.
//!
//! Each frame scrapes the Prometheus text exposition (either from a
//! remote `FBMPK_METRICS_ADDR` endpoint of a running job, or from a
//! self-driving in-process demo workload when no address is given),
//! parses it with the strict in-tree parser, and renders:
//!
//! * achieved matrix bandwidth against the measured roofline ceiling,
//! * per-plan sweep throughput (invocations/s from counter deltas),
//! * overall and per-thread wait fractions as bars,
//! * watchdog arms/fires, barrier fallbacks, fault-injection hits,
//! * the top plan phases by accumulated time,
//! * the traffic-attribution drill-down: worst blocks of the matrix
//!   under `repro attribution`, three byte ledgers side by side.
//!
//! The renderer is a pure function of two parsed expositions (current
//! and previous frame), so every layout decision is unit-testable
//! without a terminal or a socket.

use fbmpk_obs::expo::{self, ParsedExposition};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Configuration for the dashboard loop.
#[derive(Debug, Clone)]
pub struct TopConfig {
    /// Endpoint to scrape; `None` starts the in-process demo workload.
    pub addr: Option<std::net::SocketAddr>,
    /// Milliseconds between frames.
    pub interval_ms: u64,
    /// Stop after this many frames (`None` = until interrupted).
    pub frames: Option<u64>,
}

impl Default for TopConfig {
    fn default() -> Self {
        TopConfig { addr: None, interval_ms: 1000, frames: None }
    }
}

/// An ASCII bar of `width` cells filled to `frac` (clamped to [0, 1]).
fn bar(frac: f64, width: usize) -> String {
    let f = frac.clamp(0.0, 1.0);
    let filled = (f * width as f64).round() as usize;
    let mut s = String::with_capacity(width + 2);
    s.push('[');
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s.push(']');
    s
}

fn unlabeled(p: &ParsedExposition, name: &str) -> Option<f64> {
    p.value(name, &[])
}

/// Counter delta per second between frames; `None` on the first frame
/// or when the counter reset (process restart behind the endpoint).
fn rate(cur: f64, prev: Option<f64>, dt_s: Option<f64>) -> Option<f64> {
    match (prev, dt_s) {
        (Some(p), Some(dt)) if dt > 0.0 && cur >= p => Some((cur - p) / dt),
        _ => None,
    }
}

/// Renders one frame. `prev`/`dt_s` come from the previous scrape and
/// feed the per-second rates; pass `None` on the first frame.
pub fn render_frame(
    p: &ParsedExposition,
    prev: Option<&ParsedExposition>,
    dt_s: Option<f64>,
    source: &str,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fbmpk top — {source}");
    let _ = writeln!(out, "{}", "-".repeat(64));

    // Bandwidth vs roofline.
    let achieved = unlabeled(p, "fbmpk_bench_achieved_gbs");
    let ceiling = unlabeled(p, "fbmpk_bench_roofline_gbs");
    let fraction =
        unlabeled(p, "fbmpk_bench_roofline_fraction").or_else(|| match (achieved, ceiling) {
            (Some(a), Some(c)) if c > 0.0 => Some(a / c),
            _ => None,
        });
    match (achieved, ceiling) {
        (Some(a), Some(c)) => {
            let f = fraction.unwrap_or(0.0);
            let _ = writeln!(
                out,
                "bandwidth  {a:7.2} GB/s of {c:7.2} GB/s roofline  {} {:5.1}%",
                bar(f, 24),
                f * 100.0
            );
        }
        (Some(a), None) => {
            let _ = writeln!(out, "bandwidth  {a:7.2} GB/s (no roofline measured)");
        }
        _ => {
            let _ = writeln!(out, "bandwidth  (no fbmpk_bench_achieved_gbs yet)");
        }
    }

    // Per-plan sweeps: invocations, rate, achieved GB/s, wait fraction.
    let sweeps = p.samples_of("fbmpk_sweep_invocations_total");
    if !sweeps.is_empty() {
        let _ = writeln!(out, "\nplans");
        for s in &sweeps {
            let plan =
                s.labels.iter().find(|(k, _)| k == "plan").map(|(_, v)| v.as_str()).unwrap_or("?");
            let lbl = [("plan", plan)];
            let prev_count = prev.and_then(|q| q.value("fbmpk_sweep_invocations_total", &lbl));
            let per_s = rate(s.value, prev_count, dt_s)
                .map(|r| format!("{r:6.2}/s"))
                .unwrap_or_else(|| "      –".into());
            let gbs = p
                .value("fbmpk_achieved_gbs", &lbl)
                .map(|g| format!("{g:7.2} GB/s"))
                .unwrap_or_else(|| "          –".into());
            let wait = p.value("fbmpk_wait_fraction", &lbl);
            let wait_str =
                wait.map(|w| format!("{} {:5.1}% wait", bar(w, 12), w * 100.0)).unwrap_or_default();
            let _ = writeln!(
                out,
                "  plan {plan:<3} {:>10.0} sweeps  {per_s}  {gbs}  {wait_str}",
                s.value
            );
            // Per-thread wait bars, when the plan records spans.
            let mut threads: Vec<_> = p
                .samples_of("fbmpk_thread_wait_fraction")
                .into_iter()
                .filter(|t| t.labels.iter().any(|(k, v)| k == "plan" && v == plan))
                .collect();
            threads.sort_by_key(|t| {
                t.labels
                    .iter()
                    .find(|(k, _)| k == "thread")
                    .and_then(|(_, v)| v.parse::<usize>().ok())
                    .unwrap_or(usize::MAX)
            });
            for t in threads {
                let tid = t
                    .labels
                    .iter()
                    .find(|(k, _)| k == "thread")
                    .map(|(_, v)| v.as_str())
                    .unwrap_or("?");
                let _ = writeln!(
                    out,
                    "    t{tid:<3} {} {:5.1}% wait",
                    bar(t.value, 20),
                    t.value * 100.0
                );
            }
        }
    }

    // Faults and recovery.
    let arms = unlabeled(p, "fbmpk_watchdog_arms_total").unwrap_or(0.0);
    let fires = unlabeled(p, "fbmpk_watchdog_fires_total").unwrap_or(0.0);
    // `+ 0.0` normalizes the -0.0 that summing zero samples yields.
    let fallbacks = p.sum("fbmpk_fallbacks_total") + 0.0;
    let inject = unlabeled(p, "fbmpk_fault_injection_hits_total").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "\nfaults     watchdog {arms:.0} armed / {fires:.0} fired   \
         fallbacks {fallbacks:.0}   injected {inject:.0}"
    );

    // Top phases by accumulated wall time.
    let mut phases: Vec<(String, f64, f64)> = p
        .samples_of("fbmpk_phase_seconds_total")
        .into_iter()
        .filter_map(|s| {
            let name = s.labels.iter().find(|(k, _)| k == "phase")?.1.clone();
            let runs = p.value("fbmpk_phase_runs_total", &[("phase", &name)]).unwrap_or(0.0);
            Some((name, s.value, runs))
        })
        .collect();
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !phases.is_empty() {
        let _ = writeln!(out, "\nphases                          seconds      runs");
        for (name, secs, runs) in phases.iter().take(10) {
            let _ = writeln!(out, "  {name:<28} {secs:>9.4} {runs:>9.0}");
        }
    }

    // Traffic-attribution drill-down: the worst blocks of the matrix
    // currently under `repro attribution`, all three byte ledgers side by
    // side (modeled from §III-B, simulated from the cache replay,
    // measured from hardware counters when available).
    let attr = p.samples_of("fbmpk_block_bytes_total");
    if !attr.is_empty() {
        let mut per_block: std::collections::BTreeMap<(String, String), (f64, f64, Option<f64>)> =
            std::collections::BTreeMap::new();
        for s in &attr {
            let lab = |k: &str| s.labels.iter().find(|(n, _)| n == k).map(|(_, v)| v.clone());
            let (Some(matrix), Some(block), Some(ledger)) =
                (lab("matrix"), lab("block"), lab("ledger"))
            else {
                continue;
            };
            let e = per_block.entry((matrix, block)).or_insert((0.0, 0.0, None));
            match ledger.as_str() {
                "modeled" => e.0 += s.value,
                "simulated" => e.1 += s.value,
                "measured" => *e.2.get_or_insert(0.0) += s.value,
                _ => {}
            }
        }
        let mut rows: Vec<(String, String, f64, f64, Option<f64>, f64)> = per_block
            .into_iter()
            .map(|((matrix, block), (m, sim, meas))| {
                let achieved = meas.unwrap_or(sim);
                let ratio = if m > 0.0 { achieved / m } else { 0.0 };
                (matrix, block, m, sim, meas, ratio)
            })
            .collect();
        rows.sort_by(|a, b| b.5.total_cmp(&a.5));
        let _ = writeln!(out, "\nattribution — worst blocks (bytes vs model)");
        for (matrix, block, m, sim, meas, ratio) in rows.iter().take(8) {
            let meas_str = meas.map(|v| format!("{v:>9.0}")).unwrap_or_else(|| "        –".into());
            let _ = writeln!(
                out,
                "  {matrix:<12} b{block:<5} model {m:>9.0}  sim {sim:>9.0}  meas {meas_str}  \
                 {} {ratio:4.2}x",
                bar(ratio / 3.0, 12),
            );
        }
    }
    out
}

/// Starts the self-driving demo: enables live telemetry, binds an
/// in-process endpoint, and spawns a background workload (a small
/// reordered plan computing `A^5 x` in a loop) so every dashboard
/// section has data. Returns the bound address. The workload thread is
/// detached and dies with the process.
fn start_demo() -> Result<std::net::SocketAddr, String> {
    // Starting the endpoint turns the live gate on.
    let server = fbmpk_obs::MetricsServer::start(
        "127.0.0.1:0".parse().expect("literal addr"),
        fbmpk_obs::live::global(),
    )
    .map_err(|e| format!("bind demo endpoint: {e}"))?;
    let addr = server.local_addr();
    // The server lives for the rest of the process.
    std::mem::forget(server);
    std::thread::Builder::new()
        .name("fbmpk-top-demo".into())
        .spawn(|| {
            let a = fbmpk_gen::poisson::grid2d_5pt(60, 60);
            let opts = fbmpk::FbmpkOptions {
                nthreads: 2,
                reorder: Some(fbmpk_reorder::AbmcParams::default()),
                obs: fbmpk::ObsOptions::recording(),
                ..Default::default()
            };
            let plan = fbmpk::FbmpkPlan::new(&a, opts).expect("square demo matrix");
            let x0 = vec![1.0; a.nrows()];
            loop {
                std::hint::black_box(plan.power(&x0, 5));
                std::thread::sleep(Duration::from_millis(50));
            }
        })
        .map_err(|e| format!("spawn demo workload: {e}"))?;
    Ok(addr)
}

/// Runs the dashboard loop. Blocks until `cfg.frames` frames have been
/// rendered (or forever when `None`). Errors are returned, not printed,
/// so the caller owns the exit code.
pub fn run(cfg: &TopConfig) -> Result<(), String> {
    let (addr, source) = match cfg.addr {
        Some(a) => (a, format!("{a}")),
        None => {
            let a = start_demo()?;
            (a, format!("{a} (demo workload)"))
        }
    };
    let mut prev: Option<(ParsedExposition, Instant)> = None;
    let mut frame = 0u64;
    loop {
        let body = fbmpk_obs::serve::scrape(addr, Duration::from_secs(2))
            .map_err(|e| format!("scrape {addr}: {e}"))?;
        let parsed = expo::parse(&body).map_err(|e| format!("bad exposition from {addr}: {e}"))?;
        let now = Instant::now();
        let dt = prev.as_ref().map(|(_, t)| now.duration_since(*t).as_secs_f64());
        let screen = render_frame(&parsed, prev.as_ref().map(|(q, _)| q), dt, &source);
        // Clear + home, then the frame: plain ANSI, no terminal library.
        print!("\x1b[2J\x1b[H{screen}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        prev = Some((parsed, now));
        frame += 1;
        if let Some(max) = cfg.frames {
            if frame >= max {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(cfg.interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_clamps_and_fills() {
        assert_eq!(bar(0.0, 4), "[....]");
        assert_eq!(bar(1.0, 4), "[####]");
        assert_eq!(bar(2.5, 4), "[####]");
        assert_eq!(bar(-1.0, 4), "[....]");
        assert_eq!(bar(0.5, 4), "[##..]");
    }

    #[test]
    fn render_frame_covers_every_section() {
        let text = "\
# HELP fbmpk_bench_achieved_gbs h\n\
# TYPE fbmpk_bench_achieved_gbs gauge\n\
fbmpk_bench_achieved_gbs 5\n\
# HELP fbmpk_bench_roofline_gbs h\n\
# TYPE fbmpk_bench_roofline_gbs gauge\n\
fbmpk_bench_roofline_gbs 10\n\
# HELP fbmpk_sweep_invocations_total h\n\
# TYPE fbmpk_sweep_invocations_total counter\n\
fbmpk_sweep_invocations_total{plan=\"1\"} 30\n\
# HELP fbmpk_achieved_gbs h\n\
# TYPE fbmpk_achieved_gbs gauge\n\
fbmpk_achieved_gbs{plan=\"1\"} 4.5\n\
# HELP fbmpk_wait_fraction h\n\
# TYPE fbmpk_wait_fraction gauge\n\
fbmpk_wait_fraction{plan=\"1\"} 0.25\n\
# HELP fbmpk_thread_wait_fraction h\n\
# TYPE fbmpk_thread_wait_fraction gauge\n\
fbmpk_thread_wait_fraction{plan=\"1\",thread=\"0\"} 0.5\n\
fbmpk_thread_wait_fraction{plan=\"1\",thread=\"1\"} 0.1\n\
# HELP fbmpk_watchdog_fires_total h\n\
# TYPE fbmpk_watchdog_fires_total counter\n\
fbmpk_watchdog_fires_total 2\n\
# HELP fbmpk_phase_seconds_total h\n\
# TYPE fbmpk_phase_seconds_total counter\n\
fbmpk_phase_seconds_total{phase=\"tune.inspect\"} 0.25\n\
# HELP fbmpk_phase_runs_total h\n\
# TYPE fbmpk_phase_runs_total counter\n\
fbmpk_phase_runs_total{phase=\"tune.inspect\"} 7\n\
# HELP fbmpk_block_bytes_total h\n\
# TYPE fbmpk_block_bytes_total counter\n\
fbmpk_block_bytes_total{matrix=\"rmat\",block=\"3\",phase=\"total\",ledger=\"modeled\"} 1000\n\
fbmpk_block_bytes_total{matrix=\"rmat\",block=\"3\",phase=\"forward\",ledger=\"simulated\"} 1500\n\
fbmpk_block_bytes_total{matrix=\"rmat\",block=\"3\",phase=\"backward\",ledger=\"simulated\"} 500\n\
fbmpk_block_bytes_total{matrix=\"rmat\",block=\"3\",phase=\"forward\",ledger=\"measured\"} 3000\n\
fbmpk_block_bytes_total{matrix=\"rmat\",block=\"7\",phase=\"total\",ledger=\"modeled\"} 1000\n\
fbmpk_block_bytes_total{matrix=\"rmat\",block=\"7\",phase=\"forward\",ledger=\"simulated\"} 1000\n";
        let cur = expo::parse(text).expect("fixture parses");
        let frame = render_frame(&cur, None, None, "test");
        assert!(frame.contains("50.0%"), "roofline fraction:\n{frame}");
        assert!(frame.contains("plan 1"), "{frame}");
        assert!(frame.contains("t0"), "{frame}");
        assert!(frame.contains("2 fired"), "{frame}");
        assert!(frame.contains("tune.inspect"), "{frame}");
        // Attribution drill-down: block 3's measured/modeled ratio (3.00x)
        // ranks it above block 7 (sim-only, 1.00x with a "–" measured cell).
        assert!(frame.contains("attribution — worst blocks"), "{frame}");
        let b3 = frame.find("b3").expect("block 3 shown");
        let b7 = frame.find("b7").expect("block 7 shown");
        assert!(b3 < b7, "worst ratio first:\n{frame}");
        assert!(frame.contains("3.00x"), "{frame}");
        assert!(frame.contains("1.00x"), "{frame}");
        assert!(frame.contains("–"), "missing measured ledger renders a dash:\n{frame}");
        // First frame has no rate; a second frame 10 sweeps later at
        // dt = 2 s shows 5.00/s.
        let next_text = text.replace(
            "fbmpk_sweep_invocations_total{plan=\"1\"} 30",
            "fbmpk_sweep_invocations_total{plan=\"1\"} 50",
        );
        let next = expo::parse(&next_text).expect("fixture parses");
        let frame2 = render_frame(&next, Some(&cur), Some(2.0), "test");
        assert!(frame2.contains("10.00/s"), "{frame2}");
    }

    #[test]
    fn render_frame_survives_an_empty_exposition() {
        let empty = expo::parse("").expect("empty is valid");
        let frame = render_frame(&empty, None, None, "empty");
        assert!(frame.contains("no fbmpk_bench_achieved_gbs"));
    }
}
