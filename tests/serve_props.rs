//! Serving-layer properties, driven through the real HTTP surface: a
//! live [`fbmpk_serve::Server`] on a loopback port, raw-TCP clients,
//! and assertions on status codes, typed `X-Fbmpk-*` headers, and
//! bit-exact response bodies.
//!
//! * Same-matrix batching is invisible: responses collected under
//!   concurrent load (where requests share one SpMM) are byte-identical
//!   to the same requests served sequentially, across k parities and
//!   kernel thread counts — and the sequential bodies are byte-identical
//!   to `k` chained scalar SpMVs computed outside the server, so a change
//!   to the kernel's bits fails here too.
//! * Backpressure is typed: overflowing the admission queue yields 429
//!   with `Retry-After` and `X-Fbmpk-Shed: queue-full`, never a dropped
//!   connection.
//! * Deadlines are typed: an already-expired deadline yields 503 with
//!   `X-Fbmpk-Deadline: expired`, and the cached plan keeps serving.
//! * Faults are isolated (needs `--features fault-inject`): a request
//!   whose kernel panics gets its own 500 with `X-Fbmpk-Fault`, while
//!   concurrent requests on the very same plan complete normally and
//!   the server stays healthy afterwards.

use fbmpk_obs::http;
use fbmpk_serve::client;
use fbmpk_serve::http::render_vector;
use fbmpk_serve::metrics::StatsSnapshot;
use fbmpk_serve::{RequestSpec, ServeConfig, Server};
use fbmpk_sparse::spmv::spmv_alloc;
use std::net::SocketAddr;
use std::time::Duration;

const T: Duration = Duration::from_secs(30);

fn server(kernel_threads: usize, handlers: usize, queue_cap: usize) -> Server {
    Server::start(ServeConfig { kernel_threads, handlers, queue_cap, ..Default::default() })
        .expect("start server")
}

fn power(addr: SocketAddr, matrix: &str, k: usize, x: &str, tenant: &str) -> http::ClientResponse {
    let body = client::kernel_body(matrix, k, x);
    http::request(addr, "POST", "/v1/power", &[("X-Tenant", tenant)], &body, T)
        .expect("transport must not fail")
}

fn stats(addr: SocketAddr) -> StatsSnapshot {
    let r = http::request(addr, "GET", "/v1/stats", &[], "", T).expect("stats");
    assert_eq!(r.status, 200);
    StatsSnapshot::parse(&r.body)
}

/// Concurrent same-matrix requests (which the server may coalesce into
/// one SpMM of any width) must return byte-identical bodies to the same
/// requests served one at a time — across even/odd k and thread counts.
#[test]
fn batched_responses_are_bit_identical_to_sequential() {
    for (threads, k) in [(1usize, 4usize), (1, 5), (2, 6), (2, 7)] {
        let mut srv = server(threads, 4, 64);
        let addr = srv.local_addr();
        let matrix = "grid:24:24";
        let xs: Vec<String> = (0..8).map(|i| format!("seed:{}", 100 + i)).collect();

        // Sequential reference: one outstanding request at a time.
        let reference: Vec<String> = xs
            .iter()
            .map(|x| {
                let r = power(addr, matrix, k, x, "ref");
                assert_eq!(r.status, 200, "k={k} threads={threads}: {}", r.body);
                r.body
            })
            .collect();

        // Concurrent burst: same requests, all in flight at once.
        let concurrent: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = xs
                .iter()
                .map(|x| scope.spawn(move || power(addr, matrix, k, x, "burst")))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let r = h.join().expect("client thread");
                    assert_eq!(r.status, 200, "k={k} threads={threads}: {}", r.body);
                    r.body
                })
                .collect()
        });

        // Independent reference: k chained scalar SpMVs, with the matrix
        // and x built from the very request body the server parsed.
        for (x, seq) in xs.iter().zip(&reference) {
            let spec = RequestSpec::parse(&client::kernel_body(matrix, k, x)).expect("spec");
            let a = spec.matrix.build();
            let mut y = spec.x.materialize(a.nrows()).expect("x");
            for _ in 0..spec.k {
                y = spmv_alloc(&a, &y);
            }
            assert_eq!(
                seq,
                &render_vector(&y),
                "x={x} k={k} threads={threads}: body differs from chained spmv"
            );
        }

        for (i, (seq, conc)) in reference.iter().zip(&concurrent).enumerate() {
            assert_eq!(
                seq,
                conc,
                "x=seed:{} k={k} threads={threads}: batched body differs from sequential",
                100 + i
            );
        }
        srv.shutdown();
    }
}

/// The live-telemetry gate stays off in a served process until an
/// endpoint attaches: serving must not make every plan build register
/// collectors and lock phase totals for nobody.
#[test]
fn serving_leaves_the_live_gate_off() {
    let mut srv = server(1, 1, 4);
    assert_eq!(power(srv.local_addr(), "grid:6:6", 2, "ones", "gate").status, 200);
    assert!(!fbmpk_obs::live::enabled(), "Server::start must not flip the live gate");
    srv.shutdown();
}

/// Overflowing the bounded queue must produce typed 429s carrying a
/// parseable `Retry-After` and the shed-rung header — and every client
/// still gets *an* HTTP answer (the transport never just resets).
#[test]
fn queue_overflow_sheds_with_typed_429() {
    // One handler, one queue slot: a burst must overflow.
    let mut srv = server(1, 1, 1);
    let addr = srv.local_addr();
    // Warm the plan so the burst measures queueing, not plan building.
    assert_eq!(power(addr, "grid:48:48", 8, "ones", "warm").status, 200);

    let responses: Vec<http::ClientResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..24)
            .map(|i| {
                scope.spawn(move || {
                    let body = client::kernel_body("grid:48:48", 8, "ones");
                    http::request(
                        addr,
                        "POST",
                        "/v1/power",
                        &[("X-Tenant", &format!("burst-{}", i % 3))],
                        &body,
                        T,
                    )
                    .expect("shed must arrive as a typed response, not a reset")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    let sheds: Vec<_> = responses.iter().filter(|r| r.status == 429).collect();
    assert!(!sheds.is_empty(), "24-deep burst into a 1-slot queue must shed");
    for shed in &sheds {
        let retry: u64 = shed
            .header("retry-after")
            .expect("429 carries Retry-After")
            .parse()
            .expect("Retry-After is integral seconds");
        assert!((1..=60).contains(&retry), "Retry-After {retry} out of range");
        assert!(shed.header("x-fbmpk-shed").is_some(), "429 names its shed rung");
    }
    assert!(responses.iter().any(|r| r.status == 200), "some of the burst must be served");
    let snap = stats(addr);
    assert!(snap.shed_queue_full + snap.shed_tenant_quota + snap.shed_new_tenant > 0);
    srv.shutdown();
}

/// An already-expired deadline is a typed 503, and it must not poison
/// anything: the same plan serves the next request from cache.
#[test]
fn expired_deadline_is_typed_503_and_cache_keeps_serving() {
    let mut srv = server(1, 2, 16);
    let addr = srv.local_addr();
    let matrix = "grid:16:16";
    assert_eq!(power(addr, matrix, 4, "ones", "t").status, 200);
    let misses_before = stats(addr).cache_misses;

    let body = client::kernel_body(matrix, 4, "ones");
    let r = http::request(
        addr,
        "POST",
        "/v1/power",
        &[("X-Tenant", "t"), ("X-Deadline-Ms", "0")],
        &body,
        T,
    )
    .expect("typed deadline response");
    assert_eq!(r.status, 503);
    assert_eq!(r.header("x-fbmpk-deadline"), Some("expired"));

    let after = power(addr, matrix, 4, "ones", "t");
    assert_eq!(after.status, 200, "cache must keep serving after a deadline 503");
    let snap = stats(addr);
    assert_eq!(snap.cache_misses, misses_before, "no rebuild after the deadline 503");
    assert!(snap.deadline_expired >= 1);
    srv.shutdown();
}

/// A panicking kernel costs exactly the requests that hit it: they get
/// a typed 500, concurrent requests on the *same plan* complete, and
/// once the fault is gone the server is healthy — no restart needed.
#[cfg(feature = "fault-inject")]
#[test]
fn injected_panic_is_a_typed_500_isolated_to_its_requests() {
    use fbmpk_parallel::fault::{self, FaultPlan};

    let mut srv = server(2, 4, 64);
    let addr = srv.local_addr();
    let matrix = "grid:24:24";
    // Warm the plan before installing the fault (plan probing runs the
    // kernel, which would otherwise trip the panic during the build).
    assert_eq!(power(addr, matrix, 5, "ones", "t").status, 200);

    {
        let _guard = fault::install(FaultPlan::parse("panic:0:1").expect("fault spec"));
        let (faulty, healthy) = std::thread::scope(|scope| {
            // The MPK route runs the FBMPK kernel, where the fault
            // hooks live; the power route on the same plan does not.
            let faulty = scope.spawn(move || {
                let body = client::kernel_body(matrix, 5, "ones");
                http::request(addr, "POST", "/v1/mpk", &[("X-Tenant", "t")], &body, T)
                    .expect("panic must surface as a typed response")
            });
            let healthy: Vec<_> = (0..4)
                .map(|i| scope.spawn(move || power(addr, matrix, 5, &format!("seed:{i}"), "t")))
                .collect();
            (
                faulty.join().expect("client thread"),
                healthy.into_iter().map(|h| h.join().expect("client thread")).collect::<Vec<_>>(),
            )
        });
        assert_eq!(faulty.status, 500, "injected panic: {}", faulty.body);
        assert!(faulty.header("x-fbmpk-fault").is_some(), "500 is typed");
        for r in &healthy {
            assert_eq!(r.status, 200, "same-plan request caught the fault: {}", r.body);
        }
    }

    // Fault uninstalled: the same route recovers without intervention.
    let body = client::kernel_body(matrix, 5, "ones");
    let recovered = http::request(addr, "POST", "/v1/mpk", &[("X-Tenant", "t")], &body, T)
        .expect("recovered response");
    assert_eq!(recovered.status, 200, "server must be healthy after the fault: {}", recovered.body);
    assert!(stats(addr).worker_fault >= 1);
    srv.shutdown();
}
