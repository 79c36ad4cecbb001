//! A resilient multi-tenant serving layer over the FBMPK kernels.
//!
//! The inspector-executor premise of the paper (and the OSKI line of
//! work it builds on) only pays off when the cost of tuning is amortized
//! over many executions. This crate turns the library into a
//! long-running service where that amortization actually happens:
//! concurrent tenants POST power/SpMV/MPK requests over the same
//! bounded HTTP/1.1 codec the metrics endpoint uses
//! ([`fbmpk_obs::http`]), and tuned
//! plans are cached, shared, and defended against every hostile scenario
//! a fleet of requests can produce.
//!
//! The pieces, bottom-up:
//!
//! * [`spec`] — the request wire format: a matrix described by a
//!   deterministic generator spec (`grid:NX:NY`, `banded:…`, `rmat:…`),
//!   a power `k`, and an input vector (explicit values, `ones`, or a
//!   deterministic `seed:S`). Bounds-checked so a request cannot ask the
//!   server to allocate unbounded memory.
//! * [`plancache`] — a single-flight plan cache keyed by the
//!   structure+value fingerprint from [`fbmpk::tune::fingerprint`]:
//!   concurrent requests for the same matrix block on one inspection,
//!   and a failed or panicking inspection is *negatively* cached with a
//!   decaying TTL so a crashing tenant cannot wedge the cache by
//!   re-triggering the same doomed build.
//! * [`admission`] — bounded-queue admission control with explicit
//!   rejection (HTTP 429 + `Retry-After` derived from observed service
//!   times), per-tenant concurrency quotas, and a three-rung
//!   load-shedding ladder: under moderate pressure untuned matrices get
//!   a probe-free scalar plan; under high pressure unknown tenants are
//!   rejected; near saturation only already-cached work is admitted.
//! * [`batch`] — same-matrix coalescing: power requests for an
//!   identical fingerprint that queue up behind an in-flight execution
//!   are folded into one multi-vector SpMM ([`fbmpk_sparse::spmm`]),
//!   which reads the matrix once for all of them. Column `v` of a
//!   width-`m` SpMM performs exactly the per-row operation sequence of a
//!   width-1 run, so batched results are bit-identical to sequential
//!   execution — asserted in `tests/serve_props.rs`.
//! * [`metrics`] — every admission, shed, fault, deadline, cache and
//!   batch decision counted in a plain atomic, read at scrape time by the
//!   live telemetry registry ([`fbmpk_obs::live`]) and by `/v1/stats`.
//! * [`http`] / [`client`] — the kernel routes' bodies: the bit-exact
//!   vector rendering and its parser, and the request body builder.
//! * [`server`] — the listener/handler threads tying it together.
//!   Per-request deadlines re-arm the watchdog of the shared plan
//!   ([`fbmpk::FbmpkPlan::try_power_deadline`]); expiry maps to a typed
//!   503 carrying the partial-progress dump, a worker panic to a typed
//!   500 for that request only — the pool, plan, and cache stay healthy.

pub mod admission;
pub mod batch;
pub mod client;
pub mod http;
pub mod metrics;
pub mod plancache;
pub mod server;
pub mod spec;

pub use admission::{Admission, Decision, Rejection, ShedReason};
pub use metrics::ServeMetrics;
pub use server::{PlanEntry, ServeConfig, Server};
pub use spec::{MatrixSpec, RequestSpec, XSpec};
