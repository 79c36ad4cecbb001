//! Serving-layer accounting.
//!
//! Every admission, shed, degradation, deadline expiry, fault, cache
//! and batch decision increments exactly one counter here: a relaxed
//! `fetch_add` on a plain atomic, with no lock and no allocation. The
//! counters reach the outside world only when read. [`ServeMetrics`] is
//! a [`LiveSource`], so the process-wide live registry
//! ([`fbmpk_obs::live`]) collects it at scrape time for the exposition
//! endpoint and `repro top`, and `/v1/stats` renders the same families
//! through [`fbmpk_obs::expo`].

use std::sync::atomic::{AtomicU64, Ordering};

use fbmpk_obs::live::{FamilySnapshot, LiveSample, LiveSource, MetricKind, SampleValue};

use crate::admission::ShedReason;

macro_rules! serve_metrics {
    ($( $field:ident => ($name:literal, $help:literal) ),+ $(,)?) => {
        /// Counter block for one server instance.
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $(
                #[doc = $help]
                pub $field: AtomicU64,
            )+
        }

        /// A point-in-time copy of every counter.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(
                #[doc = $help]
                pub $field: u64,
            )+
        }

        impl ServeMetrics {
            /// Copies every counter.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $( $field: self.$field.load(Ordering::Relaxed), )+
                }
            }
        }

        impl LiveSource for ServeMetrics {
            /// One unlabeled counter family per field.
            fn collect(&self) -> Vec<FamilySnapshot> {
                vec![$(
                    FamilySnapshot {
                        name: $name.to_string(),
                        help: $help.to_string(),
                        kind: MetricKind::Counter,
                        samples: vec![LiveSample {
                            labels: Vec::new(),
                            value: SampleValue::Counter(self.$field.load(Ordering::Relaxed)),
                        }],
                    },
                )+]
            }
        }

        impl StatsSnapshot {
            /// Parses the `/v1/stats` body back into a snapshot (missing
            /// lines stay zero; `#` lines and unknown lines are ignored).
            pub fn parse(body: &str) -> StatsSnapshot {
                let mut s = StatsSnapshot::default();
                for line in body.lines() {
                    let Some((name, value)) = line.rsplit_once(' ') else { continue };
                    let Ok(value) = value.parse::<u64>() else { continue };
                    match name {
                        $( $name => s.$field = value, )+
                        _ => {}
                    }
                }
                s
            }
        }
    };
}

serve_metrics! {
    requests => ("fbmpk_serve_requests_total", "Requests received (any route)"),
    ok => ("fbmpk_serve_ok_total", "Requests answered 200"),
    bad_request => ("fbmpk_serve_bad_request_total", "Malformed requests answered 400"),
    not_found => ("fbmpk_serve_not_found_total", "Unknown routes answered 404"),
    shed_queue_full => ("fbmpk_serve_shed_queue_full_total", "429s from the bounded queue refusing a request"),
    shed_tenant_quota => ("fbmpk_serve_shed_tenant_quota_total", "429s from the per-tenant concurrency quota"),
    shed_new_tenant => ("fbmpk_serve_shed_new_tenant_total", "429s from ladder rung 2 (new tenants rejected)"),
    shed_uncached => ("fbmpk_serve_shed_uncached_total", "429s from ladder rung 3 (only cached work admitted)"),
    degraded => ("fbmpk_serve_degraded_total", "Requests served off a probe-free scalar plan (ladder rung 1)"),
    deadline_expired => ("fbmpk_serve_deadline_expired_total", "503s from per-request deadline expiry (queue or watchdog)"),
    worker_fault => ("fbmpk_serve_worker_fault_total", "500s from a worker fault isolated to one request"),
    plan_unavailable => ("fbmpk_serve_plan_unavailable_total", "503s from failed or negatively-cached plan builds"),
    cache_hits => ("fbmpk_serve_cache_hits_total", "Plan-cache lookups served from a resident plan"),
    cache_misses => ("fbmpk_serve_cache_misses_total", "Plan-cache lookups that ran an inspection"),
    cache_singleflight_waits => ("fbmpk_serve_cache_singleflight_waits_total", "Lookups that waited on another caller's in-flight build"),
    cache_negative_hits => ("fbmpk_serve_cache_negative_hits_total", "Lookups refused by a live negative-cache entry"),
    cache_build_failures => ("fbmpk_serve_cache_build_failures_total", "Plan builds that failed or panicked (and were negatively cached)"),
    batched => ("fbmpk_serve_batched_total", "Power requests that shared an SpMM batch of width > 1"),
    batch_executions => ("fbmpk_serve_batch_executions_total", "Coalesced SpMM executions run on behalf of >= 1 request"),
}

impl ServeMetrics {
    /// Increments `counter`, one of this block's fields.
    pub fn inc(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The shed counter for `reason`.
    pub fn count_shed(&self, reason: ShedReason) {
        self.inc(match reason {
            ShedReason::QueueFull => &self.shed_queue_full,
            ShedReason::TenantQuota => &self.shed_tenant_quota,
            ShedReason::NewTenant => &self.shed_new_tenant,
            ShedReason::Uncached => &self.shed_uncached,
        });
    }
}

impl StatsSnapshot {
    /// Total typed rejections (every 429).
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full + self.shed_tenant_quota + self.shed_new_tenant + self.shed_uncached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk_obs::live::{LiveRegistry, Snapshot};
    use std::sync::Arc;

    #[test]
    fn render_parse_round_trips() {
        let m = ServeMetrics::default();
        m.inc(&m.requests);
        m.inc(&m.requests);
        m.inc(&m.ok);
        m.count_shed(ShedReason::QueueFull);
        m.count_shed(ShedReason::Uncached);
        let body = fbmpk_obs::expo::render(&Snapshot { families: m.collect() });
        let snap = StatsSnapshot::parse(&body);
        assert_eq!(snap, m.snapshot());
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.shed_total(), 2);
    }

    #[test]
    fn shed_reasons_hit_distinct_counters() {
        let m = ServeMetrics::default();
        for r in [
            ShedReason::QueueFull,
            ShedReason::TenantQuota,
            ShedReason::NewTenant,
            ShedReason::Uncached,
        ] {
            m.count_shed(r);
        }
        let s = m.snapshot();
        assert_eq!(
            (s.shed_queue_full, s.shed_tenant_quota, s.shed_new_tenant, s.shed_uncached),
            (1, 1, 1, 1)
        );
    }

    #[test]
    fn registered_source_is_read_at_scrape_time() {
        let reg = LiveRegistry::new();
        let m = Arc::new(ServeMetrics::default());
        let source: Arc<dyn LiveSource> = Arc::clone(&m) as Arc<dyn LiveSource>;
        reg.register_source(Arc::downgrade(&source));
        let before = reg.snapshot().counter_total("fbmpk_serve_worker_fault_total");
        m.inc(&m.worker_fault);
        let after = reg.snapshot().counter_total("fbmpk_serve_worker_fault_total");
        assert_eq!(after, before + 1, "shed/fault decisions must reach the live registry");
        drop((m, source));
        assert!(reg.snapshot().family("fbmpk_serve_worker_fault_total").is_none());
    }
}
