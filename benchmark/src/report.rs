//! Metric catalogue, the result line, and the per-run diagnostics.

use std::fmt::Write as _;

/// End-to-end metrics (`--trace 0`), each with its unit. Every workload
/// reports all of them. The tail latency is printed beside them, not as
/// one of them (see [`crate::stats::TAIL_LADDER`]).
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("rate_per_s", "1/s"), ("rss_mb", "MB")];

/// Per-layer metrics (`--trace 1`), each with its unit. Every workload
/// reports all of them; see README.md for the end-to-end metric each one
/// should move and on which workload.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("reorder.abmc_s", "s"),
    ("reorder.ncolors", "count"),
    ("reorder.nblocks", "count"),
    ("reorder.color_imbalance", "ratio"),
    ("sparse.split_s", "s"),
    ("sparse.split_mb", "MB"),
    ("sparse.spmv_ms", "ms"),
    ("core.plan_build_s", "s"),
    ("core.reads_per_call", "ratio"),
    ("core.modeled_mb_per_call", "MB"),
    ("core.achieved_gbs", "GB/s"),
    ("core.roofline_frac", "ratio"),
    ("core.fallbacks", "count"),
    ("parallel.busy_ms", "ms"),
    ("parallel.wait_ms", "ms"),
    ("parallel.wait_frac", "ratio"),
    ("memsim.dram_mb_fbmpk", "MB"),
    ("memsim.dram_mb_standard", "MB"),
    ("serve.healthz_ms", "ms"),
    ("serve.spec_parse_us", "us"),
    ("serve.x_materialize_us", "us"),
    ("serve.render_ms", "ms"),
    ("serve.block_power_ms", "ms"),
    ("serve.block_power_w2_ms", "ms"),
    ("serve.mpk_ms", "ms"),
    ("serve.batch_width_mean", "count"),
    ("serve.spec_build_ms", "ms"),
    ("serve.tune_ms", "ms"),
    ("serve.fbmpk_build_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rss_per_plan_mb", "MB"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("serve.worker_fault", "count"),
    ("serve.degraded", "count"),
    ("serve.service_ewma_ms", "ms"),
    ("load.late_ms_p99", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// Named metric values collected during a run.
pub type Metrics = Vec<(&'static str, f64)>;

/// What one run reports: operations attempted and failed (a wrong result,
/// a non-200 response or a refused request), and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted, correctness-gate calls included.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: Metrics,
}

impl Outcome {
    /// Counts one operation and whether it passed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Whether at least one operation ran and none failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Renders the result line: the catalogue for the mode, in catalogue
    /// order. Panics on a missing, unknown or non-finite metric, which
    /// would be a bug in this benchmark.
    pub fn to_json(&self, trace: bool) -> String {
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        for (name, _) in &self.metrics {
            assert!(catalogue.iter().any(|(n, _)| n == name), "metric {name} not in catalogue");
        }
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// Per-run facts that explain a noisy figure: the host, the tuner's
/// probe-driven choices and how late the load generator ran. Printed as
/// one `diagnostics: {…}` line before the result line.
#[derive(Debug, Default)]
pub struct Diagnostics {
    /// Samples behind `p50_ms` and the tail.
    pub samples: usize,
    /// The [`crate::stats::TAIL_LADDER`] percentile the tail reports.
    pub tail_pct: f64,
    /// The tail latency, in ms.
    pub tail_ms: f64,
    /// Samples beyond that percentile.
    pub tail_beyond: usize,
    /// ABMC colors of the timed plan (0 when none is built in-process).
    pub ncolors: usize,
    /// Kernel variants `TunedPlan` chose for each served matrix.
    pub tuned_variants: Vec<String>,
    /// 99th percentile of how late the generator issued an operation.
    pub late_ms_p99: f64,
    /// STREAM-triad GB/s measured in the same run.
    pub triad_gbs: f64,
}

/// Host CPU time counters from the `cpu` line of `/proc/stat` (all zero
/// where unavailable).
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// The counters now.
    pub fn now() -> Self {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .find_map(|l| l.strip_prefix("cpu "))
            .map(|rest| rest.split_whitespace().filter_map(|v| v.parse().ok()).collect())
            .unwrap_or_default();
        CpuTimes { total: fields.iter().sum(), steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// Share of host CPU time the hypervisor stole since `earlier`.
    pub fn steal_frac_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}

impl Diagnostics {
    /// The diagnostics line, with the host facts and the share of CPU time
    /// stolen by the hypervisor over the run.
    pub fn line(&self, workload: &str, seed: u64, steal_frac: f64) -> String {
        let (l2, l3) = cache_sizes_kib();
        let variants: Vec<String> =
            self.tuned_variants.iter().map(|v| format!("\"{v}\"")).collect();
        format!(
            "diagnostics: {{\"workload\": \"{workload}\", \"seed\": {seed}, \"nproc\": {}, \
             \"l2_kib\": {l2}, \"l3_kib\": {l3}, \"triad_gbs\": {:.3}, \"samples\": {}, \
             \"tail_pct\": {}, \"tail_ms\": {:.4}, \"tail_beyond\": {}, \"ncolors\": {}, \
             \"tuned_variants\": [{}], \
             \"late_ms_p99\": {:.4}, \"steal_frac\": {steal_frac:.4}}}",
            nproc(),
            self.triad_gbs,
            self.samples,
            self.tail_pct,
            self.tail_ms,
            self.tail_beyond,
            self.ncolors,
            variants.join(", "),
            self.late_ms_p99,
        )
    }
}

/// Everything one run produces.
pub struct Report {
    /// Operation counts and metrics.
    pub outcome: Outcome,
    /// Facts for explaining the run.
    pub diag: Diagnostics,
    /// The spans of a traced run.
    pub trace: Option<crate::trace::Tracer>,
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Sizes of the largest level-2 and level-3 caches in KiB (0 if unknown).
fn cache_sizes_kib() -> (u64, u64) {
    let caches = fbmpk_bench::platform::probe().caches;
    let size = |level| {
        caches.iter().filter(|c| c.level == level).map(|c| c.size_bytes >> 10).max().unwrap_or(0)
    };
    (size(2), size(3))
}

/// Triad working set: three 64 MiB arrays, past this host class's LLC.
const TRIAD_BYTES: usize = 192 << 20;

/// STREAM-triad bandwidth in GB/s from the repository's roofline probe,
/// best of five passes after a warm-up: the ceiling `core.roofline_frac`
/// divides by.
pub fn triad_gbs() -> f64 {
    fbmpk_bench::roofline::measure_with(TRIAD_BYTES, 5).triad_gbs
}

/// A field of `/proc/self/status` in MB (0 where unavailable).
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Peak resident memory of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_mb("VmHWM:")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// The string values of every `"name"` key inside the `key` array of
    /// BENCHMARK.json, in order. The file's grammar is fixed and flat, so
    /// a scan for the key is enough.
    fn names_in(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let section = &json[start..];
        let section = &section[..section.find(']').expect("array closes")];
        let mut names = Vec::new();
        let mut rest = section;
        while let Some(at) = rest.find("\"name\"") {
            rest = rest[at + 6..].trim_start().strip_prefix(':').expect("colon").trim_start();
            let value = rest.strip_prefix('"').expect("string value");
            let end = value.find('"').expect("string closes");
            names.push(value[..end].to_string());
            rest = &value[end..];
        }
        names
    }

    #[test]
    fn catalogue_names_and_units_are_well_formed_and_unique() {
        let all: Vec<_> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(valid_unit(unit), "bad unit {unit} for {name}");
        }
        let mut names: Vec<_> = all.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed = |cat: &[(&str, &str)]| cat.iter().map(|(n, _)| n.to_string()).collect();
        let e2e: Vec<String> = listed(&END_TO_END);
        let layer: Vec<String> = listed(&PER_LAYER);
        assert_eq!(names_in(json, "end_to_end"), e2e);
        assert_eq!(names_in(json, "per_layer"), layer);
        for w in names_in(json, "workloads") {
            assert!(valid_name(&w), "bad workload name {w}");
            assert!(crate::WORKLOADS.contains(&w.as_str()), "unknown workload {w}");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "{name} listed with another unit");
        }
    }

    #[test]
    fn result_line_lists_the_mode_catalogue_in_order() {
        let mut o = Outcome::default();
        o.record(true);
        o.metrics = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = o.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"), "{line}");
        assert!(line.contains("\"rss_mb\": {\"value\": 1.5, \"unit\": \"MB\"}"), "{line}");
        assert!(o.correct());
        o.record(false);
        assert!(!o.correct(), "one failed operation fails the run");
        assert!(o.to_json(false).starts_with("{\"correct\": false"));
    }
}
