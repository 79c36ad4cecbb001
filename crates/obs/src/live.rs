//! Live telemetry: per-lane atomic metric cells and consistent snapshots.
//!
//! The post-mortem stack ([`crate::recorder`], [`crate::trace`]) answers
//! "what happened" after a run finishes; this module answers "what is
//! happening" while sweep workers are still in flight. The design reuses
//! the recorder's lane discipline: every metric family owns one
//! cache-line-padded cell per lane, each lane has a single designated
//! writer (worker thread `t` writes lane `t`), and a sampler thread reads
//! all lanes without taking any lock the writers can contend on.
//!
//! * Counters and gauges are plain relaxed [`AtomicU64`] cells — a lane
//!   write is one `fetch_add`/`store`, never an RMW loop, never a lock.
//! * Histograms are multi-word (count, sum, min, max, 64 log₂ buckets),
//!   so each lane cell carries a seqlock: the writer brackets its relaxed
//!   field updates with two sequence increments (odd = write in progress),
//!   the reader retries until it sees the same even sequence on both sides
//!   of its field reads. Every field is itself an atomic, so even a lost
//!   race is defined behavior; the seqlock only upgrades "defined" to
//!   "consistent point-in-time".
//! * Snapshot-time computed metrics (wait fractions, roofline utilization)
//!   come from [`LiveSource`] collectors registered as `Weak` references —
//!   a dropped plan silently unregisters itself.
//!
//! Everything is gated behind [`enabled`]: when no exposition endpoint or
//! dashboard is attached (the default), instrumentation sites short-circuit
//! on one relaxed bool load and the kernels keep their monomorphized
//! uninstrumented form.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};

use crate::metrics::Histogram;

/// Process-wide switch for the live pipeline. Off by default; flipped on
/// when a metrics endpoint or live dashboard attaches.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is live telemetry on? One relaxed load — cheap enough for setup-phase
/// and per-invocation (not per-row) call sites.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the live pipeline on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The process-global registry the exposition endpoint serves.
pub fn global() -> &'static LiveRegistry {
    static REG: OnceLock<LiveRegistry> = OnceLock::new();
    REG.get_or_init(LiveRegistry::new)
}

/// One padded counter lane: a single relaxed atomic on its own cache line
/// so lane writers never false-share.
#[repr(align(64))]
#[derive(Debug, Default)]
struct CounterCell {
    v: AtomicU64,
}

/// One padded gauge lane (f64 stored as bits).
#[repr(align(64))]
#[derive(Debug, Default)]
struct GaugeCell {
    bits: AtomicU64,
}

/// One padded histogram lane with a seqlock over its multi-word state.
#[repr(align(64))]
struct HistCell {
    /// Even = stable, odd = lane writer mid-update.
    seq: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    /// `u64::MAX` sentinel when empty, mirroring [`Histogram`].
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; 64],
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            seq: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl HistCell {
    /// Lane-writer observe. Single writer per cell: the seqlock brackets
    /// make concurrent reader snapshots consistent, they do not arbitrate
    /// between two writers.
    fn observe(&self, v: u64) {
        // AcqRel: the acquire half keeps the relaxed field updates from
        // sinking above the odd transition, the release half orders the
        // increment itself.
        self.seq.fetch_add(1, Ordering::AcqRel);
        let bucket = if v == 0 { 0 } else { 63 - v.leading_zeros() as usize };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        // Release: field updates become visible no later than the even
        // transition the reader checks for.
        self.seq.fetch_add(1, Ordering::Release);
    }

    /// Sampler-side consistent read: retry while the writer is mid-update
    /// or finished an update during our field reads (the Linux/crossbeam
    /// seqlock recipe).
    fn read(&self) -> Histogram {
        loop {
            let s1 = self.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let count = self.count.load(Ordering::Relaxed);
            let sum = self.sum.load(Ordering::Relaxed);
            let min = self.min.load(Ordering::Relaxed);
            let max = self.max.load(Ordering::Relaxed);
            let mut buckets = [0u64; 64];
            for (b, cell) in buckets.iter_mut().zip(self.buckets.iter()) {
                *b = cell.load(Ordering::Relaxed);
            }
            std::sync::atomic::fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == s1 {
                return Histogram::from_raw(buckets, count, sum, min, max);
            }
            std::hint::spin_loop();
        }
    }
}

/// A registered counter family: one monotone cell per lane.
#[derive(Debug)]
pub struct CounterFamily {
    cells: Box<[CounterCell]>,
}

/// A registered gauge family.
#[derive(Debug)]
pub struct GaugeFamily {
    cells: Box<[GaugeCell]>,
}

/// A registered histogram family.
pub struct HistogramFamily {
    cells: Box<[HistCell]>,
}

/// Writer handle for a counter family. Clones share the cells; writes
/// never touch the registry lock.
#[derive(Debug, Clone)]
pub struct LiveCounter(Arc<CounterFamily>);

impl LiveCounter {
    /// Adds `delta` to lane `lane` (wrapped modulo the lane count, so a
    /// plan with more threads than the family was registered with folds
    /// the extras instead of panicking).
    #[inline]
    pub fn add(&self, lane: usize, delta: u64) {
        let cells = &self.0.cells;
        cells[lane % cells.len()].v.fetch_add(delta, Ordering::Relaxed);
    }

    /// `add(lane, 1)`.
    #[inline]
    pub fn inc(&self, lane: usize) {
        self.add(lane, 1);
    }

    /// Current per-lane sum (sampler-side).
    pub fn total(&self) -> u64 {
        self.0.cells.iter().map(|c| c.v.load(Ordering::Relaxed)).sum()
    }
}

/// Writer handle for a gauge family.
#[derive(Debug, Clone)]
pub struct LiveGauge(Arc<GaugeFamily>);

impl LiveGauge {
    /// Sets lane `lane` to `v` (lane wrapped like [`LiveCounter::add`]).
    #[inline]
    pub fn set(&self, lane: usize, v: f64) {
        let cells = &self.0.cells;
        cells[lane % cells.len()].bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Lane `lane`'s current value.
    pub fn get(&self, lane: usize) -> f64 {
        let cells = &self.0.cells;
        f64::from_bits(cells[lane % cells.len()].bits.load(Ordering::Relaxed))
    }
}

/// Writer handle for a histogram family.
#[derive(Clone)]
pub struct LiveHistogram(Arc<HistogramFamily>);

impl LiveHistogram {
    /// Records `v` into lane `lane`'s cell (lane wrapped like
    /// [`LiveCounter::add`]). Each lane must have a single writer.
    #[inline]
    pub fn observe(&self, lane: usize, v: u64) {
        let cells = &self.0.cells;
        cells[lane % cells.len()].observe(v);
    }
}

/// Metric kind tag for snapshots and exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count.
    Counter,
    /// Last-set value.
    Gauge,
    /// Log₂-bucketed distribution.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One sample value inside a family snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Full distribution reading. Boxed: a `Histogram` is ~550 bytes of
    /// buckets, and most samples in a snapshot are counters or gauges.
    Histogram(Box<Histogram>),
}

/// One labeled sample of a family.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveSample {
    /// Label pairs (possibly empty), e.g. `[("thread", "3")]`.
    pub labels: Vec<(String, String)>,
    /// The reading.
    pub value: SampleValue,
}

/// A point-in-time reading of one metric family.
#[derive(Debug, Clone)]
pub struct FamilySnapshot {
    /// Metric name (validated against the Prometheus charset at
    /// registration).
    pub name: String,
    /// `# HELP` text.
    pub help: String,
    /// Family kind.
    pub kind: MetricKind,
    /// Labeled samples, in lane order / collector order.
    pub samples: Vec<LiveSample>,
}

/// A consistent point-in-time snapshot of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Families sorted by name.
    pub families: Vec<FamilySnapshot>,
}

impl Snapshot {
    /// Finds a family by name.
    pub fn family(&self, name: &str) -> Option<&FamilySnapshot> {
        self.families.iter().find(|f| f.name == name)
    }

    /// Sum of a counter family's samples (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.family(name).map_or(0, |f| {
            f.samples
                .iter()
                .map(|s| match s.value {
                    SampleValue::Counter(c) => c,
                    _ => 0,
                })
                .sum()
        })
    }

    /// First gauge sample of a family.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.family(name)?.samples.iter().find_map(|s| match s.value {
            SampleValue::Gauge(g) => Some(g),
            _ => None,
        })
    }
}

/// A scrape-time collector: computes metrics that only make sense as a
/// function of live state (wait fractions, roofline utilization,
/// per-thread progress) rather than as accumulating cells.
pub trait LiveSource: Send + Sync {
    /// Returns this source's families for one snapshot.
    fn collect(&self) -> Vec<FamilySnapshot>;
}

enum FamilyHandle {
    Counter { help: String, fam: Arc<CounterFamily> },
    Gauge { help: String, fam: Arc<GaugeFamily> },
    Histogram { help: String, fam: Arc<HistogramFamily> },
}

#[derive(Default)]
struct RegistryInner {
    families: BTreeMap<String, FamilyHandle>,
    sources: Vec<Weak<dyn LiveSource>>,
}

/// The live-metric registry: family registration, collector registration,
/// and coalescing snapshots. Registration takes a lock; *writes never do*
/// — handles hold the cells directly.
#[derive(Default)]
pub struct LiveRegistry {
    inner: Mutex<RegistryInner>,
}

/// Panics unless `name` matches the Prometheus metric-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn validate_name(name: &str) {
    let mut chars = name.chars();
    let ok_head = chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':');
    let ok_tail = name.chars().skip(1).all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':');
    assert!(ok_head && ok_tail, "invalid metric name '{name}'");
}

impl LiveRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        LiveRegistry::default()
    }

    /// Registers (or re-opens) counter family `name` with `lanes` padded
    /// cells. Re-opening returns the existing cells regardless of `lanes`.
    ///
    /// # Panics
    /// Panics on an invalid metric name or a kind mismatch with an
    /// existing family.
    pub fn counter(&self, name: &str, help: &str, lanes: usize) -> LiveCounter {
        validate_name(name);
        let mut inner = self.inner.lock().expect("live registry lock");
        match inner.families.entry(name.to_string()).or_insert_with(|| FamilyHandle::Counter {
            help: help.to_string(),
            fam: Arc::new(CounterFamily {
                cells: (0..lanes.max(1)).map(|_| CounterCell::default()).collect(),
            }),
        }) {
            FamilyHandle::Counter { fam, .. } => LiveCounter(Arc::clone(fam)),
            _ => panic!("live metric '{name}' is not a counter"),
        }
    }

    /// Registers (or re-opens) gauge family `name`.
    ///
    /// # Panics
    /// Panics on an invalid metric name or a kind mismatch.
    pub fn gauge(&self, name: &str, help: &str, lanes: usize) -> LiveGauge {
        validate_name(name);
        let mut inner = self.inner.lock().expect("live registry lock");
        match inner.families.entry(name.to_string()).or_insert_with(|| FamilyHandle::Gauge {
            help: help.to_string(),
            fam: Arc::new(GaugeFamily {
                cells: (0..lanes.max(1)).map(|_| GaugeCell::default()).collect(),
            }),
        }) {
            FamilyHandle::Gauge { fam, .. } => LiveGauge(Arc::clone(fam)),
            _ => panic!("live metric '{name}' is not a gauge"),
        }
    }

    /// Registers (or re-opens) histogram family `name`.
    ///
    /// # Panics
    /// Panics on an invalid metric name or a kind mismatch.
    pub fn histogram(&self, name: &str, help: &str, lanes: usize) -> LiveHistogram {
        validate_name(name);
        let mut inner = self.inner.lock().expect("live registry lock");
        match inner.families.entry(name.to_string()).or_insert_with(|| FamilyHandle::Histogram {
            help: help.to_string(),
            fam: Arc::new(HistogramFamily {
                cells: (0..lanes.max(1)).map(|_| HistCell::default()).collect(),
            }),
        }) {
            FamilyHandle::Histogram { fam, .. } => LiveHistogram(Arc::clone(fam)),
            _ => panic!("live metric '{name}' is not a histogram"),
        }
    }

    /// Registers a scrape-time collector. Held as `Weak`: when the last
    /// strong reference drops (plan goes out of scope) the source falls
    /// out of subsequent snapshots automatically.
    pub fn register_source(&self, src: Weak<dyn LiveSource>) {
        let mut inner = self.inner.lock().expect("live registry lock");
        inner.sources.retain(|w| w.strong_count() > 0);
        inner.sources.push(src);
    }

    /// Takes a consistent snapshot: per-lane cell reads (seqlocked for
    /// histograms) plus every live collector's families, sorted by name.
    /// Collectors run *outside* the registry lock so they may themselves
    /// register metrics.
    pub fn snapshot(&self) -> Snapshot {
        // Phase 1: clone handles under the lock, prune dead sources.
        let (families, sources) = {
            let mut inner = self.inner.lock().expect("live registry lock");
            inner.sources.retain(|w| w.strong_count() > 0);
            let fams: Vec<(String, String, FamilyClone)> = inner
                .families
                .iter()
                .map(|(name, h)| match h {
                    FamilyHandle::Counter { help, fam } => {
                        (name.clone(), help.clone(), FamilyClone::Counter(Arc::clone(fam)))
                    }
                    FamilyHandle::Gauge { help, fam } => {
                        (name.clone(), help.clone(), FamilyClone::Gauge(Arc::clone(fam)))
                    }
                    FamilyHandle::Histogram { help, fam } => {
                        (name.clone(), help.clone(), FamilyClone::Histogram(Arc::clone(fam)))
                    }
                })
                .collect();
            let srcs: Vec<Arc<dyn LiveSource>> =
                inner.sources.iter().filter_map(Weak::upgrade).collect();
            (fams, srcs)
        };

        // Phase 2: read cells and run collectors lock-free.
        let mut out = Vec::with_capacity(families.len());
        for (name, help, clone) in families {
            let (kind, samples) = match clone {
                FamilyClone::Counter(fam) => (
                    MetricKind::Counter,
                    lane_samples(fam.cells.len(), |i| {
                        SampleValue::Counter(fam.cells[i].v.load(Ordering::Relaxed))
                    }),
                ),
                FamilyClone::Gauge(fam) => (
                    MetricKind::Gauge,
                    lane_samples(fam.cells.len(), |i| {
                        SampleValue::Gauge(f64::from_bits(
                            fam.cells[i].bits.load(Ordering::Relaxed),
                        ))
                    }),
                ),
                FamilyClone::Histogram(fam) => {
                    let lanes: Vec<Histogram> = fam.cells.iter().map(HistCell::read).collect();
                    let mut merged = Histogram::new();
                    for h in &lanes {
                        merged.merge(h);
                    }
                    // Histograms expose only the merged distribution: a
                    // 64-bucket family per thread would swamp a scrape.
                    (
                        MetricKind::Histogram,
                        vec![LiveSample {
                            labels: Vec::new(),
                            value: SampleValue::Histogram(Box::new(merged)),
                        }],
                    )
                }
            };
            out.push(FamilySnapshot { name, help, kind, samples });
        }
        for src in sources {
            out.extend(src.collect());
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        // Several collectors may emit the same family (one PlanTelemetry
        // per live plan, one ServeMetrics per server): coalesce
        // same-name same-kind runs so the exposition carries exactly one
        // HELP/TYPE pair per family and `Snapshot::family` sees every
        // sample.
        let mut merged: Vec<FamilySnapshot> = Vec::with_capacity(out.len());
        for fam in out {
            match merged.last_mut() {
                Some(prev) if prev.name == fam.name && prev.kind == fam.kind => {
                    prev.samples.extend(fam.samples);
                }
                _ => merged.push(fam),
            }
        }
        Snapshot { families: merged }
    }
}

enum FamilyClone {
    Counter(Arc<CounterFamily>),
    Gauge(Arc<GaugeFamily>),
    Histogram(Arc<HistogramFamily>),
}

/// Lane readings as samples: a single-lane family is one unlabeled
/// sample; a multi-lane family gets `thread="i"` labels with all-zero
/// trailing lanes kept (so scrape diffs line up across samples).
fn lane_samples(lanes: usize, read: impl Fn(usize) -> SampleValue) -> Vec<LiveSample> {
    if lanes == 1 {
        return vec![LiveSample { labels: Vec::new(), value: read(0) }];
    }
    (0..lanes)
        .map(|i| LiveSample { labels: vec![("thread".to_string(), i.to_string())], value: read(i) })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_lanes_accumulate_and_wrap() {
        let reg = LiveRegistry::new();
        let c = reg.counter("fbmpk_test_total", "t", 4);
        c.add(0, 5);
        c.add(3, 7);
        c.add(4, 1); // wraps to lane 0
        assert_eq!(c.total(), 13);
        let snap = reg.snapshot();
        let fam = snap.family("fbmpk_test_total").unwrap();
        assert_eq!(fam.kind, MetricKind::Counter);
        assert_eq!(fam.samples.len(), 4);
        assert_eq!(fam.samples[0].labels, vec![("thread".to_string(), "0".to_string())]);
        assert_eq!(snap.counter_total("fbmpk_test_total"), 13);
    }

    #[test]
    fn histogram_cell_roundtrip() {
        let reg = LiveRegistry::new();
        let h = reg.histogram("fbmpk_test_ns", "t", 2);
        h.observe(0, 100);
        h.observe(1, 200);
        h.observe(1, 0);
        let snap = reg.snapshot();
        let fam = snap.family("fbmpk_test_ns").unwrap();
        assert_eq!(fam.samples.len(), 1);
        match &fam.samples[0].value {
            SampleValue::Histogram(hist) => {
                assert_eq!(hist.count(), 3);
                assert_eq!(hist.sum(), 300);
                assert_eq!(hist.min(), 0);
                assert_eq!(hist.max(), 200);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn sources_are_weak() {
        let reg = LiveRegistry::new();
        struct One;
        impl LiveSource for One {
            fn collect(&self) -> Vec<FamilySnapshot> {
                vec![FamilySnapshot {
                    name: "fbmpk_src_gauge".to_string(),
                    help: "h".to_string(),
                    kind: MetricKind::Gauge,
                    samples: vec![LiveSample { labels: vec![], value: SampleValue::Gauge(1.0) }],
                }]
            }
        }
        let src: Arc<dyn LiveSource> = Arc::new(One);
        reg.register_source(Arc::downgrade(&src));
        assert_eq!(reg.snapshot().gauge("fbmpk_src_gauge"), Some(1.0));
        drop(src);
        assert!(reg.snapshot().family("fbmpk_src_gauge").is_none());
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_names_rejected() {
        LiveRegistry::new().counter("1bad-name", "t", 1);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_mismatch_rejected() {
        let reg = LiveRegistry::new();
        reg.gauge("fbmpk_x", "t", 1);
        reg.counter("fbmpk_x", "t", 1);
    }

    #[test]
    fn enabled_gate_toggles() {
        // Not asserting the initial state: other tests in the process may
        // have flipped the global switch already.
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }
}
