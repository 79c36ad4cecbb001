//! Order statistics over one run's samples.

/// The percentiles the tail may report, lowest first. The tail is the
/// highest of these with at least [`TAIL_MIN_BEYOND`] samples beyond it,
/// so a short run reports p90 rather than a p99 resting on one or two
/// samples. It is printed with the end-to-end metrics but is not one of
/// them: on a shared 2-vCPU host it spreads past any allowed bound where
/// the median does not (README.md).
pub const TAIL_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `v` (mean of the two middle values for an even count), as
/// the repository's benchmark statistics compute it.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(v: &[f64]) -> f64 {
    fbmpk_bench::stats::median(v).expect("median of no samples")
}

/// A copy of `v` in ascending order (NaN-free input assumed).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank percentile of ascending `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// One-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// The tail: which percentile, its value, and how many samples lie beyond
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The ladder percentile used.
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

/// The highest [`TAIL_LADDER`] percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (the median when even that has
/// fewer).
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let s = sorted(samples);
    let n = s.len();
    let pct = TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n - rank(n, p) >= TAIL_MIN_BEYOND)
        .unwrap_or(TAIL_LADDER[0]);
    Tail { pct, value: percentile(&s, pct), beyond: n - rank(n, pct) }
}

/// The timed operations of one run.
#[derive(Debug, Default)]
pub struct Run {
    /// Latency of each operation, in ms: from the send (closed loop) or
    /// from the due time (open loop) to the last byte or returned value.
    pub latency_ms: Vec<f64>,
    /// How late each operation was issued, in ms: past its due time (open
    /// loop) or past the previous completion on its connection (closed
    /// loop).
    pub late_ms: Vec<f64>,
    /// Operations that passed the correctness gate within the latency
    /// limit.
    pub good: usize,
    /// Seconds from the start of the run to the last completion (summed
    /// over the shares of a kernel run, which builds a plan between them).
    pub wall_s: f64,
}

impl Run {
    /// Folds another connection's operations into this run.
    pub fn merge(&mut self, other: Run) {
        self.latency_ms.extend(other.latency_ms);
        self.late_ms.extend(other.late_ms);
        self.good += other.good;
        self.wall_s = self.wall_s.max(other.wall_s);
    }

    /// The end-to-end metrics, and the tail printed beside them: `setup_s`
    /// is the median of the set-up repetitions, `rate_per_s` counts good
    /// operations only.
    pub fn end_to_end(&self, setup_s: &[f64], rss_mb: f64) -> (crate::report::Metrics, Tail) {
        let tail = tail(&self.latency_ms);
        let metrics = vec![
            ("setup_s", median(setup_s)),
            ("p50_ms", median(&self.latency_ms)),
            ("rate_per_s", self.good as f64 / self.wall_s),
            ("rss_mb", rss_mb),
        ];
        (metrics, tail)
    }

    /// 99th percentile of the issue lateness, in ms.
    pub fn late_p99_ms(&self) -> f64 {
        if self.late_ms.is_empty() {
            return 0.0;
        }
        percentile(&sorted(&self.late_ms), 99.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_climbs_the_ladder_with_the_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value, t.beyond), (99.0, 990.0, 10));
        let t = tail(&[5.0, 1.0]);
        assert_eq!(t.pct, 50.0);
    }
}
