//! Seeded inputs. Everything a workload feeds the program is a function of
//! `--seed` alone: the same seed gives the same matrices, vectors, matrix
//! specs and arrival schedule.

use fbmpk_serve::XSpec;
use fbmpk_sparse::Csr;

/// Generates a Table II analog at `scale` of the paper's dimension.
///
/// # Panics
/// Panics on a name outside the suite (a bug in this benchmark).
pub fn suite_matrix(name: &str, scale: f64, seed: u64) -> Csr {
    fbmpk_gen::suite::suite_entry(name).expect("suite matrix").generate(scale, seed)
}

/// A vector of `n` values in `[-1, 1)` — the server's own `x=seed:S`
/// generator, so kernel and serve workloads draw inputs the same way.
pub fn vector(n: usize, seed: u64) -> Vec<f64> {
    XSpec::Seed(seed).materialize(n).expect("seeded vectors fit any length")
}

/// A request body for the serving endpoint.
pub fn body(matrix: &str, k: usize, x_seed: u64) -> String {
    fbmpk_serve::client::kernel_body(matrix, k, &format!("seed:{x_seed}"))
}

/// Seeds are folded below this bound before they enter a matrix spec, so
/// every spec stays short.
const SPEC_SEED_MOD: u64 = 1_000_000;

/// The serve-hot matrices: three seeded banded matrices of 10⁴ rows and
/// the same density. Equal cost per request keeps the latency percentiles
/// inside one class of requests; the seed moves entries, never sizes (a
/// power-law matrix would not do: its hubs, and with them the magnitude
/// and rendered length of `Aᵏx`, change with the seed).
pub fn hot_specs(seed: u64) -> Vec<String> {
    let s = seed % SPEC_SEED_MOD;
    (0..3).map(|i| format!("banded:10000:10:200:{}", s * 10 + i)).collect()
}

/// Distinct matrices the serve-churn cycle visits; more than the server's
/// plan-cache capacity (32), so a least-recently-used cache never holds
/// the next one asked for.
pub const CHURN_SPECS: usize = 48;

/// Rows of every serve-churn matrix.
const CHURN_ROWS: usize = 3000;

/// The serve-churn matrices: alternately stencils of distinct shape and
/// seeded banded matrices, all distinct and all of about [`CHURN_ROWS`]
/// rows. Equal sizes give every request the same cost, so no percentile
/// sits on the boundary between a cheap and a dear matrix.
pub fn churn_specs(seed: u64) -> Vec<String> {
    let s = seed % SPEC_SEED_MOD;
    (0..CHURN_SPECS)
        .map(|i| {
            if i % 2 == 0 {
                let nx = 40 + i;
                format!("grid:{nx}:{}", (CHURN_ROWS + nx / 2) / nx)
            } else {
                format!("banded:{CHURN_ROWS}:8:64:{}", s * 100 + i as u64)
            }
        })
        .collect()
}

/// The serve routes the workloads call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Route {
    /// `POST /v1/power`: repeated SpMV, coalesced across requests.
    Power,
    /// `POST /v1/mpk`: the FBMPK kernel.
    Mpk,
    /// `POST /v1/spmv`: one tuned SpMV.
    Spmv,
}

impl Route {
    /// The request path.
    pub fn path(self) -> &'static str {
        match self {
            Route::Power => "/v1/power",
            Route::Mpk => "/v1/mpk",
            Route::Spmv => "/v1/spmv",
        }
    }
}

/// One scheduled serve-hot request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Seconds after the run starts at which the request is due.
    pub due_s: f64,
    /// Route called.
    pub route: Route,
    /// Index into [`hot_specs`].
    pub spec: usize,
    /// Which of [`HOT_X_PER_SPEC`] input vectors.
    pub x: usize,
    /// Which of [`HOT_TENANTS`] tenants sends it.
    pub tenant: usize,
}

/// Input vectors per serve-hot matrix.
pub const HOT_X_PER_SPEC: usize = 2;
/// Tenants sharing the serve-hot matrices.
pub const HOT_TENANTS: usize = 4;
/// Every this-many-th serve-hot request goes to `/v1/mpk`; the rest go to
/// `/v1/power`.
pub const HOT_MPK_EVERY: usize = 5;

/// The serve-hot arrival schedule: exactly `round(rate · seconds)`
/// Poisson arrivals spread over `[0, seconds)` (uniform order statistics,
/// so the offered count is fixed and only the spacing is random). Route,
/// matrix, vector and tenant cycle with the request index, so every seed
/// offers the same mix.
pub fn hot_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<Arrival> {
    let n = (rate_per_s * seconds).round() as usize;
    let mut rng = SplitMix(seed ^ 0x5eed_a771_7a15_0000);
    let mut at: Vec<f64> = (0..=n).map(|_| -(1.0 - rng.unit()).ln()).collect();
    let mut sum = 0.0;
    for t in &mut at {
        sum += *t;
        *t = sum;
    }
    let nspecs = hot_specs(seed).len();
    (0..n)
        .map(|i| Arrival {
            due_s: at[i] / sum * seconds,
            route: if i % HOT_MPK_EVERY == HOT_MPK_EVERY - 1 { Route::Mpk } else { Route::Power },
            spec: i % nspecs,
            x: (i / nspecs) % HOT_X_PER_SPEC,
            tenant: i % HOT_TENANTS,
        })
        .collect()
}

/// The `x=seed:S` seed of vector `x` for matrix `spec` of a run.
pub fn x_seed(seed: u64, spec: usize, x: usize) -> u64 {
    (seed % SPEC_SEED_MOD) * 1000 + (spec * 10 + x) as u64
}

/// splitmix64: a small, platform-independent seeded generator.
struct SplitMix(u64);

impl SplitMix {
    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbmpk::tune::fingerprint;
    use fbmpk_serve::MatrixSpec;

    #[test]
    fn one_seed_gives_identical_inputs_and_another_seed_different_ones() {
        let fp = |seed| fingerprint(&suite_matrix("G3_circuit", 0.002, seed));
        assert_eq!(fp(7), fp(7));
        assert_ne!(fp(7), fp(8));
        assert_eq!(vector(500, 7), vector(500, 7));
        assert_ne!(vector(500, 7), vector(500, 8));
        assert_eq!(hot_specs(7), hot_specs(7));
        assert_ne!(hot_specs(7), hot_specs(8));
        assert_eq!(churn_specs(7), churn_specs(7));
        assert_ne!(churn_specs(7), churn_specs(8));
    }

    #[test]
    fn one_seed_gives_an_identical_arrival_schedule() {
        let a = hot_schedule(7, 40.0, 3.0);
        assert_eq!(a, hot_schedule(7, 40.0, 3.0));
        assert_ne!(a, hot_schedule(8, 40.0, 3.0));
        assert_eq!(a.len(), 120);
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(a.iter().all(|r| (0.0..3.0).contains(&r.due_s)));
        let mpk = a.iter().filter(|r| r.route == Route::Mpk).count();
        assert_eq!(mpk, 120 / HOT_MPK_EVERY, "every seed offers the same mix");
    }

    #[test]
    fn specs_parse_and_churn_specs_are_distinct_matrices() {
        for s in hot_specs(3).iter().chain(churn_specs(3).iter()) {
            MatrixSpec::parse(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
        let mut fps: Vec<u64> = churn_specs(3)
            .iter()
            .map(|s| fingerprint(&MatrixSpec::parse(s).unwrap().build()))
            .collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), CHURN_SPECS);
        for s in churn_specs(3) {
            let n = MatrixSpec::parse(&s).unwrap().build().nrows();
            assert!(n.abs_diff(CHURN_ROWS) * 50 <= CHURN_ROWS, "{s} has {n} rows");
        }
    }
}
