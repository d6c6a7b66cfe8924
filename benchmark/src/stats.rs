//! The benchmark's statistics, done once: medians, quartiles, the tail
//! percentile a sample count can support, the robust line that takes
//! stolen CPU time out of a timing, and the per-metric summary every
//! table and result file is built from.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no sample is a bug in the
/// benchmark, not a measurement.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile, computed the way Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them, so spreads printed here match the ones the driver
/// derives from the same values. One sample yields itself three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |k: usize| {
        // Rank k*(n+1)/4, clamped to the data; like Python, the
        // remainder is not clamped, so tiny sets extrapolate.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The `p`-th percentile (0..=100) by linear interpolation between
/// closest ranks.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it among `n` samples, or `None` when even the median does not
/// (fewer than 20 samples): a tail read off fewer than ten samples is
/// one outlier's value, not a percentile.
pub fn highest_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some((100.0 * (1.0 - 10.0 / n as f64)).floor() as u32)
}

/// Interquartile range as a share of the median — the spread the driver
/// compares with a metric's bound.
pub fn relative_spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// `y` with the part that grows with `x` taken out: `y[i] − k·x[i]`,
/// where `k` is the Theil–Sen slope of `y` on `x` (the median of the
/// slopes between all pairs of points whose `x` differ), never below 0.
/// With no two different `x`, or if the slope would take some `y` to
/// zero or below, `y` comes back unchanged.
///
/// The benchmark uses it with `x` = CPU-seconds the host stole from the
/// guest during a rep: what is left is the rep's time on a host that
/// leaves the guest alone.
pub fn without_linear_part(x: &[f64], y: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(x.len(), y.len(), "one x per y");
    let mut slopes = Vec::new();
    for i in 0..x.len() {
        for j in i + 1..x.len() {
            if x[i] != x[j] {
                slopes.push((y[j] - y[i]) / (x[j] - x[i]));
            }
        }
    }
    if slopes.is_empty() {
        return (0.0, y.to_vec());
    }
    let k = median(&slopes).max(0.0);
    let rest: Vec<f64> = x.iter().zip(y).map(|(x, y)| y - k * x).collect();
    if rest.iter().all(|&r| r > 0.0) {
        (k, rest)
    } else {
        (0.0, y.to_vec())
    }
}

/// What is printed and stored for one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The reported value.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises a non-empty sample set.
    pub fn of(values: &[f64]) -> Summary {
        let (q1, _, q3) = quartiles(values);
        Summary {
            n: values.len(),
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            q1,
            q3,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample set");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample set"));
    v
}
