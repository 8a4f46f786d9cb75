//! Summary statistics and the regression verdict.
//!
//! * [`median`] and [`quartiles`] summarise repeated runs; [`quartiles`]
//!   follows Python's `statistics.quantiles(xs, n=4)` (the default
//!   "exclusive" method), so spreads printed here match spreads computed
//!   from the same numbers elsewhere.
//! * [`tail`] picks the highest percentile that still has at least
//!   [`TAIL_MIN_BEYOND`] samples beyond it; a percentile with fewer is
//!   one or two samples and says nothing.
//! * [`regressed`] applies a metric's [`Spec`]: direction, relative
//!   bound, absolute floor, or exact equality.

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, failures).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// How one metric is judged when two runs are compared.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline by which the metric may worsen.
    pub bound: f64,
    /// Absolute slack that applies when `bound × baseline` is smaller.
    pub floor: f64,
    /// Any change at all is a regression (deterministic metrics).
    pub exact: bool,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec { name, unit, better, bound, floor: 0.0, exact: false }
}

const fn exact(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit, better: Better::Lower, bound: 0.0, floor: 0.0, exact: true }
}

/// The end-to-end metrics every workload reports, untraced. They match
/// `end_to_end` in `BENCHMARK.json`.
pub const E2E: [Spec; 4] = [
    Spec { floor: 0.05, ..spec("setup_s", "s", Better::Lower, 0.25) },
    spec("ops_per_s", "op/s", Better::Higher, 0.25),
    spec("op_p50_ms", "ms", Better::Lower, 0.25),
    spec("peak_rss_mb", "MB", Better::Lower, 0.10),
];

/// Figures every workload also prints and the suite document compares,
/// but which are not end-to-end metrics of `BENCHMARK.json`: they are 0
/// on some workloads, or they depend on the seed exactly.
pub const INFO: [Spec; 4] = [
    exact("fail_ratio", "failed/attempted"),
    spec("sim_events_per_s", "events/s", Better::Higher, 0.25),
    exact("sim_tau_per_op", "tau"),
    exact("silent_error_ratio", "share"),
];

/// The spec of a metric named in [`E2E`] or [`INFO`].
pub fn spec_of(name: &str) -> Option<&'static Spec> {
    E2E.iter().chain(INFO.iter()).find(|s| s.name == name)
}

/// Whether `current` is worse than `baseline` by more than the spec allows.
pub fn regressed(spec: &Spec, baseline: f64, current: f64) -> bool {
    if spec.exact {
        return current != baseline;
    }
    let slack = (spec.bound * baseline.abs()).max(spec.floor);
    match spec.better {
        Better::Lower => current > baseline + slack,
        Better::Higher => current < baseline - slack,
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by Python's exclusive method;
/// `None` for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1..4).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for tiny samples, where Python extrapolates too.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    quartiles(xs).map(|[q1, q2, q3]| (q3 - q1) / q2.abs().max(f64::MIN_POSITIVE))
}

/// The fewest samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail percentile of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// Which percentile (e.g. 99.0).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// The sample count it was taken from.
    pub samples: usize,
}

/// The highest of p99.9, p99, p90 and p50 with at least
/// [`TAIL_MIN_BEYOND`] samples above its rank; `None` when even the median
/// has fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let v = sorted(xs);
    let n = v.len();
    [99.9, 99.0, 90.0, 50.0].into_iter().find_map(|p| {
        let rank = (p / 100.0 * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_rounds() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
        let s = spread(&xs).unwrap();
        assert!((s - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let lat = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 19 samples: p50 has 9 beyond it, so there is no tail.
        assert_eq!(tail(&lat(19)), None);
        // 20 samples: p50 (rank 10) has exactly 10 beyond.
        assert_eq!(tail(&lat(20)), Some(Tail { percentile: 50.0, value: 10.0, samples: 20 }));
        // 100 samples: p90 (rank 90) has 10 beyond; p99 has only 1.
        assert_eq!(tail(&lat(100)), Some(Tail { percentile: 90.0, value: 90.0, samples: 100 }));
        // 1000 samples: p99 (rank 990) has 10 beyond; p99.9 has 1.
        assert_eq!(tail(&lat(1000)).map(|t| (t.percentile, t.value)), Some((99.0, 990.0)));
        // Order of the input does not matter.
        let mut rev = lat(100);
        rev.reverse();
        assert_eq!(tail(&rev).map(|t| t.value), Some(90.0));
    }

    #[test]
    fn verdict_respects_direction_bound_floor_and_exactness() {
        let ops = spec_of("ops_per_s").unwrap();
        assert!(!regressed(ops, 100.0, 76.0), "within 25% lower throughput");
        assert!(regressed(ops, 100.0, 74.0), "beyond 25% lower throughput");
        assert!(!regressed(ops, 100.0, 500.0), "higher throughput is never a regression");

        let rss = spec_of("peak_rss_mb").unwrap();
        assert!(!regressed(rss, 10.0, 10.9));
        assert!(regressed(rss, 10.0, 11.1));
        assert!(!regressed(rss, 10.0, 1.0), "less memory is never a regression");

        // setup_s: 25% or 0.05 s, whichever is larger.
        let setup = spec_of("setup_s").unwrap();
        assert!(!regressed(setup, 0.1, 0.149), "the floor absorbs small set-ups");
        assert!(regressed(setup, 0.1, 0.151));
        assert!(!regressed(setup, 2.0, 2.49), "the bound governs large set-ups");
        assert!(regressed(setup, 2.0, 2.51));

        // Exact metrics: any change, in either direction, is flagged.
        let tau = spec_of("sim_tau_per_op").unwrap();
        assert!(!regressed(tau, 1234.0, 1234.0));
        assert!(regressed(tau, 1234.0, 1235.0));
        assert!(regressed(tau, 1234.0, 1233.0));
        let fails = spec_of("fail_ratio").unwrap();
        assert!(regressed(fails, 0.0, 0.01));
    }
}
