//! Exponent fitting: recover `(a, b)` from samples of
//! `f(N) = c · N^a · (log₂ N)^b`.
//!
//! Taking logarithms, `ln f = ln c + a·ln N + b·ln ln₂ N` is linear in the
//! unknowns, so an ordinary least-squares fit over a sweep of `N` values
//! estimates the polynomial exponent `a` and the polylog exponent `b`
//! directly. The reports print fitted exponents next to the paper's Θ
//! claims — that is the "shape" comparison the reproduction is judged on.

use crate::sweep::Sample;

/// A fitted `c · N^a · log^b N` model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fit {
    /// Polynomial exponent of `N`.
    pub a: f64,
    /// Exponent of `log₂ N`.
    pub b: f64,
    /// Leading coefficient.
    pub c: f64,
    /// Coefficient of determination of the log-space regression.
    pub r2: f64,
}

impl Fit {
    /// Evaluates the fitted model at `n`.
    pub fn eval(&self, n: f64) -> f64 {
        self.c * n.powf(self.a) * n.log2().powf(self.b)
    }
}

impl std::fmt::Display for Fit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3}·N^{:.2}·log^{:.2} N (R²={:.4})", self.c, self.a, self.b, self.r2)
    }
}

/// Solves the 3×3 normal equations of the regression
/// `y = β₀ + β₁·x₁ + β₂·x₂` by Gaussian elimination.
fn solve3(mut m: [[f64; 4]; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3)
            .max_by(|&r, &s| m[r][col].abs().partial_cmp(&m[s][col].abs()).expect("finite"))?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        let p = m[col][col];
        for x in m[col].iter_mut() {
            *x /= p;
        }
        let pivot_row = m[col];
        for (row, r) in m.iter_mut().enumerate() {
            if row != col {
                let factor = r[col];
                for (x, v) in r.iter_mut().enumerate() {
                    *v -= factor * pivot_row[x];
                }
            }
        }
    }
    Some([m[0][3], m[1][3], m[2][3]])
}

/// Fits `(n, value)` pairs to `c · N^a · log^b N`.
///
/// Returns `None` if fewer than three usable points are supplied, a value
/// is non-positive, or the design matrix is singular (e.g. all `n` equal).
pub fn fit_points(points: &[(u64, f64)]) -> Option<Fit> {
    let usable: Vec<(f64, f64, f64)> = points
        .iter()
        .filter(|&&(n, v)| n >= 2 && v > 0.0)
        .map(|&(n, v)| {
            let nf = n as f64;
            (nf.ln(), nf.log2().ln(), v.ln())
        })
        .collect();
    if usable.len() < 3 {
        return None;
    }
    let k = usable.len() as f64;
    let (mut sx1, mut sx2, mut sy) = (0.0, 0.0, 0.0);
    let (mut sx1x1, mut sx2x2, mut sx1x2) = (0.0, 0.0, 0.0);
    let (mut sx1y, mut sx2y) = (0.0, 0.0);
    for &(x1, x2, y) in &usable {
        sx1 += x1;
        sx2 += x2;
        sy += y;
        sx1x1 += x1 * x1;
        sx2x2 += x2 * x2;
        sx1x2 += x1 * x2;
        sx1y += x1 * y;
        sx2y += x2 * y;
    }
    let beta = solve3([[k, sx1, sx2, sy], [sx1, sx1x1, sx1x2, sx1y], [sx2, sx1x2, sx2x2, sx2y]])?;
    let (b0, a, b) = (beta[0], beta[1], beta[2]);
    // R² in log space.
    let mean = sy / k;
    let (mut ss_res, mut ss_tot) = (0.0, 0.0);
    for &(x1, x2, y) in &usable {
        let pred = b0 + a * x1 + b * x2;
        ss_res += (y - pred) * (y - pred);
        ss_tot += (y - mean) * (y - mean);
    }
    let r2 = if ss_tot < 1e-12 { 1.0 } else { 1.0 - ss_res / ss_tot };
    Some(Fit { a, b, c: b0.exp(), r2 })
}

/// Θ-consistency spread: `max / min` over the points of
/// `v / (N^n_exp · log^log_exp N)`.
///
/// If the data really is `Θ(N^a log^b N)`, this ratio stays close to 1 for
/// the true `(a, b)` and diverges for wrong exponents as the sweep widens.
/// This is far more robust than regression at small `N`, where `ln N` and
/// `ln ln N` are nearly collinear and a fit can trade `N^0.2` against a
/// missing log factor.
///
/// Returns `None` on fewer than two usable points.
pub fn theta_spread(points: &[(u64, f64)], n_exp: f64, log_exp: f64) -> Option<f64> {
    let ratios: Vec<f64> = points
        .iter()
        .filter(|&&(n, v)| n >= 2 && v > 0.0)
        .map(|&(n, v)| {
            let nf = n as f64;
            v / (nf.powf(n_exp) * nf.log2().powf(log_exp))
        })
        .collect();
    if ratios.len() < 2 {
        return None;
    }
    let hi = ratios.iter().cloned().fold(0.0f64, f64::max);
    let lo = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    Some(hi / lo)
}

/// Among candidate `(n_exp, log_exp)` shapes, the one with the smallest
/// [`theta_spread`] — a tiny model-selection step used by the reports to
/// name the best-matching Θ form.
pub fn best_theta(points: &[(u64, f64)], candidates: &[(f64, f64)]) -> Option<((f64, f64), f64)> {
    candidates
        .iter()
        .filter_map(|&(a, b)| theta_spread(points, a, b).map(|s| ((a, b), s)))
        .min_by(|x, y| x.1.partial_cmp(&y.1).expect("finite spreads"))
}

/// Fits a measured sweep's *times*.
pub fn fit_poly_log(samples: &[Sample]) -> Option<Fit> {
    fit_points(&samples.iter().map(|s| (s.n as u64, s.time.as_f64())).collect::<Vec<_>>())
}

/// Fits a measured sweep's *AT²* figures.
pub fn fit_at2(samples: &[Sample]) -> Option<Fit> {
    fit_points(&samples.iter().map(|s| (s.n as u64, s.at2())).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a: f64, b: f64, c: f64, ns: &[u64]) -> Vec<(u64, f64)> {
        ns.iter().map(|&n| (n, c * (n as f64).powf(a) * (n as f64).log2().powf(b))).collect()
    }

    const NS: [u64; 8] = [16, 32, 64, 128, 256, 512, 1024, 4096];

    #[test]
    fn recovers_pure_polynomial() {
        let f = fit_points(&synth(2.0, 0.0, 3.0, &NS)).unwrap();
        assert!((f.a - 2.0).abs() < 0.05, "{f}");
        assert!(f.b.abs() < 0.2, "{f}");
        assert!(f.r2 > 0.9999, "{f}");
    }

    #[test]
    fn recovers_polylog() {
        let f = fit_points(&synth(0.0, 2.0, 1.0, &NS)).unwrap();
        assert!(f.a.abs() < 0.05, "{f}");
        assert!((f.b - 2.0).abs() < 0.3, "{f}");
    }

    #[test]
    fn recovers_mixed_term() {
        // The paper's OTN sort: Θ(log² N); mesh sort: Θ(√N).
        let f = fit_points(&synth(0.5, 1.0, 2.0, &NS)).unwrap();
        assert!((f.a - 0.5).abs() < 0.05, "{f}");
        assert!((f.b - 1.0).abs() < 0.35, "{f}");
        assert!((f.eval(64.0) - 2.0 * 8.0 * 6.0).abs() / 96.0 < 0.1);
    }

    #[test]
    fn distinguishes_table_one_shapes() {
        // N² log⁴ vs N² log⁶ (OTC vs OTN AT²): fitted b must separate.
        let otc = fit_points(&synth(2.0, 4.0, 1.0, &NS)).unwrap();
        let otn = fit_points(&synth(2.0, 6.0, 1.0, &NS)).unwrap();
        assert!(otn.b - otc.b > 1.0, "otn {otn}, otc {otc}");
        assert!((otc.a - otn.a).abs() < 0.1);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(fit_points(&[]).is_none());
        assert!(fit_points(&[(4, 1.0), (8, 2.0)]).is_none(), "two points");
        assert!(fit_points(&[(4, 1.0), (4, 2.0), (4, 3.0)]).is_none(), "no spread");
        assert!(fit_points(&[(4, 0.0), (8, 0.0), (16, 0.0)]).is_none(), "non-positive");
    }

    #[test]
    fn noisy_data_still_close() {
        let mut pts = synth(1.0, 1.0, 5.0, &NS);
        for (i, p) in pts.iter_mut().enumerate() {
            p.1 *= 1.0 + 0.04 * if i % 2 == 0 { 1.0 } else { -1.0 };
        }
        let f = fit_points(&pts).unwrap();
        assert!((f.a - 1.0).abs() < 0.15, "{f}");
        assert!(f.r2 > 0.99, "{f}");
    }

    #[test]
    fn theta_spread_is_tight_for_the_true_shape() {
        let pts = synth(2.0, 4.0, 3.0, &NS);
        assert!(theta_spread(&pts, 2.0, 4.0).unwrap() < 1.0001);
        assert!(theta_spread(&pts, 2.0, 0.0).unwrap() > 10.0, "missing logs diverge");
        assert!(theta_spread(&pts, 3.0, 4.0).unwrap() > 100.0, "wrong poly diverges");
    }

    #[test]
    fn best_theta_selects_the_generating_shape() {
        let pts = synth(0.0, 2.0, 7.0, &NS);
        let candidates = [(0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (0.5, 0.0), (1.0, 0.0)];
        let ((a, b), spread) = best_theta(&pts, &candidates).unwrap();
        assert_eq!((a, b), (0.0, 2.0));
        assert!(spread < 1.0001);
    }

    #[test]
    fn theta_spread_needs_two_points() {
        assert!(theta_spread(&[(8, 1.0)], 1.0, 0.0).is_none());
    }

    #[test]
    fn display_is_informative() {
        let f = fit_points(&synth(2.0, 0.0, 1.0, &NS)).unwrap();
        let s = f.to_string();
        assert!(s.contains("N^2.0"), "{s}");
        assert!(s.contains("R²"), "{s}");
    }
}
