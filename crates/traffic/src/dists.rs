//! Self-contained samplers for the distributions the traffic models use.
//!
//! `rand` ships only uniform primitives; rather than pulling in
//! `rand_distr`, the handful of distributions needed here (exponential,
//! Pareto, log-normal, empirical CDF) are implemented directly — each is
//! a few lines of inverse-CDF or Box–Muller sampling, and having them in
//! the tree makes the traffic models auditable.

use rand::Rng;

/// Exponential distribution with rate `λ` (mean `1/λ`).
///
/// Used for Poisson process inter-arrivals (chaff generation).
///
/// # Example
///
/// ```
/// use stepstone_traffic::{Exponential, Seed};
///
/// let exp = Exponential::new(2.0);
/// let mut rng = Seed::new(1).rng(0);
/// let x = exp.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive and finite, got {rate}"
        );
        Exponential { rate }
    }

    /// The rate parameter `λ`.
    pub const fn rate(&self) -> f64 {
        self.rate
    }

    /// The mean `1/λ`.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Draws one sample by inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // 1 - U ∈ (0, 1] avoids ln(0).
        let u: f64 = rng.gen::<f64>();
        -(1.0 - u).ln() / self.rate
    }
}

/// Pareto (power-law) distribution with scale `x_m` and shape `α`.
///
/// Paxson & Floyd ("Wide-area traffic: the failure of Poisson
/// modeling", 1995) found Telnet packet inter-arrivals are well modelled
/// by a Pareto body with `α ≈ 0.9–1.0`; this drives the interactive
/// session model's think times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `scale` or `shape` is not strictly positive and finite.
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "pareto scale must be positive and finite, got {scale}"
        );
        assert!(
            shape.is_finite() && shape > 0.0,
            "pareto shape must be positive and finite, got {shape}"
        );
        Pareto { scale, shape }
    }

    /// The scale parameter `x_m` (minimum value).
    pub const fn scale(&self) -> f64 {
        self.scale
    }

    /// The shape parameter `α`.
    pub const fn shape(&self) -> f64 {
        self.shape
    }

    /// Draws one sample by inverse-CDF: `x_m · U^{-1/α}`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        self.scale * u.powf(-1.0 / self.shape)
    }
}

/// A Pareto distribution truncated above at `cap` (resampled, not
/// clipped, so the body shape is preserved).
///
/// Interactive sessions need heavy-tailed think times, but an unbounded
/// `α < 1` Pareto has infinite mean and occasionally emits hours-long
/// pauses that would dwarf an experiment; the cap models the fact that
/// real sessions end instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    inner: Pareto,
    cap: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid or `cap <= scale`.
    pub fn new(scale: f64, shape: f64, cap: f64) -> Self {
        let inner = Pareto::new(scale, shape);
        assert!(
            cap.is_finite() && cap > scale,
            "bounded pareto cap must exceed scale, got cap {cap} scale {scale}"
        );
        BoundedPareto { inner, cap }
    }

    /// The truncation point.
    pub const fn cap(&self) -> f64 {
        self.cap
    }

    /// Draws one sample, using inverse-CDF of the truncated law (exact,
    /// no rejection loop).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Truncated Pareto inverse CDF:
        // F(x) = (1 - (xm/x)^α) / (1 - (xm/cap)^α)
        let a = self.inner.shape;
        let xm = self.inner.scale;
        let tail = (xm / self.cap).powf(a);
        let u: f64 = rng.gen();
        xm * (1.0 - u * (1.0 - tail)).powf(-1.0 / a)
    }
}

/// Log-normal distribution parameterized by the underlying normal's
/// `μ` and `σ`.
///
/// Used for keystroke-burst spacing, which is short-range and
/// light-tailed compared to think times.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `mu` is not finite or `sigma` is negative or not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "log-normal mu must be finite, got {mu}");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "log-normal sigma must be non-negative and finite, got {sigma}"
        );
        LogNormal { mu, sigma }
    }

    /// Median of the distribution (`e^μ`).
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Draws one sample via Box–Muller.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.mu + self.sigma * z).exp()
    }
}

/// An empirical distribution given by a piecewise-linear CDF.
///
/// This is how `tcplib` encodes its measured Telnet inter-arrival
/// distribution: a table of `(value, cumulative probability)` breakpoints
/// sampled by inverse transform with linear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    /// Breakpoints: strictly increasing values with strictly increasing
    /// cumulative probabilities ending at 1.0.
    points: Vec<(f64, f64)>,
}

impl Empirical {
    /// Creates an empirical distribution from `(value, cdf)` breakpoints.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given, values or CDF entries
    /// are not strictly increasing, CDF entries leave `[0, 1]`, or the
    /// last CDF entry is not 1.0.
    pub fn from_cdf(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "empirical CDF needs at least 2 points");
        for w in points.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "empirical CDF values must be strictly increasing"
            );
            assert!(
                w[1].1 > w[0].1,
                "empirical CDF probabilities must be strictly increasing"
            );
        }
        #[expect(
            clippy::expect_used,
            reason = "the constructor asserts at least two CDF points before this"
        )]
        let first = points.first().expect("length checked");
        #[expect(clippy::expect_used, reason = "same length assertion covers last()")]
        let last = points.last().expect("length checked");
        assert!(
            (0.0..1.0).contains(&first.1),
            "first CDF probability must lie in [0, 1)"
        );
        assert!(
            (last.1 - 1.0).abs() < 1e-12,
            "last CDF probability must be 1.0, got {}",
            last.1
        );
        Empirical { points }
    }

    /// The quantile function (inverse CDF) with linear interpolation.
    pub fn quantile(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let first = self.points[0];
        if p <= first.1 {
            return first.0;
        }
        for w in self.points.windows(2) {
            let (x0, p0) = w[0];
            let (x1, p1) = w[1];
            if p <= p1 {
                let frac = (p - p0) / (p1 - p0);
                return x0 + frac * (x1 - x0);
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the constructor asserts a nonempty point list"
        )]
        let last = self.points.last().expect("nonempty").0;
        last
    }

    /// Draws one sample by inverse transform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.gen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Seed;

    fn mean_of(mut f: impl FnMut() -> f64, n: usize) -> f64 {
        (0..n).map(|_| f()).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let exp = Exponential::new(4.0);
        let mut rng = Seed::new(1).rng(0);
        let m = mean_of(|| exp.sample(&mut rng), 40_000);
        assert!((m - 0.25).abs() < 0.01, "mean {m}");
        assert_eq!(exp.mean(), 0.25);
        assert_eq!(exp.rate(), 4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let p = Pareto::new(0.2, 1.1);
        let mut rng = Seed::new(2).rng(0);
        for _ in 0..1000 {
            assert!(p.sample(&mut rng) >= 0.2);
        }
        assert_eq!(p.scale(), 0.2);
        assert_eq!(p.shape(), 1.1);
    }

    #[test]
    fn pareto_mean_matches_theory_for_alpha_above_one() {
        // mean = α·xm/(α−1) for α > 1.
        let p = Pareto::new(1.0, 3.0);
        let mut rng = Seed::new(3).rng(0);
        let m = mean_of(|| p.sample(&mut rng), 60_000);
        assert!((m - 1.5).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn bounded_pareto_is_bounded() {
        let bp = BoundedPareto::new(0.1, 0.9, 30.0);
        let mut rng = Seed::new(4).rng(0);
        for _ in 0..5000 {
            let x = bp.sample(&mut rng);
            assert!((0.1..=30.0).contains(&x), "{x}");
        }
        assert_eq!(bp.cap(), 30.0);
    }

    #[test]
    #[should_panic(expected = "cap must exceed scale")]
    fn bounded_pareto_rejects_cap_below_scale() {
        let _ = BoundedPareto::new(1.0, 1.0, 0.5);
    }

    #[test]
    fn lognormal_median_matches_theory() {
        let ln = LogNormal::new(0.0, 0.5);
        let mut rng = Seed::new(5).rng(0);
        let mut xs: Vec<f64> = (0..20_001).map(|_| ln.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert_eq!(ln.median(), 1.0);
    }

    #[test]
    fn lognormal_with_zero_sigma_is_constant() {
        let ln = LogNormal::new(1.0, 0.0);
        let mut rng = Seed::new(6).rng(0);
        for _ in 0..10 {
            assert!((ln.sample(&mut rng) - std::f64::consts::E).abs() < 1e-12);
        }
    }

    #[test]
    fn empirical_quantiles_interpolate() {
        let e = Empirical::from_cdf(vec![(0.0, 0.0), (1.0, 0.5), (3.0, 1.0)]);
        assert_eq!(e.quantile(0.0), 0.0);
        assert_eq!(e.quantile(0.25), 0.5);
        assert_eq!(e.quantile(0.5), 1.0);
        assert_eq!(e.quantile(0.75), 2.0);
        assert_eq!(e.quantile(1.0), 3.0);
    }

    #[test]
    fn empirical_samples_stay_in_support() {
        let e = Empirical::from_cdf(vec![(0.01, 0.0), (0.2, 0.6), (5.0, 1.0)]);
        let mut rng = Seed::new(7).rng(0);
        for _ in 0..2000 {
            let x = e.sample(&mut rng);
            assert!((0.01..=5.0).contains(&x), "{x}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn empirical_rejects_non_monotone_values() {
        let _ = Empirical::from_cdf(vec![(1.0, 0.0), (1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "must be 1.0")]
    fn empirical_rejects_incomplete_cdf() {
        let _ = Empirical::from_cdf(vec![(0.0, 0.0), (1.0, 0.9)]);
    }
}
