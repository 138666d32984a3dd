//! # perfeval-stats
//!
//! Statistics substrate for the `perfeval` performance-evaluation toolkit.
//!
//! The tutorial this project reproduces ("Performance Evaluation in Database
//! Research: Principles and Experiences", Manolescu & Manegold, ICDE 2008 /
//! EDBT 2009) leans on a handful of statistical tools that every experiment
//! pipeline needs:
//!
//! * **descriptive statistics** over replicated measurements
//!   ([`descriptive::Summary`]),
//! * **confidence intervals** and the "overlapping confidence intervals may
//!   mean the two quantities are statistically indifferent" rule
//!   ([`ci`], [`compare`]),
//! * **histograms** with the "each cell should have at least five points"
//!   rule of thumb ([`histogram`]), and a mergeable **log-bucketed sketch**
//!   with a relative-error bound on quantiles for high-volume latency
//!   streams ([`loghist`]),
//! * **regression** for scale-up / speed-up fits ([`regression`]),
//! * deterministic **random value generation** for synthetic data sets —
//!   uniform, Zipf, normal, exponential, correlated ([`rng`], [`dist`]).
//!
//! Everything is implemented from scratch on top of `std` so that the core
//! toolkit carries no third-party runtime dependencies; the special functions
//! needed for Student-t quantiles (log-gamma, regularized incomplete beta)
//! live in [`special`].
//!
//! ## Quick example
//!
//! ```
//! use perfeval_stats::descriptive::Summary;
//! use perfeval_stats::ci::mean_confidence_interval;
//!
//! let runs = [12.1, 11.8, 12.4, 12.0, 11.9];
//! let s = Summary::from_slice(&runs);
//! assert!((s.mean() - 12.04).abs() < 1e-9);
//! let ci = mean_confidence_interval(&runs, 0.95).unwrap();
//! assert!(ci.contains(12.0));
//! ```
#![warn(missing_docs)]

pub mod ci;
pub mod compare;
pub mod descriptive;
pub mod dist;
pub mod histogram;
pub mod loghist;
pub mod outlier;
pub mod regression;
pub mod rng;
pub mod special;

pub use ci::{mean_confidence_interval, ConfidenceInterval};
pub use compare::{
    compare_means, effect_size_ci, ComparisonVerdict, EffectSize, TwoSampleComparison,
};
pub use descriptive::Summary;
pub use histogram::Histogram;
pub use loghist::LogHistogram;
pub use regression::LinearFit;
pub use rng::{backoff_ms, mix64, SplitMix64};

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty (or too small for the requested statistic).
    NotEnoughData {
        /// Number of observations required.
        needed: usize,
        /// Number of observations supplied.
        got: usize,
    },
    /// A parameter was outside its valid domain (e.g. confidence level 1.5).
    InvalidParameter(&'static str),
    /// The input contained a NaN or infinite value.
    NonFiniteInput,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::NotEnoughData { needed, got } => {
                write!(f, "not enough data: needed {needed}, got {got}")
            }
            StatsError::InvalidParameter(p) => write!(f, "invalid parameter: {p}"),
            StatsError::NonFiniteInput => write!(f, "input contains NaN or infinite values"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Validates that all values in `data` are finite.
pub(crate) fn check_finite(data: &[f64]) -> Result<(), StatsError> {
    if data.iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(StatsError::NonFiniteInput)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::NotEnoughData { needed: 2, got: 0 };
        assert_eq!(e.to_string(), "not enough data: needed 2, got 0");
        assert_eq!(
            StatsError::InvalidParameter("level").to_string(),
            "invalid parameter: level"
        );
        assert_eq!(
            StatsError::NonFiniteInput.to_string(),
            "input contains NaN or infinite values"
        );
    }

    #[test]
    fn check_finite_accepts_normal_data() {
        assert!(check_finite(&[1.0, 2.0, -3.0]).is_ok());
        assert!(check_finite(&[]).is_ok());
    }

    #[test]
    fn check_finite_rejects_nan_and_inf() {
        assert_eq!(
            check_finite(&[1.0, f64::NAN]),
            Err(StatsError::NonFiniteInput)
        );
        assert_eq!(
            check_finite(&[f64::INFINITY]),
            Err(StatsError::NonFiniteInput)
        );
    }
}
