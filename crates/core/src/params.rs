//! Clustering parameters shared by every DBSCAN variant in the paper.
//!
//! All variants accept `eps`, `MinPts` and `rho` (Section 4): exact DBSCAN
//! is the special case `rho = 0` (Section 2, "Remark"), which holds for the
//! dynamic algorithms too (Section 7: "exact DBSCAN is captured with
//! `rho = 0`").
//!
//! Two construction styles are offered: the asserting [`Params::new`] /
//! [`Params::with_rho`] for code that owns its constants, and the fallible
//! [`Params::try_new`] / [`Params::try_with_rho`] for front-ends (such as
//! `dydbscan::DbscanBuilder`) that accept runtime configuration.

use dydbscan_geom::{side_for_eps, Point};
use std::fmt;

/// A rejected parameter or input row (see [`Params::try_new`] and
/// [`validate_points`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamError {
    /// `eps` must be positive and finite.
    BadEps(f64),
    /// `MinPts` must be at least 1.
    BadMinPts(usize),
    /// `rho` must lie in `[0, 1)`.
    BadRho(f64),
    /// An input row carried a NaN or infinite coordinate: row `id`
    /// (index within the rejected call's batch; `0` for single-row
    /// inserts), coordinate `axis`. Non-finite coordinates have no grid
    /// cell and no usable ordering, so they are rejected at the API
    /// boundary instead of corrupting the spatial structures.
    InvalidPoint {
        /// Index of the offending row within the call's batch.
        id: usize,
        /// Index of the offending coordinate within the row.
        axis: usize,
    },
    /// An input row carried a finite coordinate too large for the `i32`
    /// grid cells, `|x| >= 2^30 * side` with `side = eps / sqrt(D)`: row
    /// `id`, coordinate `axis` (as in `InvalidPoint`). Every engine
    /// applies this one bound, so swapping engines never changes which
    /// rows are accepted.
    Unrepresentable {
        /// Index of the offending row within the call's batch.
        id: usize,
        /// Index of the offending coordinate within the row.
        axis: usize,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::BadEps(e) => {
                write!(f, "eps must be positive and finite, got {e}")
            }
            ParamError::BadMinPts(m) => write!(f, "MinPts must be at least 1, got {m}"),
            ParamError::BadRho(r) => write!(f, "rho must be in [0, 1), got {r}"),
            ParamError::InvalidPoint { id, axis } => write!(
                f,
                "point {id} has a non-finite coordinate on axis {axis} (NaN/infinity rejected)"
            ),
            ParamError::Unrepresentable { id, axis } => write!(
                f,
                "point {id} has a coordinate on axis {axis} too large for the grid \
                 (|x| / cell side must stay below 2^30)"
            ),
        }
    }
}

impl std::error::Error for ParamError {}

/// The exclusive bound on `|x| / side`: `2^30` leaves headroom below
/// `i32::MAX` for the neighbour offsets and the shard map's ghost ring.
const MAX_CELL_COORD: f64 = (1u64 << 30) as f64;

/// One comparison per coordinate against `bound = 2^30 * side`; the
/// rare failure is classified after.
#[inline]
fn check_row<const D: usize>(p: &Point<D>, id: usize, bound: f64) -> Result<(), ParamError> {
    for (axis, x) in p.iter().enumerate() {
        if x.abs() < bound {
            continue; // false for NaN too
        }
        return Err(if x.is_finite() {
            ParamError::Unrepresentable { id, axis }
        } else {
            ParamError::InvalidPoint { id, axis }
        });
    }
    Ok(())
}

/// Validates one input row against `params`: every coordinate must be
/// finite ([`ParamError::InvalidPoint`]) and map to a representable grid
/// cell ([`ParamError::Unrepresentable`]). `id` is the row's index
/// within the caller's batch, echoed into the error.
#[inline]
pub fn validate_point<const D: usize>(
    p: &Point<D>,
    id: usize,
    params: &Params,
) -> Result<(), ParamError> {
    check_row(p, id, MAX_CELL_COORD * side_for_eps::<D>(params.eps))
}

/// Validates a batch of input rows (see [`validate_point`]), reporting
/// the first offending `(row, axis)` pair.
#[inline]
pub fn validate_points<const D: usize>(
    pts: &[Point<D>],
    params: &Params,
) -> Result<(), ParamError> {
    let bound = MAX_CELL_COORD * side_for_eps::<D>(params.eps);
    for (id, p) in pts.iter().enumerate() {
        check_row(p, id, bound)?;
    }
    Ok(())
}

/// Parameters of (exact / ρ-approximate / ρ-double-approximate) DBSCAN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Radius `eps` of the density ball.
    pub eps: f64,
    /// Density threshold `MinPts` (a core point has at least `MinPts`
    /// points, itself included, inside its ball).
    pub min_pts: usize,
    /// Approximation parameter `rho in [0, 1)`. `0` means exact semantics;
    /// the paper recommends `0.001` for practical data (Section 2).
    pub rho: f64,
}

impl Params {
    /// Creates exact-DBSCAN parameters (`rho = 0`). Panics on out-of-domain
    /// values; use [`Params::try_new`] to handle them gracefully.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        match Self::try_new(eps, min_pts) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Params::new`].
    pub fn try_new(eps: f64, min_pts: usize) -> Result<Self, ParamError> {
        let p = Self {
            eps,
            min_pts,
            rho: 0.0,
        };
        p.check()?;
        Ok(p)
    }

    /// Sets the approximation parameter `rho`. Panics on out-of-domain
    /// values; use [`Params::try_with_rho`] to handle them gracefully.
    pub fn with_rho(self, rho: f64) -> Self {
        match self.try_with_rho(rho) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible counterpart of [`Params::with_rho`].
    pub fn try_with_rho(mut self, rho: f64) -> Result<Self, ParamError> {
        self.rho = rho;
        self.check()?;
        Ok(self)
    }

    /// Returns the first out-of-domain parameter, if any.
    pub fn check(&self) -> Result<(), ParamError> {
        if !(self.eps.is_finite() && self.eps > 0.0) {
            return Err(ParamError::BadEps(self.eps));
        }
        if self.min_pts < 1 {
            return Err(ParamError::BadMinPts(self.min_pts));
        }
        if !(0.0..1.0).contains(&self.rho) {
            return Err(ParamError::BadRho(self.rho));
        }
        Ok(())
    }

    /// Panics on out-of-domain parameters.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// The outer radius `(1 + rho) * eps`.
    #[inline]
    pub fn eps_hi(&self) -> f64 {
        (1.0 + self.rho) * self.eps
    }

    /// Squared `eps`.
    #[inline]
    pub fn eps_sq(&self) -> f64 {
        self.eps * self.eps
    }

    /// Squared `(1 + rho) * eps`.
    #[inline]
    pub fn eps_hi_sq(&self) -> f64 {
        self.eps_hi() * self.eps_hi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_radii() {
        let p = Params::new(2.0, 5).with_rho(0.5);
        assert_eq!(p.eps_hi(), 3.0);
        assert_eq!(p.eps_sq(), 4.0);
        assert_eq!(p.eps_hi_sq(), 9.0);
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn rejects_bad_eps() {
        Params::new(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "MinPts")]
    fn rejects_zero_minpts() {
        Params::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "rho")]
    fn rejects_rho_one() {
        Params::new(1.0, 3).with_rho(1.0);
    }

    #[test]
    fn try_new_reports_errors_without_panicking() {
        assert_eq!(Params::try_new(0.0, 3), Err(ParamError::BadEps(0.0)));
        assert!(matches!(
            Params::try_new(f64::NAN, 3),
            Err(ParamError::BadEps(e)) if e.is_nan()
        ));
        assert_eq!(Params::try_new(1.0, 0), Err(ParamError::BadMinPts(0)));
        assert_eq!(
            Params::try_new(1.0, 3).unwrap().try_with_rho(1.0),
            Err(ParamError::BadRho(1.0))
        );
        assert_eq!(
            Params::try_new(1.0, 3).unwrap().try_with_rho(-0.5),
            Err(ParamError::BadRho(-0.5))
        );
        let ok = Params::try_new(2.0, 4).unwrap().try_with_rho(0.1).unwrap();
        assert_eq!(ok, Params::new(2.0, 4).with_rho(0.1));
    }

    #[test]
    fn param_error_display_matches_assert_messages() {
        assert!(ParamError::BadEps(-1.0)
            .to_string()
            .contains("eps must be positive"));
        assert!(ParamError::BadMinPts(0).to_string().contains("MinPts"));
        assert!(ParamError::BadRho(2.0).to_string().contains("rho"));
        let e = ParamError::InvalidPoint { id: 3, axis: 1 };
        assert!(e.to_string().contains("point 3"));
        assert!(e.to_string().contains("axis 1"));
    }

    #[test]
    fn point_validation_reports_row_and_axis() {
        let params = Params::new(1.0, 2);
        assert_eq!(validate_point(&[0.0, 1.0], 7, &params), Ok(()));
        assert_eq!(
            validate_point(&[0.0, f64::NAN], 7, &params),
            Err(ParamError::InvalidPoint { id: 7, axis: 1 })
        );
        assert_eq!(
            validate_point(&[f64::INFINITY, 0.0], 0, &params),
            Err(ParamError::InvalidPoint { id: 0, axis: 0 })
        );
        let rows: [[f64; 3]; 3] = [[0.0; 3], [1.0, f64::NEG_INFINITY, 2.0], [f64::NAN; 3]];
        assert_eq!(
            validate_points(&rows, &params),
            Err(ParamError::InvalidPoint { id: 1, axis: 1 }),
            "first offending row wins"
        );
        assert_eq!(validate_points(&rows[..1], &params), Ok(()));
    }

    #[test]
    fn point_validation_rejects_unrepresentable_coordinates() {
        // eps 1 in 2-d: side 1/sqrt(2), bound 2^30 / sqrt(2) ~ 7.6e8.
        let params = Params::new(1.0, 2);
        let bound = (1u64 << 30) as f64 * side_for_eps::<2>(1.0);
        assert_eq!(validate_point(&[bound * 0.999, 0.0], 0, &params), Ok(()));
        assert_eq!(
            validate_point(&[0.0, -bound], 3, &params),
            Err(ParamError::Unrepresentable { id: 3, axis: 1 })
        );
        assert_eq!(
            validate_points(&[[1e5, 1e5], [1e12, 0.0], [2e12, 0.0]], &params),
            Err(ParamError::Unrepresentable { id: 1, axis: 0 })
        );
        // The bound scales with eps: a wide radius admits the same row.
        assert_eq!(
            validate_point(&[1e12, 0.0], 0, &Params::new(1e4, 2)),
            Ok(())
        );
        let msg = ParamError::Unrepresentable { id: 1, axis: 0 }.to_string();
        assert!(msg.contains("point 1") && msg.contains("axis 0") && msg.contains("too large"));
    }
}
