//! Grid-cell coordinates (Section 4.1 of the paper).
//!
//! The framework imposes an arbitrary grid on `R^d` whose cells are
//! `d`-dimensional squares with side `eps / sqrt(d)`, so that any two points
//! in the same cell are within distance `eps` of each other (the cell
//! diameter is exactly `eps`).
//!
//! Cell coordinates are integers obtained by flooring each point coordinate
//! divided by the side length. `i32` is ample: the paper's data space is
//! `[0, 10^5]^d` and side lengths are tens of units, but even pathological
//! inputs fit as long as `|x| / side < 2^31` (a debug assertion here;
//! `dydbscan_core::validate_point` rejects rows at `2^30` cell sides
//! before they reach the grid, since release builds saturate).

use crate::aabb::Aabb;
use crate::point::Point;

/// Integer coordinates of a grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellCoord<const D: usize>(pub [i32; D]);

impl<const D: usize> CellCoord<D> {
    /// The cell translated by integer offset `delta`.
    #[inline]
    pub fn offset(&self, delta: &[i32; D]) -> CellCoord<D> {
        let mut c = self.0;
        for i in 0..D {
            c[i] += delta[i];
        }
        CellCoord(c)
    }
}

/// Maps a point to the coordinates of the cell containing it.
///
/// Cells are half-open boxes `[k*side, (k+1)*side)` on each axis so every
/// point belongs to exactly one cell.
#[inline]
pub fn cell_of<const D: usize>(p: &Point<D>, side: f64) -> CellCoord<D> {
    debug_assert!(side > 0.0, "cell side must be positive");
    let mut c = [0i32; D];
    for i in 0..D {
        let f = (p[i] / side).floor();
        debug_assert!(
            f >= i32::MIN as f64 && f <= i32::MAX as f64,
            "cell coordinate overflow: {f}"
        );
        c[i] = f as i32;
    }
    CellCoord(c)
}

/// The bounding box of a cell.
#[inline]
pub fn cell_box<const D: usize>(c: &CellCoord<D>, side: f64) -> Aabb<D> {
    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for i in 0..D {
        lo[i] = c.0[i] as f64 * side;
        hi[i] = (c.0[i] + 1) as f64 * side;
    }
    Aabb::new(lo, hi)
}

/// The grid side length for clustering radius `eps` in `D` dimensions:
/// `eps / sqrt(D)`, making the cell diameter exactly `eps`.
#[inline]
pub fn side_for_eps<const D: usize>(eps: f64) -> f64 {
    eps / (D as f64).sqrt()
}

/// Squared minimum distance between the boundaries of two cells given their
/// integer offset, in units of `side`.
///
/// On each axis the gap between cells `k` and `k + delta` is
/// `max(|delta| - 1, 0)` cell widths; squaring and summing gives the squared
/// box-to-box distance. Two cells are *eps-close* (paper Section 4.1) iff
/// this value times `side^2` is at most `eps^2`, i.e. iff
/// `sum(max(|delta_i|-1,0)^2) <= d` when `side = eps / sqrt(d)`.
#[inline]
pub fn cell_gap_sq<const D: usize>(delta: &[i32; D]) -> i64 {
    let mut acc: i64 = 0;
    for &d in delta.iter() {
        let g = (d.abs() as i64 - 1).max(0);
        acc += g * g;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_of_floors() {
        assert_eq!(cell_of(&[0.0, 0.0], 1.0), CellCoord([0, 0]));
        assert_eq!(cell_of(&[0.999, 1.0], 1.0), CellCoord([0, 1]));
        assert_eq!(cell_of(&[-0.001, 2.5], 1.0), CellCoord([-1, 2]));
    }

    #[test]
    fn cell_box_roundtrip() {
        let side = 2.5;
        let p = [7.3, -4.2, 0.0];
        let c = cell_of(&p, side);
        let b = cell_box(&c, side);
        assert!(b.contains(&p));
    }

    #[test]
    fn side_gives_eps_diameter() {
        let eps = 10.0;
        let side = side_for_eps::<4>(eps);
        // diameter of a cell = side * sqrt(d) = eps
        assert!((side * 2.0 - eps).abs() < 1e-12);
    }

    #[test]
    fn gap_between_adjacent_cells_is_zero() {
        assert_eq!(cell_gap_sq(&[1, 0]), 0);
        assert_eq!(cell_gap_sq(&[1, 1]), 0);
        assert_eq!(cell_gap_sq(&[0, 0]), 0);
        assert_eq!(cell_gap_sq(&[2, 0]), 1);
        assert_eq!(cell_gap_sq(&[2, -2]), 2);
        assert_eq!(cell_gap_sq(&[-3, 2]), 5);
    }

    #[test]
    fn gap_matches_box_distance() {
        let side = 1.5;
        for dx in -4i32..=4 {
            for dy in -4i32..=4 {
                let a = cell_box(&CellCoord([0, 0]), side);
                let b = cell_box(&CellCoord([dx, dy]), side);
                // min distance between the two boxes, computed by brute force
                // over the corner/edge structure via min_dist of one box to
                // the other's nearest corner clamp.
                let gap = cell_gap_sq(&[dx, dy]) as f64 * side * side;
                // compute real box-to-box min distance
                let mut acc = 0.0f64;
                for i in 0..2 {
                    let d = if b.lo[i] > a.hi[i] {
                        b.lo[i] - a.hi[i]
                    } else if a.lo[i] > b.hi[i] {
                        a.lo[i] - b.hi[i]
                    } else {
                        0.0
                    };
                    acc += d * d;
                }
                assert!(
                    (acc - gap).abs() < 1e-9,
                    "delta ({dx},{dy}): expected {acc}, got {gap}"
                );
            }
        }
    }
}
