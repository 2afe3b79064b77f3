//! Runtime-dimension facade: drive any clustering engine with `&[f64]`
//! rows, choosing the dimensionality at runtime.
//!
//! The algorithms are monomorphized over a compile-time dimension `D`
//! (their inner loops index fixed-size arrays). Network front-ends,
//! CSV-style ingestion and the repro binary don't know `D` at compile
//! time, so [`DynDbscan`] pre-instantiates the engine for every
//! dimensionality the paper evaluates and then some (`2..=7`) behind one
//! enum dispatch, accepting flat `f64` rows:
//!
//! ```
//! use dydbscan::DbscanBuilder;
//!
//! let dim = 3; // runtime value, e.g. parsed from a request
//! let mut c = DbscanBuilder::new(1.0, 3).build_dyn(dim).unwrap();
//! let a = c.insert(&[0.0, 0.0, 0.0]);
//! let b = c.insert(&[0.5, 0.0, 0.0]);
//! let d = c.insert(&[0.0, 0.5, 0.0]);
//! assert!(c.group_by(&[a, b, d]).same_cluster(a, b));
//! assert_eq!(c.coords(a), vec![0.0, 0.0, 0.0]); // &[f64] round-trips
//! c.delete(b);
//! ```

use crate::builder::{BuildError, DbscanBuilder};
use dydbscan_core::{
    ClusterSnapshot, ClustererStats, Clustering, DynamicClusterer, EpochHandle, GroupBy,
    ParamError, Params, PointId, QueryError,
};
use std::sync::Arc;

enum Inner {
    D2(Box<dyn DynamicClusterer<2>>),
    D3(Box<dyn DynamicClusterer<3>>),
    D4(Box<dyn DynamicClusterer<4>>),
    D5(Box<dyn DynamicClusterer<5>>),
    D6(Box<dyn DynamicClusterer<6>>),
    D7(Box<dyn DynamicClusterer<7>>),
}

/// Runs `$body` with `$c` bound to the boxed clusterer of whichever
/// dimension is live; row-slice-to-array conversion happens at the call
/// sites via `try_into`.
macro_rules! dispatch {
    ($inner:expr, $c:ident => $body:expr) => {
        match $inner {
            Inner::D2($c) => $body,
            Inner::D3($c) => $body,
            Inner::D4($c) => $body,
            Inner::D5($c) => $body,
            Inner::D6($c) => $body,
            Inner::D7($c) => $body,
        }
    };
}

/// A dynamic clusterer over a dimensionality chosen at runtime.
///
/// Construct through [`DbscanBuilder::build_dyn`]. Rows are plain
/// `&[f64]` slices whose length must equal [`dim`](DynDbscan::dim);
/// mismatches panic (they are caller bugs, like indexing out of bounds) —
/// validate lengths upstream when ingesting untrusted data.
pub struct DynDbscan {
    inner: Inner,
    dim: usize,
}

impl std::fmt::Debug for DynDbscan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynDbscan")
            .field("dim", &self.dim)
            .field("len", &self.len())
            .field("params", self.params())
            .finish()
    }
}

impl DynDbscan {
    /// Instantiates `builder`'s configuration at runtime dimension `dim`.
    pub(crate) fn from_builder(builder: &DbscanBuilder, dim: usize) -> Result<Self, BuildError> {
        let inner = match dim {
            2 => Inner::D2(builder.build::<2>()?),
            3 => Inner::D3(builder.build::<3>()?),
            4 => Inner::D4(builder.build::<4>()?),
            5 => Inner::D5(builder.build::<5>()?),
            6 => Inner::D6(builder.build::<6>()?),
            7 => Inner::D7(builder.build::<7>()?),
            other => return Err(BuildError::UnsupportedDimension(other)),
        };
        Ok(Self { inner, dim })
    }

    /// The runtime dimensionality rows must have.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The clustering parameters.
    pub fn params(&self) -> &Params {
        dispatch!(&self.inner, c => c.params())
    }

    /// Number of alive points.
    pub fn len(&self) -> usize {
        dispatch!(&self.inner, c => c.len())
    }

    /// True if no points are alive.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the configured engine accepts deletions.
    pub fn supports_deletion(&self) -> bool {
        dispatch!(&self.inner, c => c.supports_deletion())
    }

    fn check_row(&self, row: &[f64]) {
        assert!(
            row.len() == self.dim,
            "row has {} coordinates, clusterer dimension is {}",
            row.len(),
            self.dim
        );
    }

    /// Inserts one row; returns its id. Panics unless
    /// `row.len() == self.dim()`, and on NaN/infinite or unrepresentable
    /// coordinates (use [`try_insert`](DynDbscan::try_insert) for
    /// untrusted data).
    pub fn insert(&mut self, row: &[f64]) -> PointId {
        self.check_row(row);
        dispatch!(&mut self.inner, c => c.insert(row.try_into().expect("checked length")))
    }

    /// Fallible [`insert`](DynDbscan::insert), forwarding to
    /// [`DynamicClusterer::try_insert`]: a row carrying a NaN/infinite
    /// or unrepresentable coordinate is rejected with
    /// [`ParamError::InvalidPoint`] / [`ParamError::Unrepresentable`]
    /// (`id = 0`, `axis` = offending coordinate) instead of panicking.
    /// Length mismatches still panic — they are caller bugs, not data
    /// problems.
    pub fn try_insert(&mut self, row: &[f64]) -> Result<PointId, ParamError> {
        self.check_row(row);
        dispatch!(&mut self.inner, c => c.try_insert(row.try_into().expect("checked length")))
    }

    /// Inserts rows from a flat buffer (`rows.len()` must be a multiple of
    /// [`dim`](DynDbscan::dim)); returns the new ids in order.
    pub fn insert_batch(&mut self, rows: &[f64]) -> Vec<PointId> {
        // Route through the engine's grouped batch pipeline (cell-major
        // placement, one flush) rather than looping per row.
        dispatch!(&mut self.inner, c => c.insert_batch(&rows_of(rows, self.dim)))
    }

    /// Fallible [`insert_batch`](DynDbscan::insert_batch), forwarding to
    /// [`DynamicClusterer::try_insert_batch`]: the first NaN/infinite or
    /// unrepresentable value rejects the whole call naming the row and
    /// axis — nothing is inserted on error. Ragged buffers still panic
    /// (caller bug).
    pub fn try_insert_batch(&mut self, rows: &[f64]) -> Result<Vec<PointId>, ParamError> {
        dispatch!(&mut self.inner, c => c.try_insert_batch(&rows_of(rows, self.dim)))
    }

    /// Deletes a point by id. Panics on dead ids and on insertion-only
    /// engines (see [`supports_deletion`](DynDbscan::supports_deletion)).
    pub fn delete(&mut self, id: PointId) {
        dispatch!(&mut self.inner, c => c.delete(id))
    }

    /// Deletes a batch of points by id.
    pub fn delete_batch(&mut self, ids: &[PointId]) {
        dispatch!(&mut self.inner, c => c.delete_batch(ids))
    }

    /// Whether `id` is currently a core point.
    pub fn is_core(&self, id: PointId) -> bool {
        dispatch!(&self.inner, c => c.is_core(id))
    }

    /// Coordinates of an alive point as a fresh row. Coordinates live in
    /// the grid's cell-major storage, so the grid engines panic on
    /// deleted (stale) ids with a message naming the id.
    pub fn coords(&self, id: PointId) -> Vec<f64> {
        dispatch!(&self.inner, c => c.coords(id).to_vec())
    }

    /// Ids of all alive points, in insertion order.
    pub fn alive_ids(&self) -> Vec<PointId> {
        dispatch!(&self.inner, c => c.alive_ids())
    }

    /// The current epoch snapshot — an immutable, `Arc`-publishable view
    /// of the clustering. Share clones with reader threads and keep
    /// inserting/deleting; their group-by answers stay frozen at this
    /// epoch (see [`ClusterSnapshot`]).
    pub fn snapshot(&self) -> Arc<ClusterSnapshot> {
        dispatch!(&self.inner, c => c.snapshot())
    }

    /// A wait-free [`EpochHandle`] onto this engine's published
    /// snapshots: clone it into query threads and they read the latest
    /// epoch without ever touching the refresh mutex (see
    /// [`DynamicClusterer::epoch_handle`]).
    pub fn epoch_handle(&self) -> EpochHandle {
        dispatch!(&self.inner, c => c.epoch_handle())
    }

    /// Turns the `changed_since` delta chain on or off (off by
    /// default); see [`DynamicClusterer::set_track_deltas`].
    pub fn set_track_deltas(&mut self, on: bool) {
        dispatch!(&mut self.inner, c => c.set_track_deltas(on))
    }

    /// Answers a C-group-by query over `q`. Panics on deleted or unknown
    /// ids; see [`try_group_by`](DynDbscan::try_group_by).
    pub fn group_by(&self, q: &[PointId]) -> GroupBy {
        dispatch!(&self.inner, c => c.group_by(q))
    }

    /// Fallible [`group_by`](DynDbscan::group_by): a deleted or unknown
    /// id rejects the query with [`QueryError::DeadPoint`] naming it —
    /// the query boundary for id sets of uncertain provenance (mirrors
    /// [`try_insert`](DynDbscan::try_insert) on the write side).
    pub fn try_group_by(&self, q: &[PointId]) -> Result<GroupBy, QueryError> {
        dispatch!(&self.inner, c => c.try_group_by(q))
    }

    /// The full clustering (`Q = P`), fanned across the engine's
    /// persistent worker pool.
    pub fn group_all(&self) -> Clustering {
        dispatch!(&self.inner, c => c.group_all())
    }

    /// Common operation counters.
    pub fn stats(&self) -> ClustererStats {
        dispatch!(&self.inner, c => c.stats())
    }
}

/// Splits a flat buffer into `D`-rows, panicking on a ragged buffer (a
/// caller bug, never masked as a data error naming a row that does not
/// fully exist).
fn rows_of<const D: usize>(rows: &[f64], dim: usize) -> Vec<[f64; D]> {
    assert!(
        rows.len() % dim == 0,
        "flat buffer of {} values is not a multiple of dimension {dim}",
        rows.len()
    );
    rows.chunks_exact(dim)
        .map(|row| row.try_into().expect("checked length"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::Algorithm;

    /// One compact blob plus one far outlier, flattened for `dim`.
    fn blob_rows(dim: usize) -> Vec<f64> {
        let mut rows = Vec::new();
        for k in 0..6 {
            for axis in 0..dim {
                rows.push(if axis == 0 { k as f64 * 0.3 } else { 0.0 });
            }
        }
        rows.extend(std::iter::repeat_n(50.0, dim)); // outlier
        rows
    }

    #[test]
    fn round_trips_rows_in_dims_2_through_7() {
        for dim in 2..=7 {
            let mut c = DbscanBuilder::new(1.0, 3).build_dyn(dim).unwrap();
            assert_eq!(c.dim(), dim);
            let rows = blob_rows(dim);
            let ids = c.insert_batch(&rows);
            assert_eq!(ids.len(), 7);
            // coordinates round-trip exactly
            for (k, id) in ids.iter().enumerate() {
                assert_eq!(
                    c.coords(*id),
                    rows[k * dim..(k + 1) * dim].to_vec(),
                    "dim {dim}"
                );
            }
            let g = c.group_by(&ids);
            assert_eq!(g.num_groups(), 1, "dim {dim}");
            assert!(g.is_noise(ids[6]), "dim {dim}");
            // fully dynamic by default: deletion dissolves the blob
            c.delete_batch(&ids[..4]);
            let g = c.group_all();
            assert_eq!(g.num_groups(), 0, "dim {dim}");
            assert_eq!(c.len(), 3);
        }
    }

    #[test]
    fn rejects_unsupported_dimensions() {
        for dim in [0, 1, 8, 100] {
            assert!(matches!(
                DbscanBuilder::new(1.0, 3).build_dyn(dim),
                Err(BuildError::UnsupportedDimension(d)) if d == dim
            ));
        }
    }

    #[test]
    #[should_panic(expected = "row has 3 coordinates")]
    fn rejects_mismatched_row_length() {
        let mut c = DbscanBuilder::new(1.0, 3).build_dyn(2).unwrap();
        c.insert(&[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not a multiple of dimension")]
    fn rejects_ragged_flat_buffer() {
        let mut c = DbscanBuilder::new(1.0, 3).build_dyn(2).unwrap();
        c.insert_batch(&[0.0, 0.0, 1.0]);
    }

    #[test]
    fn facade_carries_algorithm_choice() {
        let mut semi = DbscanBuilder::new(1.0, 2)
            .algorithm(Algorithm::SemiDynamic)
            .build_dyn(5)
            .unwrap();
        assert!(!semi.supports_deletion());
        let mut inc = DbscanBuilder::new(1.0, 2)
            .algorithm(Algorithm::IncDbscan)
            .build_dyn(3)
            .unwrap();
        assert!(inc.supports_deletion());
        let a = semi.insert(&[0.0; 5]);
        assert_eq!(semi.coords(a).len(), 5);
        let b = inc.insert(&[0.0, 1.0, 2.0]);
        inc.delete(b);
        assert!(inc.is_empty());
    }
}
