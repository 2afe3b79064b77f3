//! The public operational contract of every dynamic clusterer in the
//! workspace.
//!
//! Gan & Tao's framework presents three interchangeable regimes —
//! semi-dynamic ρ-approximate (Theorem 1), fully-dynamic
//! ρ-double-approximate (Theorem 4), and the IncDBSCAN baseline — over one
//! contract: *insert*, *delete*, *C-group-by*. [`DynamicClusterer`]
//! promotes that contract to a first-class, object-safe trait so front-ends
//! (the workload driver, the `dydbscan::DbscanBuilder`, the
//! runtime-dimension `dydbscan::DynDbscan` facade, future network layers)
//! can swap engines without caring which theorem is underneath.
//!
//! The trait is object safe: `Box<dyn DynamicClusterer<D>>` is the lingua
//! franca of the builder and the benchmarks.

use crate::groups::{Clustering, GroupBy};
use crate::ops::Op;
use crate::params::{validate_point, validate_points, ParamError, Params};
use crate::points::PointId;
use crate::snapshot::{ClusterSnapshot, EpochHandle, QueryError, SnapshotState};
use dydbscan_geom::Point;
use std::sync::Arc;

/// Operation counters common to every clusterer, for cost provenance.
///
/// Not every algorithm tracks every counter; untracked fields stay `0`
/// (each implementation documents its mapping). Algorithm-specific
/// counters remain available on the concrete types (`FullStats`,
/// `IncStats`, `SemiStats`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ClustererStats {
    /// Range-count / range-report queries issued against spatial
    /// structures.
    pub range_queries: u64,
    /// Points promoted to core status.
    pub promotions: u64,
    /// Points demoted from core status (always `0` in insertion-only
    /// regimes).
    pub demotions: u64,
    /// Edges inserted into the cluster graph (grid graph or core graph).
    pub edge_inserts: u64,
    /// Edges removed from the cluster graph (always `0` where the graph
    /// only grows).
    pub edge_removes: u64,
    /// Cluster splits adjudicated on deletion (IncDBSCAN's BFS relabels).
    pub splits: u64,
    /// Updates that went through a grouped batch pipeline
    /// (`insert_batch`/`delete_batch` on engines that override them).
    pub batched_updates: u64,
    /// Grouped batch flushes executed. `batched_updates / batch_flushes`
    /// is the average amortization window.
    pub batch_flushes: u64,
    /// Neighbor-cell scans performed by batch flushes — each scan covers a
    /// whole batch where per-op updates would rescan the cell per point,
    /// so comparing this against `batched_updates` exposes the
    /// amortization factor.
    pub batch_cell_scans: u64,
    /// Workers engaged by parallel batch flushes, summed over every
    /// flush phase that actually went parallel. Stays `0` on
    /// single-threaded configurations (`threads(1)`) and on engines
    /// without a parallel flush.
    pub parallel_workers: u64,
    /// Per-touched-cell tasks dispatched through the parallel flush
    /// pool (only counted when a phase engaged more than one worker).
    pub parallel_cell_tasks: u64,
    /// Parallel flush phases that reused the already-spawned, parked
    /// persistent crew instead of paying a thread spawn. The crew is
    /// spawned lazily by the first phase that goes parallel, so this
    /// stays `0` until at least the second such phase.
    pub pool_reuse_count: u64,
    /// Placement (phase 1) chunk tasks dispatched through the pool
    /// (only counted when the phase engaged more than one worker).
    pub phase1_parallel_tasks: u64,
    /// Per-cell / per-instance GUM rounds whose read-only half ran on
    /// the pool (only counted when the phase engaged more than one
    /// worker).
    pub gum_parallel_rounds: u64,
    /// Snapshot refreshes performed — epochs the read path advanced
    /// through. Refreshes are dirty-driven: back-to-back queries with no
    /// updates in between share one epoch.
    pub snapshot_refreshes: u64,
    /// Dirty keys (grid cells, or points for IncDBSCAN) whose anchor
    /// sets were recomputed, summed over every refresh. Against
    /// `snapshot_refreshes` this exposes how well the dirty tracking
    /// amortizes: only *changed* cells pay geometric re-snapping.
    pub snapshot_cells_relabeled: u64,
    /// Id-range chunks dispatched by pool-parallel `group_all` runs
    /// (only counted when the fan-out engaged more than one worker).
    pub query_parallel_tasks: u64,
    /// Per-point table pages (4096 ids each) copied by copy-on-write,
    /// summed over every refresh: a page is copied when a refresh
    /// changes an entry while a published epoch (a handle's slot, a
    /// retained delta base, a reader's `Arc`) still shares it. Against
    /// `snapshot_refreshes` this shows publish work following the
    /// change, not the dataset size; it stays `0` when nothing pins an
    /// old epoch.
    pub snapshot_pages_copied: u64,
}

impl ClustererStats {
    /// Folds the shared flush-pipeline counters into the stats (every
    /// engine reports them identically).
    pub fn with_flush(mut self, f: crate::batch::FlushStats) -> Self {
        self.batched_updates = f.batched_updates;
        self.batch_flushes = f.batch_flushes;
        self.batch_cell_scans = f.batch_cell_scans;
        self.parallel_workers = f.parallel_workers;
        self.parallel_cell_tasks = f.parallel_cell_tasks;
        self.pool_reuse_count = f.pool_reuse_count;
        self.phase1_parallel_tasks = f.phase1_parallel_tasks;
        self.gum_parallel_rounds = f.gum_parallel_rounds;
        self
    }

    /// Folds the shared snapshot/read-path counters into the stats
    /// (every engine reports them identically).
    pub fn with_snapshot(mut self, state: &SnapshotState) -> Self {
        let (refreshes, relabeled, query_tasks, pages_copied) = state.counter_values();
        self.snapshot_refreshes = refreshes;
        self.snapshot_cells_relabeled = relabeled;
        self.query_parallel_tasks = query_tasks;
        self.snapshot_pages_copied = pages_copied;
        self
    }
}

/// A dynamic density-based clusterer over `D`-dimensional points.
///
/// The contract follows the paper's problem statement (Section 3): points
/// are inserted and deleted one at a time, each insertion minting a fresh
/// [`PointId`] that is never reused, and the cluster structure is
/// interrogated through *C-group-by* queries — partition an arbitrary
/// subset `Q` of the alive points by cluster, in time `O~(|Q|)` for the
/// paper's algorithms. `group_all` degenerates the query to `Q = P`, and
/// **returns [`Clustering`] for every implementation** (the historical
/// `GroupBy`-vs-`Clustering` split is gone; they are the same type).
///
/// # Regimes
///
/// Insertion-only structures (`SemiDynDbscan`) advertise themselves via
/// [`supports_deletion`](DynamicClusterer::supports_deletion)` == false`
/// and **panic** on `delete`: silently ignoring a deletion would corrupt
/// the caller's model of the alive set. Runtime front-ends should consult
/// `supports_deletion` before routing fully-dynamic workloads.
///
/// # Example
///
/// ```
/// use dydbscan_core::{DynamicClusterer, FullDynDbscan, Params};
///
/// let mut c: Box<dyn DynamicClusterer<2>> =
///     Box::new(FullDynDbscan::<2>::new(Params::new(1.0, 3)));
/// let ids = c.insert_batch(&[[0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [9.0, 9.0]]);
/// let g = c.group_by(&ids);
/// assert!(g.same_cluster(ids[0], ids[1]));
/// assert!(g.is_noise(ids[3]));
/// c.delete(ids[1]);
/// ```
pub trait DynamicClusterer<const D: usize> {
    /// The clustering parameters.
    fn params(&self) -> &Params;

    /// Number of alive points.
    fn len(&self) -> usize;

    /// True if no points are alive.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this implementation accepts deletions (`false` for
    /// insertion-only regimes, whose `delete` panics).
    fn supports_deletion(&self) -> bool;

    /// Inserts a point; returns its never-reused id.
    ///
    /// # Panics
    ///
    /// On rows with NaN or infinite coordinates — they have no grid cell
    /// and no usable ordering, so admitting them would silently corrupt
    /// the spatial structures. Front-ends ingesting untrusted data use
    /// [`try_insert`](Self::try_insert) instead.
    fn insert(&mut self, p: Point<D>) -> PointId;

    /// Fallible [`insert`](Self::insert): rejects rows with NaN/±∞
    /// coordinates with [`ParamError::InvalidPoint`] (`id = 0`) instead
    /// of panicking. This is the ingestion boundary for untrusted data.
    fn try_insert(&mut self, p: Point<D>) -> Result<PointId, ParamError> {
        validate_point(&p, 0)?;
        Ok(self.insert(p))
    }

    /// Deletes a point by id.
    ///
    /// # Panics
    ///
    /// On unknown or already-deleted ids, and on insertion-only
    /// implementations (see [`supports_deletion`](Self::supports_deletion)).
    fn delete(&mut self, id: PointId);

    /// Whether `id` is currently a core point.
    fn is_core(&self, id: PointId) -> bool;

    /// Coordinates of an alive point. Coordinates live in the grid's
    /// cell-major storage, so implementations may panic on deleted
    /// (stale) ids with a message naming the id.
    fn coords(&self, id: PointId) -> Point<D>;

    /// Ids of all alive points, in insertion order.
    fn alive_ids(&self) -> Vec<PointId>;

    /// The current epoch snapshot — an immutable, `Arc`-publishable view
    /// of the clustering (see [`ClusterSnapshot`]). If updates dirtied
    /// the read path since the last read boundary, this refreshes it
    /// first (amortized over the changed cells only). Hand clones of the
    /// `Arc` to as many reader threads as you like: they keep answering
    /// group-by queries at this epoch while the owner applies the next
    /// batch.
    fn snapshot(&self) -> Arc<ClusterSnapshot>;

    /// A wait-free [`EpochHandle`] onto this engine's published
    /// snapshots: handle readers never touch the refresh mutex, so
    /// query threads keep answering while the owner flushes updates.
    /// Vending (or cloning) handles is cheap; while any handle exists,
    /// every refresh publishes through the handle slot and copies the
    /// snapshot pages it changes instead of writing them in place.
    fn epoch_handle(&self) -> EpochHandle;

    /// Turns the `changed_since` delta chain on or off (off by
    /// default); see [`SnapshotState::set_track_deltas`]
    /// (crate::snapshot::SnapshotState::set_track_deltas). While on,
    /// every refresh records which points changed cluster state, and
    /// [`EpochHandle::changed_since`] answers with composed deltas
    /// instead of [`ChangeFeed::Reset`](crate::ChangeFeed::Reset).
    fn set_track_deltas(&mut self, on: bool);

    /// Answers a C-group-by query over `q`.
    ///
    /// # Panics
    ///
    /// On deleted or unknown ids (see
    /// [`try_group_by`](Self::try_group_by) for the typed boundary).
    fn group_by(&self, q: &[PointId]) -> GroupBy {
        self.snapshot().group_by(q)
    }

    /// Fallible [`group_by`](Self::group_by): a dead or unknown id
    /// rejects the query with [`QueryError::DeadPoint`] naming the id
    /// instead of panicking — the query boundary for id sets of
    /// uncertain provenance (mirrors `try_insert` on the write side).
    fn try_group_by(&self, q: &[PointId]) -> Result<GroupBy, QueryError> {
        self.snapshot().try_group_by(q)
    }

    /// The full clustering (`Q = P`). Engines override this to fan the
    /// point ranges across their persistent worker pool; the result is
    /// bit-identical to the sequential scan at every thread count.
    fn group_all(&self) -> Clustering {
        self.snapshot().group_all()
    }

    /// Common operation counters (see [`ClustererStats`]).
    fn stats(&self) -> ClustererStats;

    /// Inserts a batch of points; returns their ids in order.
    ///
    /// The default loops over [`insert`](Self::insert); the grid engines
    /// override it with a cell-major pipeline that groups the batch by
    /// target cell, materializes each touched cell once, and flushes all
    /// promotions and grid-graph churn in a single pass. Overrides must
    /// preserve the per-op semantics: the resulting clustering is
    /// identical to looped insertion at `rho = 0` and sandwich-valid at
    /// `rho > 0`.
    fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        pts.iter().map(|p| self.insert(*p)).collect()
    }

    /// Fallible [`insert_batch`](Self::insert_batch): the whole batch is
    /// validated up front, and the first row carrying a NaN/±∞
    /// coordinate rejects the call with [`ParamError::InvalidPoint`]
    /// naming the row and axis — nothing is inserted on error.
    fn try_insert_batch(&mut self, pts: &[Point<D>]) -> Result<Vec<PointId>, ParamError> {
        validate_points(pts)?;
        Ok(self.insert_batch(pts))
    }

    /// Deletes a batch of points by id, under the same equivalence
    /// contract as [`insert_batch`](Self::insert_batch).
    fn delete_batch(&mut self, ids: &[PointId]) {
        for &id in ids {
            self.delete(id);
        }
    }

    /// Applies one workload operation, maintaining the caller's
    /// ordinal-to-id map `ids` (insertions append to it; deletions and
    /// queries resolve ordinals through it). Returns the query result for
    /// [`Op::Query`], `None` for updates.
    fn apply(&mut self, op: &Op<D>, ids: &mut Vec<PointId>) -> Option<GroupBy> {
        match op {
            Op::Insert(p) => {
                ids.push(self.insert(*p));
                None
            }
            Op::Delete(o) => {
                self.delete(ids[*o as usize]);
                None
            }
            Op::Query(os) => {
                let q: Vec<PointId> = os.iter().map(|&o| ids[o as usize]).collect();
                Some(self.group_by(&q))
            }
        }
    }
}
