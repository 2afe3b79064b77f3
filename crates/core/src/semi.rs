//! Semi-dynamic (insertion-only) ρ-approximate DBSCAN — Theorem 1.
//!
//! This is the algorithm of Section 5, instantiating the grid-graph
//! framework of Section 4 with:
//!
//! * **Core-status structure**: every non-core point `p` carries a
//!   *vicinity count* `vincnt(p) = |B(p, eps)|`, maintained exactly. A new
//!   point in a dense cell is core outright; otherwise its count is
//!   computed by scanning the `eps`-close cells. A new point increments the
//!   counts of non-core points in `eps`-close *sparse* cells, possibly
//!   promoting them (counts reaching `MinPts` stop being tracked — the
//!   point is core forever, insertions never demote).
//! * **GUM**: each new core point `p` in cell `c` probes every `eps`-close
//!   core cell `c'` that has no edge to `c` yet with an emptiness query
//!   `empty(p, c')`; a proof point creates the edge.
//! * **CC structure**: union-find (`EdgeInsert`/`CC-Id` only — deletions
//!   never happen in this regime).
//!
//! `rho = 0` yields the exact semi-dynamic algorithm (the paper's
//! *2d-Semi-Exact* when `D = 2`; the code runs in any dimension, though the
//! `O~(1)` update bound is guaranteed only for `d = 2`).
//!
//! Amortized insertion cost is `O~(1)` (Theorem 1): a cell participates in
//! the neighbor scans of Step 2 at most `MinPts` times per `eps`-close
//! newcomer cell, and every emptiness probe either creates one of the
//! `O(n)` grid-graph edges or is charged to the new core point.

use crate::api::{ClustererStats, DynamicClusterer};
use crate::groups::{Clustering, GroupBy};
use crate::params::Params;
use crate::points::{PointArena, PointId};
use crate::query::c_group_by;
use crate::snapshot::{Anchors, ClusterSnapshot, EpochHandle, QueryError, SnapshotState};
use dydbscan_conn::UnionFind;
use dydbscan_geom::{dist_sq, FxHashSet, Point};
use dydbscan_grid::{CellId, GridIndex, NeighborScope};
use std::sync::Arc;

/// Operation counters for cost provenance (semi-dynamic regime). The
/// shared batch/parallelism counters live in the engine's
/// [`FlushPipeline`](crate::batch::FlushPipeline) — see
/// [`SemiDynDbscan::flush_stats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SemiStats {
    /// Exact vicinity counts computed for newly inserted points.
    pub count_queries: u64,
    /// Points promoted to core (insertions never demote).
    pub promotions: u64,
    /// Emptiness probes issued by GUM.
    pub emptiness_probes: u64,
}

/// Semi-dynamic ρ-approximate DBSCAN (exact when `rho = 0`).
///
/// # Example
///
/// ```
/// use dydbscan_core::{Params, SemiDynDbscan};
///
/// let mut c = SemiDynDbscan::<2>::new(Params::new(1.0, 2));
/// let a = c.insert([1.0, 1.0]);
/// let b = c.insert([1.5, 1.0]);
/// let lone = c.insert([9.0, 9.0]);
/// let g = c.group_by(&[a, b, lone]);
/// assert!(g.same_cluster(a, b));
/// assert!(g.is_noise(lone));
/// assert_eq!(c.num_clusters(), 1);
/// ```
#[derive(Debug)]
pub struct SemiDynDbscan<const D: usize> {
    params: Params,
    grid: GridIndex<D>,
    points: PointArena,
    uf: UnionFind,
    /// Materialized grid-graph edges (normalized cell pairs), to skip
    /// emptiness probes for already-connected cell pairs.
    edges: FxHashSet<(CellId, CellId)>,
    /// When present, every fresh grid-graph edge is also appended here.
    /// Opt-in: the shard wrapper drains it after each flush to stitch
    /// cross-shard components, without this engine knowing it is a shard.
    edge_log: Option<Vec<(CellId, CellId)>>,
    /// Scratch buffers reused across operations.
    promo_scratch: Vec<PointId>,
    cell_scratch: Vec<CellId>,
    /// The batch flush pipeline: thread budget, persistent worker pool,
    /// shared flush counters.
    pipeline: crate::batch::FlushPipeline,
    /// The epoch-snapshot state behind the `&self` read path: updates
    /// mark the cells they touch dirty; queries refresh amortized over
    /// those cells only.
    snap: SnapshotState,
    stats: SemiStats,
}

impl<const D: usize> SemiDynDbscan<D> {
    /// Creates an empty clusterer.
    pub fn new(params: Params) -> Self {
        params.validate();
        Self {
            grid: GridIndex::new(params.eps, params.rho),
            params,
            points: PointArena::new(),
            uf: UnionFind::new(),
            edges: FxHashSet::default(),
            edge_log: None,
            promo_scratch: Vec::new(),
            cell_scratch: Vec::new(),
            pipeline: crate::batch::FlushPipeline::new(),
            snap: SnapshotState::new(),
            stats: SemiStats::default(),
        }
    }

    /// Sets the thread budget of the parallel batch flush (default: one
    /// worker per logical CPU; `1` = the exact sequential path). The
    /// clustering is bit-identical at every thread count. The persistent
    /// crew (if already spawned) is rebuilt at the new size by the next
    /// parallel flush.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pipeline.set_threads(threads);
        self
    }

    /// The thread budget of the parallel batch flush.
    pub fn threads(&self) -> usize {
        self.pipeline.threads()
    }

    // ---- shard-wrapper hooks (crate-private) ---------------------------
    // `ShardedDbscan` drives shard engines through these: grid/arena
    // reads for the composed snapshot export, the snapshot mark log, and
    // the grid-graph edge log. The engine itself stays shard-oblivious.

    pub(crate) fn shard_grid(&self) -> &GridIndex<D> {
        &self.grid
    }

    pub(crate) fn shard_points(&self) -> &PointArena {
        &self.points
    }

    pub(crate) fn shard_snap_mut(&mut self) -> &mut SnapshotState {
        &mut self.snap
    }

    pub(crate) fn set_edge_log(&mut self, on: bool) {
        self.edge_log = on.then(Vec::new);
    }

    pub(crate) fn take_edge_log(&mut self) -> Vec<(CellId, CellId)> {
        match self.edge_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Operation counters.
    pub fn stats(&self) -> SemiStats {
        self.stats
    }

    /// The shared flush-pipeline counters (batching + parallelism).
    pub fn flush_stats(&self) -> crate::batch::FlushStats {
        self.pipeline.stats()
    }

    /// Whether the persistent flush crew is currently spawned (it is
    /// lazily spawned by the first flush phase that goes parallel and
    /// parked between flushes).
    pub fn pool_spawned(&self) -> bool {
        self.pipeline.pool_spawned()
    }

    /// The clustering parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Number of alive points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no points were inserted.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of grid-graph edges materialized so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of materialized grid cells.
    pub fn num_cells(&self) -> usize {
        self.grid.num_cells()
    }

    /// Whether `id` is currently a core point.
    pub fn is_core(&self, id: PointId) -> bool {
        self.points.is_core(id)
    }

    /// Coordinates of a point, read from its cell's SoA block.
    pub fn coords(&self, id: PointId) -> Point<D> {
        let r = self.points.get(id);
        *self.grid.cell(r.cell).all.point(r.slot)
    }

    /// Inserts a point; returns its id. Amortized `O~(1)`. Panics on
    /// NaN/infinite coordinates (see `DynamicClusterer::try_insert` for
    /// the fallible boundary).
    pub fn insert(&mut self, p: Point<D>) -> PointId {
        crate::params::validate_point(&p, 0).unwrap_or_else(|e| panic!("{e}"));
        let id = self.points.push(0, 0);
        let (cell, slot) = self.grid.insert_point(&p, id);
        {
            let rec = self.points.get_mut(id);
            rec.cell = cell;
            rec.slot = slot;
        }
        self.uf.ensure(cell);
        self.snap.mark(cell);

        let count = self.grid.cell(cell).count();
        let min_pts = self.params.min_pts;
        let mut promotions = std::mem::take(&mut self.promo_scratch);
        promotions.clear();

        // --- Core status of the new point (Section 5, steps 1-2) ---
        if count >= min_pts {
            // Dense cell: core outright (cell diameter is eps).
            promotions.push(id);
            if count == min_pts {
                // The cell *became* dense: every resident becomes core.
                let points = &self.points;
                for &q in self.grid.cell(cell).all.items() {
                    if q != id && !points.is_core(q) {
                        promotions.push(q);
                    }
                }
            }
        } else {
            self.stats.count_queries += 1;
            let k = self.grid.count_ball_exact(&p);
            self.points.get_mut(id).vincnt = k as u32;
            if k >= min_pts {
                promotions.push(id);
            }
        }

        // --- Vicinity-count maintenance for neighbors (Section 5) ---
        // The new point may raise vincnt of non-core points in eps-close
        // *sparse* cells (non-core points live only in sparse cells). One
        // neighbor visitation sweeps each cell's SoA block.
        let eps_sq = self.params.eps_sq();
        let mut touched: Vec<PointId> = Vec::new();
        {
            let points = &self.points;
            self.grid
                .visit_neighbor_cells(cell, NeighborScope::Eps, |_, c| {
                    if c.count() >= min_pts {
                        return; // dense: all residents already core
                    }
                    for (qp, &q) in c.all.points().iter().zip(c.all.items()) {
                        if q != id && dist_sq(qp, &p) <= eps_sq && !points.is_core(q) {
                            touched.push(q);
                        }
                    }
                });
        }
        for q in touched {
            let rec = self.points.get_mut(q);
            rec.vincnt += 1;
            if rec.vincnt as usize >= min_pts {
                promotions.push(q);
            }
        }

        // --- Promotions + GUM (Section 5) ---
        for &q in &promotions {
            self.on_became_core(q);
        }
        promotions.clear();
        self.promo_scratch = promotions;
        id
    }

    /// Inserts a batch of points, amortizing the per-cell work: the batch
    /// is grouped by target cell, every touched neighbor cell is swept
    /// once against the batch's coordinate block, and all promotions are
    /// flushed through GUM in a single pass. The per-cell status phases
    /// run on the parallel flush pool (see `core::parallel`); results
    /// are merged in cell-id order, so the final clustering is
    /// bit-identical at every thread count, identical to inserting the
    /// points one at a time at `rho = 0`, and sandwich-valid at
    /// `rho > 0`.
    pub fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        if pts.len() < 2 {
            return pts.iter().map(|p| self.insert(*p)).collect();
        }
        crate::params::validate_points(pts).unwrap_or_else(|e| panic!("{e}"));
        self.pipeline.begin_flush(pts.len());
        let batch_start = self.points.capacity_ids() as PointId;
        let min_pts = self.params.min_pts;

        // Phase 1: place the whole batch cell-major (the pure
        // coordinate mapping runs on the pool; materialization and
        // grouping stay sequential; tree maintenance is deferred to
        // amortized doubling rebuilds inside `CellSet`).
        let (uf, snap) = (&mut self.uf, &mut self.snap);
        let (ids, groups) = crate::batch::place_batch(
            &mut self.pipeline,
            &mut self.grid,
            &mut self.points,
            pts,
            |c| {
                uf.ensure(c);
                snap.mark(c);
            },
        );

        // Phase 2 (parallel): statuses of the batch's own points, one
        // task per target cell (dense cells need no count queries; see
        // `batch::promote_dense_cell`). Workers only read the grid and
        // the arena; vicinity counts are written back on this thread.
        struct GroupOutcome {
            promotions: Vec<PointId>,
            vincnts: Vec<(PointId, u32)>,
            count_queries: u64,
        }
        let outcomes = {
            let (grid, points, params) = (&self.grid, &self.points, &self.params);
            let (ids, groups) = (&ids, &groups);
            self.pipeline
                .run(crate::batch::FlushPhase::Scan, groups.len(), |gi| {
                    let (cell, members) = &groups[gi];
                    let mut out = GroupOutcome {
                        promotions: Vec::new(),
                        vincnts: Vec::new(),
                        count_queries: 0,
                    };
                    let dense = crate::batch::promote_dense_cell(
                        grid,
                        points,
                        *cell,
                        members,
                        ids,
                        min_pts,
                        &mut out.promotions,
                    );
                    if !dense {
                        for &k in members {
                            out.count_queries += 1;
                            let p = &pts[k as usize];
                            let kct = grid.count_ball_from(*cell, p, params.eps, params.eps);
                            out.vincnts.push((ids[k as usize], kct as u32));
                            if kct >= min_pts {
                                out.promotions.push(ids[k as usize]);
                            }
                        }
                    }
                    out
                })
        };
        let mut promotions: Vec<PointId> = Vec::new();
        for out in outcomes {
            self.stats.count_queries += out.count_queries;
            for (id, k) in out.vincnts {
                self.points.get_mut(id).vincnt = k;
            }
            promotions.extend(out.promotions);
        }

        // Phase 3 (parallel): vicinity counts of pre-existing non-core
        // points. Each eps-close touched cell is one task: its SoA block
        // is swept against the arena-backed bucket of batch points that
        // can reach it.
        let buckets = crate::batch::neighbor_buckets(
            &self.grid,
            &groups,
            |k| pts[k as usize],
            NeighborScope::Eps,
            |c| c.count() < min_pts, // dense: all residents already core
        );
        let eps_sq = self.params.eps_sq();
        let bumped_lists = {
            let (grid, points, buckets) = (&self.grid, &self.points, &buckets);
            self.pipeline
                .run(crate::batch::FlushPhase::Scan, buckets.len(), |bi| {
                    let cell_obj = grid.cell(buckets.cell(bi));
                    let mut bumped: Vec<(PointId, u32)> = Vec::new();
                    for (qp, &q) in cell_obj.all.points().iter().zip(cell_obj.all.items()) {
                        if q >= batch_start || points.is_core(q) {
                            continue; // batch points handled in phase 2
                        }
                        let delta = buckets.count_within_sq(bi, qp, eps_sq);
                        if delta > 0 {
                            bumped.push((q, delta as u32));
                        }
                    }
                    bumped
                })
        };
        self.pipeline.note_cell_scans(buckets.len());
        for (q, delta) in bumped_lists.into_iter().flatten() {
            let rec = self.points.get_mut(q);
            rec.vincnt += delta;
            if rec.vincnt as usize >= min_pts {
                promotions.push(q);
            }
        }

        // Phase 4: flush all promotions (GUM + union-find) in one pass —
        // each cell's core block is extended in one shot, the read-only
        // emptiness probes of the per-cell GUM rounds run on the pool,
        // and the edge/union mutations are applied in task order.
        self.flush_promotions(&promotions);
        ids
    }

    /// Flushes a block of promotions: the shared preamble
    /// ([`crate::batch::extend_core_blocks`]) registers every point
    /// cell-at-a-time, then this engine's GUM hook probes each block's
    /// candidate cells — the probes (pure reads of the grid and the
    /// pre-flush edge set) run on the pool, one task per promoted cell,
    /// and the resulting edges are applied sequentially in task order.
    /// Same final grid graph as per-point
    /// [`on_became_core`](Self::on_became_core) at `rho = 0`,
    /// bit-identical at every thread count.
    fn flush_promotions(&mut self, promotions: &[PointId]) {
        if promotions.is_empty() {
            return;
        }
        let blocks =
            crate::batch::extend_core_blocks(&mut self.grid, &mut self.points, promotions, false);
        self.stats.promotions += promotions.len() as u64;
        // A grown core block changes emptiness answers for every
        // eps-close cell's non-core residents: dirty the whole scope.
        for b in &blocks {
            crate::snapshot::mark_eps_scope(&mut self.snap, &self.grid, b.cell);
        }
        // Candidate eps-close core cells per block. Computed after every
        // extension, so two cells promoted in one flush see each other —
        // their pair is probed from both sides and deduped on apply.
        let candidates: Vec<Vec<CellId>> = blocks
            .iter()
            .map(|b| {
                let mut cs = Vec::new();
                self.grid
                    .visit_neighbor_cells(b.cell, NeighborScope::Eps, |c, cell_obj| {
                        if c != b.cell && cell_obj.is_core_cell() {
                            cs.push(c);
                        }
                    });
                cs
            })
            .collect();
        let outcomes = {
            let (grid, edges) = (&self.grid, &self.edges);
            let (blocks, candidates) = (&blocks, &candidates);
            self.pipeline
                .run(crate::batch::FlushPhase::Gum, blocks.len(), |bi| {
                    let b = &blocks[bi];
                    let mut found: Vec<(CellId, CellId)> = Vec::new();
                    let mut probes = 0u64;
                    for &c in &candidates[bi] {
                        let key = crate::batch::norm_pair(b.cell, c);
                        if edges.contains(&key) {
                            continue; // connected before this flush
                        }
                        for &(qp, _) in &b.entries {
                            probes += 1;
                            if grid.emptiness(&qp, c).is_some() {
                                found.push(key);
                                break;
                            }
                        }
                    }
                    (found, probes)
                })
        };
        for (found, probes) in outcomes {
            self.stats.emptiness_probes += probes;
            for key in found {
                if self.edges.insert(key) {
                    self.uf.ensure(key.0.max(key.1));
                    self.uf.union(key.0, key.1);
                    if let Some(log) = self.edge_log.as_mut() {
                        log.push(key);
                    }
                }
            }
        }
    }

    /// Registers a point as core and lets GUM update the grid graph.
    /// (The per-point path uses an incremental core insert, keeping the
    /// cell's deferred tail empty; the batch flush extends the core block
    /// wholesale instead.)
    fn on_became_core(&mut self, q: PointId) {
        debug_assert!(!self.points.is_core(q));
        self.stats.promotions += 1;
        self.points.set_core(q, true);
        let (qp, cell) = {
            let r = self.points.get(q);
            (*self.grid.cell(r.cell).all.point(r.slot), r.cell)
        };
        let core_slot = self.grid.cell_mut(cell).core.insert(qp, q);
        self.points.get_mut(q).core_slot = core_slot;
        // Core-block growth dirties the whole eps scope (see
        // `flush_promotions`).
        crate::snapshot::mark_eps_scope(&mut self.snap, &self.grid, cell);
        self.gum_probes(cell, std::iter::once(qp));
    }

    /// GUM: for each newly core point `qp` of `cell`, probe every
    /// eps-close core cell lacking an edge to `cell`; a proof point
    /// creates the edge and unions the components.
    fn gum_probes(&mut self, cell: CellId, new_cores: impl Iterator<Item = Point<D>>) {
        let mut candidates = std::mem::take(&mut self.cell_scratch);
        candidates.clear();
        self.grid
            .visit_neighbor_cells(cell, NeighborScope::Eps, |c, cell_obj| {
                if c != cell && cell_obj.is_core_cell() {
                    candidates.push(c);
                }
            });
        for qp in new_cores {
            for &c in &candidates {
                let key = crate::batch::norm_pair(cell, c);
                if self.edges.contains(&key) {
                    continue;
                }
                self.stats.emptiness_probes += 1;
                if self.grid.emptiness(&qp, c).is_some() {
                    self.edges.insert(key);
                    self.uf.ensure(cell.max(c));
                    self.uf.union(cell, c);
                    if let Some(log) = self.edge_log.as_mut() {
                        log.push(key);
                    }
                }
            }
        }
        candidates.clear();
        self.cell_scratch = candidates;
    }

    /// Refreshes (if dirty) and returns the current epoch snapshot: the
    /// union-find labels are exported without path compression, and only
    /// the cells updates touched get their anchors re-snapped — fanned
    /// over the persistent worker pool when enough cells are dirty. Under
    /// delta tracking, a relabeled cell's `eps`-scope residents are the
    /// points that may anchor to it.
    fn refresh(&self) -> Arc<ClusterSnapshot> {
        // Field borrows (not `&self`) so the closure's captures are the
        // plain-data structures the workers actually read.
        let grid = &self.grid;
        let points = &self.points;
        self.snap.read_with(
            self.points.capacity_ids(),
            || self.uf.export_labels(),
            |cell, emit| {
                let cell_obj = grid.cell(cell);
                for (slot, &pid) in cell_obj.all.items().iter().enumerate() {
                    if points.is_core(pid) {
                        emit(pid, true, Anchors::One(cell));
                    } else {
                        let qp = cell_obj.all.point(slot as u32);
                        emit(pid, false, crate::query::non_core_anchors(grid, cell, qp));
                    }
                }
            },
            |cells, emit| crate::snapshot::eps_scope_residents(grid, cells, emit),
            Some(&self.pipeline),
        )
    }

    /// The current epoch snapshot — `Arc`-share it with reader threads
    /// and keep inserting; their answers stay frozen at this epoch.
    pub fn snapshot(&self) -> Arc<ClusterSnapshot> {
        self.refresh()
    }

    /// Answers a C-group-by query over `q` in `O~(|Q|)` time (plus a
    /// dirty-amortized snapshot refresh if updates preceded it). Panics
    /// on dead ids; see [`try_group_by`](Self::try_group_by).
    pub fn group_by(&self, q: &[PointId]) -> GroupBy {
        self.refresh().group_by(q)
    }

    /// Fallible [`group_by`](Self::group_by): dead/unknown ids return
    /// [`QueryError::DeadPoint`] naming the id instead of panicking.
    pub fn try_group_by(&self, q: &[PointId]) -> Result<GroupBy, QueryError> {
        self.refresh().try_group_by(q)
    }

    /// The full clustering (`Q = P`), fanned across the persistent
    /// worker pool in id-range chunks — bit-identical to the sequential
    /// scan at every thread count.
    pub fn group_all(&self) -> Clustering {
        let snap = self.refresh();
        crate::snapshot::group_all_pooled(&snap, &self.snap, &self.pipeline)
    }

    /// The pre-snapshot query walk (union-find `CC-Id` lookups, with
    /// path compression): the differential-testing oracle the snapshot
    /// path is checked against.
    #[doc(hidden)]
    pub fn direct_group_by(&mut self, q: &[PointId]) -> GroupBy {
        let uf = &mut self.uf;
        c_group_by(q, &self.points, &self.grid, |cell| uf.find(cell) as u64)
    }

    /// `Q = P` through [`direct_group_by`](Self::direct_group_by).
    #[doc(hidden)]
    pub fn direct_group_all(&mut self) -> Clustering {
        let ids: Vec<PointId> = self.points.iter_alive().map(|(i, _)| i).collect();
        self.direct_group_by(&ids)
    }

    /// Ids of all alive points (insertion order).
    pub fn alive_ids(&self) -> Vec<PointId> {
        self.points.iter_alive().map(|(i, _)| i).collect()
    }

    /// Number of core points currently stored.
    pub fn num_core_points(&self) -> usize {
        self.points
            .iter_alive()
            .filter(|&(i, _)| self.points.is_core(i))
            .count()
    }

    /// Number of (preliminary) clusters: connected components of the grid
    /// graph over core cells. `O(#cells)` — a monitoring helper, not part
    /// of the paper's query interface. Reads union-find roots without
    /// path compression, so it shares the read path's `&self` contract.
    pub fn num_clusters(&self) -> usize {
        let mut roots = FxHashSet::default();
        for c in 0..self.grid.num_cells() as CellId {
            if self.grid.cell(c).is_core_cell() {
                roots.insert(self.uf.root_of(c));
            }
        }
        roots.len()
    }
}

impl<const D: usize> DynamicClusterer<D> for SemiDynDbscan<D> {
    fn params(&self) -> &Params {
        SemiDynDbscan::params(self)
    }

    fn len(&self) -> usize {
        SemiDynDbscan::len(self)
    }

    fn supports_deletion(&self) -> bool {
        false
    }

    fn insert(&mut self, p: Point<D>) -> PointId {
        SemiDynDbscan::insert(self, p)
    }

    fn delete(&mut self, _id: PointId) {
        panic!("SemiDynDbscan is insertion-only (Theorem 1); use FullDynDbscan for deletions")
    }

    fn is_core(&self, id: PointId) -> bool {
        SemiDynDbscan::is_core(self, id)
    }

    fn coords(&self, id: PointId) -> Point<D> {
        SemiDynDbscan::coords(self, id)
    }

    fn alive_ids(&self) -> Vec<PointId> {
        SemiDynDbscan::alive_ids(self)
    }

    fn snapshot(&self) -> Arc<ClusterSnapshot> {
        SemiDynDbscan::snapshot(self)
    }

    fn epoch_handle(&self) -> EpochHandle {
        self.snap.epoch_handle()
    }

    fn set_track_deltas(&mut self, on: bool) {
        self.snap.set_track_deltas(on);
    }

    fn group_by(&self, q: &[PointId]) -> GroupBy {
        SemiDynDbscan::group_by(self, q)
    }

    fn try_group_by(&self, q: &[PointId]) -> Result<GroupBy, QueryError> {
        SemiDynDbscan::try_group_by(self, q)
    }

    fn group_all(&self) -> Clustering {
        SemiDynDbscan::group_all(self)
    }

    fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        SemiDynDbscan::insert_batch(self, pts)
    }

    fn stats(&self) -> ClustererStats {
        ClustererStats {
            range_queries: self.stats.count_queries + self.stats.emptiness_probes,
            promotions: self.stats.promotions,
            edge_inserts: self.edges.len() as u64,
            ..ClustererStats::default()
        }
        .with_flush(self.pipeline.stats())
        .with_snapshot(&self.snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_dbscan::{brute_force_exact, static_cluster};
    use crate::verify::{check_sandwich, relabel};
    use dydbscan_geom::SplitMix64;

    fn insert_all<const D: usize>(algo: &mut SemiDynDbscan<D>, pts: &[Point<D>]) -> Vec<PointId> {
        pts.iter().map(|p| algo.insert(*p)).collect()
    }

    #[test]
    fn paper_example_incremental_equals_static() {
        let (pts, params) = crate::static_dbscan::tests::paper_example();
        let mut algo = SemiDynDbscan::<2>::new(params);
        let ids = insert_all(&mut algo, &pts);
        let got = algo.group_all();
        let want = relabel(&brute_force_exact(&pts, &params), &ids);
        assert_eq!(got, want);
    }

    #[test]
    fn exact_matches_bruteforce_random_orders() {
        for seed in 0..5u64 {
            let mut rng = SplitMix64::new(seed + 400);
            let n = 220;
            let mut pts: Vec<Point<2>> = (0..n)
                .map(|_| [rng.next_f64() * 15.0, rng.next_f64() * 15.0])
                .collect();
            rng.shuffle(&mut pts);
            let params = Params::new(1.2, 4); // rho = 0: exact
            let mut algo = SemiDynDbscan::<2>::new(params);
            let ids = insert_all(&mut algo, &pts);
            let got = algo.group_all();
            let want = relabel(&brute_force_exact(&pts, &params), &ids);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn exact_matches_after_every_prefix() {
        let mut rng = SplitMix64::new(900);
        let pts: Vec<Point<2>> = (0..120)
            .map(|_| [rng.next_f64() * 8.0, rng.next_f64() * 8.0])
            .collect();
        let params = Params::new(1.0, 3);
        let mut algo = SemiDynDbscan::<2>::new(params);
        let mut ids = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            ids.push(algo.insert(*p));
            if i % 10 == 9 {
                let got = algo.group_all();
                let want = relabel(&brute_force_exact(&pts[..=i], &params), &ids);
                assert_eq!(got, want, "prefix {}", i + 1);
            }
        }
    }

    #[test]
    fn approximate_satisfies_sandwich() {
        for seed in 0..4u64 {
            let mut rng = SplitMix64::new(seed * 3 + 71);
            let pts: Vec<Point<2>> = (0..250)
                .map(|_| [rng.next_f64() * 12.0, rng.next_f64() * 12.0])
                .collect();
            let rho = 0.3; // aggressive rho to actually exercise don't-care
            let params = Params::new(1.0, 3).with_rho(rho);
            let mut algo = SemiDynDbscan::<2>::new(params);
            let ids = insert_all(&mut algo, &pts);
            let got = algo.group_all();
            let c1 = relabel(&brute_force_exact(&pts, &Params::new(1.0, 3)), &ids);
            let c2 = relabel(
                &brute_force_exact(&pts, &Params::new(1.0 * (1.0 + rho), 3)),
                &ids,
            );
            check_sandwich(&c1, &got, &c2).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }

    #[test]
    fn three_d_exact_matches() {
        let mut rng = SplitMix64::new(5150);
        let pts: Vec<Point<3>> = (0..180)
            .map(|_| std::array::from_fn(|_| rng.next_f64() * 8.0))
            .collect();
        let params = Params::new(1.4, 4);
        let mut algo = SemiDynDbscan::<3>::new(params);
        let ids = insert_all(&mut algo, &pts);
        let got = algo.group_all();
        let want = relabel(&brute_force_exact(&pts, &params), &ids);
        assert_eq!(got, want);
    }

    #[test]
    fn group_by_is_consistent_with_group_all() {
        let mut rng = SplitMix64::new(31);
        let pts: Vec<Point<2>> = (0..150)
            .map(|_| [rng.next_f64() * 10.0, rng.next_f64() * 10.0])
            .collect();
        let params = Params::new(1.0, 3).with_rho(0.001);
        let mut algo = SemiDynDbscan::<2>::new(params);
        let ids = insert_all(&mut algo, &pts);
        let all = algo.group_all();
        for take in [2usize, 5, 17] {
            let q: Vec<PointId> = ids.iter().copied().step_by(take).collect();
            let got = algo.group_by(&q);
            assert_eq!(got, all.restrict(&q), "subset stride {take}");
        }
    }

    #[test]
    fn agrees_with_static_approx_pipeline() {
        // Same don't-care resolution isn't guaranteed, but both must
        // sandwich between the exact clusterings; additionally at rho=0
        // they must agree exactly.
        let mut rng = SplitMix64::new(123);
        let pts: Vec<Point<2>> = (0..200)
            .map(|_| [rng.next_f64() * 9.0, rng.next_f64() * 9.0])
            .collect();
        let params = Params::new(0.8, 3);
        let mut algo = SemiDynDbscan::<2>::new(params);
        let ids = insert_all(&mut algo, &pts);
        assert_eq!(
            algo.group_all(),
            relabel(&static_cluster(&pts, &params), &ids)
        );
    }

    #[test]
    fn single_point_is_noise_unless_minpts_one() {
        let mut algo = SemiDynDbscan::<2>::new(Params::new(1.0, 2));
        let id = algo.insert([5.0, 5.0]);
        let g = algo.group_by(&[id]);
        assert!(g.is_noise(id));
        let mut algo1 = SemiDynDbscan::<2>::new(Params::new(1.0, 1));
        let id1 = algo1.insert([5.0, 5.0]);
        let g1 = algo1.group_by(&[id1]);
        assert_eq!(g1.groups, vec![vec![id1]]);
    }

    #[test]
    fn duplicate_points_and_dense_cell_promotion() {
        let mut algo = SemiDynDbscan::<2>::new(Params::new(1.0, 4));
        let ids: Vec<PointId> = (0..4).map(|_| algo.insert([2.0, 2.0])).collect();
        // fourth insertion makes the cell dense: all four become core
        for &i in &ids {
            assert!(algo.is_core(i), "point {i} must be core in dense cell");
        }
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 1);
        assert_eq!(g.groups[0].len(), 4);
    }

    #[test]
    fn num_clusters_tracks_group_all() {
        let mut rng = SplitMix64::new(64);
        let params = Params::new(1.0, 3);
        let mut algo = SemiDynDbscan::<2>::new(params);
        for _ in 0..200 {
            algo.insert([rng.next_f64() * 12.0, rng.next_f64() * 12.0]);
        }
        let g = algo.group_all();
        assert_eq!(algo.num_clusters(), g.num_groups());
        assert!(algo.num_core_points() <= algo.len());
    }

    #[test]
    fn seven_d_smoke() {
        let mut rng = SplitMix64::new(8);
        let pts: Vec<Point<7>> = (0..80)
            .map(|_| std::array::from_fn(|_| rng.next_f64() * 4.0))
            .collect();
        let params = Params::new(2.0, 3).with_rho(0.001);
        let mut algo = SemiDynDbscan::<7>::new(params);
        let ids = insert_all(&mut algo, &pts);
        let got = algo.group_all();
        let c1 = relabel(&brute_force_exact(&pts, &Params::new(2.0, 3)), &ids);
        let c2 = relabel(&brute_force_exact(&pts, &Params::new(2.002, 3)), &ids);
        check_sandwich(&c1, &got, &c2).unwrap();
    }
}
