//! Fully-dynamic ρ-double-approximate DBSCAN — Theorem 4.
//!
//! This is the algorithm of Section 7, instantiating the grid-graph
//! framework of Section 4 with:
//!
//! * **Core-status structure** (Section 7.3): core status under the
//!   *relaxed* core definition of Section 6.2, decided by a ρ-approximate
//!   range count `k` (`core iff k >= MinPts`). An update re-checks the
//!   points of nearby *sparse* cells — within `(1+rho)*eps` rather than the
//!   paper's `eps` (see DESIGN.md deviation 2; the larger radius restores
//!   the invariant *stored-core(p) ⟹ |B(p,(1+ρ)ε)| ≥ MinPts* under
//!   adversarial shell deletions). Dense cells short-circuit: all of their
//!   points are definitely core.
//! * **GUM** (Section 7.4): one [`crate::abcp`] instance per pair of
//!   `eps`-close core cells maintains a witness pair; its appearance /
//!   disappearance drives `EdgeInsert` / `EdgeRemove`.
//! * **CC structure**: any [`DynConnectivity`] — by default the
//!   Holm–de Lichtenberg–Thorup structure
//!   ([`dydbscan_conn::HdtConnectivity`]), giving `O~(1)` amortized
//!   updates; the naive oracle can be plugged in for differential testing
//!   and ablation.
//!
//! `rho = 0` yields fully-dynamic **exact** DBSCAN (the paper's
//! *2d-Full-Exact* when `D = 2`).

use crate::abcp::{self, AbcpId, AbcpInstance, EdgeChange};
use crate::api::{ClustererStats, DynamicClusterer};
use crate::groups::{Clustering, GroupBy};
use crate::params::Params;
use crate::points::{PointArena, PointId};
use crate::query::c_group_by;
use crate::shard::{ShardEngine, ShardTaps};
use crate::snapshot::{Anchors, ClusterSnapshot, EpochHandle, SnapshotState};
use dydbscan_conn::{DynConnectivity, HdtConnectivity};
use dydbscan_geom::{dist_sq, FxHashMap, FxHashSet, Point};
use dydbscan_grid::{CellId, GridIndex, NeighborScope};
use std::sync::Arc;

/// Fully-dynamic ρ-double-approximate DBSCAN (exact when `rho = 0`).
///
/// Generic over the CC structure; the default is the paper's choice (HDT).
///
/// # Example
///
/// ```
/// use dydbscan_core::{DynamicClusterer, FullDynDbscan, Params};
///
/// let mut c = FullDynDbscan::<2>::new(Params::new(1.0, 3).with_rho(0.001));
/// let a = c.insert([0.0, 0.0]);
/// let b = c.insert([0.5, 0.0]);
/// let d = c.insert([0.0, 0.5]);
/// assert!(c.is_core(a));
/// let g = c.group_by(&[a, b, d]);
/// assert_eq!(g.num_groups(), 1);
/// c.delete(b); // drops below MinPts: the cluster dissolves
/// let g = c.group_by(&[a, d]);
/// assert!(g.is_noise(a) && g.is_noise(d));
/// ```
#[derive(Debug)]
pub struct FullDynDbscan<const D: usize, C: DynConnectivity = HdtConnectivity> {
    params: Params,
    grid: GridIndex<D>,
    points: PointArena,
    conn: C,
    instances: Vec<AbcpInstance>,
    free_instances: Vec<AbcpId>,
    instance_ids: FxHashMap<(CellId, CellId), AbcpId>,
    /// Instances touching each cell.
    cell_instances: Vec<Vec<AbcpId>>,
    /// When present, every grid-graph edge insert (`true`) / delete
    /// (`false`) forwarded to the CC structure is also appended here.
    /// Opt-in: the shard wrapper drains it after each flush to stitch
    /// cross-shard components, without this engine knowing it is a shard.
    edge_log: Option<Vec<(CellId, CellId, bool)>>,
    /// The batch flush pipeline: thread budget, persistent worker pool,
    /// shared flush counters.
    pipeline: crate::batch::FlushPipeline,
    /// The epoch-snapshot state behind the `&self` read path: updates
    /// mark the cells they touch dirty; queries refresh amortized over
    /// those cells only.
    snap: SnapshotState,
    /// Operation counters (`range_queries` = approximate range counts);
    /// the flush and snapshot counters are filled in by `stats()`.
    stats: ClustererStats,
}

impl<const D: usize> FullDynDbscan<D, HdtConnectivity> {
    /// Creates an empty clusterer with the default (HDT) CC structure.
    pub fn new(params: Params) -> Self {
        Self::with_connectivity(params, HdtConnectivity::new())
    }
}

impl<const D: usize, C: DynConnectivity> FullDynDbscan<D, C> {
    /// Creates an empty clusterer over a caller-supplied CC structure.
    pub fn with_connectivity(params: Params, conn: C) -> Self {
        params.validate();
        Self {
            grid: GridIndex::new(params.eps, params.rho),
            params,
            points: PointArena::new(),
            conn,
            instances: Vec::new(),
            free_instances: Vec::new(),
            instance_ids: FxHashMap::default(),
            cell_instances: Vec::new(),
            edge_log: None,
            pipeline: crate::batch::FlushPipeline::new(),
            snap: SnapshotState::new(),
            stats: ClustererStats::default(),
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

    /// Whether the persistent flush crew is currently spawned (it is
    /// lazily spawned by the first flush phase that goes parallel and
    /// parked between flushes).
    pub fn pool_spawned(&self) -> bool {
        self.pipeline.pool_spawned()
    }

    /// Whether `id` is alive.
    pub fn is_alive(&self, id: PointId) -> bool {
        self.points.is_alive(id)
    }

    /// Number of live aBCP instances (= candidate grid-graph edges).
    pub fn num_instances(&self) -> usize {
        self.instances.len() - self.free_instances.len()
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
    /// of the paper's query interface. Reads labels through the
    /// non-mutating export, so it shares the read path's `&self`
    /// contract.
    pub fn num_clusters(&self) -> usize {
        let labels = self.conn.export_labels();
        let mut roots: FxHashMap<u64, ()> = FxHashMap::default();
        for c in 0..self.grid.num_cells() as CellId {
            if self.grid.cell(c).is_core_cell() {
                // Core cells are always in V (ensured on joining), so the
                // export covers them.
                roots.insert(labels[c as usize], ());
            }
        }
        roots.len()
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Flushes a block of promotions: the shared preamble
    /// ([`crate::batch::extend_core_blocks`]) extends each cell's core
    /// block in one shot, then this engine's GUM hook updates the aBCP
    /// instances **once per instance** for the whole flush instead of
    /// once per point. The read-only halves of those rounds — the
    /// de-listing loops of pre-existing instances and the initial
    /// witness searches of cells that just joined `V` (Lemma 3) — run on
    /// the pool; instance state, edge churn and connectivity mutations
    /// are applied sequentially in task order, so the outcome is
    /// bit-identical at every thread count and matches per-point
    /// [`on_became_core`](Self::on_became_core) at `rho = 0`.
    fn flush_promotions(&mut self, promotions: &[PointId]) {
        if promotions.is_empty() {
            return;
        }
        let blocks =
            crate::batch::extend_core_blocks(&mut self.grid, &mut self.points, promotions, true);
        self.stats.promotions += promotions.len() as u64;
        // A grown core block changes emptiness answers for every
        // eps-close cell's non-core residents: dirty the whole scope.
        for b in &blocks {
            crate::snapshot::mark_eps_scope(&mut self.snap, &self.grid, b.cell);
        }

        // One de-listing round per pre-existing instance of the cells
        // that were already core (deduped: an instance whose both sides
        // gained cores needs a single round). Rounds on distinct
        // instances are independent, so each task runs on a clone and
        // the results are written back in task order.
        let mut round_iids: Vec<AbcpId> = Vec::new();
        {
            let mut seen: FxHashSet<AbcpId> = FxHashSet::default();
            for b in &blocks {
                if !b.was_core_cell {
                    continue;
                }
                for &iid in &self.cell_instances[b.cell as usize] {
                    if seen.insert(iid) {
                        round_iids.push(iid);
                    }
                }
            }
        }
        let outcomes = {
            let (grid, points, instances) = (&self.grid, &self.points, &self.instances);
            let round_iids = &round_iids;
            self.pipeline
                .run(crate::batch::FlushPhase::Gum, round_iids.len(), |ti| {
                    let coords = |pid: PointId| {
                        let r = points.get(pid);
                        *grid.cell(r.cell).all.point(r.slot)
                    };
                    let mut inst = instances[round_iids[ti] as usize].clone();
                    let change = abcp::insert_core(&mut inst, grid, &coords);
                    (inst, change)
                })
        };
        for (ti, (inst, change)) in outcomes.into_iter().enumerate() {
            let (c1, c2) = (inst.c1, inst.c2);
            self.instances[round_iids[ti] as usize] = inst;
            match change {
                EdgeChange::Inserted => {
                    self.stats.edge_inserts += 1;
                    self.conn.insert_edge(c1, c2);
                    if let Some(log) = self.edge_log.as_mut() {
                        log.push((c1, c2, true));
                    }
                }
                EdgeChange::Removed => unreachable!("insertion cannot remove a witness"),
                EdgeChange::None => {}
            }
        }

        // Cells that just joined V: one new instance per eps-close core
        // cell (Lemma 3 initial witness search, covering everything in
        // both — already fully extended — core blocks). Every extension
        // happened above, so two cells joining V in one flush see each
        // other from both sides; the pair list is deduped before the
        // searches fan out.
        for b in &blocks {
            if !b.was_core_cell {
                self.conn.ensure_vertex(b.cell);
            }
        }
        let mut pairs: Vec<(CellId, CellId)> = Vec::new();
        {
            let mut seen: FxHashSet<(CellId, CellId)> = FxHashSet::default();
            for b in &blocks {
                if b.was_core_cell {
                    continue;
                }
                let instance_ids = &self.instance_ids;
                self.grid
                    .visit_neighbor_cells(b.cell, NeighborScope::Eps, |c, cell_obj| {
                        if c != b.cell && cell_obj.is_core_cell() {
                            let key = crate::batch::norm_pair(b.cell, c);
                            if !instance_ids.contains_key(&key) && seen.insert(key) {
                                pairs.push(key);
                            }
                        }
                    });
            }
        }
        let created = {
            let (grid, pairs) = (&self.grid, &pairs);
            self.pipeline
                .run(crate::batch::FlushPhase::Gum, pairs.len(), |ti| {
                    abcp::create(grid, pairs[ti].0, pairs[ti].1)
                })
        };
        for inst in created {
            self.register_instance(inst);
        }
    }

    /// Pulls `id` out of the grid's `all` block (patching the slots the
    /// swap-remove relocated) without touching GUM or the arena's alive
    /// flag. Returns the cell the point lived in and its coordinates.
    fn detach_from_grid(&mut self, id: PointId) -> (CellId, Point<D>) {
        assert!(
            self.points.is_alive(id),
            "delete of unknown or already-deleted point id {id}"
        );
        let (cell, slot) = {
            let r = self.points.get(id);
            (r.cell, r.slot)
        };
        let p = *self.grid.cell(cell).all.point(slot);
        for (moved, new_slot) in self.grid.remove_point_at(cell, slot).iter() {
            self.points.get_mut(moved).slot = new_slot;
        }
        self.snap.mark(cell);
        (cell, p)
    }

    /// The removal prologue of the per-op `delete`: pulls `id` out of
    /// the grid, runs GUM if it was core, and kills the arena record.
    /// The grid is updated first so all subsequent counts see `P \ {p}`.
    /// Returns the cell the point lived in and its coordinates.
    fn remove_from_grid(&mut self, id: PointId) -> (CellId, Point<D>) {
        let (cell, p) = self.detach_from_grid(id);
        if self.points.is_core(id) {
            self.on_lost_core(id, p);
        }
        self.points.kill(id);
        self.snap.mark_dead(id);
        (cell, p)
    }

    /// Unregisters a block of core points (departing or demoted) from
    /// GUM: every removal is pulled out of its core block and log first
    /// (phase A, cell-ascending), cells that left `V` drop their
    /// instances (phase B), then each surviving touched aBCP instance
    /// gets one witness re-anchoring round
    /// ([`abcp::delete_cores_both`]) on the worker pool (phase C) — the
    /// delete-side mirror of the insert flush. Because phase A finishes
    /// before any round runs, every round sees the final core sets,
    /// making rounds on distinct instances independent: instances are
    /// *colored by cell pair* (one task per instance, covering both
    /// sides' removal blocks) and the results are written back in task
    /// order — bit-identical at every thread count. Each id's arena
    /// record must still hold its core-block
    /// location (`cell`/`core_slot`/`log_pos`); the record may be alive
    /// (a demoted survivor) or freshly killed (a departing batch point —
    /// location fields survive the kill).
    fn flush_core_removals(&mut self, removals: &[PointId]) {
        if removals.is_empty() {
            return;
        }
        let cells_of: Vec<CellId> = removals.iter().map(|&q| self.points.get(q).cell).collect();
        let groups = crate::batch::group_by_cell(&cells_of);

        // Phase A (sequential, cell-ascending): remove every departing
        // point from its core block and log.
        let mut removed_by_group: Vec<(CellId, Vec<PointId>)> = Vec::with_capacity(groups.len());
        for (cell, members) in &groups {
            // A shrunken core block changes emptiness answers for
            // every eps-close cell's non-core residents.
            crate::snapshot::mark_eps_scope(&mut self.snap, &self.grid, *cell);
            let removed: Vec<PointId> = members.iter().map(|&k| removals[k as usize]).collect();
            for &q in &removed {
                // Departing points are already killed (which clears the
                // core flag); demoted survivors are still flagged core.
                debug_assert!(!self.points.is_alive(q) || self.points.is_core(q));
                self.stats.demotions += 1;
                self.points.set_core(q, false);
                let (core_slot, log_pos) = {
                    let r = self.points.get(q);
                    (r.core_slot, r.log_pos)
                };
                let cell_obj = self.grid.cell_mut(*cell);
                debug_assert_eq!(cell_obj.core.item(core_slot), q);
                let moves = cell_obj.core.swap_remove(core_slot);
                for (moved, new_slot) in moves.iter() {
                    self.points.get_mut(moved).core_slot = new_slot;
                }
                self.grid.cell_mut(*cell).core_log.kill(log_pos);
            }
            removed_by_group.push((*cell, removed));
        }

        // Phase B (sequential): cells that left V drop every instance.
        for &(cell, _) in &removed_by_group {
            if !self.grid.cell(cell).is_core_cell() {
                self.destroy_cell_instances(cell);
            }
        }

        // Phase C: color the surviving touched instances by cell pair —
        // one task per instance, carrying the removal block of each of
        // its touched sides. An instance whose both cells lost cores
        // must learn about both blocks in one merged round
        // ([`abcp::delete_cores_both`]): re-anchoring on a witness half
        // the other side just evicted would resolve coordinates of a
        // point that is no longer in any core block.
        let mut tasks: Vec<(AbcpId, [Option<usize>; 2])> = Vec::new();
        {
            let mut task_of: FxHashMap<AbcpId, usize> = FxHashMap::default();
            for (gi, &(cell, _)) in removed_by_group.iter().enumerate() {
                if !self.grid.cell(cell).is_core_cell() {
                    continue;
                }
                for &iid in &self.cell_instances[cell as usize] {
                    let ti = *task_of.entry(iid).or_insert_with(|| {
                        tasks.push((iid, [None, None]));
                        tasks.len() - 1
                    });
                    let side = usize::from(self.instances[iid as usize].c2 == cell);
                    tasks[ti].1[side] = Some(gi);
                }
            }
        }
        let outcomes = {
            let (grid, points, instances) = (&self.grid, &self.points, &self.instances);
            let (tasks, removed_by_group) = (&tasks, &removed_by_group);
            self.pipeline
                .run(crate::batch::FlushPhase::Gum, tasks.len(), |ti| {
                    // Coordinates are read from core blocks: phase A
                    // already evicted every removal, so the closure only
                    // ever resolves survivors.
                    let coords = |pid: PointId| {
                        let r = points.get(pid);
                        *grid.cell(r.cell).core.point(r.core_slot)
                    };
                    let (iid, sides) = tasks[ti];
                    let removed_of = |s: Option<usize>| match s {
                        Some(gi) => removed_by_group[gi].1.as_slice(),
                        None => &[],
                    };
                    let mut inst = instances[iid as usize].clone();
                    let change = abcp::delete_cores_both(
                        &mut inst,
                        grid,
                        removed_of(sides[0]),
                        removed_of(sides[1]),
                        &coords,
                    );
                    (inst, change)
                })
        };
        for (ti, (inst, change)) in outcomes.into_iter().enumerate() {
            let (c1, c2) = (inst.c1, inst.c2);
            self.instances[tasks[ti].0 as usize] = inst;
            match change {
                EdgeChange::Removed => {
                    self.stats.edge_removes += 1;
                    self.conn.delete_edge(c1, c2);
                    if let Some(log) = self.edge_log.as_mut() {
                        log.push((c1, c2, false));
                    }
                }
                EdgeChange::Inserted => unreachable!("deletion cannot create a witness"),
                EdgeChange::None => {}
            }
        }
    }

    /// Registers `q` as a core point and runs GUM (Section 7.4).
    fn on_became_core(&mut self, q: PointId) {
        debug_assert!(!self.points.is_core(q));
        self.stats.promotions += 1;
        self.points.set_core(q, true);
        let (qp, cell) = {
            let r = self.points.get(q);
            (*self.grid.cell(r.cell).all.point(r.slot), r.cell)
        };
        let cell_obj = self.grid.cell_mut(cell);
        let was_core_cell = cell_obj.is_core_cell();
        let core_slot = cell_obj.core.insert(qp, q);
        let log_pos = cell_obj.core_log.push(q);
        {
            let rec = self.points.get_mut(q);
            rec.core_slot = core_slot;
            rec.log_pos = log_pos;
        }
        // Core-block growth dirties the whole eps scope (see
        // `flush_promotions`).
        crate::snapshot::mark_eps_scope(&mut self.snap, &self.grid, cell);

        if !was_core_cell {
            self.gum_cell_joins_v(cell);
        } else {
            self.abcp_insert_round(cell);
        }
    }

    /// GUM after `cell` gained its first core point(s): start an aBCP
    /// instance with every eps-close core cell (Lemma 3 initial witness
    /// search, covering everything currently in `cell`'s core block).
    fn gum_cell_joins_v(&mut self, cell: CellId) {
        self.conn.ensure_vertex(cell);
        let mut neighbors = Vec::new();
        self.grid
            .visit_neighbor_cells(cell, NeighborScope::Eps, |c, cell_obj| {
                if c != cell && cell_obj.is_core_cell() {
                    neighbors.push(c);
                }
            });
        for c in neighbors {
            self.create_instance(cell, c);
        }
    }

    /// GUM after `cell` (already in V) gained core point(s): one
    /// de-listing round per aBCP instance of the cell, forwarding any
    /// witness appearance to the CC structure. Covers every core arrival
    /// since the instance's last round, so the batch flush calls it once
    /// per cell instead of once per point.
    fn abcp_insert_round(&mut self, cell: CellId) {
        let points = &self.points;
        let grid = &self.grid;
        let coords = |pid: PointId| {
            let r = points.get(pid);
            *grid.cell(r.cell).all.point(r.slot)
        };
        for idx in 0..self.cell_instances[cell as usize].len() {
            let iid = self.cell_instances[cell as usize][idx];
            let inst = &mut self.instances[iid as usize];
            let change = abcp::insert_core(inst, grid, &coords);
            let (c1, c2) = (inst.c1, inst.c2);
            match change {
                EdgeChange::Inserted => {
                    self.stats.edge_inserts += 1;
                    self.conn.insert_edge(c1, c2);
                    if let Some(log) = self.edge_log.as_mut() {
                        log.push((c1, c2, true));
                    }
                }
                EdgeChange::Removed => unreachable!("insertion cannot remove a witness"),
                EdgeChange::None => {}
            }
        }
    }

    /// Unregisters core point `q` (deleted or demoted) and runs GUM.
    /// `qp` are `q`'s coordinates (a deleted point is already out of the
    /// grid's SoA blocks when this runs).
    fn on_lost_core(&mut self, q: PointId, qp: Point<D>) {
        debug_assert!(self.points.is_core(q));
        self.stats.demotions += 1;
        self.points.set_core(q, false);
        let (cell, core_slot, log_pos) = {
            let r = self.points.get(q);
            (r.cell, r.core_slot, r.log_pos)
        };
        let cell_obj = self.grid.cell_mut(cell);
        debug_assert_eq!(cell_obj.core.item(core_slot), q);
        debug_assert_eq!(cell_obj.core.point(core_slot), &qp);
        let moves = cell_obj.core.swap_remove(core_slot);
        for (moved, new_slot) in moves.iter() {
            self.points.get_mut(moved).core_slot = new_slot;
        }
        self.grid.cell_mut(cell).core_log.kill(log_pos);
        // A shrunken core block changes emptiness answers across the
        // eps scope.
        crate::snapshot::mark_eps_scope(&mut self.snap, &self.grid, cell);

        if !self.grid.cell(cell).is_core_cell() {
            self.destroy_cell_instances(cell);
        } else {
            // Update every instance of the (still core) cell.
            let points = &self.points;
            let grid = &self.grid;
            let coords = |pid: PointId| {
                let r = points.get(pid);
                *grid.cell(r.cell).all.point(r.slot)
            };
            for idx in 0..self.cell_instances[cell as usize].len() {
                let iid = self.cell_instances[cell as usize][idx];
                let inst = &mut self.instances[iid as usize];
                let change = abcp::delete_core(inst, grid, cell, q, &coords);
                let (c1, c2) = (inst.c1, inst.c2);
                match change {
                    EdgeChange::Removed => {
                        self.stats.edge_removes += 1;
                        self.conn.delete_edge(c1, c2);
                        if let Some(log) = self.edge_log.as_mut() {
                            log.push((c1, c2, false));
                        }
                    }
                    EdgeChange::Inserted => unreachable!("deletion cannot create a witness"),
                    EdgeChange::None => {}
                }
            }
        }
    }

    /// Destroys every aBCP instance of a cell that left `V`, forwarding
    /// the edge removals to the CC structure.
    fn destroy_cell_instances(&mut self, cell: CellId) {
        let mine = std::mem::take(&mut self.cell_instances[cell as usize]);
        for iid in mine {
            let inst = &self.instances[iid as usize];
            let (c1, c2) = (inst.c1, inst.c2);
            if inst.has_edge() {
                self.stats.edge_removes += 1;
                self.conn.delete_edge(c1, c2);
                if let Some(log) = self.edge_log.as_mut() {
                    log.push((c1, c2, false));
                }
            }
            let other = if c1 == cell { c2 } else { c1 };
            let olist = &mut self.cell_instances[other as usize];
            let pos = olist
                .iter()
                .position(|&x| x == iid)
                .expect("instance missing from other cell");
            olist.swap_remove(pos);
            self.instance_ids.remove(&(c1, c2));
            self.free_instances.push(iid);
            self.stats.instances_destroyed += 1;
        }
    }

    /// Creates the aBCP instance for core cells `(a, b)` and forwards the
    /// edge if an initial witness exists.
    fn create_instance(&mut self, a: CellId, b: CellId) {
        let inst = abcp::create(&self.grid, a, b);
        self.register_instance(inst);
    }

    /// Registers an already-searched aBCP instance (the bookkeeping half
    /// of instance creation — the batch flush runs the initial witness
    /// searches on the pool and registers the results in task order).
    fn register_instance(&mut self, inst: AbcpInstance) {
        let key = (inst.c1, inst.c2);
        debug_assert!(
            !self.instance_ids.contains_key(&key),
            "duplicate aBCP instance for {key:?}"
        );
        let has_edge = inst.has_edge();
        let iid = match self.free_instances.pop() {
            Some(i) => {
                self.instances[i as usize] = inst;
                i
            }
            None => {
                self.instances.push(inst);
                (self.instances.len() - 1) as AbcpId
            }
        };
        self.instance_ids.insert(key, iid);
        while self.cell_instances.len() <= key.1 as usize {
            self.cell_instances.push(Vec::new());
        }
        self.cell_instances[key.0 as usize].push(iid);
        self.cell_instances[key.1 as usize].push(iid);
        self.stats.instances_created += 1;
        self.conn.ensure_vertex(key.0);
        self.conn.ensure_vertex(key.1);
        if has_edge {
            self.stats.edge_inserts += 1;
            self.conn.insert_edge(key.0, key.1);
            if let Some(log) = self.edge_log.as_mut() {
                log.push((key.0, key.1, true));
            }
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// The pre-snapshot query walk (`CC-Id` lookups through the live —
    /// mutating — connectivity structure): the differential-testing
    /// oracle the snapshot path is checked against.
    #[doc(hidden)]
    pub fn direct_group_by(&mut self, q: &[PointId]) -> GroupBy {
        let conn = &mut self.conn;
        c_group_by(q, &self.points, &self.grid, |cell| conn.component_id(cell))
    }

    /// `Q = P` through [`direct_group_by`](Self::direct_group_by).
    #[doc(hidden)]
    pub fn direct_group_all(&mut self) -> Clustering {
        let ids: Vec<PointId> = self.points.iter_alive().map(|(i, _)| i).collect();
        self.direct_group_by(&ids)
    }

    /// Validates internal cross-structure invariants (test support; cost
    /// is linear in the number of cells and instances).
    pub fn validate_invariants(&mut self) {
        let min_pts = self.params.min_pts;
        // Every alive point's core flag must be a legal double-approx
        // resolution, and core sets must mirror the flags.
        let mut alive: Vec<(PointId, Point<D>, bool)> = Vec::new();
        for (id, r) in self.points.iter_alive() {
            let p = *self.grid.cell(r.cell).all.point(r.slot);
            alive.push((id, p, self.points.is_core(id)));
        }
        let eps_sq = self.params.eps_sq();
        let hi_sq = self.params.eps_hi_sq();
        for &(id, p, is_core) in &alive {
            let lo_ct = alive
                .iter()
                .filter(|(_, q, _)| dist_sq(&p, q) <= eps_sq)
                .count();
            let hi_ct = alive
                .iter()
                .filter(|(_, q, _)| dist_sq(&p, q) <= hi_sq)
                .count();
            if lo_ct >= min_pts {
                assert!(is_core, "point {id}: definitely core but flagged non-core");
            }
            if hi_ct < min_pts {
                assert!(!is_core, "point {id}: definitely non-core but flagged core");
            }
        }
        // Every instance's witness must satisfy the aBCP contract, and the
        // edge set in the CC structure must mirror witnesses.
        for key in self.instance_ids.keys() {
            let iid = self.instance_ids[key];
            let inst = &self.instances[iid as usize];
            if let Some((w1, w2)) = inst.witness {
                let r1 = self.points.get(w1);
                let r2 = self.points.get(w2);
                let p1 = *self.grid.cell(r1.cell).all.point(r1.slot);
                let p2 = *self.grid.cell(r2.cell).all.point(r2.slot);
                assert!(self.points.is_core(w1) && self.points.is_core(w2));
                assert!(
                    dist_sq(&p1, &p2) <= hi_sq + 1e-9,
                    "witness pair too far apart"
                );
            } else {
                // no pair within eps may exist across the two cells
                let mut violation = false;
                self.grid.cell(inst.c1).core.for_each(|p1, _| {
                    self.grid.cell(inst.c2).core.for_each(|p2, _| {
                        if dist_sq(p1, p2) <= eps_sq {
                            violation = true;
                        }
                    });
                });
                assert!(
                    !violation,
                    "aBCP instance {:?} missing a mandatory witness",
                    (inst.c1, inst.c2)
                );
            }
        }
    }
}

impl<const D: usize, C: DynConnectivity> DynamicClusterer<D> for FullDynDbscan<D, C> {
    fn params(&self) -> &Params {
        &self.params
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn supports_deletion(&self) -> bool {
        true
    }

    /// Amortized `O~(1)` (Theorem 4).
    fn insert(&mut self, p: Point<D>) -> PointId {
        crate::params::validate_point(&p, 0, &self.params).unwrap_or_else(|e| panic!("{e}"));
        let id = self.points.push(0, 0);
        let (cell, slot) = self.grid.insert_point(&p, id);
        {
            let rec = self.points.get_mut(id);
            rec.cell = cell;
            rec.slot = slot;
        }
        while self.cell_instances.len() <= cell as usize {
            self.cell_instances.push(Vec::new());
        }
        self.snap.mark(cell);

        let min_pts = self.params.min_pts;
        let count = self.grid.cell(cell).count();
        let mut promotions: Vec<PointId> = Vec::new();

        // New point's own status (dense shortcut or approximate count).
        if count >= min_pts {
            promotions.push(id);
            if count == min_pts {
                // The cell just became dense: every resident is now
                // definitely core; no count queries needed.
                let points = &self.points;
                for &q in self.grid.cell(cell).all.items() {
                    if q != id && !points.is_core(q) {
                        promotions.push(q);
                    }
                }
            }
        } else {
            self.stats.range_queries += 1;
            if self.grid.count_ball_sandwich(&p) >= min_pts {
                promotions.push(id);
            }
        }

        // Re-check non-core points of (1+rho)eps-close sparse cells whose
        // ball gained the new point: one neighbor visitation over the
        // cells' SoA blocks.
        let hi_sq = self.params.eps_hi_sq();
        let mut candidates: Vec<PointId> = Vec::new();
        {
            let points = &self.points;
            self.grid
                .visit_neighbor_cells(cell, NeighborScope::Trigger, |_, c| {
                    if c.count() >= min_pts {
                        return; // dense: residents already core
                    }
                    for (qp, &q) in c.all.points().iter().zip(c.all.items()) {
                        if q != id && dist_sq(qp, &p) <= hi_sq && !points.is_core(q) {
                            candidates.push(q);
                        }
                    }
                });
        }
        for q in candidates {
            self.stats.range_queries += 1;
            let rec = self.points.get(q);
            let qp = *self.grid.cell(rec.cell).all.point(rec.slot);
            if self
                .grid
                .count_ball_from(rec.cell, &qp, self.params.eps, self.params.eps_hi())
                >= min_pts
            {
                promotions.push(q);
            }
        }

        for q in promotions {
            self.on_became_core(q);
        }
        id
    }

    /// Inserts a batch of points through the cell-major pipeline: place
    /// everything, group by target cell, recompute statuses once per
    /// touched cell, and flush all promotions (GUM + connectivity) in a
    /// single pass. The per-cell status phases run on the parallel flush
    /// pool (see `core::parallel`); results are merged in cell-id
    /// order, so the outcome is bit-identical at every thread count,
    /// identical to looped insertion at `rho = 0`, and sandwich-valid at
    /// `rho > 0`.
    fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        if pts.len() < 2 {
            return pts.iter().map(|p| self.insert(*p)).collect();
        }
        crate::params::validate_points(pts, &self.params).unwrap_or_else(|e| panic!("{e}"));
        self.pipeline.begin_flush(pts.len());
        let batch_start = self.points.capacity_ids() as PointId;
        let min_pts = self.params.min_pts;

        // Phase 1: place the whole batch cell-major (the pure
        // coordinate mapping runs on the pool; materialization and
        // grouping stay sequential; tree maintenance is deferred to
        // amortized doubling rebuilds inside `CellSet`).
        let (cell_instances, snap) = (&mut self.cell_instances, &mut self.snap);
        let (ids, groups) = crate::batch::place_batch(
            &mut self.pipeline,
            &mut self.grid,
            &mut self.points,
            pts,
            |c| {
                while cell_instances.len() <= c as usize {
                    cell_instances.push(Vec::new());
                }
                snap.mark(c);
            },
        );

        // Phase 2 (parallel): statuses of the batch's own points, one
        // task per target cell (dense cells need no count queries; see
        // `batch::promote_dense_cell`). Workers only read the grid and
        // the arena.
        let outcomes = {
            let (grid, points, params) = (&self.grid, &self.points, &self.params);
            let (ids, groups) = (&ids, &groups);
            self.pipeline
                .run(crate::batch::FlushPhase::Scan, groups.len(), |gi| {
                    let (cell, members) = &groups[gi];
                    let mut promotions: Vec<PointId> = Vec::new();
                    let mut count_queries = 0u64;
                    let dense = crate::batch::promote_dense_cell(
                        grid,
                        points,
                        *cell,
                        members,
                        ids,
                        min_pts,
                        &mut promotions,
                    );
                    if !dense {
                        for &k in members {
                            count_queries += 1;
                            let p = &pts[k as usize];
                            if grid.count_ball_from(*cell, p, params.eps, params.eps_hi())
                                >= min_pts
                            {
                                promotions.push(ids[k as usize]);
                            }
                        }
                    }
                    (promotions, count_queries)
                })
        };
        let mut promotions: Vec<PointId> = Vec::new();
        for (promos, queries) in outcomes {
            self.stats.range_queries += queries;
            promotions.extend(promos);
        }

        // Phase 3 (parallel): re-check pre-existing non-core points near
        // the batch. Every touched trigger-neighbor cell is one task:
        // its SoA block is swept against the arena-backed bucket of the
        // batch points that can reach it, and each survivor whose ball
        // gained a batch point is re-counted in place.
        let buckets = crate::batch::neighbor_buckets(
            &self.grid,
            &groups,
            |k| pts[k as usize],
            NeighborScope::Trigger,
            |c| c.count() < min_pts, // dense cells: residents already core
        );
        let hi_sq = self.params.eps_hi_sq();
        let outcomes = {
            let (grid, points, params, buckets) =
                (&self.grid, &self.points, &self.params, &buckets);
            self.pipeline
                .run(crate::batch::FlushPhase::Scan, buckets.len(), |bi| {
                    let cell_id = buckets.cell(bi);
                    let cell_obj = grid.cell(cell_id);
                    let mut promotions: Vec<PointId> = Vec::new();
                    let mut count_queries = 0u64;
                    for (qp, &q) in cell_obj.all.points().iter().zip(cell_obj.all.items()) {
                        if q >= batch_start || points.is_core(q) {
                            continue; // batch points handled in phase 2
                        }
                        if buckets.any_within_sq(bi, qp, hi_sq) {
                            count_queries += 1;
                            if grid.count_ball_from(cell_id, qp, params.eps, params.eps_hi())
                                >= min_pts
                            {
                                promotions.push(q);
                            }
                        }
                    }
                    (promotions, count_queries)
                })
        };
        self.pipeline.note_cell_scans(buckets.len());
        for (promos, queries) in outcomes {
            self.stats.range_queries += queries;
            promotions.extend(promos);
        }

        // Phase 4: flush all promotions (GUM + connectivity) in one
        // pass; the read-only halves of the per-cell GUM rounds run on
        // the pool.
        self.flush_promotions(&promotions);
        ids
    }

    /// Deletes a point by id. Amortized `O~(1)`. Panics on unknown or
    /// already-deleted ids.
    fn delete(&mut self, id: PointId) {
        let (cell, p) = self.remove_from_grid(id);

        // Re-check core points of (1+rho)eps-close sparse cells whose ball
        // lost the deleted point. (Points in still-dense cells remain
        // definitely core.)
        let min_pts = self.params.min_pts;
        let hi_sq = self.params.eps_hi_sq();
        let mut candidates: Vec<PointId> = Vec::new();
        {
            let points = &self.points;
            self.grid
                .visit_neighbor_cells(cell, NeighborScope::Trigger, |_, c| {
                    if c.count() >= min_pts {
                        return;
                    }
                    for (qp, &q) in c.all.points().iter().zip(c.all.items()) {
                        if dist_sq(qp, &p) <= hi_sq && points.is_core(q) {
                            candidates.push(q);
                        }
                    }
                });
        }
        for q in candidates {
            self.stats.range_queries += 1;
            let rec = self.points.get(q);
            let qp = *self.grid.cell(rec.cell).all.point(rec.slot);
            if self
                .grid
                .count_ball_from(rec.cell, &qp, self.params.eps, self.params.eps_hi())
                < min_pts
            {
                self.on_lost_core(q, qp);
            }
        }
    }

    /// Deletes a batch of points through the cell-major pipeline: pull
    /// everything out of the grid, then re-check each touched cell's
    /// surviving core points exactly once against the batch's coordinate
    /// block, flushing demotions (GUM + connectivity) in a single pass.
    /// The per-touched-cell scan-and-recount phase runs on the parallel
    /// flush pool with a cell-id-order merge — bit-identical at every
    /// thread count, identical to looped deletion at `rho = 0`,
    /// sandwich-valid at `rho > 0`.
    fn delete_batch(&mut self, del_ids: &[PointId]) {
        if del_ids.len() < 2 {
            for &id in del_ids {
                self.delete(id);
            }
            return;
        }
        self.pipeline.begin_flush(del_ids.len());
        let min_pts = self.params.min_pts;

        // Phase 1 (sequential): pull every point out of the grid,
        // recording coordinates per source cell; the GUM work of the
        // departing core points is flushed in one batched pass — one
        // witness re-anchoring round per aBCP instance per touched cell,
        // instead of one per departed point.
        let mut coords = Vec::with_capacity(del_ids.len());
        let mut cells = Vec::with_capacity(del_ids.len());
        let mut core_removals: Vec<PointId> = Vec::new();
        for &id in del_ids {
            let (cell, p) = self.detach_from_grid(id);
            coords.push(p);
            cells.push(cell);
            if self.points.is_core(id) {
                core_removals.push(id);
            }
            // Killed here (not after the flush) so a duplicate id in the
            // batch hits `detach_from_grid`'s alive assert before any
            // state is touched; the record's location fields survive the
            // kill for the GUM flush below.
            self.points.kill(id);
            self.snap.mark_dead(id);
        }
        self.flush_core_removals(&core_removals);
        let groups = crate::batch::group_by_cell(&cells);

        // Phases 2-3 (parallel): re-check surviving core points near the
        // batch. Every touched trigger-neighbor cell is one task: its
        // SoA block is swept against the arena-backed bucket of deleted
        // coordinates that can reach it, and each affected survivor is
        // re-counted in place (counts read only `all` blocks, so the
        // demotion decisions are independent of each other). Dense cells
        // keep their residents definitely core and are skipped.
        let buckets = crate::batch::neighbor_buckets(
            &self.grid,
            &groups,
            |k| coords[k as usize],
            NeighborScope::Trigger,
            |c| c.count() < min_pts, // still-dense cells keep their cores
        );
        let hi_sq = self.params.eps_hi_sq();
        let outcomes = {
            let (grid, points, params, buckets) =
                (&self.grid, &self.points, &self.params, &buckets);
            self.pipeline
                .run(crate::batch::FlushPhase::Scan, buckets.len(), |bi| {
                    let cell_id = buckets.cell(bi);
                    let cell_obj = grid.cell(cell_id);
                    let mut demotions: Vec<PointId> = Vec::new();
                    let mut count_queries = 0u64;
                    for (qp, &q) in cell_obj.all.points().iter().zip(cell_obj.all.items()) {
                        if points.is_core(q) && buckets.any_within_sq(bi, qp, hi_sq) {
                            count_queries += 1;
                            if grid.count_ball_from(cell_id, qp, params.eps, params.eps_hi())
                                < min_pts
                            {
                                demotions.push(q);
                            }
                        }
                    }
                    (demotions, count_queries)
                })
        };
        self.pipeline.note_cell_scans(buckets.len());
        // Phase 4 (sequential): flush demotions through GUM and the CC
        // structure in merged (cell-id, slot) order — again one witness
        // re-anchoring round per aBCP instance per demoted cell.
        let mut demotions: Vec<PointId> = Vec::new();
        for (demoted, queries) in outcomes {
            self.stats.range_queries += queries;
            demotions.extend(demoted);
        }
        self.flush_core_removals(&demotions);
    }

    fn is_core(&self, id: PointId) -> bool {
        self.points.is_core(id)
    }

    /// Coordinates of an alive point, read from its cell's SoA block.
    /// Panics on deleted ids (the grid no longer stores their
    /// coordinates).
    fn coords(&self, id: PointId) -> Point<D> {
        assert!(
            self.points.is_alive(id),
            "coords of deleted or unknown point id {id}"
        );
        let r = self.points.get(id);
        *self.grid.cell(r.cell).all.point(r.slot)
    }

    fn alive_ids(&self) -> Vec<PointId> {
        self.points.iter_alive().map(|(i, _)| i).collect()
    }

    /// Refreshes (if dirty) and returns the current epoch snapshot: the
    /// CC labels are exported without treap rotations
    /// ([`DynConnectivity::export_labels`]), and only the cells updates
    /// touched get their anchors re-snapped — fanned over the persistent
    /// worker pool when enough cells are dirty. Under delta tracking, a
    /// relabeled cell's `eps`-scope residents are the points that may
    /// anchor to it.
    fn snapshot(&self) -> Arc<ClusterSnapshot> {
        // Borrow the two read-only structures the re-anchoring walk
        // touches, so the closure is `Sync` without demanding it of the
        // connectivity plugin `C` (which workers never see).
        let grid = &self.grid;
        let points = &self.points;
        self.snap.read_with(
            self.points.capacity_ids(),
            || self.conn.export_labels(),
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

    fn epoch_handle(&self) -> EpochHandle {
        self.snap.epoch_handle()
    }

    fn set_track_deltas(&mut self, on: bool) {
        self.snap.set_track_deltas(on);
    }

    fn group_all(&self) -> Clustering {
        let snap = self.snapshot();
        crate::snapshot::group_all_pooled(&snap, &self.snap, &self.pipeline)
    }

    /// `range_queries` counts approximate range counts; the aBCP
    /// lifecycle is in `instances_created`/`instances_destroyed`.
    fn stats(&self) -> ClustererStats {
        self.stats
            .with_flush(self.pipeline.stats())
            .with_snapshot(&self.snap)
    }
}

// `ShardedDbscan` drives shard engines through these: grid/arena reads
// for the composed snapshot export, the snapshot mark log, and the
// grid-graph edge log. The engine itself stays shard-oblivious.
impl<const D: usize, C: DynConnectivity + Send + Sync> ShardEngine<D> for FullDynDbscan<D, C> {
    fn shard_grid(&self) -> &GridIndex<D> {
        &self.grid
    }

    fn shard_points(&self) -> &PointArena {
        &self.points
    }

    fn enable_shard_taps(&mut self) {
        self.edge_log = Some(Vec::new());
        self.snap.set_mark_log(true);
    }

    fn drain_shard_taps(&mut self) -> ShardTaps {
        ShardTaps {
            marks: self.snap.take_mark_log(),
            edges: self
                .edge_log
                .as_mut()
                .map(std::mem::take)
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::static_dbscan::{brute_force_exact, static_cluster};
    use crate::verify::{check_sandwich, relabel};
    use dydbscan_conn::NaiveConnectivity;
    use dydbscan_geom::SplitMix64;

    /// Random insert/delete driver comparing against static recomputation.
    fn churn_driver<const D: usize>(
        seed: u64,
        params: Params,
        extent: f64,
        steps: usize,
        check_every: usize,
        exact: bool,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut algo = FullDynDbscan::<D>::new(params);
        let mut live: Vec<(PointId, Point<D>)> = Vec::new();
        for step in 0..steps {
            let ins = live.is_empty() || rng.next_below(100) < 65;
            if ins {
                let p: Point<D> = std::array::from_fn(|_| rng.next_f64() * extent);
                let id = algo.insert(p);
                live.push((id, p));
            } else {
                let i = rng.next_below(live.len() as u64) as usize;
                let (id, _) = live.swap_remove(i);
                algo.delete(id);
            }
            if (step + 1) % check_every == 0 {
                let pts: Vec<Point<D>> = live.iter().map(|&(_, p)| p).collect();
                let ids: Vec<PointId> = live.iter().map(|&(i, _)| i).collect();
                let got = algo.group_all();
                if exact {
                    let want = relabel(&brute_force_exact(&pts, &params), &ids);
                    assert_eq!(got, want, "seed {seed} step {step}");
                } else {
                    let c1 = relabel(
                        &brute_force_exact(&pts, &Params::new(params.eps, params.min_pts)),
                        &ids,
                    );
                    let c2 = relabel(
                        &brute_force_exact(&pts, &Params::new(params.eps_hi(), params.min_pts)),
                        &ids,
                    );
                    check_sandwich(&c1, &got, &c2)
                        .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
                }
                algo.validate_invariants();
            }
        }
    }

    #[test]
    fn exact_2d_churn_matches_bruteforce() {
        for seed in 0..4u64 {
            churn_driver::<2>(seed + 1000, Params::new(1.0, 3), 10.0, 320, 40, true);
        }
    }

    #[test]
    fn exact_2d_denser_minpts() {
        churn_driver::<2>(77, Params::new(1.5, 6), 8.0, 300, 50, true);
    }

    #[test]
    fn double_approx_2d_sandwich_under_churn() {
        for seed in 0..3u64 {
            churn_driver::<2>(
                seed + 2000,
                Params::new(1.0, 3).with_rho(0.3),
                10.0,
                300,
                50,
                false,
            );
        }
    }

    #[test]
    fn double_approx_3d_sandwich_under_churn() {
        churn_driver::<3>(3000, Params::new(1.5, 4).with_rho(0.2), 7.0, 260, 65, false);
    }

    #[test]
    fn tiny_rho_matches_approx_static_pipeline() {
        // The experiment requirement of Section 8: with rho = 0.001 the
        // double-approx result must equal the rho-approximate result. At
        // this rho, don't-care shells are empty for generic data, so both
        // must equal exact DBSCAN.
        let mut rng = SplitMix64::new(555);
        let params = Params::new(1.0, 3).with_rho(0.001);
        let mut algo = FullDynDbscan::<2>::new(params);
        let mut live: Vec<(PointId, Point<2>)> = Vec::new();
        for _ in 0..250 {
            let p = [rng.next_f64() * 9.0, rng.next_f64() * 9.0];
            live.push((algo.insert(p), p));
        }
        for _ in 0..100 {
            let i = rng.next_below(live.len() as u64) as usize;
            let (id, _) = live.swap_remove(i);
            algo.delete(id);
        }
        let pts: Vec<Point<2>> = live.iter().map(|&(_, p)| p).collect();
        let ids: Vec<PointId> = live.iter().map(|&(i, _)| i).collect();
        let got = algo.group_all();
        let exact = relabel(&brute_force_exact(&pts, &Params::new(1.0, 3)), &ids);
        assert_eq!(got, exact);
        let approx = relabel(&static_cluster(&pts, &params), &ids);
        assert_eq!(got, approx);
    }

    #[test]
    fn paper_example_insert_then_delete_reverts() {
        // Figure 1's narrative: insertions merge clusters, deleting them
        // splits the cluster back.
        let (pts, params) = crate::static_dbscan::tests::paper_example();
        let mut algo = FullDynDbscan::<2>::new(params);
        let ids: Vec<PointId> = pts.iter().map(|p| algo.insert(*p)).collect();
        let before = algo.group_all();
        assert_eq!(before.groups.len(), 3);
        // bridge clusters B (o6..o12 area) and C (o14..o17 area)
        let bridge = [[5.7, 3.2], [6.0, 3.5], [5.6, 3.6], [6.1, 3.0]];
        let bids: Vec<PointId> = bridge.iter().map(|p| algo.insert(*p)).collect();
        let merged = algo.group_all();
        assert_eq!(merged.groups.len(), 2, "bridge must merge two clusters");
        for &b in &bids {
            algo.delete(b);
        }
        let after = algo.group_all();
        let want = relabel(&brute_force_exact(&pts, &params), &ids);
        assert_eq!(after, want, "deleting the bridge must revert the merge");
    }

    #[test]
    fn group_by_consistent_with_group_all_under_churn() {
        let mut rng = SplitMix64::new(4321);
        let params = Params::new(1.0, 3).with_rho(0.001);
        let mut algo = FullDynDbscan::<2>::new(params);
        let mut live = Vec::new();
        for step in 0..220 {
            if live.is_empty() || rng.next_below(10) < 7 {
                let p = [rng.next_f64() * 8.0, rng.next_f64() * 8.0];
                live.push(algo.insert(p));
            } else {
                let i = rng.next_below(live.len() as u64) as usize;
                algo.delete(live.swap_remove(i));
            }
            if step % 30 == 29 {
                let all = algo.group_all();
                let q: Vec<PointId> = live.iter().copied().step_by(3).collect();
                assert_eq!(algo.group_by(&q), all.restrict(&q));
            }
        }
    }

    #[test]
    fn naive_connectivity_backend_agrees_with_hdt() {
        let params = Params::new(1.0, 3);
        let mut rng = SplitMix64::new(86);
        let mut a = FullDynDbscan::<2>::new(params);
        let mut b: FullDynDbscan<2, NaiveConnectivity> =
            FullDynDbscan::with_connectivity(params, NaiveConnectivity::new());
        let mut live = Vec::new();
        for _ in 0..260 {
            if live.is_empty() || rng.next_below(10) < 6 {
                let p = [rng.next_f64() * 9.0, rng.next_f64() * 9.0];
                let ia = a.insert(p);
                let ib = b.insert(p);
                assert_eq!(ia, ib);
                live.push(ia);
            } else {
                let i = rng.next_below(live.len() as u64) as usize;
                let id = live.swap_remove(i);
                a.delete(id);
                b.delete(id);
            }
        }
        assert_eq!(a.group_all(), b.group_all());
    }

    #[test]
    fn delete_everything_leaves_empty_state() {
        let params = Params::new(1.0, 2);
        let mut algo = FullDynDbscan::<2>::new(params);
        let mut rng = SplitMix64::new(9);
        let ids: Vec<PointId> = (0..120)
            .map(|_| algo.insert([rng.next_f64() * 3.0, rng.next_f64() * 3.0]))
            .collect();
        for id in ids {
            algo.delete(id);
        }
        assert!(algo.is_empty());
        assert_eq!(algo.num_instances(), 0, "all aBCP instances destroyed");
        let g = algo.group_all();
        assert!(g.groups.is_empty() && g.noise.is_empty());
    }

    #[test]
    #[should_panic(expected = "already-deleted")]
    fn double_delete_panics() {
        let mut algo = FullDynDbscan::<2>::new(Params::new(1.0, 2));
        let id = algo.insert([0.0, 0.0]);
        algo.delete(id);
        algo.delete(id);
    }

    #[test]
    #[should_panic(expected = "already-deleted")]
    fn duplicate_id_in_delete_batch_panics_before_corrupting() {
        // A duplicate must hit the alive assert on its second occurrence
        // (ids are killed as they detach), not silently detach whatever
        // point swap-remove moved into the stale slot.
        let mut algo = FullDynDbscan::<2>::new(Params::new(1.0, 2));
        let a = algo.insert([0.0, 0.0]);
        let _b = algo.insert([0.1, 0.0]);
        let _c = algo.insert([0.2, 0.0]);
        algo.delete_batch(&[a, a]);
    }

    #[test]
    fn reinsertion_after_mass_deletion() {
        // Regression guard for cell-reuse paths: cells drain, then refill.
        let params = Params::new(1.0, 3);
        let mut algo = FullDynDbscan::<2>::new(params);
        for round in 0..5 {
            let ids: Vec<PointId> = (0..60)
                .map(|i| algo.insert([(i % 10) as f64 * 0.3, (i / 10) as f64 * 0.3]))
                .collect();
            let g = algo.group_all();
            assert_eq!(g.groups.len(), 1, "round {round}");
            assert!(g.noise.is_empty());
            for id in ids {
                algo.delete(id);
            }
            assert!(algo.is_empty());
        }
    }

    #[test]
    fn num_clusters_tracks_group_all_under_churn() {
        let mut rng = SplitMix64::new(1212);
        let params = Params::new(1.0, 3);
        let mut algo = FullDynDbscan::<2>::new(params);
        let mut live = Vec::new();
        for step in 0..300 {
            if live.is_empty() || rng.next_below(10) < 6 {
                live.push(algo.insert([rng.next_f64() * 10.0, rng.next_f64() * 10.0]));
            } else {
                let i = rng.next_below(live.len() as u64) as usize;
                algo.delete(live.swap_remove(i));
            }
            if step % 60 == 59 {
                let g = algo.group_all();
                assert_eq!(algo.num_clusters(), g.num_groups(), "step {step}");
            }
        }
    }

    #[test]
    fn five_d_sandwich_smoke() {
        churn_driver::<5>(5005, Params::new(2.5, 3).with_rho(0.1), 6.0, 150, 75, false);
    }
}
