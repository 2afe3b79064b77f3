//! Sharded multi-writer ingest: partition the cell space, flush the
//! shards concurrently, stitch cross-shard clusters.
//!
//! The paper's aBCP/GUM machinery localizes every piece of inter-cluster
//! bookkeeping to edges between `eps`-adjacent cells, so the grid's cell
//! space splits into independently-updatable shards whose only shared
//! state is a thin boundary layer. [`ShardedDbscan`] exploits that:
//!
//! * **Partition.** Axis-0 slabs of `slab` cells each, dealt round-robin
//!   over `S` shards: `owner(coord) = (coord[0] div slab) mod S`. Only
//!   axis 0 matters, so a cell's owner is computable from one
//!   coordinate and whole cells always land in one shard.
//! * **Ghost replication.** Cell adjacency reaches at most `reach`
//!   cells along an axis, so a point is inserted into its owner shard
//!   *and* into every distinct shard owning an axis-0 coordinate within
//!   `2·reach` of its own. A shard therefore materializes every cell
//!   within `2·reach` of its territory, with **complete populations**:
//!   cells within `reach` ("ring 1") see all of their `eps`-neighbors,
//!   which makes their vicinity counts — hence their core sets and
//!   promotion/demotion *timing* — exactly equal to the unsharded run.
//!   Ring-2 cells exist only as population for ring-1 counts.
//! * **Per-cell determinism.** Sub-batches keep the user's row order,
//!   so every shard materializing a cell feeds it the same points in
//!   the same order: slot layouts, core logs and aBCP witness evolution
//!   agree cell-for-cell across shards. Grid-graph edge *events* for a
//!   cell pair are a pure function of that evolution, so the shards
//!   that can see a pair exactly report identical event sequences.
//! * **Stitch connectivity.** Each engine's edge events are drained
//!   after every flush (an opt-in tap — engines stay shard-oblivious)
//!   and filtered to events with at least one *owned* endpoint: those
//!   are exactly the unsharded run's events, each observed by one shard
//!   (both endpoints owned) or two (a cross-slab pair). A per-pair
//!   refcount collapses the double sightings, and the surviving
//!   transitions drive one global [`DynConnectivity`] over cell
//!   *coordinates* — shard-local cell ids never leak.
//! * **Composed snapshot.** The wrapper owns its own [`SnapshotState`]:
//!   dirty marks are forwarded from per-shard mark taps (owned cells
//!   only, under the composed key `local_cell · S + shard`), labels are
//!   exported from the stitch connectivity, and anchors are translated
//!   into the composed key space — so the epoch machinery, the trait,
//!   the facade and `dydbscan-serve` work unchanged.
//!
//! Shard flushes run concurrently on the wrapper's persistent
//! [`WorkerPool`](crate::batch::FlushPipeline) — one task per busy
//! shard — while tap application is serialized in ascending shard
//! order, so the composed structure evolves deterministically: the
//! clustering is bit-identical at every shard count and thread count.

use crate::api::{ClustererStats, DynamicClusterer};
use crate::full::FullDynDbscan;
use crate::params::{validate_points, Params};
use crate::points::{PointArena, PointId};
use crate::semi::SemiDynDbscan;
use crate::snapshot::{Anchors, ClusterSnapshot, EpochHandle, SnapshotState};
use dydbscan_conn::{CompId, DynConnectivity, HdtConnectivity};
use dydbscan_geom::{cell_of, CellCoord, FxHashMap, Point};
use dydbscan_grid::{CellId, GridIndex};
use std::sync::Arc;

/// Everything a shard's flush dirtied, drained by the wrapper after the
/// flush returns: snapshot mark-log entries (cells whose anchor sets
/// may have changed) and grid-graph edge events (`true` = insert).
#[derive(Debug, Default)]
pub struct ShardTaps {
    /// Cells the flush marked dirty (duplicates included).
    pub marks: Vec<CellId>,
    /// Grid-graph edge transitions forwarded to the CC structure, in
    /// occurrence order.
    pub edges: Vec<(CellId, CellId, bool)>,
}

/// An engine that can serve as one shard of a [`ShardedDbscan`]: a
/// grid-framework clusterer exposing read access to its grid/arena for
/// the composed snapshot export, plus the flush taps.
///
/// This is an internal extension point of the crate — implemented for
/// [`SemiDynDbscan`] and [`FullDynDbscan`] beside their fields;
/// downstream code only needs it as a bound. `Sync`, because the
/// composed snapshot refresh reads the shards' grids and arenas from
/// pool workers.
pub trait ShardEngine<const D: usize>: DynamicClusterer<D> + Send + Sync {
    /// The shard's grid (read-only; cell ids are shard-local).
    fn shard_grid(&self) -> &GridIndex<D>;
    /// The shard's point arena (read-only; point ids are shard-local).
    fn shard_points(&self) -> &PointArena;
    /// Turns the mark/edge taps on. Must be called before any insert.
    fn enable_shard_taps(&mut self);
    /// Drains everything the taps captured since the last drain.
    fn drain_shard_taps(&mut self) -> ShardTaps;
}

/// The static cell-space partition: axis-0 slabs dealt round-robin.
#[derive(Debug, Clone, Copy)]
struct ShardMap {
    shards: i32,
    /// Slab width in cells along axis 0.
    slab: i32,
    /// Maximum axis offset at which two cells can be
    /// `(1+rho)eps`-close: cells `m` apart have an axis gap of
    /// `(m-1)·side`.
    reach: i32,
}

impl ShardMap {
    fn new(params: &Params, shards: usize, side: f64) -> Self {
        let hi_sq = params.eps_hi_sq();
        let mut reach = 1i32;
        // Offset `m+1` is reachable iff `(m·side)^2 <= eps_hi^2` — the
        // same squared-distance comparison the grid's neighbor tables
        // use, so the slab boundary can never be tighter than them.
        while {
            let gap = reach as f64 * side;
            gap * gap <= hi_sq
        } {
            reach += 1;
        }
        Self {
            shards: shards as i32,
            // Wide slabs amortize the boundary: the two-ring replication
            // window spans `4·reach + 1` cells, so `8·reach`-cell slabs
            // keep the average replication factor near `1.5`.
            slab: 8 * reach,
            reach,
        }
    }

    /// The shard owning axis-0 cell coordinate `c0`.
    fn owner(&self, c0: i32) -> usize {
        c0.div_euclid(self.slab).rem_euclid(self.shards) as usize
    }

    /// Every shard materializing a point at axis-0 coordinate `c0`:
    /// the owner first, then each distinct shard owning a coordinate
    /// within `2·reach` (the ghost ring).
    fn replica_shards(&self, c0: i32, out: &mut Vec<usize>) {
        out.clear();
        out.push(self.owner(c0));
        for k in 1..=2 * self.reach {
            for c in [c0 - k, c0 + k] {
                let s = self.owner(c);
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
    }
}

/// A raw `&mut` smuggled across the worker-pool closure boundary: the
/// shard flush hands task `ti` exclusive access to the engine of busy
/// shard `ti`. Task indices are distinct, each pointer is dereferenced
/// by exactly one task, and the coordinator does not touch the engines
/// until the pool run returns.
struct SendPtr<T>(*mut T);

// SAFETY: see the type docs — every pointer is dereferenced by exactly
// one pool task, so the `&mut` aliasing contract is upheld; `T: Send`
// makes handing that exclusive access to another thread sound.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` across the crew is sound for the same
// reason — the tasks partition the pointers, they never alias.
unsafe impl<T: Send> Sync for SendPtr<T> {}

/// S-way sharded front-end over a grid-framework engine (semi- or
/// fully-dynamic): routes `insert_batch`/`delete_batch` by owning
/// shard, flushes every busy shard concurrently on its persistent
/// worker pool, and composes the shard-local results — via the stitch
/// connectivity over boundary edges — into one globally correct
/// [`ClusterSnapshot`] published through the standard epoch machinery.
///
/// The clustering is bit-identical to the 1-shard engine at every shard
/// count and thread count; shards only buy ingest wall-clock.
///
/// ```
/// use dydbscan_core::{DynamicClusterer, Params, ShardedDbscan};
///
/// let mut c = ShardedDbscan::<2>::new_semi(Params::new(1.0, 2), 4);
/// let ids = c.insert_batch(&[[0.0, 0.0], [0.5, 0.0], [40.0, 0.0]]);
/// let g = c.group_by(&ids);
/// assert!(g.same_cluster(ids[0], ids[1]));
/// assert!(g.is_noise(ids[2]));
/// ```
pub struct ShardedDbscan<const D: usize, E: ShardEngine<D> = SemiDynDbscan<D>> {
    params: Params,
    map: ShardMap,
    /// Cell side length (cached from the engines' grids so routing
    /// never borrows an engine).
    side: f64,
    engines: Vec<E>,
    /// Per shard: local point id → global id (ghost copies included).
    to_global: Vec<Vec<PointId>>,
    /// Global id → every `(shard, local id)` replica, owner first.
    replicas: FxHashMap<PointId, Vec<(u32, PointId)>>,
    next_id: PointId,
    alive: usize,
    /// Cell coordinate → stitch vertex (dense, never removed — a stale
    /// isolated vertex is harmless).
    coord_map: FxHashMap<CellCoord<D>, u32>,
    /// The cross-shard CC structure over cell coordinates.
    stitch: HdtConnectivity,
    /// Per-edge sighting count: a cross-slab pair is reported by both
    /// adjacent shards, so each stitch edge toggles on 0↔1 only.
    edge_refs: FxHashMap<(u32, u32), u8>,
    /// The wrapper's own flush pipeline: thread budget and the
    /// persistent pool the per-shard flush tasks fan out on.
    pipeline: crate::batch::FlushPipeline,
    /// The composed epoch-snapshot state behind the `&self` read path.
    snap: SnapshotState,
}

impl<const D: usize> ShardedDbscan<D, SemiDynDbscan<D>> {
    /// Sharded semi-dynamic (insertion-only) engine.
    pub fn new_semi(params: Params, shards: usize) -> Self {
        Self::new_with(params, shards, |p| SemiDynDbscan::new(*p).with_threads(1))
    }
}

impl<const D: usize> ShardedDbscan<D, FullDynDbscan<D>> {
    /// Sharded fully-dynamic engine with the default (HDT) CC structure.
    pub fn new_full(params: Params, shards: usize) -> Self {
        Self::new_with(params, shards, |p| FullDynDbscan::new(*p).with_threads(1))
    }
}

impl<const D: usize, E: ShardEngine<D>> ShardedDbscan<D, E> {
    /// Builds `shards` engines with the caller-supplied constructor
    /// (which should set each engine's own flush budget to one thread —
    /// parallelism comes from flushing the shards concurrently, not
    /// from nesting pools) and wires up the taps.
    pub fn new_with(params: Params, shards: usize, make: impl Fn(&Params) -> E) -> Self {
        params.validate();
        assert!(shards >= 1, "shard count must be >= 1");
        let mut engines: Vec<E> = (0..shards).map(|_| make(&params)).collect();
        for e in &mut engines {
            e.enable_shard_taps();
        }
        let side = engines[0].shard_grid().side();
        Self {
            map: ShardMap::new(&params, shards, side),
            params,
            side,
            to_global: vec![Vec::new(); shards],
            engines,
            replicas: FxHashMap::default(),
            next_id: 0,
            alive: 0,
            coord_map: FxHashMap::default(),
            stitch: HdtConnectivity::new(),
            edge_refs: FxHashMap::default(),
            pipeline: crate::batch::FlushPipeline::new(),
            snap: SnapshotState::new(),
        }
    }

    /// Sets the thread budget of the concurrent shard flush (default:
    /// one worker per logical CPU; `1` = flush shards sequentially).
    /// The clustering is bit-identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pipeline.set_threads(threads);
        self
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.map.shards as usize
    }

    fn owner_replica(&self, id: PointId) -> (usize, PointId) {
        let reps = self
            .replicas
            .get(&id)
            .unwrap_or_else(|| panic!("unknown or already-deleted point id {id}"));
        (reps[0].0 as usize, reps[0].1)
    }

    /// Interns `coord` as a stitch vertex (dense ids, insertion order —
    /// deterministic because taps are applied in shard order).
    fn vertex_of(
        coord_map: &mut FxHashMap<CellCoord<D>, u32>,
        stitch: &mut HdtConnectivity,
        coord: CellCoord<D>,
    ) -> u32 {
        let next = coord_map.len() as u32;
        let v = *coord_map.entry(coord).or_insert(next);
        stitch.ensure_vertex(v);
        v
    }

    /// Applies one shard's drained taps to the composed state: owned
    /// marked cells dirty the composed snapshot (and register their
    /// coordinate as a stitch vertex while core, so isolated core cells
    /// export a label), and edge events with at least one owned
    /// endpoint drive the stitch connectivity through the per-pair
    /// refcount. Callers apply taps in ascending shard order.
    fn apply_taps(&mut self, t: usize, taps: &ShardTaps) {
        let s = self.map.shards as u32;
        let grid = self.engines[t].shard_grid();
        for &c in &taps.marks {
            let cell = grid.cell(c);
            if self.map.owner(cell.coord.0[0]) != t {
                continue;
            }
            self.snap.mark(c * s + t as u32);
            if cell.is_core_cell() {
                Self::vertex_of(&mut self.coord_map, &mut self.stitch, cell.coord);
            }
        }
        for &(c1, c2, ins) in &taps.edges {
            let k1 = grid.cell(c1).coord;
            let k2 = grid.cell(c2).coord;
            if self.map.owner(k1.0[0]) != t && self.map.owner(k2.0[0]) != t {
                // Foreign-foreign: ring-2 promotion timing is not
                // trustworthy here; the owning shard(s) report it.
                continue;
            }
            let v1 = Self::vertex_of(&mut self.coord_map, &mut self.stitch, k1);
            let v2 = Self::vertex_of(&mut self.coord_map, &mut self.stitch, k2);
            let key = if v1 < v2 { (v1, v2) } else { (v2, v1) };
            let cnt = self.edge_refs.entry(key).or_insert(0);
            if ins {
                *cnt += 1;
                if *cnt == 1 {
                    self.stitch.insert_edge(key.0, key.1);
                }
            } else {
                debug_assert!(*cnt > 0, "unbalanced stitch edge delete");
                *cnt -= 1;
                if *cnt == 0 {
                    self.stitch.delete_edge(key.0, key.1);
                }
            }
        }
    }

    /// Flushes `sub` (one entry per busy shard, ascending) concurrently
    /// on the wrapper pool and returns each shard's result and drained
    /// taps in the same order.
    fn run_shard_flushes<T: Sync, R: Send>(
        &mut self,
        sub: &[(usize, T)],
        run: impl Fn(&mut E, &T) -> R + Sync,
    ) -> Vec<(R, ShardTaps)> {
        let ptrs: Vec<SendPtr<E>> = self
            .engines
            .iter_mut()
            .map(|e| SendPtr(e as *mut E))
            .collect();
        let ptrs = &ptrs;
        self.pipeline.run_shards(sub.len(), |ti| {
            let (t, payload) = &sub[ti];
            let p = ptrs[*t].0;
            // SAFETY: `sub` holds distinct shard indices, so each
            // engine pointer is dereferenced by exactly one task; the
            // coordinator blocks until every task returns.
            let engine = unsafe { &mut *p };
            let r = run(engine, payload);
            (r, engine.drain_shard_taps())
        })
    }

    /// The composed snapshot label export: one label per composed key
    /// (`local_cell · S + shard`), read from the stitch connectivity
    /// through each core cell's coordinate. Core cells materialized in
    /// several shards export the same label under every alias — ghost
    /// anchors resolve identically to owned ones.
    fn export_composed_labels(&self) -> Vec<CompId> {
        let s = self.map.shards as usize;
        let max_cells = self
            .engines
            .iter()
            .map(|e| e.shard_grid().num_cells())
            .max()
            .unwrap_or(0);
        let vlabels = self.stitch.export_labels();
        let mut labels = vec![CompId::MAX; max_cells * s];
        for (t, e) in self.engines.iter().enumerate() {
            let grid = e.shard_grid();
            for c in 0..grid.num_cells() as CellId {
                let cell = grid.cell(c);
                if !cell.is_core_cell() {
                    continue;
                }
                if let Some(&v) = self.coord_map.get(&cell.coord) {
                    if let Some(&l) = vlabels.get(v as usize) {
                        labels[c as usize * s + t] = l;
                    }
                }
            }
        }
        labels
    }

    /// Refreshes (if dirty) and returns the composed epoch snapshot,
    /// fanning the re-anchoring over the wrapper pool when enough keys
    /// are dirty. Under delta tracking, the points that may anchor to a
    /// relabeled composed key are the owning shard's `eps`-scope
    /// residents of its cell, mapped to global ids.
    fn refresh(&self) -> Arc<ClusterSnapshot> {
        let s = self.map.shards as u32;
        let (engines, to_global) = (&self.engines, &self.to_global);
        self.snap.read_with(
            self.next_id as usize,
            || self.export_composed_labels(),
            |key, emit| {
                let (t, c) = ((key % s) as usize, key / s);
                let (grid, points) = (engines[t].shard_grid(), engines[t].shard_points());
                let cell = grid.cell(c);
                // Only owned cells are marked, and every resident of an
                // owned cell is an owned point: each alive point is
                // emitted by exactly one key.
                for (slot, &lid) in cell.all.items().iter().enumerate() {
                    let gid = to_global[t][lid as usize];
                    if points.is_core(lid) {
                        emit(gid, true, Anchors::One(key));
                    } else {
                        let qp = cell.all.point(slot as u32);
                        let a = crate::query::non_core_anchors(grid, c, qp);
                        emit(gid, false, compose_anchors(a, s, t as u32));
                    }
                }
            },
            |keys, emit| {
                for (t, e) in engines.iter().enumerate() {
                    let grid = e.shard_grid();
                    // Keys past a shard's cells are label-table padding.
                    let cells: Vec<CellId> = keys
                        .iter()
                        .filter(|&&k| {
                            (k % s) as usize == t && ((k / s) as usize) < grid.num_cells()
                        })
                        .map(|&k| k / s)
                        .collect();
                    crate::snapshot::eps_scope_residents(grid, &cells, &mut |lid| {
                        emit(to_global[t][lid as usize]);
                    });
                }
            },
            Some(&self.pipeline),
        )
    }
}

/// Translates shard-local anchor cells into the composed key space.
/// The map is monotonic in the local cell id, so sortedness survives.
fn compose_anchors(a: Anchors, s: u32, t: u32) -> Anchors {
    match a {
        Anchors::None => Anchors::None,
        Anchors::One(c) => Anchors::One(c * s + t),
        Anchors::Many(cs) => Anchors::Many(cs.iter().map(|&c| c * s + t).collect()),
    }
}

impl<const D: usize, E: ShardEngine<D>> DynamicClusterer<D> for ShardedDbscan<D, E> {
    fn params(&self) -> &Params {
        &self.params
    }

    fn len(&self) -> usize {
        self.alive
    }

    fn supports_deletion(&self) -> bool {
        self.engines[0].supports_deletion()
    }

    fn insert(&mut self, p: Point<D>) -> PointId {
        self.insert_batch(std::slice::from_ref(&p))[0]
    }

    fn delete(&mut self, id: PointId) {
        self.delete_batch(std::slice::from_ref(&id));
    }

    fn is_core(&self, id: PointId) -> bool {
        let (t, lid) = self.owner_replica(id);
        self.engines[t].is_core(lid)
    }

    fn coords(&self, id: PointId) -> Point<D> {
        let (t, lid) = self.owner_replica(id);
        self.engines[t].coords(lid)
    }

    fn alive_ids(&self) -> Vec<PointId> {
        // Global ids are minted in arrival order, so ascending id order
        // is insertion order.
        let mut ids: Vec<PointId> = self.replicas.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    fn snapshot(&self) -> Arc<ClusterSnapshot> {
        self.refresh()
    }

    fn epoch_handle(&self) -> EpochHandle {
        self.snap.epoch_handle()
    }

    fn set_track_deltas(&mut self, on: bool) {
        self.snap.set_track_deltas(on);
    }

    fn stats(&self) -> ClustererStats {
        // Algorithmic counters are summed over the shards (ghost work
        // included — the counters honestly report the replication
        // overhead); the batch/parallelism and snapshot counters come
        // from the wrapper's own pipeline and read path.
        let mut st = ClustererStats::default();
        for e in &self.engines {
            let es = e.stats();
            st.range_queries += es.range_queries;
            st.promotions += es.promotions;
            st.demotions += es.demotions;
            st.edge_inserts += es.edge_inserts;
            st.edge_removes += es.edge_removes;
            st.splits += es.splits;
            st.emptiness_probes += es.emptiness_probes;
            st.instances_created += es.instances_created;
            st.instances_destroyed += es.instances_destroyed;
            st.points_touched += es.points_touched;
            st.bfs_expansions += es.bfs_expansions;
            st.label_merges += es.label_merges;
        }
        st.with_flush(self.pipeline.stats())
            .with_snapshot(&self.snap)
    }

    fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        if pts.is_empty() {
            return Vec::new();
        }
        validate_points(pts, &self.params).unwrap_or_else(|e| panic!("{e}"));
        let base = self.next_id;
        self.next_id += pts.len() as u32;
        self.alive += pts.len();
        self.pipeline.begin_flush(pts.len());

        // Route rows: per shard, owned rows then ghost rows, both in
        // batch order — so each cell receives its points in the same
        // relative order in every shard materializing it (owned and
        // ghost rows never share a cell: whole cells have one owner).
        let shards = self.shards();
        let mut owned: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut ghosts: Vec<Vec<u32>> = vec![Vec::new(); shards];
        let mut reps: Vec<usize> = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            let c0 = cell_of(p, self.side).0[0];
            self.map.replica_shards(c0, &mut reps);
            owned[reps[0]].push(i as u32);
            for &t in &reps[1..] {
                ghosts[t].push(i as u32);
            }
        }
        let mut sub: Vec<(usize, (Vec<Point<D>>, usize))> = Vec::new();
        for t in 0..shards {
            if owned[t].is_empty() && ghosts[t].is_empty() {
                continue;
            }
            let mut rows = Vec::with_capacity(owned[t].len() + ghosts[t].len());
            rows.extend(owned[t].iter().map(|&i| pts[i as usize]));
            rows.extend(ghosts[t].iter().map(|&i| pts[i as usize]));
            sub.push((t, (rows, owned[t].len())));
        }

        let results = self.run_shard_flushes(&sub, |engine, (rows, _)| engine.insert_batch(rows));

        // Post-join, in ascending shard order (deterministic): register
        // id translations, then drive marks and stitch edges.
        for ((t, (_, owned_count)), (local, _)) in sub.iter().zip(&results) {
            let t = *t;
            let tg = &mut self.to_global[t];
            for (j, &lid) in local.iter().enumerate() {
                let i = if j < *owned_count {
                    owned[t][j]
                } else {
                    ghosts[t][j - owned_count]
                } as usize;
                let gid = base + i as u32;
                if tg.len() <= lid as usize {
                    tg.resize(lid as usize + 1, u32::MAX);
                }
                tg[lid as usize] = gid;
                let reps = self.replicas.entry(gid).or_default();
                if j < *owned_count {
                    reps.insert(0, (t as u32, lid)); // owner first
                } else {
                    reps.push((t as u32, lid));
                }
            }
        }
        for ((t, _), (_, taps)) in sub.iter().zip(&results) {
            self.apply_taps(*t, taps);
        }
        (0..pts.len() as u32).map(|i| base + i).collect()
    }

    fn delete_batch(&mut self, ids: &[PointId]) {
        if ids.is_empty() {
            return;
        }
        assert!(
            self.supports_deletion(),
            "delete on an insertion-only engine"
        );
        self.pipeline.begin_flush(ids.len());
        let shards = self.shards();
        let mut per: Vec<Vec<PointId>> = vec![Vec::new(); shards];
        for &gid in ids {
            let reps = self
                .replicas
                .remove(&gid)
                .unwrap_or_else(|| panic!("delete of unknown or already-deleted point id {gid}"));
            self.alive -= 1;
            self.snap.mark_dead(gid);
            for (t, lid) in reps {
                per[t as usize].push(lid);
            }
        }
        let sub: Vec<(usize, Vec<PointId>)> = per
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .collect();

        let results = self.run_shard_flushes(&sub, |engine, lids: &Vec<PointId>| {
            engine.delete_batch(lids);
        });
        for ((t, _), ((), taps)) in sub.iter().zip(&results) {
            self.apply_taps(*t, taps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dydbscan_geom::SplitMix64;

    fn cloud(n: usize, seed: u64, extent: f64) -> Vec<[f64; 2]> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| [rng.next_f64() * extent, rng.next_f64() * extent])
            .collect()
    }

    #[test]
    fn single_shard_matches_raw_engine() {
        let params = Params::new(1.0, 4);
        let mut sharded = ShardedDbscan::<2>::new_semi(params, 1);
        let mut raw = SemiDynDbscan::<2>::new(params);
        let pts = cloud(600, 7, 18.0);
        for chunk in pts.chunks(97) {
            let a = sharded.insert_batch(chunk);
            let b = raw.insert_batch(chunk);
            assert_eq!(a, b, "global ids must match arrival order");
            let ga = sharded.group_by(&a).normalized();
            let gb = raw.group_by(&b).normalized();
            assert_eq!(ga, gb);
        }
        let all = sharded.alive_ids();
        assert_eq!(all, raw.alive_ids());
        assert_eq!(
            sharded.group_by(&all).normalized(),
            raw.group_by(&all).normalized()
        );
    }

    #[test]
    fn sharded_semi_matches_one_shard() {
        let params = Params::new(1.0, 3);
        for shards in [2usize, 3, 4] {
            let mut sharded = ShardedDbscan::<2>::new_semi(params, shards);
            let mut one = ShardedDbscan::<2>::new_semi(params, 1);
            // Wide extent so several slabs (and both sides of slab
            // boundaries) are populated.
            let pts = cloud(900, 11, 120.0);
            for chunk in pts.chunks(128) {
                let a = sharded.insert_batch(chunk);
                let b = one.insert_batch(chunk);
                assert_eq!(a, b);
                assert_eq!(
                    sharded.group_by(&a).normalized(),
                    one.group_by(&b).normalized(),
                    "shards={shards}"
                );
            }
            let all = sharded.alive_ids();
            assert_eq!(
                sharded.group_by(&all).normalized(),
                one.group_by(&all).normalized(),
                "shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_full_matches_one_shard_under_churn() {
        let params = Params::new(1.0, 3);
        for shards in [2usize, 4] {
            let mut sharded = ShardedDbscan::<2, FullDynDbscan<2>>::new_full(params, shards);
            let mut one = ShardedDbscan::<2, FullDynDbscan<2>>::new_full(params, 1);
            let pts = cloud(700, 23, 100.0);
            let mut alive: Vec<PointId> = Vec::new();
            let mut rng = SplitMix64::new(99);
            for chunk in pts.chunks(100) {
                alive.extend(sharded.insert_batch(chunk));
                one.insert_batch(chunk);
                // Delete a third of the alive set, spread across cells.
                let mut dels = Vec::new();
                let mut k = 0;
                while k < alive.len() {
                    dels.push(alive.swap_remove(k % alive.len()));
                    k += 3 + (rng.next_u64() % 3) as usize;
                }
                sharded.delete_batch(&dels);
                one.delete_batch(&dels);
                assert_eq!(
                    sharded.group_by(&alive).normalized(),
                    one.group_by(&alive).normalized(),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn boundary_straddling_cluster_stitches() {
        // A tight chain along axis 0 crossing many slab boundaries must
        // come back as one cluster.
        let params = Params::new(1.0, 2);
        let mut c = ShardedDbscan::<2>::new_semi(params, 4);
        let pts: Vec<[f64; 2]> = (0..400).map(|i| [i as f64 * 0.4, 0.0]).collect();
        let ids = c.insert_batch(&pts);
        let g = c.group_by(&ids);
        assert_eq!(g.num_groups(), 1);
        assert!(g.same_cluster(ids[0], *ids.last().unwrap()));
    }

    #[test]
    #[should_panic(expected = "already-deleted")]
    fn double_delete_panics() {
        let mut c = ShardedDbscan::<2, FullDynDbscan<2>>::new_full(Params::new(1.0, 2), 2);
        let id = c.insert([0.0, 0.0]);
        c.delete(id);
        c.delete(id);
    }
}
