//! IncDBSCAN — incremental exact DBSCAN (Ester et al., VLDB 1998).
//!
//! The state-of-the-art dynamic algorithm the paper compares against
//! (its Section 3). Semantics are **exact** DBSCAN: core statuses from
//! exact neighborhood counts, clusters from the exact core graph.
//!
//! * **Insertion**: one range query retrieves `B(p_new, eps)` (the *seed
//!   objects*); vicinity counts are bumped and the points reaching
//!   `MinPts` become core. Every new core point merges the cluster labels
//!   of the core points in its ball (the paper's absorption/merge cases);
//!   a new core point seeing no labeled neighbor starts a fresh cluster.
//!   Labels are never rewritten en masse — IncDBSCAN keeps a *merge
//!   history*, realized here as a union-find over label ids.
//! * **Deletion**: counts are decremented, demoted points drop out of the
//!   core graph, and the algorithm must discover whether the affected
//!   cluster **splits**. As in the original: one BFS thread starts from
//!   every seed (the still-core points adjacent to removed core-graph
//!   edges), all threads expand in round-robin lockstep over the core
//!   graph — each expansion step being a range query — threads that touch
//!   merge, and as soon as a single thread group remains the deletion
//!   concludes with no split. Otherwise every exhausted group has
//!   enumerated one side of the split and is relabeled wholesale.
//! * **C-group-by**: core points answer from their (union-find-resolved)
//!   label; border points are resolved at query time by one range query,
//!   honoring DBSCAN's multi-membership semantics (paper Section 2).
//!
//! The deletion path is exactly what the paper blames for IncDBSCAN's
//! two-orders-of-magnitude loss: splits trigger BFS whose cost is the size
//! of the smaller fragment *times* range-query cost. [`IncStats`] exposes
//! per-operation provenance so the benchmarks can attribute the spikes.

use crate::index::RangeIndex;
use dydbscan_conn::UnionFind;
use dydbscan_core::snapshot::{Anchors, SnapshotState};
use dydbscan_core::{
    ClusterSnapshot, ClustererStats, Clustering, DynamicClusterer, EpochHandle, FlushPhase,
    FlushPipeline, GroupBy, Params, PointId, QueryError,
};
use dydbscan_geom::{FxHashMap, Point};
use dydbscan_spatial::RTree;
use std::sync::Arc;

const NO_LABEL: u32 = u32::MAX;

/// Operation counters for cost provenance in benchmarks. The shared
/// batch/parallelism counters live in the engine's
/// [`FlushPipeline`] — see [`IncDbscan::flush_stats`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IncStats {
    /// Range queries issued (updates and BFS expansions).
    pub range_queries: u64,
    /// Total points returned by range queries.
    pub points_touched: u64,
    /// BFS expansion steps across all deletions.
    pub bfs_expansions: u64,
    /// Deletions that split a cluster.
    pub splits: u64,
    /// Label merges (insertion-side cluster merges).
    pub label_merges: u64,
}

#[derive(Debug, Clone)]
struct Rec<const D: usize> {
    coords: Point<D>,
    /// Exact `|B(p, eps)|`, self included.
    count: u32,
    label: u32,
    alive: bool,
    core: bool,
}

/// Incremental exact DBSCAN over a pluggable range index (R-tree default).
///
/// # Example
///
/// ```
/// use dydbscan_baseline::IncDbscan;
/// use dydbscan_core::Params;
///
/// let mut c = IncDbscan::<2>::new(Params::new(1.0, 3));
/// let a = c.insert([0.0, 0.0]);
/// let b = c.insert([0.5, 0.0]);
/// let d = c.insert([0.0, 0.5]);
/// let g = c.group_by(&[a, b, d]);
/// assert_eq!(g.num_groups(), 1);
/// c.delete(a);
/// let g = c.group_by(&[b, d]);
/// assert!(g.is_noise(b));
/// ```
#[derive(Debug)]
pub struct IncDbscan<const D: usize, I: RangeIndex<D> = RTree<D>> {
    params: Params,
    index: I,
    recs: Vec<Rec<D>>,
    labels: UnionFind,
    alive: usize,
    stats: IncStats,
    scratch: Vec<(u32, f64)>,
    /// The batch flush pipeline: thread budget, persistent worker pool,
    /// shared flush counters. The baseline fans its per-point range
    /// queries out over it; everything else stays per-update.
    pipeline: FlushPipeline,
    /// The epoch-snapshot state behind the `&self` read path. The
    /// baseline's vertex space is *point ids*: a core point anchors to
    /// itself, a border point to the core points in its ball, and the
    /// label table resolves each core point's label through the
    /// merge-history union-find without path compression.
    snap: SnapshotState,
}

impl<const D: usize> IncDbscan<D, RTree<D>> {
    /// Creates an IncDBSCAN instance on an R-tree (the faithful setup).
    pub fn new(params: Params) -> Self {
        Self::with_index(params, RTree::default())
    }
}

impl<const D: usize> IncDbscan<D, crate::index::GridRangeIndex<D>> {
    /// Creates an IncDBSCAN instance on the uniform-grid backend
    /// (ablation: is the baseline's loss an index artifact?).
    pub fn new_grid(params: Params) -> Self {
        Self::with_index(params, crate::index::GridRangeIndex::with_side(params.eps))
    }
}

impl<const D: usize, I: RangeIndex<D>> IncDbscan<D, I> {
    /// Creates an instance over a caller-supplied index.
    pub fn with_index(params: Params, index: I) -> Self {
        params.validate();
        assert!(
            params.rho == 0.0,
            "IncDBSCAN is an exact algorithm; rho must be 0"
        );
        Self {
            params,
            index,
            recs: Vec::new(),
            labels: UnionFind::new(),
            alive: 0,
            stats: IncStats::default(),
            scratch: Vec::new(),
            pipeline: FlushPipeline::new(),
            snap: SnapshotState::new(),
        }
    }

    /// Sets the thread budget of the batched range-query phases
    /// (default: one worker per logical CPU; `1` = the exact sequential
    /// path). The clustering is bit-identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pipeline.set_threads(threads);
        self
    }

    /// The thread budget of the batched range-query phases.
    pub fn threads(&self) -> usize {
        self.pipeline.threads()
    }

    /// The shared flush-pipeline counters (batching + parallelism).
    pub fn flush_stats(&self) -> dydbscan_core::FlushStats {
        self.pipeline.stats()
    }

    /// The clustering parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Number of alive points.
    pub fn len(&self) -> usize {
        self.alive
    }

    /// True if no alive points.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// Operation counters.
    pub fn stats(&self) -> IncStats {
        self.stats
    }

    /// Whether `id` is currently a core point.
    pub fn is_core(&self, id: PointId) -> bool {
        self.recs[id as usize].core
    }

    /// Whether `id` is alive.
    pub fn is_alive(&self, id: PointId) -> bool {
        self.recs.get(id as usize).is_some_and(|r| r.alive)
    }

    /// Coordinates of a point (also valid for deleted ids).
    pub fn coords(&self, id: PointId) -> Point<D> {
        self.recs[id as usize].coords
    }

    /// Ids of all alive points.
    pub fn alive_ids(&self) -> Vec<PointId> {
        (0..self.recs.len() as u32)
            .filter(|&i| self.recs[i as usize].alive)
            .collect()
    }

    fn range(&mut self, q: &Point<D>, out: &mut Vec<(u32, f64)>) {
        out.clear();
        self.index.collect_within(q, self.params.eps, out);
        self.stats.range_queries += 1;
        self.stats.points_touched += out.len() as u64;
    }

    /// Inserts a point; returns its id. Panics on NaN/infinite
    /// coordinates (see `DynamicClusterer::try_insert` for the fallible
    /// boundary) — admitted, they would corrupt R-tree node splits.
    pub fn insert(&mut self, p: Point<D>) -> PointId {
        dydbscan_core::validate_point(&p, 0).unwrap_or_else(|e| panic!("{e}"));
        let id = self.recs.len() as u32;
        self.recs.push(Rec {
            coords: p,
            count: 0,
            label: NO_LABEL,
            alive: true,
            core: false,
        });
        self.alive += 1;
        self.index.insert(p, id);
        // Seed objects: B(p, eps), p included (it is already indexed).
        let mut seeds = std::mem::take(&mut self.scratch);
        self.range(&p, &mut seeds);
        let min_pts = self.params.min_pts as u32;
        let mut new_cores: Vec<u32> = Vec::new();
        self.recs[id as usize].count = seeds.len() as u32;
        // Read-path dirt: the new point needs anchors; promotions below
        // additionally dirty every point in the promoted ball (their
        // anchor sets gain a core point).
        self.snap.mark(id);
        if seeds.len() as u32 >= min_pts {
            new_cores.push(id);
        }
        for &(q, _) in &seeds {
            if q == id {
                continue;
            }
            let r = &mut self.recs[q as usize];
            r.count += 1;
            if !r.core && r.count >= min_pts {
                new_cores.push(q);
            }
        }
        // Flip flags first so simultaneous promotions see each other.
        for &q in &new_cores {
            self.recs[q as usize].core = true;
        }
        // Label maintenance per new core point (creation / absorption /
        // merge).
        let mut ball = Vec::new();
        for &q in &new_cores {
            if q == id {
                ball.clear();
                ball.extend_from_slice(&seeds);
            } else {
                let qp = self.recs[q as usize].coords;
                let mut tmp = Vec::new();
                self.range(&qp, &mut tmp);
                ball.clear();
                ball.extend_from_slice(&tmp);
            }
            for &(r, _) in &ball {
                self.snap.mark(r);
            }
            let mut label = self.recs[q as usize].label;
            for &(r, _) in &ball {
                if r == q || !self.recs[r as usize].core {
                    continue;
                }
                let rl = self.recs[r as usize].label;
                if rl == NO_LABEL {
                    continue; // freshly promoted, not yet labeled
                }
                if label == NO_LABEL {
                    label = self.labels.find(rl);
                } else if !self.labels.same(label, rl) {
                    self.labels.union(label, rl);
                    self.stats.label_merges += 1;
                    label = self.labels.find(label);
                }
            }
            if label == NO_LABEL {
                label = self.labels.make_set();
            }
            self.recs[q as usize].label = label;
        }
        seeds.clear();
        self.scratch = seeds;
        id
    }

    /// Deletes a point by id. Panics on unknown / double deletes.
    pub fn delete(&mut self, id: PointId) {
        assert!(self.is_alive(id), "IncDBSCAN delete of dead id {id}");
        let p = self.recs[id as usize].coords;
        // Seed objects around the departing point (it is still indexed).
        let mut seeds = std::mem::take(&mut self.scratch);
        self.range(&p, &mut seeds);
        self.index.remove(&p, id);
        let was_core = self.recs[id as usize].core;
        {
            let r = &mut self.recs[id as usize];
            r.alive = false;
            r.core = false;
            r.label = NO_LABEL;
        }
        self.alive -= 1;
        // Read-path dirt: the departing point's ball loses it (and may
        // lose a core anchor); demotions below dirty their balls too.
        self.snap.mark_dead(id);
        let min_pts = self.params.min_pts as u32;
        // Decrement counts; collect demotions.
        let mut demoted: Vec<u32> = Vec::new();
        for &(q, _) in &seeds {
            if q == id {
                continue;
            }
            self.snap.mark(q);
            let r = &mut self.recs[q as usize];
            r.count -= 1;
            if r.core && r.count < min_pts {
                r.core = false;
                r.label = NO_LABEL;
                demoted.push(q);
            }
        }
        // BFS seeds: still-core endpoints of the removed core-graph edges.
        let mut bfs_seeds: Vec<u32> = Vec::new();
        if was_core {
            for &(q, _) in &seeds {
                if q != id && self.recs[q as usize].core {
                    bfs_seeds.push(q);
                }
            }
        }
        let mut tmp = Vec::new();
        for &q in &demoted {
            let qp = self.recs[q as usize].coords;
            self.range(&qp, &mut tmp);
            for &(r, _) in &tmp {
                self.snap.mark(r);
                if self.recs[r as usize].core {
                    bfs_seeds.push(r);
                }
            }
        }
        dydbscan_geom::radix_sort_u32(&mut bfs_seeds);
        bfs_seeds.dedup();
        seeds.clear();
        self.scratch = seeds;
        if bfs_seeds.len() > 1 {
            // Cheap pre-check from the original paper: if the seed objects
            // are directly connected among themselves (pairwise core-graph
            // edges within the seed set form one component), the cluster
            // cannot have split and the BFS is skipped.
            let groups = self.seed_components(&bfs_seeds);
            if groups.len() > 1 {
                self.split_check(&groups);
            }
        }
    }

    /// Inserts a batch in one index pass: every point is indexed first,
    /// then each batch point issues exactly **one** range query against
    /// the final set, which serves double duty as its seed set (own
    /// count + neighbor count bumps) *and* as the ball of its label
    /// round. Looped insertion instead re-queries a batch point's ball
    /// whenever a later neighbor promotes it, and its early queries see
    /// only a prefix of the batch. The final clustering is identical
    /// (exact counts over the final set; the label merges commute).
    pub fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        if pts.len() < 2 {
            return pts.iter().map(|p| self.insert(*p)).collect();
        }
        dydbscan_core::validate_points(pts).unwrap_or_else(|e| panic!("{e}"));
        self.pipeline.begin_flush(pts.len());
        let batch_start = self.recs.len() as u32;
        let min_pts = self.params.min_pts as u32;

        // Phase 1: index the whole batch in one block — the R-tree
        // bulk-loads it by sort-tile packing instead of paying one
        // choose-leaf/split walk per point.
        let mut block: Vec<(Point<D>, u32)> = Vec::with_capacity(pts.len());
        let ids: Vec<u32> = pts
            .iter()
            .map(|p| {
                let id = self.recs.len() as u32;
                self.recs.push(Rec {
                    coords: *p,
                    count: 0,
                    label: NO_LABEL,
                    alive: true,
                    core: false,
                });
                self.alive += 1;
                self.snap.mark(id);
                block.push((*p, id));
                id
            })
            .collect();
        self.index.insert_block(&block);

        // Phase 2 (parallel): one range query per batch point against
        // the final, now-stable index, retained for reuse. Queries only
        // read the index; results come back in batch order.
        let seeds: Vec<Vec<(u32, f64)>> = {
            let (index, eps) = (&self.index, self.params.eps);
            self.pipeline.run(FlushPhase::Scan, pts.len(), |k| {
                let mut s = Vec::new();
                index.collect_within(&pts[k], eps, &mut s);
                s
            })
        };
        self.stats.range_queries += seeds.len() as u64;
        self.stats.points_touched += seeds.iter().map(|s| s.len() as u64).sum::<u64>();

        // Phase 3: counts and promotions. Batch points read their count
        // off their own (final-set) query; pre-existing points get one
        // bump per batch ball containing them and promote exactly when
        // they cross the threshold.
        let mut new_cores: Vec<u32> = Vec::new();
        for (k, s) in seeds.iter().enumerate() {
            self.recs[ids[k] as usize].count = s.len() as u32;
            if s.len() as u32 >= min_pts {
                new_cores.push(ids[k]);
            }
        }
        for s in &seeds {
            for &(q, _) in s {
                if q >= batch_start {
                    continue; // batch counts already final
                }
                let r = &mut self.recs[q as usize];
                r.count += 1;
                if !r.core && r.count == min_pts {
                    new_cores.push(q);
                }
            }
        }

        // Flip flags first so simultaneous promotions see each other.
        for &q in &new_cores {
            self.recs[q as usize].core = true;
        }

        // Phase 4: label maintenance per new core point (creation /
        // absorption / merge), reusing the retained balls for batch
        // points; only pre-existing promotions re-query.
        let mut ball = Vec::new();
        for &q in &new_cores {
            if q < batch_start {
                let qp = self.recs[q as usize].coords;
                self.range(&qp, &mut ball);
            }
            let b: &[(u32, f64)] = if q >= batch_start {
                &seeds[(q - batch_start) as usize]
            } else {
                &ball
            };
            // Read-path dirt: every point in a promoted ball gains a
            // core anchor candidate.
            for &(r, _) in b {
                self.snap.mark(r);
            }
            let mut label = self.recs[q as usize].label;
            for &(r, _) in b {
                if r == q || !self.recs[r as usize].core {
                    continue;
                }
                let rl = self.recs[r as usize].label;
                if rl == NO_LABEL {
                    continue; // promoted this flush, labeled by its own round
                }
                if label == NO_LABEL {
                    label = self.labels.find(rl);
                } else if !self.labels.same(label, rl) {
                    self.labels.union(label, rl);
                    self.stats.label_merges += 1;
                    label = self.labels.find(label);
                }
            }
            if label == NO_LABEL {
                label = self.labels.make_set();
            }
            self.recs[q as usize].label = label;
        }
        ids
    }

    /// Deletes a batch in one index pass: every point leaves the index
    /// first, then each deleted point issues exactly **one** range query
    /// against the surviving set to decrement neighbor counts, and the
    /// split adjudication — the BFS whose cost dominates IncDBSCAN
    /// deletions — runs **once for the whole batch** instead of once per
    /// deletion. The final clustering is identical to looped deletion
    /// (counts are exact over the survivors; the combined BFS discovers
    /// the same final core-graph components).
    pub fn delete_batch(&mut self, del_ids: &[PointId]) {
        if del_ids.len() < 2 {
            for &id in del_ids {
                self.delete(id);
            }
            return;
        }
        self.pipeline.begin_flush(del_ids.len());
        let min_pts = self.params.min_pts as u32;

        // Phase 1: pull the whole batch out of the index and the record
        // table, keeping coordinates and core-ness for seed discovery.
        let mut dead: Vec<(Point<D>, bool)> = Vec::with_capacity(del_ids.len());
        for &id in del_ids {
            assert!(self.is_alive(id), "IncDBSCAN delete of dead id {id}");
            let p = self.recs[id as usize].coords;
            let was_core = self.recs[id as usize].core;
            self.index.remove(&p, id);
            let r = &mut self.recs[id as usize];
            r.alive = false;
            r.core = false;
            r.label = NO_LABEL;
            self.alive -= 1;
            self.snap.mark_dead(id);
            dead.push((p, was_core));
        }

        // Phase 2: one range query per deleted point over the — now
        // stable — surviving set, fanned out over the pool; each
        // survivor's count then drops once per deleted ball containing
        // it. Seeds are collected now and re-filtered afterwards (a seed
        // can still be demoted by a later decrement).
        let balls: Vec<Vec<(u32, f64)>> = {
            let (index, eps) = (&self.index, self.params.eps);
            self.pipeline.run(FlushPhase::Scan, dead.len(), |k| {
                let mut s = Vec::new();
                index.collect_within(&dead[k].0, eps, &mut s);
                s
            })
        };
        self.stats.range_queries += balls.len() as u64;
        self.stats.points_touched += balls.iter().map(|b| b.len() as u64).sum::<u64>();
        let mut demoted: Vec<u32> = Vec::new();
        let mut bfs_seeds: Vec<u32> = Vec::new();
        for (ball, &(_, was_core)) in balls.iter().zip(&dead) {
            for &(q, _) in ball {
                // Read-path dirt: a survivor near a departed (possibly
                // core) point may lose an anchor.
                self.snap.mark(q);
                let r = &mut self.recs[q as usize];
                r.count -= 1;
                if r.core && r.count < min_pts {
                    r.core = false;
                    r.label = NO_LABEL;
                    demoted.push(q);
                }
            }
            if was_core {
                bfs_seeds.extend(ball.iter().map(|&(q, _)| q));
            }
        }
        let demoted_balls: Vec<Vec<(u32, f64)>> = {
            let (index, eps, recs) = (&self.index, self.params.eps, &self.recs);
            self.pipeline.run(FlushPhase::Scan, demoted.len(), |k| {
                let mut s = Vec::new();
                index.collect_within(&recs[demoted[k] as usize].coords, eps, &mut s);
                s
            })
        };
        self.stats.range_queries += demoted_balls.len() as u64;
        self.stats.points_touched += demoted_balls.iter().map(|b| b.len() as u64).sum::<u64>();
        for ball in &demoted_balls {
            for &(r, _) in ball {
                // Read-path dirt: a demotion removes an anchor from its
                // whole ball.
                self.snap.mark(r);
                bfs_seeds.push(r);
            }
        }
        bfs_seeds.retain(|&q| self.recs[q as usize].core);
        dydbscan_geom::radix_sort_u32(&mut bfs_seeds);
        bfs_seeds.dedup();

        // Phase 3: one split adjudication per affected *cluster*. A
        // split can only happen inside one former cluster, so seeds are
        // scoped by their (resolved) label first — a batch touching
        // several far-apart clusters must not compare their seeds
        // against each other, or every intact cluster would read as a
        // "split", be BFS-enumerated wholesale, and bump the splits
        // counter that looped deletion leaves at zero.
        //
        // One stable radix pass by label does the scoping: labels come
        // out ascending (the determinism the old hash-map + comparison
        // re-sort bought), and seed ids stay ascending within each label
        // because `bfs_seeds` is already sorted and the pass is stable —
        // no per-group re-sort needed.
        let mut by_label: Vec<(u32, u32)> = bfs_seeds
            .iter()
            .map(|&q| (self.labels.find(self.recs[q as usize].label), q))
            .collect();
        dydbscan_geom::radix_sort_by_key(&mut by_label, |&(l, _)| u64::from(l));
        let mut i = 0;
        while i < by_label.len() {
            let label = by_label[i].0;
            let j = i + by_label[i..].partition_point(|&(l, _)| l == label);
            if j - i > 1 {
                let seeds: Vec<u32> = by_label[i..j].iter().map(|&(_, q)| q).collect();
                let groups = self.seed_components(&seeds);
                if groups.len() > 1 {
                    self.split_check(&groups);
                }
            }
            i = j;
        }
    }

    /// Partitions the seed set into components of the core graph induced
    /// on the seeds alone (edges = pairs within `eps`). One component
    /// proves the cluster intact; several require the BFS to adjudicate.
    fn seed_components(&self, seeds: &[u32]) -> Vec<Vec<u32>> {
        let eps_sq = self.params.eps_sq();
        let mut uf = UnionFind::with_len(seeds.len());
        for i in 0..seeds.len() {
            let pi = self.recs[seeds[i] as usize].coords;
            for j in (i + 1)..seeds.len() {
                if uf.same(i as u32, j as u32) {
                    continue;
                }
                let pj = self.recs[seeds[j] as usize].coords;
                if dydbscan_geom::dist_sq(&pi, &pj) <= eps_sq {
                    uf.union(i as u32, j as u32);
                    if uf.num_sets() == 1 {
                        return vec![seeds.to_vec()];
                    }
                }
            }
        }
        let mut by_root: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (i, &s) in seeds.iter().enumerate() {
            by_root.entry(uf.find(i as u32)).or_default().push(s);
        }
        by_root.into_values().collect()
    }

    /// Round-robin lockstep multi-source BFS over the core graph,
    /// relabeling exhausted thread groups (paper Section 3, "Deletion").
    /// One thread starts per *seed component* (seeds already known to be
    /// interconnected share a thread).
    fn split_check(&mut self, seed_groups: &[Vec<u32>]) {
        let k = seed_groups.len();
        let mut threads = UnionFind::with_len(k);
        // point -> thread root that visited it
        let mut visited: FxHashMap<u32, u32> = FxHashMap::default();
        let mut queues: Vec<Vec<u32>> = vec![Vec::new(); k];
        // visited membership per original thread (merged lazily)
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut active: Vec<u32> = Vec::new();
        for (t, group) in seed_groups.iter().enumerate() {
            for &s in group {
                match visited.get(&s) {
                    Some(&prev) => {
                        threads.union(prev, t as u32);
                    }
                    None => {
                        visited.insert(s, t as u32);
                        queues[t].push(s);
                        members[t].push(s);
                    }
                }
            }
            active.push(t as u32);
        }
        let mut ball = Vec::new();
        loop {
            // Coalesce the active list to live group roots.
            let mut roots: Vec<u32> = active.iter().map(|&t| threads.find(t)).collect();
            roots.sort_unstable();
            roots.dedup();
            roots.retain(|&g| !queues[g as usize].is_empty());
            let running: Vec<u32> = roots;
            if running.len() <= 1 {
                // No split among the still-running side: every *finished*
                // group (exhausted queue) is a separate component and was
                // already relabeled below; the last runner keeps its label.
                break;
            }
            active = running.clone();
            // One expansion step per running group (lockstep).
            for g in running {
                let mut g = threads.find(g);
                let x = match queues[g as usize].pop() {
                    Some(x) => x,
                    None => continue, // merged away this round
                };
                self.stats.bfs_expansions += 1;
                let xp = self.recs[x as usize].coords;
                self.range(&xp, &mut ball);
                for &(y, _) in &ball {
                    if y == x || !self.recs[y as usize].core {
                        continue;
                    }
                    match visited.get(&y) {
                        None => {
                            visited.insert(y, g);
                            queues[g as usize].push(y);
                            members[g as usize].push(y);
                        }
                        Some(&h) => {
                            let hr = threads.find(h);
                            if hr != g {
                                // Threads meet: merge groups and queues.
                                threads.union(hr, g);
                                let root = threads.find(g);
                                let other = if root == g { hr } else { g };
                                let q = std::mem::take(&mut queues[other as usize]);
                                queues[root as usize].extend(q);
                                let m = std::mem::take(&mut members[other as usize]);
                                members[root as usize].extend(m);
                                // Continue the expansion under the merged
                                // root: pushing onto a drained non-root
                                // queue would strand frontier points.
                                g = root;
                            }
                        }
                    }
                }
                let g = threads.find(g);
                if queues[g as usize].is_empty() {
                    // This group enumerated a complete component: it is a
                    // split-off cluster. Relabel it with a fresh id.
                    self.stats.splits += 1;
                    let fresh = self.labels.make_set();
                    for &m in &members[g as usize] {
                        self.recs[m as usize].label = fresh;
                    }
                }
            }
        }
    }

    /// Refreshes (if dirty) and returns the current epoch snapshot: core
    /// points' labels are resolved through the merge-history union-find
    /// without path compression, and only points near the updates since
    /// the last read boundary get their anchors (in-ball core points)
    /// re-queried — fanned over the persistent worker pool when enough
    /// points are dirty. Under delta tracking, a relabeled core point
    /// and its `eps`-ball are the points that may anchor to it.
    fn refresh(&self) -> Arc<ClusterSnapshot> {
        let eps = self.params.eps;
        // Field borrows (not `&self`) so the closure's captures are the
        // plain-data structures the workers actually read.
        let recs = &self.recs;
        let index = &self.index;
        self.snap.read_with(
            self.recs.len(),
            || {
                self.recs
                    .iter()
                    .map(|r| {
                        if r.core {
                            self.labels.root_of(r.label) as u64
                        } else {
                            0 // never anchored to: only core ids are anchors
                        }
                    })
                    .collect()
            },
            |pid, emit| {
                let r = &recs[pid as usize];
                if !r.alive {
                    return; // died after it was marked dirty
                }
                if r.core {
                    emit(pid, true, Anchors::One(pid));
                } else {
                    let mut ball = Vec::new();
                    index.collect_within(&r.coords, eps, &mut ball);
                    let mut cores: Vec<u32> = ball
                        .into_iter()
                        .filter(|&(q, _)| recs[q as usize].core)
                        .map(|(q, _)| q)
                        .collect();
                    dydbscan_geom::radix_sort_u32(&mut cores);
                    cores.dedup();
                    emit(pid, false, Anchors::from_sorted(&cores));
                }
            },
            |relabeled, emit| {
                // Coordinates outlive deletion, so a dead or demoted
                // vertex still has a ball.
                let mut ball = Vec::new();
                for &v in relabeled {
                    emit(v);
                    ball.clear();
                    index.collect_within(&recs[v as usize].coords, eps, &mut ball);
                    for &(q, _) in &ball {
                        emit(q);
                    }
                }
            },
            Some(&self.pipeline),
        )
    }

    /// The current epoch snapshot — `Arc`-share it with reader threads
    /// and keep applying updates; their answers stay frozen at this
    /// epoch.
    pub fn snapshot(&self) -> Arc<ClusterSnapshot> {
        self.refresh()
    }

    /// Answers a C-group-by query (grouping by resolved cluster labels;
    /// border points honor DBSCAN's multi-membership semantics). Panics
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
        dydbscan_core::snapshot::group_all_pooled(&snap, &self.snap, &self.pipeline)
    }

    /// The pre-snapshot query walk (label resolution through the
    /// mutating union-find, border points by live range query): the
    /// differential-testing oracle the snapshot path is checked against.
    #[doc(hidden)]
    pub fn direct_group_by(&mut self, q: &[PointId]) -> GroupBy {
        let mut by_label: FxHashMap<u32, Vec<PointId>> = FxHashMap::default();
        let mut noise = Vec::new();
        let mut ball = Vec::new();
        for &pid in q {
            assert!(self.is_alive(pid), "query of dead id {pid}");
            if self.recs[pid as usize].core {
                let l = self.labels.find(self.recs[pid as usize].label);
                by_label.entry(l).or_default().push(pid);
            } else {
                let p = self.recs[pid as usize].coords;
                self.range(&p, &mut ball);
                let mut ls: Vec<u32> = ball
                    .iter()
                    .filter(|&&(r, _)| self.recs[r as usize].core)
                    .map(|&(r, _)| self.labels.find(self.recs[r as usize].label))
                    .collect();
                ls.sort_unstable();
                ls.dedup();
                if ls.is_empty() {
                    noise.push(pid);
                } else {
                    for l in ls {
                        by_label.entry(l).or_default().push(pid);
                    }
                }
            }
        }
        let mut out = GroupBy {
            groups: by_label.into_values().collect(),
            noise,
        };
        out.normalize();
        out
    }

    /// `Q = P` through [`direct_group_by`](Self::direct_group_by).
    #[doc(hidden)]
    pub fn direct_group_all(&mut self) -> Clustering {
        let ids = self.alive_ids();
        self.direct_group_by(&ids)
    }
}

impl<const D: usize, I: RangeIndex<D>> DynamicClusterer<D> for IncDbscan<D, I> {
    fn params(&self) -> &Params {
        IncDbscan::params(self)
    }

    fn len(&self) -> usize {
        IncDbscan::len(self)
    }

    fn supports_deletion(&self) -> bool {
        true
    }

    fn insert(&mut self, p: Point<D>) -> PointId {
        IncDbscan::insert(self, p)
    }

    fn delete(&mut self, id: PointId) {
        IncDbscan::delete(self, id)
    }

    fn is_core(&self, id: PointId) -> bool {
        IncDbscan::is_core(self, id)
    }

    fn coords(&self, id: PointId) -> Point<D> {
        IncDbscan::coords(self, id)
    }

    fn alive_ids(&self) -> Vec<PointId> {
        IncDbscan::alive_ids(self)
    }

    fn snapshot(&self) -> Arc<ClusterSnapshot> {
        IncDbscan::snapshot(self)
    }

    fn epoch_handle(&self) -> EpochHandle {
        self.snap.epoch_handle()
    }

    fn set_track_deltas(&mut self, on: bool) {
        self.snap.set_track_deltas(on);
    }

    fn group_by(&self, q: &[PointId]) -> GroupBy {
        IncDbscan::group_by(self, q)
    }

    fn try_group_by(&self, q: &[PointId]) -> Result<GroupBy, QueryError> {
        IncDbscan::try_group_by(self, q)
    }

    fn group_all(&self) -> Clustering {
        IncDbscan::group_all(self)
    }

    fn insert_batch(&mut self, pts: &[Point<D>]) -> Vec<PointId> {
        IncDbscan::insert_batch(self, pts)
    }

    fn delete_batch(&mut self, ids: &[PointId]) {
        IncDbscan::delete_batch(self, ids)
    }

    /// IncDBSCAN keeps a merge history, not an explicit edge set: only
    /// `range_queries`, `splits` and the shared flush counters are
    /// tracked; the graph-churn counters stay `0`, and so does
    /// `batch_cell_scans` — the grouped overrides save *queries* (one
    /// index pass per batch, one split adjudication per flush), not
    /// cell materializations, which the baseline does not have. The
    /// parallel counters report the pooled per-point range-query
    /// phases. Full provenance lives in [`IncStats`] on the concrete
    /// type.
    fn stats(&self) -> ClustererStats {
        let s = self.stats;
        ClustererStats {
            range_queries: s.range_queries,
            splits: s.splits,
            ..ClustererStats::default()
        }
        .with_flush(self.pipeline.stats())
        .with_snapshot(&self.snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GridRangeIndex;
    use dydbscan_core::{brute_force_exact, relabel};
    use dydbscan_geom::SplitMix64;

    fn churn<I: RangeIndex<2>>(mut algo: IncDbscan<2, I>, seed: u64, steps: usize) {
        let params = *algo.params();
        let mut rng = SplitMix64::new(seed);
        let mut live: Vec<(PointId, Point<2>)> = Vec::new();
        for step in 0..steps {
            if live.is_empty() || rng.next_below(100) < 62 {
                let p = [rng.next_f64() * 10.0, rng.next_f64() * 10.0];
                live.push((algo.insert(p), p));
            } else {
                let i = rng.next_below(live.len() as u64) as usize;
                let (id, _) = live.swap_remove(i);
                algo.delete(id);
            }
            if (step + 1) % 40 == 0 {
                let pts: Vec<Point<2>> = live.iter().map(|&(_, p)| p).collect();
                let ids: Vec<PointId> = live.iter().map(|&(i, _)| i).collect();
                let got = algo.group_all();
                let want = relabel(&brute_force_exact(&pts, &params), &ids);
                assert_eq!(got, want, "seed {seed} step {step}");
            }
        }
    }

    #[test]
    fn rtree_churn_matches_bruteforce() {
        for seed in 0..4u64 {
            churn(IncDbscan::<2>::new(Params::new(1.0, 3)), seed + 10, 300);
        }
    }

    #[test]
    fn grid_churn_matches_bruteforce() {
        churn(
            IncDbscan::<2, GridRangeIndex<2>>::new_grid(Params::new(1.2, 4)),
            99,
            300,
        );
    }

    #[test]
    fn forced_split_is_detected() {
        // Two blobs joined by a single chain point; deleting it splits.
        let params = Params::new(1.0, 3);
        let mut algo = IncDbscan::<2>::new(params);
        let mut left = Vec::new();
        let mut right = Vec::new();
        for i in 0..6 {
            left.push(algo.insert([i as f64 * 0.3, 0.0]));
            right.push(algo.insert([4.0 + i as f64 * 0.3, 0.0]));
        }
        let bridge = algo.insert([2.4, 0.0]);
        let bridge2 = algo.insert([3.2, 0.0]);
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 1, "bridged: one cluster");
        algo.delete(bridge);
        algo.delete(bridge2);
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 2, "bridge removed: split into two");
        assert!(algo.stats().splits >= 1);
    }

    #[test]
    fn insertion_merge_case() {
        let params = Params::new(1.0, 2);
        let mut algo = IncDbscan::<2>::new(params);
        let a = algo.insert([0.0, 0.0]);
        let b = algo.insert([0.5, 0.0]);
        let c = algo.insert([5.0, 0.0]);
        let d = algo.insert([5.5, 0.0]);
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 2);
        // chain of bridges merges the two clusters
        for i in 1..9 {
            algo.insert([0.5 + i as f64 * 0.5, 0.0]);
        }
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 1);
        assert!(g.same_cluster(a, d));
        assert!(g.same_cluster(b, c));
        assert!(algo.stats().label_merges >= 1);
    }

    #[test]
    fn batched_updates_match_looped_updates() {
        // The grouped one-index-pass overrides must be semantically
        // invisible: same clustering as looped updates after every flush.
        let mut rng = SplitMix64::new(314);
        let params = Params::new(1.0, 3);
        let mut batched = IncDbscan::<2>::new(params);
        let mut looped = IncDbscan::<2>::new(params);
        let mut alive: Vec<PointId> = Vec::new();
        for round in 0..12 {
            if alive.len() > 30 && rng.next_below(10) < 4 {
                let take = (1 + rng.next_below(25) as usize).min(alive.len());
                let mut chunk = Vec::with_capacity(take);
                for _ in 0..take {
                    let i = rng.next_below(alive.len() as u64) as usize;
                    chunk.push(alive.swap_remove(i));
                }
                batched.delete_batch(&chunk);
                for &id in &chunk {
                    looped.delete(id);
                }
            } else {
                let take = 5 + rng.next_below(50) as usize;
                let pts: Vec<Point<2>> = (0..take)
                    .map(|_| [rng.next_f64() * 6.0, rng.next_f64() * 6.0])
                    .collect();
                let a = batched.insert_batch(&pts);
                let b: Vec<PointId> = pts.iter().map(|p| looped.insert(*p)).collect();
                assert_eq!(a, b, "round {round}");
                alive.extend(a);
            }
            let got = batched.group_all();
            assert_eq!(got, looped.group_all(), "round {round}");
            // and both must equal brute force (exact algorithm)
            let pts: Vec<Point<2>> = alive.iter().map(|&id| batched.coords(id)).collect();
            let want = relabel(&brute_force_exact(&pts, &params), &alive);
            assert_eq!(got, want, "round {round} vs brute force");
        }
        assert!(batched.flush_stats().batch_flushes > 0);
        assert!(
            batched.stats().range_queries < looped.stats().range_queries,
            "the grouped pipeline must save index passes ({} vs {})",
            batched.stats().range_queries,
            looped.stats().range_queries
        );
    }

    #[test]
    fn batched_split_detection_matches_looped() {
        // Deleting both bridge points in ONE batch must still split the
        // cluster, with a single combined adjudication.
        let params = Params::new(1.0, 3);
        let mut algo = IncDbscan::<2>::new(params);
        for i in 0..6 {
            algo.insert([i as f64 * 0.3, 0.0]);
            algo.insert([4.0 + i as f64 * 0.3, 0.0]);
        }
        let bridge = algo.insert([2.4, 0.0]);
        let bridge2 = algo.insert([3.2, 0.0]);
        assert_eq!(algo.group_all().groups.len(), 1);
        algo.delete_batch(&[bridge, bridge2]);
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 2, "bridge removed in one batch: split");
        assert!(algo.stats().splits >= 1);
    }

    #[test]
    fn batched_delete_across_unrelated_clusters_is_not_a_split() {
        // One batch deletes a core point from each of two far-apart
        // clusters. Neither cluster splits; the adjudication must be
        // scoped per cluster (seeds of A never race seeds of B), so the
        // splits counter stays 0 — as it does under looped deletion.
        let params = Params::new(1.0, 3);
        let mut algo = IncDbscan::<2>::new(params);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..6 {
            a.push(algo.insert([i as f64 * 0.3, 0.0]));
            b.push(algo.insert([100.0 + i as f64 * 0.3, 0.0]));
        }
        assert_eq!(algo.group_all().groups.len(), 2);
        algo.delete_batch(&[a[2], b[3]]);
        assert_eq!(algo.stats().splits, 0, "intact clusters are not splits");
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 2);
        let pts: Vec<Point<2>> = algo.alive_ids().iter().map(|&i| algo.coords(i)).collect();
        let want = relabel(&brute_force_exact(&pts, &params), &algo.alive_ids());
        assert_eq!(g, want);
    }

    #[test]
    fn min_pts_one_every_point_clusters() {
        let mut algo = IncDbscan::<2>::new(Params::new(1.0, 1));
        let a = algo.insert([0.0, 0.0]);
        let b = algo.insert([10.0, 0.0]);
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 2);
        assert!(!g.is_noise(a) && !g.is_noise(b));
    }

    #[test]
    fn delete_core_of_small_cluster() {
        let mut algo = IncDbscan::<2>::new(Params::new(1.0, 3));
        let a = algo.insert([0.0, 0.0]);
        let b = algo.insert([0.5, 0.0]);
        let c = algo.insert([0.0, 0.5]);
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 1);
        algo.delete(a);
        let g = algo.group_all();
        assert!(g.groups.is_empty());
        assert_eq!(g.noise.len(), 2);
        let _ = (b, c);
    }
}
