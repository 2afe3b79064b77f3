//! Epoch-versioned, shared-nothing read path: [`ClusterSnapshot`].
//!
//! The C-group-by query (paper Section 4.2) is a pure read, yet the
//! structures it used to walk answer lookups by *mutating* — union-find
//! compresses paths, HDT queries may touch treaps, IncDBSCAN resolves
//! border points through its mutating range counter. That made every
//! query `&mut self`: one reader, zero writers.
//!
//! This module materializes the query into an immutable artifact instead.
//! After updates dirty it, each engine refreshes (at the next read
//! boundary, amortized over the **changed cells only**) a
//! [`ClusterSnapshot`] holding everything a C-group-by query needs:
//!
//! * a **label table** over the engine's *vertex space* (grid cells for
//!   the grid engines, point ids for IncDBSCAN), exported from the CC
//!   structure via the non-mutating
//!   [`DynConnectivity::export_labels`](dydbscan_conn::DynConnectivity::export_labels);
//! * per-point **alive/core flags**;
//! * per-point **anchors** — the vertices whose labels the point maps
//!   to. A core point anchors to its own vertex; a non-core point
//!   anchors to every core vertex that would have claimed it under the
//!   old query walk (emptiness-snapped `eps`-close core cells for the
//!   grid engines, in-ball core points for IncDBSCAN). Anchors are
//!   geometry; labels are connectivity — splitting them means cluster
//!   merges/splits never force geometric re-snapping, and geometric
//!   churn never forces more than a label-table export.
//!
//! Queries against the snapshot are pure lookups: `anchors -> labels ->
//! dedup`. That makes `group_by`/`group_all` `&self` on every engine,
//! lets `group_all` fan point-range chunks across the persistent
//! [`WorkerPool`](crate::batch::FlushPipeline) (bit-identical to the
//! sequential path at every thread count — a range partition followed by
//! an order-preserving merge and the usual normalization), and — because
//! a snapshot is `Arc`-publishable and owns all of its data — lets N
//! reader threads keep answering group-by queries *at their epoch* while
//! the owner applies the next batch: the engine's refresh goes through
//! `Arc::make_mut`, so a published snapshot is never written through.
//!
//! The per-point tables are split into fixed-size `Arc` pages
//! (`PAGE_IDS` ids each) and the label table sits behind its own `Arc`,
//! so building the next epoch next to a published one copies the page
//! directory plus the pages holding a real change — never a whole
//! table. A refresh nothing shares writes every page in place.
//!
//! [`SnapshotState`] is the engine-owned half: the current `Arc`, the
//! dirty key set, the dead list, and the query counters surfaced in
//! [`ClustererStats`](crate::ClustererStats).
//!
//! ## The serving layer (ISSUE 9)
//!
//! Two additions turn the read path into a serving substrate:
//!
//! * [`EpochHandle`] — a **wait-free** publication slot. Query threads
//!   that go through the handle never touch the [`SnapshotState`] mutex:
//!   a [`load`](EpochHandle::load) is a pin, an [`AtomicPtr`] read, a
//!   strong-count bump, and an unpin — no loops, no locks. The single
//!   refreshing thread swaps the slot at publish time and reclaims the
//!   retired pointer after draining the (bounded, few-instruction) pin
//!   window.
//! * [`SnapshotDelta`] / [`ChangeFeed`] — an opt-in
//!   ([`SnapshotState::set_track_deltas`]) delta-encoded epoch chain.
//!   Each refresh computes the set of points whose resolved cluster
//!   state changed (from the dirty-set bookkeeping it already keeps,
//!   plus, for merge/split relabels that touch no geometry, the points
//!   the engine says may anchor to a relabeled vertex), and appends it
//!   to a sliding window of the newest `DELTA_CHAIN_MAX` (64) spans behind
//!   the handle. [`changed_since`](EpochHandle::changed_since)`(E)`
//!   composes the chain into one delta, or tells the client to resync
//!   ([`ChangeFeed::Reset`]) when `E` predates the window.

use crate::groups::{Clustering, GroupBy};
use crate::points::PointId;
use dydbscan_conn::CompId;
use dydbscan_geom::{FxHashMap, FxHashSet};
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

const F_ALIVE: u8 = 1;
const F_CORE: u8 = 2;

/// A typed C-group-by rejection (see `try_group_by` on the engines, the
/// [`DynamicClusterer`](crate::DynamicClusterer) trait and the
/// `dydbscan::DynDbscan` facade). The infallible `group_by` keeps its
/// loud panic; this is the boundary for query sets of uncertain
/// provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The query set contained an id that is deleted, was never issued,
    /// or post-dates the snapshot being queried.
    DeadPoint {
        /// The offending id.
        id: PointId,
    },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::DeadPoint { id } => {
                write!(
                    f,
                    "C-group-by query contains deleted or unknown point id {id}"
                )
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// The vertices a point's cluster membership maps through (see the
/// module docs). Sized for the common cases: most points are core (one
/// anchor — their own vertex) or noise (none); only non-core points near
/// several core vertices spill to the boxed form.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Anchors {
    /// No core vertex claims the point: noise at this epoch.
    #[default]
    None,
    /// Exactly one anchor vertex.
    One(u32),
    /// Several anchor vertices (sorted, deduped).
    Many(Box<[u32]>),
}

impl Anchors {
    /// Builds from a sorted, deduped vertex list.
    pub fn from_sorted(ids: &[u32]) -> Self {
        match ids {
            [] => Anchors::None,
            [v] => Anchors::One(*v),
            many => Anchors::Many(many.into()),
        }
    }

    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Anchors::None => &[],
            Anchors::One(v) => std::slice::from_ref(v),
            Anchors::Many(vs) => vs,
        }
    }
}

/// An immutable, epoch-stamped view of the clustering — everything a
/// C-group-by query reads, owned (no borrows into the engine), `Send +
/// Sync`, and cheap to share via [`Arc`].
///
/// Obtain one from `snapshot()` on any engine (or the
/// [`DynamicClusterer`](crate::DynamicClusterer) trait / `DynDbscan`
/// facade) and query it from as many threads as you like while the
/// owning engine keeps applying updates; the answers stay internally
/// consistent *at this epoch*.
#[derive(Debug, Clone, Default)]
pub struct ClusterSnapshot {
    epoch: u64,
    /// Component label per vertex (cell id or point id, engine-defined).
    /// Shared, so cloning the snapshot never copies a table the next
    /// export replaces anyway.
    labels: Arc<Vec<CompId>>,
    /// `F_ALIVE | F_CORE` per point id ever issued up to this epoch.
    flags: Paged<u8>,
    /// Anchor vertices per point id.
    anchors: Paged<Anchors>,
    /// Alive points at this epoch (maintained by the refresh so `len`
    /// stays O(1)).
    alive: usize,
}

/// Ids per copy-on-write page of the per-point tables. Fixed: a page is
/// the unit one changed id copies, and the page directory (one `Arc`
/// per page) is what a clone of the snapshot copies.
pub(crate) const PAGE_IDS: usize = 4096;

/// A per-point table in fixed-size [`PAGE_IDS`]-id `Arc` pages.
/// Cloning it clones the page directory only; writes go through a
/// [`PageWriter`], which copies a page only when a value in it really
/// changes and the page is still shared with another epoch.
#[derive(Debug, Clone, Default, PartialEq)]
struct Paged<T> {
    /// Every page holds exactly `PAGE_IDS` entries, in the `Arc`'s own
    /// allocation: one pointer from the directory to an entry.
    pages: Vec<Arc<[T]>>,
    /// Ids the table covers (the tail of the last page reads default).
    len: usize,
}

impl<T: Clone + Default + PartialEq> Paged<T> {
    /// The entry of id `i` (`i < len`).
    #[inline]
    fn get(&self, i: usize) -> &T {
        &self.pages[i / PAGE_IDS][i % PAGE_IDS]
    }

    /// The covered entries, one slice per page, in id order.
    fn chunks(&self) -> impl Iterator<Item = &[T]> {
        let len = self.len;
        self.pages
            .iter()
            .enumerate()
            .map(move |(p, page)| &page[..(len - p * PAGE_IDS).min(PAGE_IDS)])
    }

    /// Covers ids up to `len` by appending fresh default pages; existing
    /// pages are never copied. Never shrinks (ids are never reused).
    fn grow(&mut self, len: usize) {
        while self.pages.len() * PAGE_IDS < len {
            self.pages.push(vec![T::default(); PAGE_IDS].into());
        }
        self.len = self.len.max(len);
    }

    /// Write access for one refresh (see [`PageWriter`]).
    fn writer(&mut self) -> PageWriter<'_, T> {
        PageWriter {
            pages: self.pages.iter_mut().map(Page::Unwritten).collect(),
            copied: 0,
        }
    }
}

/// One page of a [`PageWriter`].
enum Page<'a, T> {
    /// Not written this refresh: may still be shared with another epoch.
    Unwritten(&'a mut Arc<[T]>),
    /// Written this refresh, so exclusively this epoch's.
    Owned(&'a mut [T; PAGE_IDS]),
    /// Only while a page turns from unwritten to owned.
    Moving,
}

/// Write access to a [`Paged`] table for one refresh. A page's
/// copy-on-write check (`Arc::get_mut`, an atomic read-modify-write)
/// runs once, at the page's first real change, not once per write:
/// per write it cost more than the write itself. A refresh nothing
/// shares finds every page exclusive and copies none.
struct PageWriter<'a, T> {
    pages: Vec<Page<'a, T>>,
    /// Pages copied because another epoch shared them.
    copied: u64,
}

impl<T: Clone + PartialEq> PageWriter<'_, T> {
    /// Stores `v` at id `i` and returns the value it replaced.
    #[inline]
    fn replace(&mut self, i: usize, v: T) -> T {
        let (p, o) = (i / PAGE_IDS, i % PAGE_IDS);
        match &mut self.pages[p] {
            Page::Owned(page) => std::mem::replace(&mut page[o], v),
            _ => self.replace_unwritten(p, o, v),
        }
    }

    /// [`replace`](Self::replace) into a page not yet written this
    /// refresh: compared first, and made exclusive (copied if another
    /// epoch holds it) only if `v` differs. Out of line, so the owned
    /// case stays small enough to inline into the apply loop.
    #[inline(never)]
    fn replace_unwritten(&mut self, p: usize, o: usize, v: T) -> T {
        if let Page::Unwritten(page) = &self.pages[p] {
            if page[o] == v {
                return v;
            }
        }
        let Page::Unwritten(page) = std::mem::replace(&mut self.pages[p], Page::Moving) else {
            unreachable!("a page is moving only inside this call");
        };
        if Arc::get_mut(page).is_none() {
            *page = Arc::from(&page[..]);
            self.copied += 1;
        }
        let owned: &mut [T; PAGE_IDS] = Arc::get_mut(page)
            .expect("a fresh copy is exclusive")
            .try_into()
            .expect("every page holds PAGE_IDS ids");
        let old = std::mem::replace(&mut owned[o], v);
        self.pages[p] = Page::Owned(owned);
        old
    }
}

/// A partial grouping of one id range — the unit the pool-parallel
/// `group_all` fans out and merges (see
/// [`ClusterSnapshot::group_ids_range`]).
#[derive(Debug)]
pub struct GroupByPart {
    groups: FxHashMap<CompId, Vec<PointId>>,
    noise: Vec<PointId>,
}

impl ClusterSnapshot {
    /// The epoch this snapshot was refreshed at. Strictly increasing per
    /// engine; comparable only between snapshots of the same engine.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Ids ever issued up to this epoch (the exclusive upper bound of
    /// valid query ids).
    pub fn num_ids(&self) -> usize {
        self.flags.len
    }

    /// The flags of `id` (`0` — dead, non-core — past the issued ids).
    #[inline]
    fn flag(&self, id: PointId) -> u8 {
        let i = id as usize;
        if i < self.flags.len {
            *self.flags.get(i)
        } else {
            0
        }
    }

    /// Whether `id` is alive at this epoch.
    pub fn is_alive(&self, id: PointId) -> bool {
        self.flag(id) & F_ALIVE != 0
    }

    /// Whether `id` is a core point at this epoch.
    pub fn is_core(&self, id: PointId) -> bool {
        self.flag(id) & F_CORE != 0
    }

    /// Number of alive points at this epoch (`O(1)` — maintained by the
    /// refresh).
    pub fn len(&self) -> usize {
        self.alive
    }

    /// True if no point is alive at this epoch.
    pub fn is_empty(&self) -> bool {
        self.alive == 0
    }

    /// A content fingerprint over everything the snapshot holds (epoch,
    /// label table, flags, anchors, alive count). Two snapshots with
    /// the same checksum answer every query identically.
    ///
    /// Used by the schedule-exploration harness
    /// (`dydbscan_core::sched`) and the concurrency suites to prove
    /// published snapshots are never written through: a reader hashes
    /// the `Arc` it holds, lets the writer refresh, and re-verifies.
    pub fn checksum(&self) -> u64 {
        fn mix(h: u64, v: u64) -> u64 {
            let mut z = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut h = mix(0x5EED_0C5E_C55E_ED00, self.epoch);
        h = mix(h, self.alive as u64);
        for &l in self.labels.iter() {
            h = mix(h, l);
        }
        for &f in self.flags.chunks().flatten() {
            h = mix(h, u64::from(f));
        }
        for a in self.anchors.chunks().flatten() {
            match a {
                Anchors::None => h = mix(h, 1),
                Anchors::One(v) => h = mix(mix(h, 2), u64::from(*v)),
                Anchors::Many(vs) => {
                    h = mix(h, 3);
                    for &v in vs.iter() {
                        h = mix(h, u64::from(v));
                    }
                }
            }
        }
        h
    }

    /// The resolved cluster-membership state of `id` at this epoch:
    /// aliveness, core status, and the sorted, deduped set of cluster
    /// labels the point belongs to (empty for noise). Dead and unknown
    /// ids resolve to the default (dead, no labels) state rather than
    /// erroring — a delta needs a total state function.
    ///
    /// This is the *one* definition of "point state" the change feed is
    /// built on: both the incremental per-refresh delta and the
    /// [`SnapshotDelta::between`] full-diff oracle compare exactly this,
    /// which is what makes the differential tests exact.
    pub fn point_state(&self, id: PointId) -> PointState {
        let f = self.flag(id);
        if f & F_ALIVE == 0 {
            return PointState::default();
        }
        let mut labels: Vec<CompId> = self
            .anchors
            .get(id as usize)
            .as_slice()
            .iter()
            .map(|&v| self.labels[v as usize])
            .collect();
        labels.sort_unstable();
        labels.dedup();
        PointState {
            alive: true,
            core: f & F_CORE != 0,
            labels: labels.into(),
        }
    }

    /// Answers a C-group-by query over `q` at this epoch.
    ///
    /// # Panics
    ///
    /// On deleted/unknown ids — querying dead points is a caller bug
    /// worth surfacing loudly; [`try_group_by`](Self::try_group_by) is
    /// the non-panicking boundary.
    pub fn group_by(&self, q: &[PointId]) -> GroupBy {
        self.try_group_by(q).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`group_by`](Self::group_by): a dead or unknown id
    /// rejects the query with [`QueryError::DeadPoint`] naming it.
    pub fn try_group_by(&self, q: &[PointId]) -> Result<GroupBy, QueryError> {
        let mut part = GroupByPart {
            groups: FxHashMap::default(),
            noise: Vec::new(),
        };
        let mut scratch: Vec<CompId> = Vec::new();
        for &pid in q {
            self.group_one(pid, &mut part, &mut scratch)?;
        }
        Ok(Self::merge_parts([part]))
    }

    /// The full clustering at this epoch (`Q =` every alive point).
    pub fn group_all(&self) -> Clustering {
        let part = self
            .group_ids_range(0, self.flags.len as u32)
            .expect("alive ids cannot be dead");
        Self::merge_parts([part])
    }

    /// Groups every alive id in `[lo, hi)` into a mergeable part — the
    /// task body of the pool-parallel `group_all`. Dead ids inside the
    /// range are skipped (unlike explicit query sets, the full-clustering
    /// scan filters rather than rejects); an explicit id in a
    /// [`try_group_by`](Self::try_group_by) set still errors.
    pub fn group_ids_range(&self, lo: u32, hi: u32) -> Result<GroupByPart, QueryError> {
        let mut part = GroupByPart {
            groups: FxHashMap::default(),
            noise: Vec::new(),
        };
        let mut scratch: Vec<CompId> = Vec::new();
        let hi = (hi as usize).min(self.flags.len);
        for pid in lo as usize..hi {
            if self.flags.get(pid) & F_ALIVE != 0 {
                self.group_one(pid as PointId, &mut part, &mut scratch)?;
            }
        }
        Ok(part)
    }

    /// Merges range parts (in range order) into a normalized clustering.
    /// Normalization makes the result independent of the chunking, so
    /// the pooled fan-out is bit-identical to the sequential scan at
    /// every thread count.
    pub fn merge_parts(parts: impl IntoIterator<Item = GroupByPart>) -> Clustering {
        let mut groups: FxHashMap<CompId, Vec<PointId>> = FxHashMap::default();
        let mut noise = Vec::new();
        for part in parts {
            for (label, ids) in part.groups {
                groups.entry(label).or_default().extend(ids);
            }
            noise.extend(part.noise);
        }
        let mut out = GroupBy {
            groups: groups.into_values().collect(),
            noise,
        };
        out.normalize();
        out
    }

    #[inline]
    fn group_one(
        &self,
        pid: PointId,
        part: &mut GroupByPart,
        scratch: &mut Vec<CompId>,
    ) -> Result<(), QueryError> {
        if !self.is_alive(pid) {
            return Err(QueryError::DeadPoint { id: pid });
        }
        let anchors = self.anchors.get(pid as usize).as_slice();
        match anchors {
            [] => part.noise.push(pid),
            [v] => part
                .groups
                .entry(self.labels[*v as usize])
                .or_default()
                .push(pid),
            many => {
                // Distinct anchors may share a label; dedup so the point
                // lands once per cluster (the old walk deduped CC ids).
                scratch.clear();
                scratch.extend(many.iter().map(|&v| self.labels[v as usize]));
                scratch.sort_unstable();
                scratch.dedup();
                for &label in scratch.iter() {
                    part.groups.entry(label).or_default().push(pid);
                }
            }
        }
        Ok(())
    }

    /// Write access to the per-point tables for one refresh.
    fn writer(&mut self) -> SnapshotWriter<'_> {
        SnapshotWriter {
            flags: self.flags.writer(),
            anchors: self.anchors.writer(),
            alive: &mut self.alive,
        }
    }
}

/// The per-point writes of one refresh: deaths, then re-anchoring
/// emissions — the single definition the inline and pooled
/// re-anchoring funnel through, which is what makes "pooled ≡ serial"
/// a matter of emission order alone.
struct SnapshotWriter<'a> {
    flags: PageWriter<'a, u8>,
    anchors: PageWriter<'a, Anchors>,
    alive: &'a mut usize,
}

impl SnapshotWriter<'_> {
    /// Clears the slot of a point that died.
    fn kill(&mut self, id: PointId) {
        let i = id as usize;
        if self.flags.replace(i, 0) & F_ALIVE != 0 {
            *self.alive -= 1;
        }
        self.anchors.replace(i, Anchors::None);
    }

    /// Applies one re-anchoring emission.
    #[inline]
    fn emit(&mut self, pid: PointId, core: bool, anchors: Anchors) {
        let i = pid as usize;
        let f = F_ALIVE | if core { F_CORE } else { 0 };
        if self.flags.replace(i, f) & F_ALIVE == 0 {
            *self.alive += 1; // first time this id is seen alive
        }
        self.anchors.replace(i, anchors);
    }

    /// Pages copied because a published epoch still shared them.
    fn pages_copied(&self) -> u64 {
        self.flags.copied + self.anchors.copied
    }
}

/// The resolved cluster-membership state of one point at one epoch (see
/// [`ClusterSnapshot::point_state`]). The default value is the state of
/// a dead or never-issued point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PointState {
    /// Whether the point is alive at the epoch.
    pub alive: bool,
    /// Whether the point is core at the epoch.
    pub core: bool,
    /// Sorted, deduped cluster labels the point belongs to (empty for
    /// noise and for dead points).
    pub labels: Box<[CompId]>,
}

/// One changed point in a [`SnapshotDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// The point whose state changed.
    pub id: PointId,
    /// Its state at the delta's `from` epoch.
    pub before: PointState,
    /// Its state at the delta's `to` epoch.
    pub after: PointState,
}

/// Every point whose resolved cluster state changed between two epochs
/// of one engine — the unit of the `changed_since` change feed.
///
/// Entries are sorted by id and never vacuous (`before != after`); a
/// delta with no entries still carries meaning ("these epochs are
/// equivalent"). Deltas over adjacent spans [`compose`](Self::compose)
/// exactly: `d(E,E').compose(d(E',E'')) == SnapshotDelta::between(E,
/// E'')` — the invariant the change-feed differential tests pin down.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SnapshotDelta {
    /// Epoch the `before` states belong to.
    pub from: u64,
    /// Epoch the `after` states belong to (`> from` except for the
    /// empty "you are current" feed answer).
    pub to: u64,
    /// Changed points, sorted by id, `before != after` for every entry.
    pub entries: Vec<DeltaEntry>,
}

impl SnapshotDelta {
    /// True when no point changed state over the span (the epochs are
    /// equivalent for query purposes).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The full diff of two snapshots: every id (of either) whose
    /// resolved state differs. `O(num_ids)` — this is the *oracle* the
    /// incrementally-computed refresh deltas are differentially tested
    /// against, not the production path.
    pub fn between(old: &ClusterSnapshot, new: &ClusterSnapshot) -> Self {
        let ids = old.num_ids().max(new.num_ids());
        let mut entries = Vec::new();
        for id in 0..ids as u32 {
            let before = old.point_state(id);
            let after = new.point_state(id);
            if before != after {
                entries.push(DeltaEntry { id, before, after });
            }
        }
        Self {
            from: old.epoch,
            to: new.epoch,
            entries,
        }
    }

    /// Composes two adjacent deltas (`self.to == later.from`) into one
    /// spanning delta: earliest `before`, latest `after`, with points
    /// that changed and changed back dropped entirely. Composition is
    /// exact: the result equals [`between`](Self::between) over the
    /// endpoints.
    ///
    /// # Panics
    ///
    /// If the spans are not adjacent — composing a gapped chain would
    /// silently fabricate history.
    pub fn compose(&self, later: &SnapshotDelta) -> SnapshotDelta {
        assert_eq!(
            self.to, later.from,
            "SnapshotDelta::compose: spans must be adjacent"
        );
        let mut entries = Vec::with_capacity(self.entries.len().max(later.entries.len()));
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.entries.len() || j < later.entries.len() {
            let a = self.entries.get(i);
            let b = later.entries.get(j);
            let (before, after, id) = match (a, b) {
                (Some(a), Some(b)) if a.id == b.id => {
                    i += 1;
                    j += 1;
                    (a.before.clone(), b.after.clone(), a.id)
                }
                (Some(a), Some(b)) if a.id < b.id => {
                    i += 1;
                    (a.before.clone(), a.after.clone(), a.id)
                }
                (Some(a), None) => {
                    i += 1;
                    (a.before.clone(), a.after.clone(), a.id)
                }
                (_, Some(b)) => {
                    j += 1;
                    (b.before.clone(), b.after.clone(), b.id)
                }
                (None, None) => unreachable!("loop condition"),
            };
            if before != after {
                entries.push(DeltaEntry { id, before, after });
            }
        }
        SnapshotDelta {
            from: self.from,
            to: later.to,
            entries,
        }
    }

    /// The incremental production computation: diffs only the candidate
    /// ids a refresh already knows about. `candidates` must contain
    /// every re-anchored (emitted) point and every drained death; this
    /// function adds the points whose *anchor vertices* were relabeled
    /// by the label export (cluster merges/splits touch no geometry, so
    /// those points are re-anchored nowhere) and keeps only real
    /// changes. Completeness rests on the snapshot's own update rule: a
    /// point's per-point tables change only via emission or death, and
    /// its resolved state changes only through those tables or through
    /// the label of an anchor vertex.
    ///
    /// The relabeled-vertex points come from the engine's
    /// `anchor_scope` (see [`SnapshotState::read_with`]), so the cost is
    /// the size of the relabeled neighbourhoods, not of the id space.
    /// Vertices new at this epoch are skipped: a point this refresh did
    /// not emit kept its old anchors, which name only vertices the old
    /// label table covers.
    fn incremental(
        old: &ClusterSnapshot,
        new: &ClusterSnapshot,
        candidates: &mut Vec<PointId>,
        anchor_scope: impl FnOnce(&[u32], &mut dyn FnMut(PointId)),
    ) -> Self {
        let relabeled: Vec<u32> = (0..old.labels.len())
            .filter(|&v| new.labels.get(v) != Some(&old.labels[v]))
            .map(|v| v as u32)
            .collect();
        if !relabeled.is_empty() {
            anchor_scope(&relabeled, &mut |id| candidates.push(id));
        }
        dydbscan_geom::radix_sort_u32(candidates);
        candidates.dedup();
        let mut entries = Vec::new();
        for &id in candidates.iter() {
            let before = old.point_state(id);
            let after = new.point_state(id);
            if before != after {
                entries.push(DeltaEntry { id, before, after });
            }
        }
        Self {
            from: old.epoch,
            to: new.epoch,
            entries,
        }
    }
}

/// What [`EpochHandle::changed_since`] can answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangeFeed {
    /// Everything that changed over `(delta.from, delta.to]`, as one
    /// composed delta (empty when the caller is already current).
    Delta(SnapshotDelta),
    /// The requested epoch predates the tracked window or post-dates
    /// the chain (tracking was off, or the epoch is from another
    /// engine): resync from a full snapshot ([`EpochHandle::load`] +
    /// `group_all`), then follow from `current`.
    Reset {
        /// Oldest epoch the chain can still answer from.
        oldest: u64,
        /// Newest tracked epoch.
        current: u64,
    },
}

/// The delta chain's window: it keeps the newest `DELTA_CHAIN_MAX`
/// one-epoch spans and drops the oldest beyond that, so
/// `changed_since` answers within the newest 64 epochs and a publish
/// never composes.
pub(crate) const DELTA_CHAIN_MAX: usize = 64;

/// The contiguous chain of per-refresh deltas behind `changed_since`.
#[derive(Debug, Default)]
struct DeltaChain {
    /// Adjacent one-epoch spans: `deltas[i].to == deltas[i + 1].from`.
    deltas: VecDeque<SnapshotDelta>,
    /// Newest tracked epoch (`deltas.back().to` when non-empty).
    current: u64,
}

impl DeltaChain {
    fn oldest(&self) -> u64 {
        self.deltas.front().map_or(self.current, |d| d.from)
    }

    /// Forgets all history and restarts the feed at `epoch` (tracking
    /// toggled: deltas across a gap would fabricate history).
    fn reset(&mut self, epoch: u64) {
        self.deltas.clear();
        self.current = epoch;
    }

    fn push(&mut self, delta: SnapshotDelta) {
        debug_assert_eq!(delta.from, self.current, "delta chain must stay contiguous");
        self.current = delta.to;
        self.deltas.push_back(delta);
        if self.deltas.len() > DELTA_CHAIN_MAX {
            self.deltas.pop_front();
        }
    }

    fn collect_since(&self, since: u64) -> ChangeFeed {
        if since == self.current {
            return ChangeFeed::Delta(SnapshotDelta {
                from: since,
                to: since,
                entries: Vec::new(),
            });
        }
        if since > self.current || since < self.oldest() {
            return ChangeFeed::Reset {
                oldest: self.oldest(),
                current: self.current,
            };
        }
        // Every span boundary in the window is kept, so the span that
        // starts at `since` exists.
        let mut spans = self.deltas.iter().skip_while(|d| d.from < since);
        let first = spans.next().expect("in-window epochs start a span");
        debug_assert_eq!(first.from, since, "delta chain must stay contiguous");
        let mut acc = first.clone();
        for d in spans {
            acc = acc.compose(d);
        }
        ChangeFeed::Delta(acc)
    }
}

/// The wait-free publication slot shared between one engine's refresh
/// path and every [`EpochHandle`] it vended. See [`EpochHandle::load`]
/// for the reader half of the protocol and [`Self::reclaim`] for the
/// publisher half.
struct EpochShared {
    /// The published snapshot, held as the raw form of one `Arc` strong
    /// count (`Arc::into_raw`). Readers pin, load, secure their own
    /// count, and unpin — wait-free; the single publisher swaps under
    /// `SnapshotState.inner` and reclaims the retired count after
    /// draining the pin window.
    // LOCK: 5 — innermost: touched under `SnapshotState.inner` by
    // publishers, lock-free by readers; never held (it cannot be) while
    // acquiring anything.
    current: AtomicPtr<ClusterSnapshot>,
    /// Epoch of the snapshot in `current`, readable without touching it.
    epoch: AtomicU64,
    /// Readers inside the pin window (pinned, pointer loaded, strong
    /// count not yet secured).
    pinned: AtomicUsize,
    /// A handle exists, so refreshes must publish into `current`.
    /// While false the slot holds a private placeholder and the refresh
    /// skips the swap — which keeps `Arc::make_mut`'s in-place fast
    /// path for engines that never serve.
    active: AtomicBool,
    /// The delta chain behind `changed_since`.
    // LOCK: 20 — acquired on its own by feed readers and by the
    // publisher *before* it takes `SnapshotState.inner`; never nested
    // with any other lock.
    chain: Mutex<DeltaChain>,
}

impl EpochShared {
    fn new() -> Self {
        Self {
            // A private placeholder (epoch 0, empty): until a handle
            // activates the slot, this Arc is the slot's own and pins
            // no engine snapshot (see `active`).
            current: AtomicPtr::new(Arc::into_raw(Arc::new(ClusterSnapshot::default())).cast_mut()),
            epoch: AtomicU64::new(0),
            pinned: AtomicUsize::new(0),
            active: AtomicBool::new(false),
            chain: Mutex::new(DeltaChain::default()),
        }
    }

    /// Publishes `snap` into the slot, returning the retired pointer
    /// for the caller to [`reclaim`](Self::reclaim) once it released
    /// `SnapshotState.inner` (which serializes publishers — that mutex
    /// is what makes the epoch store monotone).
    fn swap_in(&self, snap: &Arc<ClusterSnapshot>) -> *mut ClusterSnapshot {
        let fresh = Arc::into_raw(Arc::clone(snap)).cast_mut();
        // ORDERING: SeqCst — one half of the store-buffering pattern
        // with `EpochHandle::load`: the swap and the reader's
        // pin/pointer-load take a single total order, so a reader that
        // loaded the retired pointer has its pin ordered before this
        // swap, and `reclaim`'s drain (after the swap) must observe it.
        let old = self.current.swap(fresh, Ordering::SeqCst);
        // ORDERING: Release — pairs with the Acquire load in
        // `EpochHandle::epoch`: the swap above is sequenced before this
        // store, so a reader that observes epoch E finds a snapshot at
        // least as new as E in the slot.
        self.epoch.store(snap.epoch, Ordering::Release);
        old
    }

    /// Drops the strong count a retired publication pointer owns, after
    /// draining the pin window. A reader that could still materialize
    /// `old` is inside its (few-instruction, lock-free) pin window, so
    /// the spin is bounded in practice; yield periodically anyway.
    fn reclaim(&self, old: *mut ClusterSnapshot) {
        let mut spins = 0u32;
        // ORDERING: SeqCst — the other half of the store-buffering
        // pattern (see `swap_in`): this load is ordered after the swap,
        // so any reader whose pointer-load could have returned `old`
        // has its pin visible here; it is also an acquire edge against
        // the reader's Release unpin, making the reader's
        // strong-count increment visible before the drop below.
        while self.pinned.load(Ordering::SeqCst) != 0 {
            spins = spins.wrapping_add(1);
            if spins % 64 == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        // SAFETY: `old` came out of exactly one `swap` on `current`
        // (whose contents always originate in `Arc::into_raw`), so this
        // consumes that one parked strong count exactly once. Readers
        // that loaded `old` secured their own count before unpinning
        // (drained above), so the total count cannot reach zero while a
        // raw copy is still in flight.
        drop(unsafe { Arc::from_raw(old) });
    }
}

impl Drop for EpochShared {
    fn drop(&mut self) {
        // SAFETY: `&mut self` — no reader or publisher remains; the
        // slot still owns the one strong count `new`/`swap_in` parked
        // in it, consumed here exactly once.
        drop(unsafe { Arc::from_raw(*self.current.get_mut()) });
    }
}

/// A **wait-free** reader handle onto one engine's published snapshots,
/// vended by [`SnapshotState::epoch_handle`] (or `epoch_handle()` on
/// any [`DynamicClusterer`](crate::DynamicClusterer)). Clone it into as
/// many query threads as you like: [`load`](Self::load) and
/// [`epoch`](Self::epoch) never touch the engine's refresh mutex, never
/// loop, and never block — a flushing writer can stall a handle reader
/// by at most its own publish instant.
///
/// The handle observes *published* epochs: it advances when the engine
/// refreshes (any `snapshot()`/`group_by` read boundary after updates),
/// not when updates are applied. Epochs observed through one handle are
/// monotone. If a refresh panics, the state poisons and the handle
/// simply stops advancing (readers keep the last good epoch).
#[derive(Clone)]
pub struct EpochHandle {
    shared: Arc<EpochShared>,
}

impl fmt::Debug for EpochHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochHandle")
            .field("epoch", &self.epoch())
            .finish()
    }
}

impl EpochHandle {
    /// The epoch of the currently published snapshot, without touching
    /// the snapshot itself. Monotone per handle.
    pub fn epoch(&self) -> u64 {
        // ORDERING: Acquire — pairs with the Release store in
        // `EpochShared::swap_in`: observing epoch E guarantees the slot
        // holds a snapshot at least as new as E for a subsequent
        // `load`.
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// The currently published snapshot — wait-free (a pin, a pointer
    /// load, a strong-count bump, an unpin; no loops, no locks).
    pub fn load(&self) -> Arc<ClusterSnapshot> {
        let sh = &*self.shared;
        // ORDERING: SeqCst — the pin must be ordered before the pointer
        // load in the single total order shared with the publisher's
        // swap and drain (store-buffering pattern, see
        // `EpochShared::swap_in`/`reclaim`): either our pin is visible
        // to the drain loop, or we already secured a strong count and
        // unpinned.
        sh.pinned.fetch_add(1, Ordering::SeqCst);
        // ORDERING: SeqCst — ordered between our pin and the
        // publisher's drain in the same total order; see above.
        let p = sh.current.load(Ordering::SeqCst);
        // SAFETY: `p` was produced by `Arc::into_raw` and the slot's
        // strong count on it is not dropped before the publisher's
        // drain loop observes `pinned == 0` — which cannot happen
        // before our unpin below — so the allocation is live and
        // incrementing its count is sound.
        unsafe { Arc::increment_strong_count(p) };
        // ORDERING: Release — the publisher's SeqCst drain load
        // acquires this unpin, which makes the strong-count increment
        // above visible before the publisher drops the slot's count.
        sh.pinned.fetch_sub(1, Ordering::Release);
        // SAFETY: consumes exactly the strong count secured above.
        unsafe { Arc::from_raw(p) }
    }

    /// Everything that changed since epoch `since`, as one composed
    /// [`SnapshotDelta`] — or [`ChangeFeed::Reset`] when the chain
    /// cannot answer (tracking off, or `since` outside the window of
    /// the newest 64 epochs). Requires
    /// [`SnapshotState::set_track_deltas`]`(true)` on the engine;
    /// without it every call answers `Reset`.
    pub fn changed_since(&self, since: u64) -> ChangeFeed {
        self.shared.chain.lock().unwrap().collect_since(since)
    }
}

/// What one refresh pass observed, folded into
/// [`ClustererStats`](crate::ClustererStats) by the engines.
///
/// All four are *monotonic statistics*, never used for
/// synchronization: nothing is published through them and no invariant
/// reads them together atomically, so every access below is
/// `Ordering::Relaxed` (each justified at its site — `cargo xtask
/// lint` enforces the `// ORDERING:` comments).
struct SnapCounters {
    /// Snapshot refreshes performed (= epochs advanced).
    refreshes: AtomicU64,
    /// Dirty keys (cells / points) whose anchors were recomputed, summed
    /// over every refresh.
    keys_relabeled: AtomicU64,
    /// Range chunks dispatched by pool-parallel `group_all` runs that
    /// engaged more than one worker.
    query_parallel_tasks: AtomicU64,
    /// Per-point table pages copied because a published epoch still
    /// shared them, summed over every refresh.
    pages_copied: AtomicU64,
}

struct SnapInner {
    snap: Arc<ClusterSnapshot>,
    /// Vertex-space keys whose points need re-anchoring: grid cells for
    /// the grid engines, point ids for IncDBSCAN.
    dirty: FxHashSet<u32>,
    /// Points that died since the last refresh.
    dead: Vec<PointId>,
    /// A refresh is computing off-lock (drained, not yet published);
    /// readers wait on [`SnapshotState::refreshed`] instead of piling up
    /// on the mutex for the whole re-anchoring pass.
    refreshing: bool,
    /// A refresh panicked mid-compute. The drained dirt is lost, so the
    /// state is terminally broken: every later reader panics, exactly as
    /// if the mutex itself had been poisoned.
    poisoned: bool,
    /// Refreshes compute a [`SnapshotDelta`] and feed the change-feed
    /// chain. Opt-in ([`SnapshotState::set_track_deltas`]): the old
    /// snapshot must be retained across the refresh, which forces
    /// copy-on-write of every page the refresh changes.
    track_deltas: bool,
    /// When present, every [`SnapshotState::mark`] also appends its key
    /// here (duplicates included). Opt-in
    /// ([`SnapshotState::set_mark_log`]): the shard wrapper drains it
    /// after each shard flush to learn which cells the flush dirtied,
    /// without the engines having to know they are sharded.
    mark_log: Option<Vec<u32>>,
}

/// The engine-owned refresh state behind the `&self` read path: the
/// current snapshot [`Arc`], the dirty key set updates feed (cheaply,
/// under `&mut self`), and the machinery that turns both into a fresh
/// epoch at the next read boundary.
///
/// Refreshes run under `&self` (concurrent readers racing to refresh are
/// serialized by the `refreshing` flag under the [`Mutex`]; once clean,
/// reads only clone the `Arc`), which is exactly why the label export of
/// the CC structures must not mutate.
///
/// The critical section is deliberately narrow — drain + publish. The
/// re-anchoring and label export, the only parts whose cost scales with
/// churn, run on a drained local working set with `inner` *released*
/// (`cargo xtask lint` enforces that no guard is held across the pool
/// fan-out). Followers wait on the `refreshed` condvar meanwhile, which
/// preserves the old block-until-fresh semantics without a guard held
/// across the compute.
pub struct SnapshotState {
    // LOCK: 25 — held only for drain and publish (never across the
    // re-anchoring compute, the pool fan-out, or `FlushPipeline.pool`);
    // nests under the sched harness's replay locks.
    inner: Mutex<SnapInner>,
    /// Readers park here while another reader runs the off-lock refresh
    /// compute; signaled on publish (and on a poisoning unwind).
    // LOCK: 25 — gates `inner`; a wait releases it while parked.
    refreshed: Condvar,
    counters: SnapCounters,
    /// The wait-free publication slot [`epoch_handle`](Self::epoch_handle)
    /// readers share; dormant (publication skipped) until a handle exists.
    shared: Arc<EpochShared>,
}

impl fmt::Debug for SnapshotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("SnapshotState")
            .field("epoch", &inner.snap.epoch)
            .field("dirty_keys", &inner.dirty.len())
            .field("dead_pending", &inner.dead.len())
            .field("refreshing", &inner.refreshing)
            .finish()
    }
}

impl Default for SnapshotState {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotState {
    /// Clean state at epoch 0 (an empty snapshot).
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(SnapInner {
                snap: Arc::new(ClusterSnapshot::default()),
                dirty: FxHashSet::default(),
                dead: Vec::new(),
                refreshing: false,
                poisoned: false,
                track_deltas: false,
                mark_log: None,
            }),
            refreshed: Condvar::new(),
            counters: SnapCounters {
                refreshes: AtomicU64::new(0),
                keys_relabeled: AtomicU64::new(0),
                query_parallel_tasks: AtomicU64::new(0),
                pages_copied: AtomicU64::new(0),
            },
            shared: Arc::new(EpochShared::new()),
        }
    }

    /// Vends a wait-free [`EpochHandle`] onto this state's published
    /// snapshots, activating the publication slot: from here on every
    /// refresh also swaps its result into the slot (and copies the
    /// pages it changes, since the slot pins the previous epoch).
    /// Clone the handle freely; it stays valid for the state's lifetime
    /// and merely stops advancing if the state is dropped or poisons.
    pub fn epoch_handle(&self) -> EpochHandle {
        let mut inner = self.inner.lock().unwrap();
        while inner.refreshing {
            inner = self.refreshed.wait(inner).unwrap();
        }
        if inner.poisoned {
            // Same contract as `begin_read`: no later epoch can be
            // trusted, so fail the caller loudly.
            // ALLOW(poison): deliberate re-raise, fail every reader.
            panic!("SnapshotState: a previous snapshot refresh panicked; state is poisoned");
        }
        // ORDERING: Relaxed — only read/written inside `inner` critical
        // sections (here and in `RefreshWork::publish`), so the mutex
        // already orders it; the atomic only exists because `publish`
        // reads it through `&self`.
        self.shared.active.store(true, Ordering::Relaxed);
        // Seed the slot with the current snapshot so the handle answers
        // immediately — the slot previously held a private placeholder
        // (or a stale epoch if every prior handle was dropped; handles
        // are cheap, callers keep them).
        let retired = self.shared.swap_in(&inner.snap);
        drop(inner);
        self.shared.reclaim(retired);
        EpochHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Turns the `changed_since` delta chain on or off. Turning it on
    /// restarts the feed at the current epoch (history across the gap
    /// is not fabricated: handles holding older epochs get
    /// [`ChangeFeed::Reset`]). Off by default — tracking retains the
    /// previous snapshot across each refresh, so every page a refresh
    /// changes is copied.
    pub fn set_track_deltas(&mut self, on: bool) {
        let inner = self.inner.get_mut().unwrap();
        inner.track_deltas = on;
        self.shared.chain.lock().unwrap().reset(inner.snap.epoch);
    }

    /// Marks one key (cell / point) dirty. Called from update paths,
    /// which hold `&mut self` — `Mutex::get_mut` makes this lock-free.
    #[inline]
    pub fn mark(&mut self, key: u32) {
        let inner = self.inner.get_mut().unwrap();
        inner.dirty.insert(key);
        if let Some(log) = inner.mark_log.as_mut() {
            log.push(key);
        }
    }

    /// Turns the mark log on or off (see `SnapInner::mark_log`).
    /// Turning it on starts an empty log; turning it off discards it.
    pub fn set_mark_log(&mut self, on: bool) {
        let inner = self.inner.get_mut().unwrap();
        inner.mark_log = on.then(Vec::new);
    }

    /// Drains the mark log: every key passed to [`mark`](Self::mark)
    /// since the last drain, in mark order, duplicates included (the
    /// consumer dedups into its own dirty set). Empty when the log is
    /// off.
    pub fn take_mark_log(&mut self) -> Vec<u32> {
        match self.inner.get_mut().unwrap().mark_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Records a point death (its snapshot slot is cleared on refresh).
    #[inline]
    pub fn mark_dead(&mut self, id: PointId) {
        self.inner.get_mut().unwrap().dead.push(id);
    }

    /// Records `chunks` range tasks dispatched by a `group_all` fan-out
    /// that engaged more than one worker.
    pub fn note_query_tasks(&self, chunks: usize) {
        // ORDERING: Relaxed — a monotonic stat counter; readers only
        // want an eventually-consistent total, nothing is published
        // through it.
        self.counters
            .query_parallel_tasks
            .fetch_add(chunks as u64, Ordering::Relaxed);
    }

    /// `(snapshot_refreshes, snapshot_cells_relabeled,
    /// query_parallel_tasks, snapshot_pages_copied)` for the engine's
    /// stats surface.
    pub fn counter_values(&self) -> (u64, u64, u64, u64) {
        // ORDERING: Relaxed — stat reads; the four values need not
        // form a consistent cut (they are reported, not acted on), and
        // callers that need exactness hold `&mut` over the engine
        // anyway.
        (
            self.counters.refreshes.load(Ordering::Relaxed),
            self.counters.keys_relabeled.load(Ordering::Relaxed),
            self.counters.query_parallel_tasks.load(Ordering::Relaxed),
            self.counters.pages_copied.load(Ordering::Relaxed),
        )
    }

    /// Returns the current snapshot, refreshing it first if any update
    /// dirtied it since the last read boundary — the one refresh entry
    /// point of every engine.
    ///
    /// * `total_ids` — ids ever issued (sizes the per-point tables).
    /// * `export_labels` — the engine's non-mutating label export; only
    ///   invoked when a refresh actually runs.
    /// * `reanchor` — called once per dirty key; must `emit(point,
    ///   is_core, anchors)` for every alive point the key owns. Keys own
    ///   disjoint point sets (a cell's residents / the point itself), so
    ///   processing order cannot matter.
    /// * `anchor_scope` — only called under delta tracking, with the
    ///   sorted vertices whose label changed; must `emit` every alive
    ///   point whose anchors may name one of them (a superset is fine:
    ///   the delta keeps only real changes).
    /// * `pool` — when given and the dirty set reaches
    ///   `PARALLEL_REFRESH_MIN_KEYS`, the per-key re-anchoring fans
    ///   out over the pool's persistent crew, one task per key in
    ///   ascending key order. Workers only *read* (the `reanchor`
    ///   closure sees `&engine` state) and return their emissions as
    ///   data; this thread applies them in key order, so the published
    ///   snapshot is **bit-identical** to the inline path at every
    ///   thread count. Below the threshold — the common steady-state
    ///   case of a handful of touched cells — the keys are re-anchored
    ///   inline without touching the pool lock.
    ///
    /// Refresh cost is `O(dirty keys · anchor work)` plus one label
    /// export — connectivity churn alone (merges, splits) never triggers
    /// geometric re-snapping. The published `Arc` is never written
    /// through: if readers still hold it, the refresh copies the page
    /// directory and then only the pages it changes.
    pub fn read_with(
        &self,
        total_ids: usize,
        export_labels: impl FnOnce() -> Vec<CompId>,
        reanchor: impl Fn(u32, &mut dyn FnMut(PointId, bool, Anchors)) + Sync,
        anchor_scope: impl FnOnce(&[u32], &mut dyn FnMut(PointId)),
        pool: Option<&crate::batch::FlushPipeline>,
    ) -> Arc<ClusterSnapshot> {
        let mut work = match self.begin_read() {
            ReadPath::Clean(snap) => return snap,
            ReadPath::Refresh(work) => work,
        };
        let track = work.old.is_some();
        let RefreshWork {
            keys,
            dead,
            snap,
            candidates,
            ..
        } = &mut work;
        let mut w = Self::begin_refresh(snap, total_ids, export_labels).writer();
        for id in dead.drain(..) {
            if track {
                candidates.push(id);
            }
            w.kill(id);
        }
        match pool {
            Some(pool) if keys.len() >= PARALLEL_REFRESH_MIN_KEYS => {
                // `inner` is released here: the fan-out runs on the
                // drained working set, so concurrent clean readers of
                // *other* states sharing the pool only contend on the
                // pool lock itself.
                let (parts, workers) = pool.run_query(keys.len(), |i| {
                    let mut out: Vec<(PointId, bool, Anchors)> = Vec::new();
                    reanchor(keys[i], &mut |pid, core, anchors| {
                        out.push((pid, core, anchors));
                    });
                    out
                });
                for part in parts {
                    for (pid, core, anchors) in part {
                        if track {
                            candidates.push(pid);
                        }
                        w.emit(pid, core, anchors);
                    }
                }
                if workers > 1 {
                    self.note_query_tasks(keys.len());
                }
            }
            _ => {
                for &key in keys.iter() {
                    reanchor(key, &mut |pid, core, anchors| {
                        if track {
                            candidates.push(pid);
                        }
                        w.emit(pid, core, anchors);
                    });
                }
            }
        }
        self.note_refresh(keys.len() as u64, w.pages_copied());
        drop(w);
        work.finish_delta(anchor_scope);
        work.publish()
    }

    /// Opens the read path: waits out a concurrent off-lock refresh,
    /// then either returns the clean snapshot or drains the dirt into a
    /// local [`RefreshWork`] working set (flagging `refreshing` so
    /// followers park on the condvar) — all under a single acquisition
    /// of `inner`. The caller computes the new epoch off-lock and
    /// [`RefreshWork::publish`]es it.
    fn begin_read(&self) -> ReadPath<'_> {
        let mut inner = self.inner.lock().unwrap();
        while inner.refreshing {
            inner = self.refreshed.wait(inner).unwrap();
        }
        if inner.poisoned {
            // A previous refresh panicked after draining the dirt, so
            // no later epoch can be trusted; mirror mutex poisoning.
            // ALLOW(poison): deliberate re-raise, fail every reader.
            panic!("SnapshotState: a previous snapshot refresh panicked; state is poisoned");
        }
        if inner.dirty.is_empty() && inner.dead.is_empty() {
            return ReadPath::Clean(Arc::clone(&inner.snap));
        }
        inner.refreshing = true;
        // Sorted drain order for the inline and pooled re-anchoring
        // alike: keys own disjoint point sets, so order cannot change the
        // result, but determinism keeps the two trivially comparable.
        let mut keys: Vec<u32> = inner.dirty.drain().collect();
        dydbscan_geom::radix_sort_u32(&mut keys);
        let dead = std::mem::take(&mut inner.dead);
        // Take the Arc itself (leaving a placeholder): its refcount
        // stays "us + external readers", exactly as when refreshing
        // under the lock, so `Arc::make_mut` keeps its in-place fast
        // path once old readers retire. Nobody reads the placeholder —
        // readers park on `refreshed` until publish. Delta tracking
        // keeps a second count on the old epoch (the diff's `before`
        // side), which deliberately forces copy-on-write.
        let old = inner.track_deltas.then(|| Arc::clone(&inner.snap));
        let snap = std::mem::replace(&mut inner.snap, Arc::new(ClusterSnapshot::default()));
        ReadPath::Refresh(RefreshWork {
            state: self,
            keys,
            dead,
            snap,
            old,
            candidates: Vec::new(),
            delta: None,
            published: false,
        })
    }

    /// Opens a refresh epoch on the copy-on-write snapshot: bumps the
    /// epoch, grows the per-point tables, and exports labels. A shared
    /// snapshot is cloned first, which copies the page directories, not
    /// the pages.
    fn begin_refresh(
        snap: &mut Arc<ClusterSnapshot>,
        total_ids: usize,
        export_labels: impl FnOnce() -> Vec<CompId>,
    ) -> &mut ClusterSnapshot {
        let s = Arc::make_mut(snap);
        s.epoch += 1;
        s.flags.grow(total_ids);
        s.anchors.grow(total_ids);
        s.labels = Arc::new(export_labels());
        s
    }

    /// Folds one completed refresh into the stat counters.
    fn note_refresh(&self, relabeled: u64, pages_copied: u64) {
        // ORDERING: Relaxed (both) — stat counters. The *snapshot*
        // itself is published by the `inner` mutex release (and the
        // `Arc` handed to the caller), which already gives every reader
        // a happens-before edge; the counters ride along without
        // ordering duties. The epoch lives inside the snapshot, not in
        // an atomic: it is only ever written under this mutex, which is
        // what makes "strictly increasing" trivially sound.
        self.counters.refreshes.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Relaxed — same stats-only contract as the line above.
        self.counters
            .keys_relabeled
            .fetch_add(relabeled, Ordering::Relaxed);
        // ORDERING: Relaxed — same stats-only contract as the line above.
        self.counters
            .pages_copied
            .fetch_add(pages_copied, Ordering::Relaxed);
    }
}

/// What [`SnapshotState::begin_read`] found under the lock.
enum ReadPath<'a> {
    /// Nothing dirty: the current snapshot, ready to hand out.
    Clean(Arc<ClusterSnapshot>),
    /// Dirt drained into a local working set; compute off-lock, then
    /// [`RefreshWork::publish`].
    Refresh(RefreshWork<'a>),
}

/// A drained refresh in flight: the dirty keys (sorted), the pending
/// deaths, and the snapshot `Arc` taken out of `inner` (which holds a
/// placeholder until publish). Dropping this without publishing — an
/// unwind out of `reanchor`/`export_labels` — marks the state poisoned
/// and wakes the parked readers so they fail loudly instead of hanging.
struct RefreshWork<'a> {
    state: &'a SnapshotState,
    keys: Vec<u32>,
    dead: Vec<PointId>,
    snap: Arc<ClusterSnapshot>,
    /// The pre-refresh epoch, retained only under delta tracking — the
    /// `before` side of the change-feed diff.
    old: Option<Arc<ClusterSnapshot>>,
    /// Ids the refresh touched (emissions + deaths); the candidate set
    /// the incremental delta diffs. Only fed when `old` is present.
    candidates: Vec<PointId>,
    /// The computed delta, ready for the chain at publish time.
    delta: Option<SnapshotDelta>,
    published: bool,
}

impl RefreshWork<'_> {
    /// Diffs the old and new epochs over the candidate set (off-lock;
    /// call after the re-anchoring, before [`publish`](Self::publish)).
    /// No-op unless delta tracking retained the old snapshot.
    fn finish_delta(&mut self, anchor_scope: impl FnOnce(&[u32], &mut dyn FnMut(PointId))) {
        if let Some(old) = self.old.take() {
            self.delta = Some(SnapshotDelta::incremental(
                &old,
                &self.snap,
                &mut self.candidates,
                anchor_scope,
            ));
        }
    }

    /// Publishes the computed epoch: pushes the delta (its own lock,
    /// never nested), then one acquisition of `inner` to store the new
    /// `Arc`, clear `refreshing`, and — when a handle activated the
    /// slot — swap the epoch into it (under `inner`, which is what
    /// serializes publishers and keeps handle epochs monotone), then
    /// wakes the readers parked on `refreshed` and reclaims the retired
    /// publication pointer off-lock.
    fn publish(mut self) -> Arc<ClusterSnapshot> {
        if let Some(delta) = self.delta.take() {
            // Chain before slot: a reader that observes epoch E through
            // the handle must find the chain already extended to E.
            self.state.shared.chain.lock().unwrap().push(delta);
        }
        let snap = Arc::clone(&self.snap);
        let mut inner = self.state.inner.lock().unwrap();
        inner.snap = Arc::clone(&snap);
        inner.refreshing = false;
        // ORDERING: Relaxed — only read/written inside `inner` critical
        // sections (see `epoch_handle`); the mutex orders it.
        let retired = self
            .state
            .shared
            .active
            .load(Ordering::Relaxed)
            .then(|| self.state.shared.swap_in(&snap));
        drop(inner);
        self.published = true;
        self.state.refreshed.notify_all();
        if let Some(old) = retired {
            self.state.shared.reclaim(old);
        }
        snap
    }
}

impl Drop for RefreshWork<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Unwinding mid-refresh: the drained dirt is lost, so no later
        // epoch can be trusted. Mark the state poisoned (readers panic,
        // mirroring mutex poisoning) and wake the parked readers. A
        // poisoned `inner` here means the sibling panicked *inside* the
        // drain/publish critical section; recover the guard — we only
        // ever make the state strictly more broken.
        let mut inner = match self.state.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        inner.poisoned = true;
        inner.refreshing = false;
        drop(inner);
        self.state.refreshed.notify_all();
    }
}

/// Dirty-key count at which [`SnapshotState::read_with`] fans the
/// re-anchoring over the worker pool. Re-anchoring a key costs at least
/// one cell sweep (often several emptiness probes), so a few dozen keys
/// amortize the pool wake; below that, inline is faster *and* skips the
/// pool lock the concurrent `group_all` readers share.
pub(crate) const PARALLEL_REFRESH_MIN_KEYS: usize = 32;

/// Marks `cell` and every materialized `eps`-close neighbor dirty — the
/// scope whose non-core residents' emptiness answers may flip when
/// `cell`'s core block grows or shrinks. One definition of the rule for
/// every promotion/demotion site of the grid engines
/// (`for_each_eps_neighbor` includes the cell itself).
pub(crate) fn mark_eps_scope<const D: usize>(
    snap: &mut SnapshotState,
    grid: &dydbscan_grid::GridIndex<D>,
    cell: dydbscan_grid::CellId,
) {
    grid.for_each_eps_neighbor(cell, |n| snap.mark(n));
}

/// Emits the residents of the `eps`-scope cells of `cells`, each cell
/// once: every point whose anchors may name one of `cells`, since a
/// core point anchors to its own cell and a non-core point only to
/// `eps`-close core cells. The grid engines' `anchor_scope` (see
/// [`SnapshotState::read_with`]), over the neighbourhood
/// [`mark_eps_scope`] dirties.
pub(crate) fn eps_scope_residents<const D: usize>(
    grid: &dydbscan_grid::GridIndex<D>,
    cells: &[dydbscan_grid::CellId],
    emit: &mut dyn FnMut(PointId),
) {
    let mut scope: Vec<u32> = Vec::new();
    for &c in cells {
        grid.for_each_eps_neighbor(c, |n| scope.push(n));
    }
    dydbscan_geom::radix_sort_u32(&mut scope);
    scope.dedup();
    for c in scope {
        for &pid in grid.cell(c).all.items() {
            emit(pid);
        }
    }
}

/// Chunk width of the pool-parallel `group_all` fan-out: wide enough
/// that a task amortizes its wake, narrow enough that big clusterings
/// spread over the whole crew.
pub(crate) const QUERY_CHUNK: usize = 4096;

/// The shared pool-parallel `group_all` driver: partitions the
/// snapshot's id space into `QUERY_CHUNK`-wide ranges, runs them through
/// the engine's persistent pool
/// ([`FlushPipeline::run_query`](crate::batch::FlushPipeline::run_query)),
/// and merges in range order. Every engine's `group_all` is this
/// function over its own refresh.
pub fn group_all_pooled(
    snap: &ClusterSnapshot,
    state: &SnapshotState,
    run: &crate::batch::FlushPipeline,
) -> Clustering {
    let ids = snap.num_ids();
    let chunks = ids.div_ceil(QUERY_CHUNK).max(1);
    let (parts, workers) = run.run_query(chunks, |ci| {
        let lo = (ci * QUERY_CHUNK) as u32;
        let hi = ((ci + 1) * QUERY_CHUNK).min(ids) as u32;
        snap.group_ids_range(lo, hi)
            .expect("alive ids cannot be dead")
    });
    if workers > 1 {
        state.note_query_tasks(chunks);
    }
    ClusterSnapshot::merge_parts(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paged<T: Clone + Default + PartialEq>(entries: Vec<T>) -> Paged<T> {
        let mut table = Paged::default();
        table.grow(entries.len());
        let mut w = table.writer();
        for (i, v) in entries.into_iter().enumerate() {
            w.replace(i, v);
        }
        drop(w);
        table
    }

    fn snap_with(labels: Vec<CompId>, pts: Vec<(bool, bool, Anchors)>) -> ClusterSnapshot {
        ClusterSnapshot {
            epoch: 1,
            labels: Arc::new(labels),
            flags: paged(
                pts.iter()
                    .map(|&(alive, core, _)| {
                        (if alive { F_ALIVE } else { 0 }) | (if core { F_CORE } else { 0 })
                    })
                    .collect(),
            ),
            alive: pts.iter().filter(|&&(alive, _, _)| alive).count(),
            anchors: paged(pts.into_iter().map(|(_, _, a)| a).collect()),
        }
    }

    /// The pooled refresh must publish a snapshot *bit-identical* to the
    /// serial one at every thread budget — same checksum, same fields —
    /// with a dirty set large enough (≥ [`PARALLEL_REFRESH_MIN_KEYS`])
    /// to actually cross the fan-out threshold.
    #[test]
    fn pooled_refresh_matches_serial_at_every_thread_count() {
        // 96 dirty keys: comfortably past the fan-out threshold.
        const KEYS: u32 = 3 * PARALLEL_REFRESH_MIN_KEYS as u32;
        // Synthetic engine: key k owns points {2k, 2k+1}; even points are
        // core anchored to their key, odd ones border on keys {k, k+1}.
        let reanchor = |key: u32, emit: &mut dyn FnMut(PointId, bool, Anchors)| {
            emit(2 * key, true, Anchors::One(key));
            emit(2 * key + 1, false, Anchors::Many(Box::new([key, key + 1])));
        };
        let total = 2 * KEYS as usize;
        let labels = || (0..KEYS as u64).flat_map(|k| [k, k]).collect::<Vec<_>>();
        let dirty_state = || {
            let mut st = SnapshotState::new();
            for k in 0..KEYS {
                st.mark(k);
            }
            st.mark_dead(0); // exercise the dead-list drain on both paths
            st
        };
        let serial = dirty_state().read_with(total, labels, reanchor, |_, _| {}, None);
        for threads in [1usize, 2, 4, 8] {
            let mut pipeline = crate::batch::FlushPipeline::new();
            pipeline.set_threads(threads);
            let pooled =
                dirty_state().read_with(total, labels, reanchor, |_, _| {}, Some(&pipeline));
            assert_eq!(
                pooled.checksum(),
                serial.checksum(),
                "pooled refresh diverged from serial at {threads} threads"
            );
            assert_eq!(pooled.labels, serial.labels);
            assert_eq!(pooled.flags, serial.flags);
            assert_eq!(pooled.alive, serial.alive);
        }
    }

    #[test]
    fn lookups_and_grouping() {
        // vertices 0,1 share label 7; vertex 2 is label 9
        let s = snap_with(
            vec![7, 7, 9],
            vec![
                (true, true, Anchors::One(0)),                  // point 0: core in v0
                (true, true, Anchors::One(1)),                  // point 1: core in v1
                (true, false, Anchors::Many(Box::new([0, 2]))), // border of both clusters
                (true, false, Anchors::None),                   // noise
                (false, false, Anchors::None),                  // dead
            ],
        );
        assert!(s.is_core(0) && !s.is_core(2));
        assert!(s.is_alive(3) && !s.is_alive(4));
        assert_eq!(s.len(), 4);
        let g = s.group_by(&[0, 1, 2, 3]);
        assert_eq!(g.groups, vec![vec![0, 1, 2], vec![2]]);
        assert_eq!(g.noise, vec![3]);
        assert!(g.same_cluster(0, 2));
    }

    #[test]
    fn duplicate_labels_across_anchors_dedup() {
        let s = snap_with(
            vec![5, 5],
            vec![(true, false, Anchors::Many(Box::new([0, 1])))],
        );
        let g = s.group_by(&[0]);
        assert_eq!(
            g.groups,
            vec![vec![0]],
            "one membership despite two anchors"
        );
    }

    #[test]
    fn try_group_by_names_the_dead_id() {
        let s = snap_with(vec![], vec![(false, false, Anchors::None)]);
        let err = s.try_group_by(&[0]).unwrap_err();
        assert_eq!(err, QueryError::DeadPoint { id: 0 });
        assert!(err.to_string().contains("point id 0"));
        let err = s.try_group_by(&[42]).unwrap_err();
        assert_eq!(err, QueryError::DeadPoint { id: 42 });
    }

    #[test]
    #[should_panic(expected = "deleted or unknown point id 9")]
    fn group_by_panics_loudly() {
        let s = snap_with(vec![], vec![]);
        let _ = s.group_by(&[9]);
    }

    #[test]
    fn range_parts_merge_to_group_all() {
        let s = snap_with(
            vec![1, 2],
            (0..10)
                .map(|i| (i % 3 != 0, true, Anchors::One((i % 2) as u32)))
                .collect(),
        );
        let whole = s.group_all();
        for width in [1u32, 3, 4, 100] {
            let mut parts = Vec::new();
            let mut lo = 0u32;
            while lo < s.num_ids() as u32 {
                parts.push(s.group_ids_range(lo, lo + width).unwrap());
                lo += width;
            }
            assert_eq!(ClusterSnapshot::merge_parts(parts), whole, "width {width}");
        }
    }

    #[test]
    fn state_refresh_is_dirty_driven_and_publishes_cow() {
        let mut st = SnapshotState::new();
        let a = st.read_with(0, Vec::new, |_, _| {}, |_, _| {}, None);
        assert_eq!(a.epoch(), 0, "clean state does not advance the epoch");
        st.mark(0);
        let b = st.read_with(
            2,
            || vec![3, 4],
            |key, emit| {
                assert_eq!(key, 0);
                emit(0, true, Anchors::One(0));
                emit(1, false, Anchors::One(1));
            },
            |_, _| {},
            None,
        );
        assert_eq!(b.epoch(), 1);
        assert!(b.is_core(0) && b.is_alive(1));
        // reader keeps `b`; the next refresh must not write through it
        st.mark(0);
        st.mark_dead(1);
        let c = st.read_with(
            2,
            || vec![3, 4],
            |_, emit| {
                emit(0, true, Anchors::One(0));
            },
            |_, _| {},
            None,
        );
        assert_eq!(c.epoch(), 2);
        assert!(b.is_alive(1), "published snapshot b is frozen at its epoch");
        assert!(!c.is_alive(1));
        let (refreshes, keys, _, _) = st.counter_values();
        assert_eq!(refreshes, 2);
        assert_eq!(keys, 2);
    }

    #[test]
    fn point_state_resolves_sorted_dedup_labels() {
        let s = snap_with(
            vec![9, 9, 3],
            vec![
                (true, true, Anchors::Many(Box::new([1, 0, 2]))), // 9,9,3 -> [3,9]
                (true, false, Anchors::None),
                (false, true, Anchors::One(0)),
            ],
        );
        let st = s.point_state(0);
        assert!(st.alive && st.core);
        assert_eq!(&*st.labels, &[3, 9], "sorted and deduped");
        assert_eq!(
            s.point_state(1),
            PointState {
                alive: true,
                core: false,
                labels: Box::new([])
            }
        );
        assert_eq!(s.point_state(2), PointState::default(), "dead is default");
        assert_eq!(
            s.point_state(99),
            PointState::default(),
            "unknown is default"
        );
    }

    /// Drives one `SnapshotState` through a deterministic churn schedule
    /// and returns the published epochs. Key `k` owns points `{2k,
    /// 2k+1}`; a round re-anchors some keys, kills some points, and
    /// shuffles the vertex labels so merges/splits happen without
    /// geometry (exactly the case the candidate set must catch via the
    /// engine's anchor scope of the relabeled vertices).
    fn churn_rounds(st: &mut SnapshotState, rounds: u32) -> Vec<Arc<ClusterSnapshot>> {
        let mut out = vec![st.read_with(0, Vec::new, |_, _| {}, |_, _| {}, None)];
        out.extend((1..=rounds).map(|r| churn_round(st, r)));
        out
    }

    /// Round `r` of [`churn_rounds`].
    fn churn_round(st: &mut SnapshotState, r: u32) -> Arc<ClusterSnapshot> {
        const KEYS: u32 = 4;
        for k in 0..KEYS {
            if (k + r) % 3 != 0 {
                st.mark(k);
            }
        }
        if r % 2 == 0 {
            st.mark_dead((r * 2 - 1) % (2 * KEYS));
        }
        st.read_with(
            2 * KEYS as usize,
            move || (0..KEYS as u64).map(|v| (v + r as u64) % 3).collect(),
            move |key, emit| {
                emit(2 * key, true, Anchors::One(key));
                if (key + r) % 2 == 0 {
                    emit(
                        2 * key + 1,
                        false,
                        Anchors::Many(Box::new([key, (key + 1) % KEYS])),
                    );
                }
            },
            // Vertex v is named by 2v, 2v+1 and the border point of the
            // key before it.
            |relabeled, emit| {
                for &v in relabeled {
                    emit(2 * v);
                    emit(2 * v + 1);
                    emit(2 * ((v + KEYS - 1) % KEYS) + 1);
                }
            },
            None,
        )
    }

    /// A state whose epochs are shared (here through a handle) copies
    /// the pages it changes; one refreshing in place copies none. Both
    /// must publish the same content at every epoch.
    #[test]
    fn in_place_and_shared_refreshes_publish_identical_epochs() {
        let mut in_place = SnapshotState::new();
        let mut shared = SnapshotState::new();
        let _handle = shared.epoch_handle();
        for r in 1..=6 {
            // Nothing keeps `x`, so the next round refreshes it in place.
            let x = churn_round(&mut in_place, r);
            let y = churn_round(&mut shared, r);
            assert_eq!(x.checksum(), y.checksum(), "epoch {}", x.epoch());
            assert_eq!(x.group_all(), y.group_all(), "epoch {}", x.epoch());
        }
        let (_, _, _, copied) = in_place.counter_values();
        assert_eq!(copied, 0, "an unshared epoch is written in place");
        let (_, _, _, copied) = shared.counter_values();
        assert!(copied > 0, "shared pages are copied, not written through");
    }

    /// The production (incremental, candidate-driven) deltas must agree
    /// with the full-scan `between` oracle at every step, and composing
    /// the per-step chain must equal the direct end-to-end diff.
    #[test]
    fn incremental_delta_matches_between_oracle() {
        let mut st = SnapshotState::new();
        st.set_track_deltas(true);
        let handle = st.epoch_handle();
        let snaps = churn_rounds(&mut st, 6);
        for w in snaps.windows(2) {
            let oracle = SnapshotDelta::between(&w[0], &w[1]);
            match handle.changed_since(w[0].epoch()) {
                ChangeFeed::Delta(d) => {
                    // The chain answer spans w[0]..latest; recompute the
                    // single-step answer through the oracle of the rest.
                    let direct = SnapshotDelta::between(&w[0], snaps.last().unwrap());
                    assert_eq!(d, direct, "chain from {} diverged", w[0].epoch());
                }
                ChangeFeed::Reset { .. } => panic!("chain lost epoch {}", w[0].epoch()),
            }
            // Adjacent-step incremental == oracle, via composition of
            // chain answers: since(from) == step.compose(since(to)).
            let step = match (
                handle.changed_since(w[0].epoch()),
                handle.changed_since(w[1].epoch()),
            ) {
                (ChangeFeed::Delta(a), ChangeFeed::Delta(b)) if b.to == b.from => a,
                (ChangeFeed::Delta(a), ChangeFeed::Delta(b)) => {
                    // a = step ∘ b  ⇒  check a == oracle ∘ b instead.
                    assert_eq!(
                        a,
                        oracle.compose(&b),
                        "step {} not incremental",
                        w[1].epoch()
                    );
                    continue;
                }
                _ => panic!("chain lost a tracked epoch"),
            };
            assert_eq!(step, oracle);
        }
    }

    #[test]
    fn delta_compose_equals_direct_between() {
        let mut st = SnapshotState::new();
        let snaps = churn_rounds(&mut st, 5);
        let (a, b, c) = (&snaps[1], &snaps[3], &snaps[5]);
        let composed = SnapshotDelta::between(a, b).compose(&SnapshotDelta::between(b, c));
        assert_eq!(composed, SnapshotDelta::between(a, c));
        // Edge cases: identity and change-and-change-back.
        let id = SnapshotDelta::between(a, a);
        assert!(id.is_empty());
        assert_eq!(
            SnapshotDelta::between(a, b)
                .compose(&SnapshotDelta::between(b, a))
                .entries,
            Vec::new(),
            "a round trip composes to no changes"
        );
    }

    #[test]
    fn chain_answers_reset_outside_its_window() {
        let mut chain = DeltaChain::default();
        chain.reset(10);
        assert_eq!(
            chain.collect_since(10),
            ChangeFeed::Delta(SnapshotDelta {
                from: 10,
                to: 10,
                entries: Vec::new()
            }),
            "current epoch answers an empty delta"
        );
        assert!(matches!(
            chain.collect_since(11),
            ChangeFeed::Reset {
                oldest: 10,
                current: 10
            }
        ));
        let step = |from: u64| SnapshotDelta {
            from,
            to: from + 1,
            entries: vec![DeltaEntry {
                id: from as u32,
                before: PointState::default(),
                after: PointState {
                    alive: true,
                    core: false,
                    labels: Box::new([]),
                },
            }],
        };
        for e in 10..14 {
            chain.push(step(e));
        }
        assert!(matches!(
            chain.collect_since(9),
            ChangeFeed::Reset {
                oldest: 10,
                current: 14
            }
        ));
        let ChangeFeed::Delta(d) = chain.collect_since(11) else {
            panic!("in-window epoch must answer a delta");
        };
        assert_eq!((d.from, d.to), (11, 14));
        assert_eq!(d.entries.len(), 3);
    }

    #[test]
    fn chain_slides_a_window_of_the_newest_spans() {
        const PAST: u64 = 20;
        let current = DELTA_CHAIN_MAX as u64 + PAST;
        let mut chain = DeltaChain::default();
        chain.reset(0);
        for e in 0..current {
            chain.push(SnapshotDelta {
                from: e,
                to: e + 1,
                entries: vec![DeltaEntry {
                    id: e as u32,
                    before: PointState::default(),
                    after: PointState {
                        alive: true,
                        core: true,
                        labels: Box::new([e]),
                    },
                }],
            });
        }
        assert_eq!(chain.deltas.len(), DELTA_CHAIN_MAX);
        assert_eq!(chain.oldest(), PAST, "the oldest spans slid out");
        for since in [0, PAST - 1] {
            assert_eq!(
                chain.collect_since(since),
                ChangeFeed::Reset {
                    oldest: PAST,
                    current
                },
                "epoch {since} predates the window"
            );
        }
        // Every epoch inside the window still has its boundary and
        // answers exactly the spans after it.
        for since in PAST..=current {
            let ChangeFeed::Delta(d) = chain.collect_since(since) else {
                panic!("in-window epoch {since} must answer a delta");
            };
            assert_eq!((d.from, d.to), (since, current));
            let ids: Vec<u32> = d.entries.iter().map(|e| e.id).collect();
            assert_eq!(ids, (since as u32..current as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn epoch_handle_tracks_published_epochs_and_stays_monotone() {
        let mut st = SnapshotState::new();
        let handle = st.epoch_handle();
        assert_eq!(handle.epoch(), 0);
        assert_eq!(
            handle.load().checksum(),
            st.read_with(0, Vec::new, |_, _| {}, |_, _| {}, None)
                .checksum()
        );
        let mut last = 0;
        for snap in churn_rounds(&mut st, 5) {
            let e = handle.epoch();
            assert!(e >= last, "handle epoch went backwards: {last} -> {e}");
            last = e;
            let loaded = handle.load();
            assert!(loaded.epoch() >= snap.epoch().min(e));
        }
        assert_eq!(handle.epoch(), 5);
        assert_eq!(
            handle.load().checksum(),
            st.read_with(0, Vec::new, |_, _| {}, |_, _| {}, None)
                .checksum()
        );
        // Untracked state: the handle answers Reset, never stale deltas.
        assert!(matches!(handle.changed_since(2), ChangeFeed::Reset { .. }));
    }

    /// Miri-sized concurrent stress: readers hammer `load`/`epoch` off
    /// the handle while the owner keeps refreshing. Epochs per reader
    /// must be monotone and every loaded snapshot internally consistent
    /// (epoch field agrees with a later `epoch()` lower bound).
    #[test]
    fn epoch_handle_readers_survive_concurrent_refreshes() {
        let rounds: u32 = if cfg!(miri) { 4 } else { 64 };
        let mut st = SnapshotState::new();
        st.set_track_deltas(true);
        let handle = st.epoch_handle();
        let st = std::sync::Mutex::new(st);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let h = handle.clone();
                scope.spawn(move || {
                    let mut last = 0u64;
                    loop {
                        let e1 = h.epoch();
                        let snap = h.load();
                        assert!(e1 >= last, "epoch went backwards");
                        assert!(
                            snap.epoch() >= e1,
                            "loaded snapshot older than the epoch observed before the load"
                        );
                        last = e1;
                        match h.changed_since(last) {
                            ChangeFeed::Delta(d) => assert!(d.from == last && d.to >= last),
                            ChangeFeed::Reset { current, .. } => assert!(current >= last),
                        }
                        if last >= rounds as u64 {
                            return;
                        }
                        std::thread::yield_now();
                    }
                });
            }
            scope.spawn(|| {
                let mut guard = st.lock().unwrap();
                churn_rounds(&mut guard, rounds);
            });
        });
    }
}
