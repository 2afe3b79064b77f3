//! # Dynamic density based clustering
//!
//! A from-scratch implementation of
//! *Gan & Tao, "Dynamic Density Based Clustering", SIGMOD 2017*:
//! maintaining DBSCAN-style clusters under point insertions and deletions
//! with near-constant update time and C-group-by queries in `O~(|Q|)`.
//!
//! ## The algorithms
//!
//! | Type | Regime | Semantics | Paper |
//! |------|--------|-----------|-------|
//! | [`SemiDynDbscan`] | insertions only | ρ-approximate DBSCAN (exact at `rho = 0`) | Theorem 1 |
//! | [`FullDynDbscan`] | insertions + deletions | ρ-double-approximate DBSCAN (exact at `rho = 0`) | Theorem 4 |
//! | [`static_dbscan::static_cluster`] | static | exact / ρ-approximate | Section 2 / \[10\] |
//! | [`static_dbscan::brute_force_exact`] | static | exact, `O(n^2)` | Section 2 |
//!
//! ## The unified API
//!
//! All dynamic structures (including the IncDBSCAN baseline in
//! `dydbscan-baseline`) implement one object-safe trait,
//! [`DynamicClusterer`]: `insert` / `delete` / `group_by` / `group_all` /
//! `stats` / `params`, plus batch entry points (`insert_batch`,
//! `delete_batch`) and a workload hook (`apply`) consuming [`Op`]. The
//! umbrella crate layers a runtime configuration front-end
//! (`dydbscan::DbscanBuilder`) and a runtime-dimension facade
//! (`dydbscan::DynDbscan`) on top of this trait.
//!
//! Both dynamic structures follow the grid-graph framework of Section 4:
//! core statuses are maintained per point, a sparse graph over *core cells*
//! mirrors cluster connectivity, and a CC structure (union-find /
//! Holm–de Lichtenberg–Thorup) answers `CC-Id`. C-group-by queries
//! ([`query::c_group_by`]) then group query points by component id,
//! snapping non-core points through per-cell emptiness structures.
//!
//! ## Quality guarantee
//!
//! Approximate variants obey the **sandwich guarantee** (Theorem 3),
//! machine-checkable via [`verify::check_sandwich`]: every exact cluster at
//! `eps` is contained in some reported cluster, and every reported cluster
//! is contained in some exact cluster at `(1+rho)*eps`. In particular, if
//! the clustering is *stable* (unchanged when `eps` grows by `rho*eps`),
//! the approximate result **is** the exact result.
//!
//! ## Hardness, executably
//!
//! Section 6.1 proves fully-dynamic ρ-approximate DBSCAN is as hard as
//! USEC. The reduction is implemented and runnable in [`usec`].
//!
//! ## Example
//!
//! ```
//! use dydbscan_core::{DynamicClusterer, FullDynDbscan, Params};
//!
//! let params = Params::new(1.0, 3).with_rho(0.001);
//! let mut clusterer = FullDynDbscan::<2>::new(params);
//! let a = clusterer.insert([0.0, 0.0]);
//! let b = clusterer.insert([0.5, 0.0]);
//! let c = clusterer.insert([0.0, 0.5]);
//! let far = clusterer.insert([100.0, 100.0]);
//! let groups = clusterer.group_by(&[a, b, c, far]);
//! assert!(groups.same_cluster(a, b));
//! assert!(groups.is_noise(far));
//! clusterer.delete(b);
//! ```

pub mod abcp;
pub mod api;
pub mod batch;
pub mod full;
pub mod groups;
pub mod ops;
mod parallel;
pub mod params;
pub mod points;
pub mod query;
pub mod semi;
pub mod shard;
pub mod snapshot;
pub mod static_dbscan;
pub mod usec;
pub mod verify;

pub use api::{ClustererStats, DynamicClusterer};
pub use batch::{FlushPhase, FlushPipeline, FlushStats};
pub use full::FullDynDbscan;
pub use groups::{Clustering, GroupBy};
pub use ops::Op;
pub use parallel::sched;
pub use params::{validate_point, validate_points, ParamError, Params};
pub use points::{PointArena, PointId, PointRec};
pub use semi::SemiDynDbscan;
pub use shard::{ShardEngine, ShardTaps, ShardedDbscan};
pub use snapshot::{
    ChangeFeed, ClusterSnapshot, DeltaEntry, EpochHandle, PointState, QueryError, SnapshotDelta,
};
pub use static_dbscan::{brute_force_exact, static_cluster};
pub use usec::{solve_usec, solve_usec_ls_via_clustering, UsecInstance};
pub use verify::{check_containment, check_sandwich, relabel};
