//! # dydbscan — Dynamic Density Based Clustering
//!
//! Umbrella crate re-exporting the full system: a from-scratch Rust
//! implementation of *Gan & Tao, "Dynamic Density Based Clustering",
//! SIGMOD 2017*, including every substrate the paper depends on — unified
//! behind one operational contract.
//!
//! ## Quick start
//!
//! Every engine — semi-dynamic ρ-approximate (Theorem 1), fully-dynamic
//! ρ-double-approximate (Theorem 4), and the IncDBSCAN baseline — speaks
//! the same [`DynamicClusterer`] trait: `insert` / `delete` / `group_by` /
//! `group_all` / `stats` / `params`. Pick one at runtime with
//! [`DbscanBuilder`]:
//!
//! ```
//! use dydbscan::{DbscanBuilder, DynamicClusterer};
//!
//! // rho-double-approximate DBSCAN: O~(1) updates, O~(|Q|) queries;
//! // threads(4) runs batched flushes on 4 workers (bit-identical
//! // results at every thread count; 1 = exact sequential path)
//! let mut clusterer = DbscanBuilder::new(1.0, 3)
//!     .rho(0.001)
//!     .threads(4)
//!     .build::<2>()
//!     .expect("valid parameters");
//!
//! let ids = clusterer.insert_batch(&[
//!     [0.0, 0.0],
//!     [0.4, 0.3],
//!     [0.7, 0.1],
//!     [50.0, 50.0], // lone outlier
//! ]);
//!
//! // cluster-group-by query: partition *these* points by cluster
//! let groups = clusterer.group_by(&ids);
//! assert!(groups.same_cluster(ids[0], ids[2]));
//! assert!(groups.is_noise(ids[3]));
//!
//! clusterer.delete(ids[1]); // fully dynamic: deletions are O~(1) too
//! ```
//!
//! When the dimensionality is only known at runtime (network ingestion,
//! CSV rows), [`DynDbscan`] wraps the same engines behind an enum dispatch
//! over `D = 2..=7` and accepts flat `&[f64]` rows:
//!
//! ```
//! use dydbscan::DbscanBuilder;
//!
//! let dim = 3; // e.g. parsed from a request header
//! let mut c = DbscanBuilder::new(1.0, 3).build_dyn(dim).unwrap();
//! let a = c.insert(&[0.0, 0.0, 0.0]);
//! let b = c.insert(&[0.5, 0.0, 0.0]);
//! let s = c.insert(&[0.0, 0.5, 0.0]);
//! assert!(c.group_by(&[a, b, s]).same_cluster(a, b));
//! ```
//!
//! The concrete types ([`FullDynDbscan`], [`SemiDynDbscan`], [`IncDbscan`])
//! remain available for callers that want compile-time dimensions or
//! custom connectivity structures; they speak the same trait (import
//! [`DynamicClusterer`] to call `insert` or `stats` on them), and every
//! engine reports one [`ClustererStats`].
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`] (re-exported at the root) | the [`DynamicClusterer`] contract and the paper's algorithms: semi-dynamic ρ-approximate DBSCAN (Thm 1), fully-dynamic ρ-double-approximate DBSCAN (Thm 4), static exact/approximate DBSCAN, C-group-by queries, the sandwich-guarantee checker, executable USEC reductions (Thm 2) |
//! | [`baseline`] | IncDBSCAN (Ester et al., VLDB'98), the experimental baseline |
//! | [`conn`] | union-find + Holm–de Lichtenberg–Thorup dynamic connectivity over Euler-tour trees |
//! | [`spatial`] | dynamic kd-tree (approximate emptiness / range counting), per-cell sets, R-tree |
//! | [`grid`] | the grid of Section 4.1: cells, neighbor lists, core logs |
//! | [`geom`] | points, boxes, cell coordinates, offset tables |
//! | [`workload`] | seed-spreader generator + workload builder (Section 8.1) |
//! | this crate | [`DbscanBuilder`] (runtime engine/backend selection) and [`DynDbscan`] (runtime dimensions) |
//!
//! See `DESIGN.md` for the full system inventory, the API-layer design and
//! the documented deviations from the paper.

pub mod builder;
pub mod facade;

// Compile the README's and DESIGN.md's code blocks as doctests so the
// documented examples cannot rot (CI runs `cargo test --doc`).
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

#[doc = include_str!("../DESIGN.md")]
#[cfg(doctest)]
pub struct DesignDoctests;

pub use dydbscan_baseline as baseline;
pub use dydbscan_conn as conn;
pub use dydbscan_core as core;
pub use dydbscan_geom as geom;
pub use dydbscan_grid as grid;
pub use dydbscan_spatial as spatial;
pub use dydbscan_workload as workload;

pub use builder::{Algorithm, BuildError, ConnectivityBackend, DbscanBuilder, IndexBackend};
pub use facade::DynDbscan;

pub use dydbscan_baseline::IncDbscan;
pub use dydbscan_core::{
    brute_force_exact, check_containment, check_sandwich, relabel, static_cluster, ClusterSnapshot,
    ClustererStats, Clustering, DynamicClusterer, FlushStats, FullDynDbscan, GroupBy, Op,
    ParamError, Params, PointId, QueryError, SemiDynDbscan, ShardedDbscan,
};
pub use dydbscan_workload::{seed_spreader, Workload, WorkloadSpec};
