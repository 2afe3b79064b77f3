//! IncDBSCAN — the dynamic exact-DBSCAN baseline of the paper's
//! experiments (Ester, Kriegel, Sander, Wimmer, Xu: "Incremental
//! clustering for mining in a data warehousing environment", VLDB 1998).
//!
//! Reimplemented from scratch on top of the `dydbscan-spatial` R-tree (the
//! original's index family), with a uniform-grid backend available for the
//! `ablate_index` benchmark. See [`incdbscan`] for the algorithm and
//! [`index`] for the backends.

pub mod incdbscan;
pub mod index;

pub use incdbscan::IncDbscan;
pub use index::{GridRangeIndex, RangeIndex};
