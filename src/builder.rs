//! Runtime configuration front-end: pick an algorithm, an approximation
//! level, a connectivity backend and a spatial index — get back a boxed
//! [`DynamicClusterer`].
//!
//! The paper's three regimes share one operational contract; the builder
//! makes them runtime-swappable:
//!
//! ```
//! use dydbscan::{Algorithm, DbscanBuilder, DynamicClusterer};
//!
//! let mut c = DbscanBuilder::new(1.0, 3)
//!     .rho(0.001)
//!     .algorithm(Algorithm::FullyDynamic)
//!     .build::<2>()
//!     .unwrap();
//! let ids = c.insert_batch(&[[0.0, 0.0], [0.4, 0.3], [0.7, 0.1]]);
//! assert_eq!(c.group_by(&ids).num_groups(), 1);
//! ```
//!
//! Invalid combinations (e.g. `rho > 0` with the exact-only IncDBSCAN
//! baseline, or a non-default index for a grid algorithm) are rejected
//! with a typed [`BuildError`] instead of a panic, making the builder safe
//! to drive from untrusted runtime configuration.

use crate::facade::DynDbscan;
use dydbscan_baseline::{GridRangeIndex, IncDbscan};
use dydbscan_conn::NaiveConnectivity;
use dydbscan_core::{
    DynamicClusterer, FullDynDbscan, ParamError, Params, SemiDynDbscan, ShardedDbscan,
};
use std::fmt;

/// The clustering engine to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Semi-dynamic ρ-approximate DBSCAN (Theorem 1): insertions only,
    /// `O~(1)` amortized updates. Union-find connectivity.
    SemiDynamic,
    /// Fully-dynamic ρ-double-approximate DBSCAN (Theorem 4): insertions
    /// and deletions, `O~(1)` amortized updates. HDT connectivity by
    /// default.
    FullyDynamic,
    /// IncDBSCAN (Ester et al., VLDB'98): the exact dynamic baseline.
    /// R-tree index by default. Requires `rho = 0`.
    IncDbscan,
}

impl Algorithm {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SemiDynamic => "semi-dynamic",
            Algorithm::FullyDynamic => "fully-dynamic",
            Algorithm::IncDbscan => "IncDBSCAN",
        }
    }
}

/// The connected-components structure behind a grid algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConnectivityBackend {
    /// The regime's natural choice: union-find for [`Algorithm::SemiDynamic`],
    /// Holm–de Lichtenberg–Thorup for [`Algorithm::FullyDynamic`].
    #[default]
    Auto,
    /// Tarjan's union-find (`EdgeInsert`/`CC-Id` only — valid for the
    /// insertion-only regime, where it is also the `Auto` choice).
    UnionFind,
    /// Holm–de Lichtenberg–Thorup dynamic connectivity (fully-dynamic
    /// regime only).
    Hdt,
    /// Rebuild-from-scratch oracle (differential testing / ablations;
    /// fully-dynamic regime only, unsharded).
    Naive,
}

/// The range-query index behind IncDBSCAN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// The algorithm's faithful setup (R-tree for IncDBSCAN).
    #[default]
    Auto,
    /// Guttman R-tree.
    RTree,
    /// Uniform grid (index ablation).
    Grid,
}

/// A configuration the builder refuses to instantiate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BuildError {
    /// Out-of-domain `eps` / `MinPts` / `rho`.
    Param(ParamError),
    /// The algorithm does not support approximation (`IncDBSCAN` is exact).
    UnsupportedRho(Algorithm, f64),
    /// The connectivity backend does not fit the algorithm's regime.
    UnsupportedConnectivity(Algorithm, ConnectivityBackend),
    /// The index backend does not apply to the algorithm.
    UnsupportedIndex(Algorithm, IndexBackend),
    /// The runtime dimension is outside the monomorphized range `2..=7`
    /// (see [`DynDbscan`]).
    UnsupportedDimension(usize),
    /// Sharded ingest does not apply to the algorithm (IncDBSCAN has no
    /// cell space to partition).
    UnsupportedShards(Algorithm, usize),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Param(e) => write!(f, "{e}"),
            BuildError::UnsupportedRho(a, rho) => {
                write!(
                    f,
                    "{} is exact-only and cannot run with rho = {rho}",
                    a.name()
                )
            }
            BuildError::UnsupportedConnectivity(a, c) => {
                write!(f, "connectivity backend {c:?} does not fit {}", a.name())
            }
            BuildError::UnsupportedIndex(a, i) => {
                write!(f, "index backend {i:?} does not apply to {}", a.name())
            }
            BuildError::UnsupportedDimension(d) => write!(
                f,
                "dimension {d} is outside the monomorphized range 2..=7 of DynDbscan"
            ),
            BuildError::UnsupportedShards(a, s) => {
                write!(
                    f,
                    "sharded ingest ({s} shards) does not apply to {}",
                    a.name()
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ParamError> for BuildError {
    fn from(e: ParamError) -> Self {
        BuildError::Param(e)
    }
}

/// Builder over every clustering engine in the workspace.
///
/// Defaults: `rho = 0` (exact semantics), [`Algorithm::FullyDynamic`],
/// [`ConnectivityBackend::Auto`], [`IndexBackend::Auto`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanBuilder {
    eps: f64,
    min_pts: usize,
    rho: f64,
    algorithm: Algorithm,
    connectivity: ConnectivityBackend,
    index: IndexBackend,
    threads: Option<usize>,
    shards: Option<usize>,
}

impl DbscanBuilder {
    /// Starts a configuration with the mandatory density parameters.
    pub fn new(eps: f64, min_pts: usize) -> Self {
        Self {
            eps,
            min_pts,
            rho: 0.0,
            algorithm: Algorithm::FullyDynamic,
            connectivity: ConnectivityBackend::default(),
            index: IndexBackend::default(),
            threads: None,
            shards: None,
        }
    }

    /// Sets the approximation parameter `rho` (default `0` = exact).
    pub fn rho(mut self, rho: f64) -> Self {
        self.rho = rho;
        self
    }

    /// Sets the thread budget of the engines' parallel batch flush
    /// (default: one worker per logical CPU; `1` = the exact sequential
    /// path; `0` is treated as `1`). The clustering is bit-identical at
    /// every thread count — threads only buy wall-clock. Every engine
    /// owns one persistent worker pool: lazily spawned by the first
    /// flush that goes parallel, parked between flushes, joined on
    /// drop. IncDBSCAN uses it for its per-point range-query phases;
    /// the grid engines for placement, per-cell scans and GUM rounds.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Shards the cell space `S` ways for multi-writer ingest (grid
    /// algorithms only): each shard owns a full engine over an axis-0
    /// slab of the cell space, batches are routed by owning shard and
    /// flushed concurrently on the wrapper's worker pool, and a stitch
    /// connectivity composes the shard-local clusters into globally
    /// correct ids. The clustering is bit-identical to the unsharded
    /// engine at every shard count — shards only buy ingest throughput.
    /// `0` and `1` build the raw engine (a one-shard wrapper only adds
    /// overhead), and [`ConnectivityBackend::Naive`] is rejected at
    /// `S >= 2`. Combine with [`threads`](Self::threads) to size the
    /// wrapper's flush pool.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Selects the clustering engine (default [`Algorithm::FullyDynamic`]).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Selects the connectivity backend (default [`ConnectivityBackend::Auto`]).
    pub fn connectivity(mut self, backend: ConnectivityBackend) -> Self {
        self.connectivity = backend;
        self
    }

    /// Selects the spatial index backend (default [`IndexBackend::Auto`]).
    pub fn index(mut self, backend: IndexBackend) -> Self {
        self.index = backend;
        self
    }

    /// Validates and returns the [`Params`] this configuration describes.
    pub fn params(&self) -> Result<Params, BuildError> {
        Ok(Params::try_new(self.eps, self.min_pts)?.try_with_rho(self.rho)?)
    }

    /// Validates the full configuration without instantiating anything.
    pub fn check(&self) -> Result<(), BuildError> {
        self.params()?;
        self.check_combination()
    }

    /// Validates the algorithm/backend combination (parameters aside).
    fn check_combination(&self) -> Result<(), BuildError> {
        use ConnectivityBackend as C;
        let (algo, conn) = (self.algorithm, self.connectivity);
        if algo == Algorithm::IncDbscan && self.rho != 0.0 {
            return Err(BuildError::UnsupportedRho(algo, self.rho));
        }
        // Shard engines only write their own connectivity (the stitch
        // structure answers every label), so a sharded Naive backend
        // would never consult the oracle it names.
        let sharded = self.shards.is_some_and(|s| s > 1);
        let fits = match algo {
            Algorithm::SemiDynamic => matches!(conn, C::Auto | C::UnionFind),
            Algorithm::FullyDynamic => {
                matches!(conn, C::Auto | C::Hdt) || conn == C::Naive && !sharded
            }
            Algorithm::IncDbscan => conn == C::Auto,
        };
        if !fits {
            return Err(BuildError::UnsupportedConnectivity(algo, conn));
        }
        if self.index != IndexBackend::Auto && algo != Algorithm::IncDbscan {
            return Err(BuildError::UnsupportedIndex(algo, self.index));
        }
        match self.shards {
            Some(s) if algo == Algorithm::IncDbscan => Err(BuildError::UnsupportedShards(algo, s)),
            _ => Ok(()),
        }
    }

    /// Instantiates the configured engine at compile-time dimension `D`.
    pub fn build<const D: usize>(&self) -> Result<Box<dyn DynamicClusterer<D>>, BuildError> {
        use Algorithm as A;
        use ConnectivityBackend as C;
        use IndexBackend as I;
        let params = self.params()?;
        self.check_combination()?;
        // The thread budget, applied in one place: every arm below is one
        // constructor expression, and each engine (or the sharded
        // wrapper's pool) takes the budget through its `with_threads`.
        let threads = self.threads;
        macro_rules! engine {
            ($c:expr) => {{
                let c = $c;
                Ok(Box::new(match threads {
                    Some(t) => c.with_threads(t),
                    None => c,
                }))
            }};
        }
        // `.shards(1)` builds the raw engine: a one-shard wrapper only
        // adds routing and stitch overhead.
        let shards = self.shards.filter(|&s| s > 1);
        // Exhaustive (no `_` arm, no `_` on the backend enums) so that a
        // new variant fails to compile here until it is wired up, rather
        // than silently falling back to the default engine.
        match (self.algorithm, self.connectivity, self.index, shards) {
            (A::SemiDynamic, C::Auto | C::UnionFind, I::Auto, None) => {
                engine!(SemiDynDbscan::<D>::new(params))
            }
            (A::SemiDynamic, C::Auto | C::UnionFind, I::Auto, Some(s)) => {
                engine!(ShardedDbscan::<D>::new_semi(params, s))
            }
            (A::FullyDynamic, C::Auto | C::Hdt, I::Auto, None) => {
                engine!(FullDynDbscan::<D>::new(params))
            }
            (A::FullyDynamic, C::Auto | C::Hdt, I::Auto, Some(s)) => {
                engine!(ShardedDbscan::<D, FullDynDbscan<D>>::new_full(params, s))
            }
            (A::FullyDynamic, C::Naive, I::Auto, None) => engine!(
                FullDynDbscan::<D, _>::with_connectivity(params, NaiveConnectivity::new())
            ),
            (A::IncDbscan, C::Auto, I::Auto | I::RTree, None) => {
                engine!(IncDbscan::<D>::new(params))
            }
            (A::IncDbscan, C::Auto, I::Grid, None) => {
                engine!(IncDbscan::<D, GridRangeIndex<D>>::new_grid(params))
            }
            (A::SemiDynamic, C::Hdt | C::Naive, ..)
            | (A::FullyDynamic, C::UnionFind, ..)
            | (A::FullyDynamic, C::Naive, _, Some(_))
            | (A::SemiDynamic | A::FullyDynamic, _, I::RTree | I::Grid, _)
            | (A::IncDbscan, C::UnionFind | C::Hdt | C::Naive, ..)
            | (A::IncDbscan, _, _, Some(_)) => unreachable!("rejected by check_combination"),
        }
    }

    /// Instantiates the configured engine at a **runtime** dimension
    /// `dim in 2..=7`, wrapped in the [`DynDbscan`] facade that accepts
    /// `&[f64]` rows.
    pub fn build_dyn(&self, dim: usize) -> Result<DynDbscan, BuildError> {
        DynDbscan::from_builder(self, dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_algorithm() {
        for (algo, deletes) in [
            (Algorithm::SemiDynamic, false),
            (Algorithm::FullyDynamic, true),
            (Algorithm::IncDbscan, true),
        ] {
            let mut c = DbscanBuilder::new(1.0, 2)
                .algorithm(algo)
                .build::<2>()
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            assert_eq!(c.supports_deletion(), deletes, "{}", algo.name());
            let a = c.insert([0.0, 0.0]);
            let b = c.insert([0.5, 0.0]);
            let g = c.group_by(&[a, b]);
            assert!(g.same_cluster(a, b), "{}", algo.name());
            assert_eq!(*c.params(), Params::new(1.0, 2));
        }
    }

    #[test]
    fn builds_backend_variants() {
        for conn in [
            ConnectivityBackend::Auto,
            ConnectivityBackend::Hdt,
            ConnectivityBackend::Naive,
        ] {
            let mut c = DbscanBuilder::new(1.0, 2)
                .connectivity(conn)
                .build::<2>()
                .unwrap();
            let a = c.insert([0.0, 0.0]);
            c.delete(a);
            assert!(c.is_empty());
        }
        for index in [IndexBackend::Auto, IndexBackend::RTree, IndexBackend::Grid] {
            let mut c = DbscanBuilder::new(1.0, 2)
                .algorithm(Algorithm::IncDbscan)
                .index(index)
                .build::<3>()
                .unwrap();
            c.insert([0.0, 0.0, 0.0]);
            assert_eq!(c.len(), 1);
        }
    }

    #[test]
    fn threads_setting_reaches_every_engine_without_error() {
        for algo in [
            Algorithm::SemiDynamic,
            Algorithm::FullyDynamic,
            Algorithm::IncDbscan, // pools its batched range-query phases
        ] {
            for threads in [0usize, 1, 2, 8] {
                let mut c = DbscanBuilder::new(1.0, 2)
                    .algorithm(algo)
                    .threads(threads)
                    .build::<2>()
                    .unwrap_or_else(|e| panic!("{} threads={threads}: {e}", algo.name()));
                let ids = c.insert_batch(&[[0.0, 0.0], [0.5, 0.0], [9.0, 9.0]]);
                assert!(c.group_by(&ids).same_cluster(ids[0], ids[1]));
            }
        }
    }

    #[test]
    fn builds_sharded_variants() {
        for algo in [Algorithm::SemiDynamic, Algorithm::FullyDynamic] {
            for shards in [0usize, 1, 4] {
                let mut c = DbscanBuilder::new(1.0, 2)
                    .algorithm(algo)
                    .shards(shards)
                    .threads(2)
                    .build::<2>()
                    .unwrap_or_else(|e| panic!("{} shards={shards}: {e}", algo.name()));
                let ids = c.insert_batch(&[[0.0, 0.0], [0.5, 0.0], [90.0, 0.0]]);
                let g = c.group_by(&ids);
                assert!(g.same_cluster(ids[0], ids[1]));
                assert!(g.is_noise(ids[2]));
            }
        }
    }

    #[test]
    fn rejects_invalid_configurations() {
        assert!(matches!(
            DbscanBuilder::new(0.0, 3).build::<2>(),
            Err(BuildError::Param(ParamError::BadEps(_)))
        ));
        assert!(matches!(
            DbscanBuilder::new(1.0, 3).rho(1.5).build::<2>(),
            Err(BuildError::Param(ParamError::BadRho(_)))
        ));
        assert!(matches!(
            DbscanBuilder::new(1.0, 3)
                .algorithm(Algorithm::IncDbscan)
                .rho(0.001)
                .build::<2>(),
            Err(BuildError::UnsupportedRho(Algorithm::IncDbscan, _))
        ));
        assert!(matches!(
            DbscanBuilder::new(1.0, 3)
                .algorithm(Algorithm::FullyDynamic)
                .connectivity(ConnectivityBackend::UnionFind)
                .build::<2>(),
            Err(BuildError::UnsupportedConnectivity(..))
        ));
        assert!(matches!(
            DbscanBuilder::new(1.0, 3)
                .algorithm(Algorithm::SemiDynamic)
                .connectivity(ConnectivityBackend::Hdt)
                .build::<2>(),
            Err(BuildError::UnsupportedConnectivity(..))
        ));
        assert!(matches!(
            DbscanBuilder::new(1.0, 3)
                .algorithm(Algorithm::FullyDynamic)
                .index(IndexBackend::Grid)
                .build::<2>(),
            Err(BuildError::UnsupportedIndex(..))
        ));
        assert!(matches!(
            DbscanBuilder::new(1.0, 3)
                .algorithm(Algorithm::IncDbscan)
                .shards(4)
                .build::<2>(),
            Err(BuildError::UnsupportedShards(Algorithm::IncDbscan, 4))
        ));
        // Sharded Naive connectivity: shard engines never consult their
        // own connectivity for labels, so the oracle would be unused.
        assert!(matches!(
            DbscanBuilder::new(1.0, 2)
                .connectivity(ConnectivityBackend::Naive)
                .shards(2)
                .build::<2>(),
            Err(BuildError::UnsupportedConnectivity(
                Algorithm::FullyDynamic,
                ConnectivityBackend::Naive
            ))
        ));
        // ...while one shard is the raw engine, where Naive is the oracle.
        let mut c = DbscanBuilder::new(1.0, 2)
            .connectivity(ConnectivityBackend::Naive)
            .shards(1)
            .build::<2>()
            .unwrap();
        let id = c.insert([0.0, 0.0]);
        c.delete(id);
        assert!(c.is_empty());
        // errors display without panicking
        let e = DbscanBuilder::new(1.0, 0).check().unwrap_err();
        assert!(e.to_string().contains("MinPts"));
    }
}
