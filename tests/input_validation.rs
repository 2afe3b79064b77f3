//! Non-finite input hardening: NaN/±∞ rows must be rejected at the
//! public API boundary with a typed `ParamError::InvalidPoint` — never
//! an abort deep inside index maintenance (the seed unwrapped
//! `partial_cmp` on R-tree node splits, so a single NaN coordinate
//! could kill the process) and never silent corruption (NaN has no grid
//! cell; `floor() as i64` would quietly alias it into cell 0).
//!
//! Checked at trait level (`try_insert` / `try_insert_batch` through
//! `Box<dyn DynamicClusterer>` on every engine) and at the
//! runtime-dimension facade. The panicking `insert` path must also fail
//! *loudly at the boundary*, with a message naming the axis.
//!
//! Finite rows too large for an `i32` grid cell get the same treatment
//! with `ParamError::Unrepresentable`: before the bound, eps 1 accepted
//! `[1e12, 0]` and `[2e12, 0]`, and the grid engines saturated both
//! into one boundary cell and clustered them. Every engine applies the
//! one bound, so swapping engines never changes which rows are accepted.

use dydbscan::{
    Algorithm, ConnectivityBackend, DbscanBuilder, DynamicClusterer, IndexBackend, ParamError,
};

/// Two finite rows 10^12 apart: beyond `2^30` cell sides at eps 1.
const HUGE_PAIR: [[f64; 2]; 2] = [[1e12, 0.0], [2e12, 0.0]];

fn engines() -> Vec<(&'static str, Box<dyn DynamicClusterer<2>>)> {
    [
        Algorithm::SemiDynamic,
        Algorithm::FullyDynamic,
        Algorithm::IncDbscan,
    ]
    .into_iter()
    .map(|a| {
        (
            a.name(),
            DbscanBuilder::new(1.0, 3)
                .algorithm(a)
                .build::<2>()
                .unwrap(),
        )
    })
    .collect()
}

#[test]
fn try_insert_rejects_non_finite_rows_on_every_engine() {
    for (name, mut c) in engines() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                c.try_insert([bad, 0.0]),
                Err(ParamError::InvalidPoint { id: 0, axis: 0 }),
                "{name}"
            );
            assert_eq!(
                c.try_insert([0.0, bad]),
                Err(ParamError::InvalidPoint { id: 0, axis: 1 }),
                "{name}"
            );
        }
        assert_eq!(c.len(), 0, "{name}: rejected rows must not be inserted");
        // the engine stays fully usable after rejections
        let a = c.try_insert([0.0, 0.0]).unwrap();
        let b = c.try_insert([0.5, 0.0]).unwrap();
        let d = c.try_insert([0.0, 0.5]).unwrap();
        assert!(c.group_by(&[a, b, d]).same_cluster(a, b), "{name}");
    }
}

#[test]
fn try_insert_batch_names_the_offending_row_and_axis() {
    for (name, mut c) in engines() {
        let rows = [[0.0, 0.0], [1.0, 1.0], [2.0, f64::NAN], [3.0, 3.0]];
        assert_eq!(
            c.try_insert_batch(&rows),
            Err(ParamError::InvalidPoint { id: 2, axis: 1 }),
            "{name}"
        );
        assert_eq!(c.len(), 0, "{name}: the whole batch must be rejected");
        let ids = c.try_insert_batch(&rows[..2]).unwrap();
        assert_eq!(ids.len(), 2, "{name}");
        assert_eq!(c.len(), 2, "{name}");
    }
}

#[test]
fn facade_rejects_non_finite_rows() {
    let mut c = DbscanBuilder::new(1.0, 3).build_dyn(3).unwrap();
    assert_eq!(
        c.try_insert(&[0.0, f64::NAN, 0.0]),
        Err(ParamError::InvalidPoint { id: 0, axis: 1 })
    );
    // flat-buffer batch: row/axis recovered from the flat offset
    let rows = [0.0, 0.0, 0.0, 1.0, 1.0, f64::INFINITY, 2.0, 2.0, 2.0];
    assert_eq!(
        c.try_insert_batch(&rows),
        Err(ParamError::InvalidPoint { id: 1, axis: 2 })
    );
    assert!(c.is_empty(), "rejected rows must not be inserted");
    let ids = c.try_insert_batch(&rows[..3]).unwrap();
    assert_eq!(ids.len(), 1);
    // the error formats with row and axis for service logs
    let msg = ParamError::InvalidPoint { id: 1, axis: 2 }.to_string();
    assert!(msg.contains("point 1") && msg.contains("axis 2"), "{msg}");
}

#[test]
#[should_panic(expected = "non-finite coordinate on axis 1")]
fn plain_insert_panics_at_the_boundary_not_in_the_index() {
    let mut c = DbscanBuilder::new(1.0, 3)
        .algorithm(Algorithm::IncDbscan)
        .build::<2>()
        .unwrap();
    // seed enough points that an R-tree node split would be reachable
    for i in 0..10 {
        c.insert([i as f64, 0.0]);
    }
    c.insert([0.0, f64::NAN]);
}

#[test]
#[should_panic(expected = "non-finite coordinate on axis 0")]
fn batch_pipelines_validate_before_placement() {
    let mut c = DbscanBuilder::new(1.0, 3).build::<2>().unwrap();
    c.insert_batch(&[[0.0, 0.0], [f64::NEG_INFINITY, 1.0], [2.0, 2.0]]);
}

/// Every configuration the builder accepts: each algorithm × backend ×
/// index × shard count (unsharded, one shard, two shards).
fn every_configuration() -> Vec<DbscanBuilder> {
    let mut out = Vec::new();
    for algo in [
        Algorithm::SemiDynamic,
        Algorithm::FullyDynamic,
        Algorithm::IncDbscan,
    ] {
        for conn in [
            ConnectivityBackend::Auto,
            ConnectivityBackend::UnionFind,
            ConnectivityBackend::Hdt,
            ConnectivityBackend::Naive,
        ] {
            for index in [IndexBackend::Auto, IndexBackend::RTree, IndexBackend::Grid] {
                for shards in [None, Some(1), Some(2)] {
                    let mut b = DbscanBuilder::new(1.0, 2)
                        .algorithm(algo)
                        .connectivity(conn)
                        .index(index);
                    if let Some(s) = shards {
                        b = b.shards(s);
                    }
                    if b.check().is_ok() {
                        out.push(b);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn unrepresentable_rows_are_rejected_by_every_configuration() {
    let configs = every_configuration();
    assert!(configs.len() >= 10, "the sweep covers the accepted space");
    for b in configs {
        let mut c = b.build::<2>().unwrap();
        assert_eq!(
            c.try_insert_batch(&HUGE_PAIR),
            Err(ParamError::Unrepresentable { id: 0, axis: 0 }),
            "{b:?}"
        );
        assert_eq!(
            c.try_insert([0.0, -1e12]),
            Err(ParamError::Unrepresentable { id: 0, axis: 1 }),
            "{b:?}"
        );
        assert_eq!(
            c.try_insert_batch(&[[0.0, 0.0], [1e5, 1e5], [5e11, 1.0]]),
            Err(ParamError::Unrepresentable { id: 2, axis: 0 }),
            "{b:?}: the first offending row is named"
        );
        assert_eq!(c.len(), 0, "{b:?}: rejected rows must not be inserted");
        // The paper's data space stays well inside the bound.
        let ids = c.try_insert_batch(&[[1e5, 1e5], [1e5 + 0.5, 1e5]]).unwrap();
        assert!(c.group_by(&ids).same_cluster(ids[0], ids[1]), "{b:?}");
    }
}

#[test]
fn facade_rejects_unrepresentable_rows() {
    let mut c = DbscanBuilder::new(1.0, 2).build_dyn(2).unwrap();
    assert_eq!(
        c.try_insert_batch(HUGE_PAIR.as_flattened()),
        Err(ParamError::Unrepresentable { id: 0, axis: 0 })
    );
    let mut c3 = DbscanBuilder::new(1.0, 2).build_dyn(3).unwrap();
    assert_eq!(
        c3.try_insert(&[0.0, 0.0, -1e12]),
        Err(ParamError::Unrepresentable { id: 0, axis: 2 })
    );
    assert_eq!(
        c3.try_insert_batch(&[0.0, 0.0, 0.0, 1.0, 5e11, 1.0]),
        Err(ParamError::Unrepresentable { id: 1, axis: 1 })
    );
    assert!(c.is_empty() && c3.is_empty());
}

#[test]
#[should_panic(expected = "point 0 has a coordinate on axis 0 too large for the grid")]
fn plain_insert_panics_on_unrepresentable_rows() {
    let mut c = DbscanBuilder::new(1.0, 2).build::<2>().unwrap();
    c.insert(HUGE_PAIR[0]);
}
