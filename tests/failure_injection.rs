//! Failure injection and adversarial edge cases across the public API:
//! degenerate parameters, boundary-sitting coordinates, duplicate points,
//! mass deletion, stale ids, and tiny/empty datasets.

use dydbscan::core::full::FullDynDbscan;
use dydbscan::geom::SplitMix64;
use dydbscan::{
    brute_force_exact, relabel, DynamicClusterer, IncDbscan, Params, PointId, SemiDynDbscan,
};

#[test]
#[should_panic(expected = "eps must be positive")]
fn rejects_nan_eps() {
    Params::new(f64::NAN, 3);
}

#[test]
#[should_panic(expected = "rho")]
fn rejects_negative_rho() {
    Params::new(1.0, 3).with_rho(-0.1);
}

#[test]
#[should_panic(expected = "insertion-only")]
fn semi_dynamic_rejects_deletion_via_public_contract() {
    // The public trait surfaces the paper's regime restriction loudly.
    use dydbscan::{Algorithm, DbscanBuilder};
    let mut semi = DbscanBuilder::new(1.0, 2)
        .algorithm(Algorithm::SemiDynamic)
        .build::<2>()
        .expect("valid configuration");
    assert!(!semi.supports_deletion());
    let id = semi.insert([0.0, 0.0]);
    semi.delete(id);
}

#[test]
#[should_panic(expected = "deleted")]
fn query_of_deleted_point_panics() {
    let mut algo = FullDynDbscan::<2>::new(Params::new(1.0, 2));
    let id = algo.insert([0.0, 0.0]);
    algo.delete(id);
    let _ = algo.group_by(&[id]);
}

#[test]
fn points_exactly_on_cell_boundaries() {
    // side = eps / sqrt(2); craft points that land exactly on integer
    // multiples of the side so cell assignment edges are exercised.
    let eps = std::f64::consts::SQRT_2; // side = 1.0 exactly
    let params = Params::new(eps, 2);
    let pts: Vec<[f64; 2]> = vec![
        [0.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 1.0],
        [2.0, 2.0],
        [-1.0, -1.0],
        [-1.0, 0.0],
    ];
    let mut algo = FullDynDbscan::<2>::new(params);
    let ids: Vec<PointId> = pts.iter().map(|p| algo.insert(*p)).collect();
    let got = algo.group_all();
    let want = relabel(&brute_force_exact(&pts, &params), &ids);
    assert_eq!(got, want);
    // delete the boundary points and re-check
    for &id in &ids[..3] {
        algo.delete(id);
    }
    let got = algo.group_all();
    let want = relabel(&brute_force_exact(&pts[3..], &params), &ids[3..]);
    assert_eq!(got, want);
}

#[test]
fn negative_and_mixed_sign_coordinates() {
    let params = Params::new(1.0, 3);
    let mut rng = SplitMix64::new(77);
    let pts: Vec<[f64; 2]> = (0..200)
        .map(|_| [rng.next_f64() * 10.0 - 5.0, rng.next_f64() * 10.0 - 5.0])
        .collect();
    let mut algo = FullDynDbscan::<2>::new(params);
    let ids: Vec<PointId> = pts.iter().map(|p| algo.insert(*p)).collect();
    assert_eq!(
        algo.group_all(),
        relabel(&brute_force_exact(&pts, &params), &ids)
    );
}

#[test]
fn many_duplicates_of_one_location() {
    // MinPts-fold duplicates must become one cluster; deletion below the
    // threshold must dissolve it.
    let params = Params::new(0.5, 10);
    let mut algo = FullDynDbscan::<2>::new(params);
    let ids: Vec<PointId> = (0..12).map(|_| algo.insert([3.0, 3.0])).collect();
    let g = algo.group_all();
    assert_eq!(g.groups.len(), 1);
    assert_eq!(g.groups[0].len(), 12);
    for &id in &ids[..3] {
        algo.delete(id);
    }
    let g = algo.group_all();
    assert!(g.groups.is_empty(), "9 < MinPts=10 duplicates are noise");
    assert_eq!(g.noise.len(), 9);
}

#[test]
fn minpts_one_single_point_clusters() {
    let mut algo = FullDynDbscan::<2>::new(Params::new(1.0, 1));
    let a = algo.insert([0.0, 0.0]);
    let g = algo.group_by(&[a]);
    assert_eq!(g.groups, vec![vec![a]]);
    assert!(g.noise.is_empty());
    algo.delete(a);
    assert!(algo.is_empty());
}

#[test]
fn huge_min_pts_everything_noise() {
    let mut algo = FullDynDbscan::<2>::new(Params::new(5.0, 1_000));
    let ids: Vec<PointId> = (0..50)
        .map(|i| algo.insert([i as f64 * 0.1, 0.0]))
        .collect();
    let g = algo.group_all();
    assert!(g.groups.is_empty());
    assert_eq!(g.noise.len(), ids.len());
}

#[test]
fn interleaved_delete_reinsert_same_coordinates() {
    // Ids are never reused; repeated delete/reinsert at identical coords
    // exercises the grid's cell drain/refill and the aBCP log tombstones.
    let params = Params::new(1.0, 3).with_rho(0.001);
    let mut algo = FullDynDbscan::<2>::new(params);
    let mut current: Vec<PointId> = Vec::new();
    for round in 0..20 {
        for k in 0..9 {
            current.push(algo.insert([(k % 3) as f64 * 0.4, (k / 3) as f64 * 0.4]));
        }
        let g = algo.group_all();
        assert_eq!(g.groups.len(), 1, "round {round}");
        // delete in FIFO order, half the points
        for id in current.drain(..5) {
            algo.delete(id);
        }
    }
    algo.validate_invariants();
}

#[test]
fn empty_query_returns_empty_result() {
    let mut algo = FullDynDbscan::<2>::new(Params::new(1.0, 2));
    algo.insert([0.0, 0.0]);
    let g = algo.group_by(&[]);
    assert!(g.groups.is_empty() && g.noise.is_empty());
}

#[test]
fn incdbscan_boundary_and_duplicates() {
    let params = Params::new(1.0, 4);
    let mut inc = IncDbscan::<2>::new(params);
    let ids: Vec<PointId> = (0..8).map(|_| inc.insert([1.0, 1.0])).collect();
    assert_eq!(inc.group_all().groups.len(), 1);
    for id in ids {
        inc.delete(id);
    }
    assert!(inc.is_empty());
    // boundary-ish coordinates
    let pts: Vec<[f64; 2]> = vec![[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.5, 0.0], [1.5, 0.0]];
    let ids: Vec<PointId> = pts.iter().map(|p| inc.insert(*p)).collect();
    let want = relabel(&brute_force_exact(&pts, &params), &ids);
    assert_eq!(inc.group_all(), want);
}

#[test]
fn extreme_coordinates_far_apart() {
    // large magnitudes must not overflow cell coordinates (i32 grid keys)
    let params = Params::new(1_000.0, 2);
    let mut algo = FullDynDbscan::<2>::new(params);
    let a = algo.insert([1.0e9, -1.0e9]);
    let b = algo.insert([1.0e9 + 500.0, -1.0e9]);
    let c = algo.insert([-1.0e9, 1.0e9]);
    let g = algo.group_by(&[a, b, c]);
    assert!(g.same_cluster(a, b));
    assert!(g.is_noise(c));
}

#[test]
fn semi_dynamic_massive_duplicate_then_spread() {
    let params = Params::new(1.0, 5).with_rho(0.01);
    let mut semi = SemiDynDbscan::<3>::new(params);
    for _ in 0..30 {
        semi.insert([0.0, 0.0, 0.0]);
    }
    let mut rng = SplitMix64::new(3);
    for _ in 0..100 {
        semi.insert(std::array::from_fn(|_| rng.next_f64() * 3.0));
    }
    let g = semi.group_all();
    assert!(g.num_groups() >= 1);
    // the duplicate pile must be one cluster with all 30 members together
    let dup_groups = g.groups_of(0);
    assert_eq!(dup_groups.len(), 1);
}
