//! End-to-end runs of the paper's own workload generator (Section 8.1)
//! through every algorithm, checking the *answers* (not just the speed):
//! the experiments' stringent requirement is that ρ-double-approximate
//! DBSCAN with `rho = 0.001` returns exactly the clusters of its
//! ρ-approximate counterpart.

use dydbscan::core::full::FullDynDbscan;
use dydbscan::{
    relabel, static_cluster, DynamicClusterer, IncDbscan, Op, Params, PointId, SemiDynDbscan,
    WorkloadSpec,
};

const EPS: f64 = 200.0; // 100 * d with d = 2
const MIN_PTS: usize = 10;

#[test]
fn semi_dynamic_workload_queries_match_incdbscan() {
    // rho = 0: Semi-Exact and IncDBSCAN are both exact; every C-group-by
    // query in the workload must coincide.
    let w = WorkloadSpec::semi(2_000, 5).build::<2>();
    let params = Params::new(EPS, MIN_PTS);
    let mut semi = SemiDynDbscan::<2>::new(params);
    let mut inc = IncDbscan::<2>::new(params);
    let mut ids: Vec<PointId> = Vec::new();
    let mut n_checked = 0;
    for op in &w.ops {
        match op {
            Op::Insert(p) => {
                let a = semi.insert(*p);
                let b = inc.insert(*p);
                assert_eq!(a, b);
                ids.push(a);
            }
            Op::Delete(_) => unreachable!("semi workload"),
            Op::Query(ordinals) => {
                let q: Vec<PointId> = ordinals.iter().map(|&o| ids[o as usize]).collect();
                assert_eq!(semi.group_by(&q), inc.group_by(&q));
                n_checked += 1;
            }
        }
    }
    assert!(n_checked > 10, "workload produced only {n_checked} queries");
}

#[test]
fn fully_dynamic_workload_queries_match_incdbscan() {
    let w = WorkloadSpec::full(2_400, 6).build::<2>();
    let params = Params::new(EPS, MIN_PTS);
    let mut full = FullDynDbscan::<2>::new(params);
    let mut inc = IncDbscan::<2>::new(params);
    let mut ids: Vec<PointId> = Vec::new();
    let mut n_checked = 0;
    for op in &w.ops {
        match op {
            Op::Insert(p) => {
                let a = full.insert(*p);
                let b = inc.insert(*p);
                assert_eq!(a, b);
                ids.push(a);
            }
            Op::Delete(o) => {
                full.delete(ids[*o as usize]);
                inc.delete(ids[*o as usize]);
            }
            Op::Query(ordinals) => {
                let q: Vec<PointId> = ordinals.iter().map(|&o| ids[o as usize]).collect();
                assert_eq!(full.group_by(&q), inc.group_by(&q), "query #{n_checked}");
                n_checked += 1;
            }
        }
    }
    assert!(n_checked > 10);
}

#[test]
fn double_approx_equals_rho_approx_on_paper_workload() {
    // The Section 8 requirement, verbatim: with rho = 0.001,
    // Double-Approx must return precisely the rho-approximate clusters.
    let w = WorkloadSpec::full(3_000, 7).build::<2>();
    let params = Params::new(EPS, MIN_PTS).with_rho(0.001);
    let mut algo = FullDynDbscan::<2>::new(params);
    let mut ids: Vec<PointId> = Vec::new();
    let mut alive: Vec<(PointId, [f64; 2])> = Vec::new();
    for op in &w.ops {
        match op {
            Op::Insert(p) => {
                let id = algo.insert(*p);
                ids.push(id);
                alive.push((id, *p));
            }
            Op::Delete(o) => {
                let id = ids[*o as usize];
                algo.delete(id);
                let pos = alive.iter().position(|&(i, _)| i == id).unwrap();
                alive.swap_remove(pos);
            }
            Op::Query(_) => {}
        }
    }
    let pts: Vec<[f64; 2]> = alive.iter().map(|&(_, p)| p).collect();
    let aids: Vec<PointId> = alive.iter().map(|&(i, _)| i).collect();
    let got = algo.group_all();
    let want = relabel(&static_cluster(&pts, &params), &aids);
    assert_eq!(got, want, "double-approx must equal rho-approximate");
    // invariant audit on the final state
    algo.validate_invariants();
}

#[test]
fn workload_runs_in_three_and_five_dims() {
    for seed in [8u64, 9] {
        let w = WorkloadSpec::full(1_200, seed).build::<3>();
        let params = Params::new(300.0, MIN_PTS).with_rho(0.001);
        let mut algo = FullDynDbscan::<3>::new(params);
        let mut ids: Vec<PointId> = Vec::new();
        for op in &w.ops {
            match op {
                Op::Insert(p) => ids.push(algo.insert(*p)),
                Op::Delete(o) => algo.delete(ids[*o as usize]),
                Op::Query(ordinals) => {
                    let q: Vec<PointId> = ordinals.iter().map(|&o| ids[o as usize]).collect();
                    let _ = algo.group_by(&q);
                }
            }
        }
        algo.validate_invariants();
    }
    let w = WorkloadSpec::full(800, 10).build::<5>();
    let params = Params::new(500.0, MIN_PTS).with_rho(0.001);
    let mut algo = FullDynDbscan::<5>::new(params);
    let mut ids: Vec<PointId> = Vec::new();
    for op in &w.ops {
        match op {
            Op::Insert(p) => ids.push(algo.insert(*p)),
            Op::Delete(o) => algo.delete(ids[*o as usize]),
            Op::Query(ordinals) => {
                let q: Vec<PointId> = ordinals.iter().map(|&o| ids[o as usize]).collect();
                let _ = algo.group_by(&q);
            }
        }
    }
    algo.validate_invariants();
}
